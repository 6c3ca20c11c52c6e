"""Exception types shared across the package."""

from __future__ import annotations


class RewritingError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RewritingError):
    """Malformed textual input (presentation files, words, paths, maps)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            # every check reads a whole line, so the text names its first column
            message = f"line {line}, col 1: {message}"
        super().__init__(message)


class MatchError(RewritingError):
    """A rule side does not occur at the claimed position of a word."""


class FuelError(RewritingError):
    """An iteration budget was exhausted before the computation finished."""


class BoundaryError(RewritingError):
    """Two cells were combined whose endpoints do not meet."""


class DisjointnessError(RewritingError):
    """An exchange was requested for steps whose factors overlap."""


class NotTerminatingError(RewritingError):
    """An operation requiring a termination certificate was refused."""


class NotConvergentError(RewritingError):
    """An operation requiring a convergence certificate was refused."""


class NotJoinableError(RewritingError):
    """A critical branching completes to two distinct normal forms."""

    def __init__(self, branching, left_nf, right_nf):
        self.branching = branching
        self.left_nf = left_nf
        self.right_nf = right_nf
        super().__init__(
            f"branching on {''.join(branching.overlap)!r} is not joinable"
        )


class UnorientableError(RewritingError):
    """An equation whose sides the reduction order cannot separate."""


class TranslationError(RewritingError):
    """A translation map is structurally unusable (missing or unknown names)."""
