"""One-step rewriting, normalization, and the word problem.

The deterministic normalization strategy used everywhere is: leftmost
position first, then lowest rule index.  Fixing the strategy makes every
downstream certificate (confluence bases, decompositions, transported
generators) reproducible.

Every redex scan walks one index: the trie of all left-hand sides that
``Presentation.lhs_trie`` builds once per presentation.  The walk from a
position follows the word letter by letter and collects the rules whose
left-hand sides end at the nodes it passes, so it stops after at most as
many letters as the longest left-hand side.  No failure links are needed:
``normalize`` restarts its scan near the last step instead of at the start
of the word (see there), which bounds the positions it rescans.

A path is its base word plus a tuple of moves, ``(rule, pos, sign)``
triples: every word along it follows from those, so a stored path holds
two words (its base and its target) however many steps it has.  One
function, ``_rewrite``, rewrites a word: in place, on a list, after
checking that the factor it replaces occurs there.  Building a path replays
its moves on one working word, which checks the path and yields its target;
``Path.walk`` replays them again for the consumers that need each step's
source word, and ``Path.steps`` builds ``RewriteStep`` values (and keeps
them) only when asked for; in the library only a path's hash and repr ask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import FuelError, MatchError, NotConvergentError
from .presentation import (
    LhsTrie,
    OrderSpec,
    Presentation,
    Rule,
    ValidationReport,
    Word,
    validate,
)

DEFAULT_FUEL = 10**6


@dataclass(frozen=True)
class Redex:
    """An occurrence of a rule's left-hand side in a word."""

    rule: Rule
    pos: int

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id


Move = tuple[Rule, int, int]
"""A signed, positioned rule application without its word: (rule, pos, sign)."""


def _rewrite(word: list[str], rule: Rule, pos: int, sign: int) -> None:
    """Apply the move ``(rule, pos, sign)`` to ``word`` in place.

    Sign +1 replaces the lhs by the rhs at ``pos``; sign -1 replaces the rhs
    by the lhs.  Raises MatchError, leaving ``word`` unchanged, when the
    factor to replace does not occur at ``pos``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if pos < 0:
        raise MatchError(f"negative position {pos}")
    factor, replacement = (rule.lhs, rule.rhs) if sign > 0 else (rule.rhs, rule.lhs)
    end = pos + len(factor)
    if pos > len(word) or tuple(word[pos:end]) != factor:
        side = "lhs" if sign > 0 else "rhs"
        raise MatchError(
            f"{side} of rule {rule.rule_id} does not occur at "
            f"position {pos} of {''.join(word) or 'ε'!r}"
        )
    word[pos:end] = replacement


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """A signed, positioned rule application with its own source word.

    Sign +1 replaces the lhs by the rhs at ``pos``; sign -1 replaces the
    rhs by the lhs.  The match is checked at construction, so a step value
    is always applicable, and the target word is computed then, once; it
    takes no part in equality, hashing or the repr.
    """

    source: Word
    rule: Rule
    pos: int
    sign: int
    target: Word = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        word = list(self.source)
        _rewrite(word, self.rule, self.pos, self.sign)
        object.__setattr__(self, "target", tuple(word))

    @property
    def matched(self) -> Word:
        return self.rule.lhs if self.sign > 0 else self.rule.rhs

    @property
    def replacement(self) -> Word:
        return self.rule.rhs if self.sign > 0 else self.rule.lhs


def apply_step(step: RewriteStep) -> Word:
    """The target word of a step."""
    return step.target


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Path:
    """A base word and the moves ``(rule, pos, sign)`` applied from it.

    Every path is checked when it is built: ``Path.from_moves`` replays the
    moves on one working word, and ``Path(base, steps)`` checks that each
    ``RewriteStep`` starts where the previous one ended.  The target is
    computed then, once; it takes no part in equality, hashing or the repr.
    Equality compares base and moves; the hash and the repr are those of
    ``(base, steps)``.  The empty path at a word is the identity.  See the
    track module for the algebra on paths.
    """

    base: Word
    moves: tuple[Move, ...]
    target: Word = field(init=False, repr=False, compare=False)
    _steps: tuple[RewriteStep, ...] | None = field(init=False, repr=False, compare=False)

    def __init__(self, base: Word, steps: Iterable[RewriteStep] = ()):
        current = base
        moves: list[Move] = []
        for step in steps:
            if step.source != current:
                raise ValueError(
                    f"step {step.rule.rule_id}@{step.pos} starts at "
                    f"{''.join(step.source) or 'ε'}, expected {''.join(current) or 'ε'}"
                )
            moves.append((step.rule, step.pos, step.sign))
            current = step.target
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "moves", tuple(moves))
        object.__setattr__(self, "target", current)
        object.__setattr__(self, "_steps", None)

    @classmethod
    def from_moves(cls, base: Word, moves: Iterable[Move]) -> Path:
        """The path from ``base`` along ``moves``, checked by replaying them
        in order; a move that does not match raises MatchError."""
        word = list(base)
        checked: list[Move] = []
        for move in moves:
            _rewrite(word, *move)
            checked.append(move)
        path = cls.__new__(cls)
        object.__setattr__(path, "base", base)
        object.__setattr__(path, "moves", tuple(checked))
        object.__setattr__(path, "target", tuple(word))
        object.__setattr__(path, "_steps", None)
        return path

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        """The moves as ``RewriteStep``s, each starting at the previous
        one's target.  Built on the first access and then kept, so that
        reads of one path share their words; in the library only the hash
        and the repr read them, so the paths it builds and caches hold no
        word per step."""
        if self._steps is None:
            steps: list[RewriteStep] = []
            current = self.base
            for move in self.moves:
                steps.append(RewriteStep(current, *move))
                current = steps[-1].target
            object.__setattr__(self, "_steps", tuple(steps))
        return self._steps

    def walk(self) -> Iterator[tuple[Word, Rule, int, int]]:
        """Each move as ``(source, rule, pos, sign)``, with the word it
        starts at, in order."""
        word = list(self.base)
        for rule, pos, sign in self.moves:
            yield tuple(word), rule, pos, sign
            _rewrite(word, rule, pos, sign)

    @property
    def is_closed(self) -> bool:
        return self.base == self.target

    def __len__(self) -> int:
        return len(self.moves)

    def __hash__(self) -> int:
        return hash((self.base, self.steps))

    def __repr__(self) -> str:
        return f"Path(base={self.base!r}, steps={self.steps!r})"


def _rules_at(w: Sequence[str], pos: int, trie: LhsTrie) -> list[int]:
    """Indices of the rules whose left-hand side occurs in ``w`` at ``pos``,
    in the order the trie walk meets them."""
    edges, ends = trie.edges, trie.ends
    node = 0
    found: list[int] = []
    for i in range(pos, len(w)):
        node = edges[node].get(w[i])
        if node is None:
            break
        found += ends[node]
    return found


def first_redex(w: Sequence[str], p: Presentation, start: int = 0) -> Redex | None:
    """The leftmost redex of ``w`` at or after position ``start``, lowest
    rule index first; None when no left-hand side occurs there."""
    if start < 0:
        raise ValueError(f"negative start {start}")
    trie = p.lhs_trie
    for pos in range(start, len(w)):
        found = _rules_at(w, pos, trie)
        if found:
            return Redex(p.rules[min(found)], pos)
    return None


def find_redexes(w: Word, p: Presentation) -> tuple[Redex, ...]:
    """All rule occurrences in ``w``, sorted by position then rule index.

    Empty exactly when ``w`` is a normal form.
    """
    trie = p.lhs_trie
    return tuple(
        Redex(p.rules[index], pos)
        for pos in range(len(w))
        for index in sorted(_rules_at(w, pos, trie))
    )


def normalize(w: Word, p: Presentation, fuel: int = DEFAULT_FUEL) -> tuple[Word, Path]:
    """Reduce ``w`` to a normal form with the leftmost-lowest strategy.

    Returns the normal form and the canonical reduction path.  ``fuel``
    bounds the number of steps; exceeding it raises FuelError rather than
    truncating silently (relevant only when termination was not certified).

    After a step at ``pos`` the scan restarts at ``pos - d + 1`` (not below
    0), where ``d`` is the length of the longest left-hand side, instead of
    at 0.  This finds the same redex as a scan of the whole word: before the
    step no redex started left of ``pos``, and the step left the prefix
    before ``pos`` unchanged, so a redex starting at ``q`` must reach into
    the rewritten factor, ``q + d > pos``.  The steps, the point where fuel
    runs out and the path are therefore those of a full rescan, while the
    scanning cost grows with the number of steps rather than with steps times word
    length times rules.
    """
    trie = p.lhs_trie
    window = trie.depth - 1
    word = list(w)
    moves: list[Move] = []
    remaining = fuel
    start = 0
    while True:
        # the scan of first_redex, without building a Redex per step
        for pos in range(start, len(word)):
            found = _rules_at(word, pos, trie)
            if found:
                break
        else:
            break
        if remaining <= 0:
            raise FuelError(
                f"no normal form within {fuel} steps from {''.join(w) or 'ε'!r}"
            )
        remaining -= 1
        move = (p.rules[min(found)], pos, 1)
        _rewrite(word, *move)
        moves.append(move)
        start = max(0, pos - window)
    path = Path.from_moves(w, moves)
    return path.target, path


@lru_cache(maxsize=None)
def normal_path(p: Presentation, w: Word) -> Path:
    """Cached canonical reduction path of ``w`` (default fuel)."""
    return normalize(w, p)[1]


def normal_form(p: Presentation, w: Word) -> Word:
    return normal_path(p, w).target


@dataclass(frozen=True)
class TerminationCertificate:
    """Records the order used and any rules it fails to orient."""

    order: "OrderSpec"
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_termination(p: Presentation) -> TerminationCertificate:
    """Certify termination via the presentation's reduction order.

    Succeeds exactly when every rule decreases under the order; since the
    order is total, well-founded and compatible with concatenation on both
    sides, this certifies that no infinite reduction sequence exists.
    """
    report: ValidationReport = validate(p)
    return TerminationCertificate(p.order, report.offending)


def words_equal(u: Word, v: Word, p: Presentation, cert=None) -> bool:
    """Decide equality in the presented monoid via normal forms.

    Requires a convergence certificate (computed and cached if not
    supplied); raises NotConvergentError otherwise.
    """
    if cert is None:
        from .critical import is_convergent

        cert = is_convergent(p)
    if not cert.ok:
        raise NotConvergentError(
            "word problem needs a convergent presentation; run completion first"
        )
    return normal_form(p, u) == normal_form(p, v)
