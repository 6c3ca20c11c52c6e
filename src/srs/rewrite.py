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

A ``RewriteStep`` is the only code that rewrites a word: it computes its
target once, when it checks its match, and everything else (paths,
normalization, the path algebra, completion) reads that target.  A ``Path``
checks only its joints, that each step starts where the previous one ended.
"""

from __future__ import annotations

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
        source, rule, pos, sign = self.source, self.rule, self.pos, self.sign
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if pos < 0:
            raise MatchError(f"negative position {pos}")
        factor, replacement = (rule.lhs, rule.rhs) if sign > 0 else (rule.rhs, rule.lhs)
        end = pos + len(factor)
        if source[pos:end] != factor or pos > len(source):
            side = "lhs" if sign > 0 else "rhs"
            raise MatchError(
                f"{side} of rule {rule.rule_id} does not occur at "
                f"position {pos} of {''.join(source) or 'ε'!r}"
            )
        object.__setattr__(self, "target", source[:pos] + replacement + source[end:])

    @property
    def matched(self) -> Word:
        return self.rule.lhs if self.sign > 0 else self.rule.rhs

    @property
    def replacement(self) -> Word:
        return self.rule.rhs if self.sign > 0 else self.rule.lhs


def apply_step(step: RewriteStep) -> Word:
    """The target word of a step."""
    return step.target


@dataclass(frozen=True, slots=True)
class Path:
    """A chain of rewriting steps starting at ``base``.

    Consecutive steps must chain (each step's source is the previous
    target); construction checks these joints, and reads each step's
    target rather than rewriting again.  The empty path at a word is the
    identity.  See the track module for the algebra on paths.
    """

    base: Word
    steps: tuple[RewriteStep, ...] = ()
    target: Word = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        current = self.base
        for step in self.steps:
            if step.source != current:
                raise ValueError(
                    f"step {step.rule.rule_id}@{step.pos} starts at "
                    f"{''.join(step.source) or 'ε'}, expected {''.join(current) or 'ε'}"
                )
            current = step.target
        object.__setattr__(self, "target", current)

    @property
    def is_closed(self) -> bool:
        return self.base == self.target

    def __len__(self) -> int:
        return len(self.steps)


def _rules_at(w: Word, pos: int, trie: LhsTrie) -> list[int]:
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


def first_redex(w: Word, p: Presentation, start: int = 0) -> Redex | None:
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
    window = p.lhs_trie.depth - 1
    steps: list[RewriteStep] = []
    current = w
    remaining = fuel
    start = 0
    while True:
        redex = first_redex(current, p, start)
        if redex is None:
            break
        if remaining <= 0:
            raise FuelError(
                f"no normal form within {fuel} steps from {''.join(w) or 'ε'!r}"
            )
        remaining -= 1
        step = RewriteStep(current, redex.rule, redex.pos, 1)
        steps.append(step)
        current = step.target
        start = max(0, redex.pos - window)
    return current, Path(w, tuple(steps))


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
