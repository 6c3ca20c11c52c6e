"""Critical branchings, generating confluences, convergence and the word problem.

Two rule occurrences in the same word either act on disjoint factors (and
then commute by exchange) or overlap; the minimal overlaps are the
critical branchings.  A terminating presentation is locally confluent
exactly when every critical branching completes to a common normal form,
and then confluent by Newman's lemma.  One pass completes each branching
into one outcome, its generating confluence or its failure: the report of
these outcomes is what ``srs critical-pairs`` prints, and ``abelian`` reads
the basis of identities among relations from it.

Once a presentation is certified convergent (``_require_convergent``),
``normal_form`` reads its normal forms letter by letter through one table
of its classes (``_classes``), which keeps a row per class, not every word;
the footprints and basis representations of ``abelian`` read it too.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property

from .errors import FuelError, NotConvergentError, NotTerminatingError
from .presentation import IndexAutomaton, Presentation, Rule, Word
from .rewrite import (
    DEFAULT_FUEL,
    Path,
    TerminationCertificate,
    _matches,
    _reduce,
    check_termination,
    normalize,
)
from .track import _free_reduced

PROPER = "proper-overlap"
CONTAINMENT = "containment"


@dataclass(frozen=True)
class CriticalBranching:
    """A minimal overlap of two rule left-hand sides.

    ``rule1`` matches the overlap word at position 0; ``rule2`` matches at
    ``offset``.  For a proper overlap the two sides stick out of each
    other; for a containment rule2's lhs sits inside rule1's.
    """

    rule1: Rule
    rule2: Rule
    offset: int
    overlap: Word
    kind: str

    @property
    def redexes(self) -> tuple[tuple[str, int], tuple[str, int]]:
        return (self.rule1.rule_id, 0), (self.rule2.rule_id, self.offset)

    @cached_property
    def targets(self) -> tuple[Word, Word]:
        """The words that rule1's and rule2's redexes rewrite the overlap to."""
        w, r1, r2, off = self.overlap, self.rule1, self.rule2, self.offset
        return r1.rhs + w[len(r1.lhs) :], w[:off] + r2.rhs + w[off + len(r2.lhs) :]


def _overlaps(l1: Word, l2: Word, same_rule: bool) -> tuple[tuple[int, Word, str], ...]:
    """The (offset, overlap word, kind) of every overlap of ``l2`` on ``l1``,
    by offset.  Containments sit at offsets up to ``len(l1) - len(l2)`` and
    proper overlaps above it, so no offset has both kinds."""
    found = []
    # containments: l2 occurs inside l1 (a rule against itself at 0 excluded)
    for off in range(len(l1) - len(l2) + 1):
        if l1[off : off + len(l2)] == l2 and not (same_rule and off == 0):
            found.append((off, l1, CONTAINMENT))
    # proper overlaps: a suffix of l1 is a prefix of l2 sticking out
    for off in range(max(1, len(l1) - len(l2) + 1), len(l1)):
        k = len(l1) - off
        if l1[off:] == l2[:k]:
            found.append((off, l1 + l2[k:], PROPER))
    return tuple(found)


def _pair_branchings(r1: Rule, r2: Rule, i: int, j: int) -> list[CriticalBranching]:
    """The critical branchings of ``r1`` at place ``i`` in the rule order
    against ``r2`` at place ``j``, by offset.  Only two rules with the same
    lhs meet at offset 0 in both orders (each contains the other at 0), so
    the second of those, ``i > j``, is skipped."""
    return [
        CriticalBranching(r1, r2, *o)
        for o in _overlaps(r1.lhs, r2.lhs, i == j)
        if o[0] or i < j or r1.lhs != r2.lhs
    ]


def critical_branchings(p: Presentation) -> tuple[CriticalBranching, ...]:
    """All critical branchings, each unordered redex pair reported once, in
    the order (rule1 index, rule2 index, offset).

    Completion builds the same branchings pair by pair (``_pair_branchings``)
    as its walk reaches them, and stops at its first unjoinable one instead
    of listing them all.
    """
    rules = p.rules
    return tuple(
        b
        for i, r1 in enumerate(rules)
        for j, r2 in enumerate(rules)
        for b in _pair_branchings(r1, r2, i, j)
    )


@dataclass(frozen=True)
class GeneratingConfluence:
    """A completed critical branching and its boundary loop.

    ``step1``/``step2`` are the branching's two one-step paths from the
    overlap word; ``completion1``/``completion2`` are their canonical
    normalizations.  The loop is the free-reduced boundary
    (step1 ⁎ completion1) ⁎ (step2 ⁎ completion2)⁻, closed at the overlap.
    """

    branching: CriticalBranching
    step1: Path
    step2: Path
    completion1: Path
    completion2: Path
    loop: Path


@dataclass(frozen=True)
class BranchingFailure:
    """A critical branching whose sides reach distinct normal forms."""

    branching: CriticalBranching
    left_nf: Word
    right_nf: Word


def generating_confluence(
    b: CriticalBranching, p: Presentation, fuel: int = DEFAULT_FUEL
) -> GeneratingConfluence | BranchingFailure:
    """Complete both branches with the canonical strategy, each within
    ``fuel`` steps (FuelError past that), into the branching's generating
    confluence, or its failure when they reach distinct normal forms."""
    # both redexes occur in the overlap, which is built from them
    step1 = Path._derived(b.overlap, [(b.rule1, 0, 1)], b.targets[0])
    step2 = Path._derived(b.overlap, [(b.rule2, b.offset, 1)], b.targets[1])
    completion1 = normalize(step1.target, p, fuel)[1]
    completion2 = normalize(step2.target, p, fuel)[1]
    if completion1.target != completion2.target:
        return BranchingFailure(b, completion1.target, completion2.target)
    back = [(rule, pos, -sign) for rule, pos, sign in reversed(step2.moves + completion2.moves)]
    # free-reduced moves of checked completions, closed at the overlap
    moves = _free_reduced(step1.moves + completion1.moves + tuple(back))
    loop = Path._derived(b.overlap, moves, b.overlap)
    return GeneratingConfluence(b, step1, step2, completion1, completion2, loop)


@dataclass(frozen=True)
class LocalConfluenceReport:
    """The outcome of every critical branching, in canonical order: its
    generating confluence, or its failure."""

    outcomes: tuple[GeneratingConfluence | BranchingFailure, ...]

    @cached_property
    def failures(self) -> tuple[BranchingFailure, ...]:
        # built once: every precondition check reads ``ok``
        return tuple(o for o in self.outcomes if isinstance(o, BranchingFailure))

    @property
    def ok(self) -> bool:
        return not self.failures


def is_locally_confluent(p: Presentation, fuel: int = DEFAULT_FUEL) -> LocalConfluenceReport:
    """Complete every critical branching, each side within ``fuel`` steps.
    Non-critical local branchings commute by exchange or reduce to a
    containment, so need no check."""
    outcomes = tuple(generating_confluence(b, p, fuel) for b in critical_branchings(p))
    return LocalConfluenceReport(outcomes)


@dataclass(frozen=True)
class ConvergenceCertificate:
    termination: TerminationCertificate
    local_confluence: LocalConfluenceReport | None

    @property
    def ok(self) -> bool:
        return self.termination.ok and (
            self.local_confluence is not None and self.local_confluence.ok
        )


def is_convergent(p: Presentation) -> ConvergenceCertificate:
    """Termination by order plus local confluence of all critical branchings
    (hence confluence, by Newman's lemma for terminating systems)."""
    cert = p._cache.get("convergence")
    if cert is None:
        termination = check_termination(p)
        confluence = is_locally_confluent(p) if termination.ok else None
        cert = p._cache["convergence"] = ConvergenceCertificate(termination, confluence)
    return cert


def _require_convergent(p: Presentation) -> ConvergenceCertificate:
    """The precondition of the word problem, the basis and decomposition:
    the certificate, which then holds every generating confluence."""
    cert = is_convergent(p)
    if not cert.ok:
        raise NotConvergentError("presentation is not convergent; run 'complete' first")
    return cert


class _Classes:
    """The classes of a convergent presentation, read letter by letter.

    ``words[c]`` is the normal form of class ``c``, ``ids`` maps it back to
    ``c``, and ``rows[c][x]`` is the class of ``words[c] + (x,)``; class 0
    is ε's.  In a convergent system nf(u·x) = nf(nf(u)·x), so reading a
    word folds its letters through the rows.  A missing transition costs
    one reduction of its class word plus the letter (default fuel) and adds
    at most one class.  A long word of an infinite monoid adds a class per
    prefix, as long as the prefix, so the class words hold at most
    ``DEFAULT_FUEL`` letters in all; past that ``form`` reduces a word
    whole.  Kept in ``p._cache``, the table holds the automaton, not ``p``.
    A fill holds the lock and publishes its row entry last, so threads may
    share the table.
    """

    def __init__(self, index: IndexAutomaton):
        self.index = index
        self.words: list[Word] = [()]
        self.ids: dict[Word, int] = {(): 0}
        self.rows: list[dict[str, int]] = [{}]
        self.letters = 0
        self._lock = threading.Lock()

    def read(self, w: Word, c: int = 0) -> int | None:
        """The class of ``words[c] + w``; None when it is not in the table
        and the table is full."""
        rows = self.rows
        for x in w:
            try:
                c = rows[c][x]
            except KeyError:
                c = self._fill(c, x)
                if c is None:
                    return None
        return c

    def form(self, w: Word) -> Word:
        """The normal form of ``w``."""
        c = self.read(w)
        return _reduce(w, self.index)[0] if c is None else self.words[c]

    def _fill(self, c: int, x: str) -> int | None:
        nf = _reduce(self.words[c] + (x,), self.index)[0]
        with self._lock:
            d = self.ids.get(nf)
            if d is None:
                if self.letters + len(nf) > DEFAULT_FUEL:
                    return None
                self.letters += len(nf)
                self.words.append(nf)
                self.rows.append({})
                d = self.ids[nf] = len(self.words) - 1
            self.rows[c][x] = d
        return d


def _classes(p: Presentation) -> _Classes:
    """The table of ``p``'s classes; raises NotConvergentError unless ``p``
    is certified convergent, so no other presentation gets one."""
    table = p._cache.get("classes")
    if table is None:
        _require_convergent(p)
        table = p._cache["classes"] = _Classes(p.index_automaton)
    return table


def normal_form(w: Word, p: Presentation) -> Word:
    """The normal form of ``w``, read through the table of ``p``'s classes;
    raises NotConvergentError unless ``p`` is certified convergent."""
    return _classes(p).form(w)


def words_equal(u: Word, v: Word, p: Presentation) -> bool:
    """Decide equality in the presented monoid via normal forms; raises
    NotConvergentError unless ``p`` is certified convergent."""
    return normal_form(u, p) == normal_form(v, p)


@dataclass(frozen=True)
class BruteForceReport:
    max_len: int
    counterexample: tuple[Word, Word, Word] | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def words_up_to(alphabet: tuple[str, ...], max_len: int):
    """All words over the alphabet of length at most max_len, shortest first.

    The exhaustive searches read every letter of every one of them, so more
    than ``DEFAULT_FUEL`` letters in all raise FuelError before the first
    word is yielded.  (A count of words would let one generator through
    with a bound near the fuel, and those words hold half a million million
    letters.)  ``brute_force_confluence`` also counts the letters of the
    reducts it visits from them.
    """
    lengths = range(max_len + 1 if alphabet else 1)  # over no letters only ε
    letters = itertools.accumulate(n * len(alphabet) ** n for n in lengths)
    if any(total > DEFAULT_FUEL for total in letters):
        raise FuelError(
            f"the words of length at most {max_len} over {len(alphabet)} generators "
            f"hold more than {DEFAULT_FUEL} letters, too many to search"
        )
    for n in lengths:
        yield from itertools.product(alphabet, repeat=n)


def brute_force_confluence(p: Presentation, max_len: int) -> BruteForceReport:
    """Exhaustive confluence oracle: for every word up to ``max_len``, every
    reduct must reach one single normal form.  Intended for small bounds on
    terminating presentations.  The letters of each word visited are counted
    once; past ``DEFAULT_FUEL`` in all it raises FuelError (under weights a
    reduct can outgrow its word, under shortlex it cannot)."""
    index, rules = p.index_automaton, p.rules
    nf_sets: dict[Word, frozenset[Word]] = {}
    letters = 0
    for root in words_up_to(p.generators, max_len):
        # depth first with an explicit stack, since reductions can be longer
        # than the interpreter's recursion limit; an entry's reducts are
        # listed on its first visit, in (position, rule index) order (which
        # decides the cycle a NotTerminatingError names), and its set is
        # formed on its second.  The stack keeps each distinct child once
        # and reads the children in the order it first read them when it
        # kept one entry per redex: by their last redex, from the right
        stack: list[tuple[Word, tuple[Word, ...] | None]] = [(root, None)]
        open_words: set[Word] = set()
        while stack:
            w, children = stack.pop()
            if w in nf_sets:
                continue
            if children is None:
                letters += len(w)
                if letters > DEFAULT_FUEL:
                    raise FuelError(
                        f"the reducts of the words up to {''.join(root) or 'ε'!r} hold "
                        f"more than {DEFAULT_FUEL} letters, too many to search"
                    )
                reducts = [
                    w[:pos] + rules[r].rhs + w[pos + len(rules[r].lhs) :]
                    for pos, r in sorted(_matches(w, index))
                ]
                cycle = next((c for c in reducts if c in open_words), None)
                if cycle is not None:
                    raise NotTerminatingError(
                        f"rewriting from {''.join(root) or 'ε'!r} returns to "
                        f"{''.join(cycle) or 'ε'!r}"
                    )
                children = tuple(dict.fromkeys(reversed(reducts)))
                open_words.add(w)
                stack.append((w, children))
                stack.extend((c, None) for c in reversed(children) if c not in nf_sets)
                continue
            open_words.discard(w)
            nf_sets[w] = (
                frozenset().union(*(nf_sets[c] for c in children))
                if children
                else frozenset((w,))
            )
        forms = sorted(nf_sets[root])
        if len(forms) > 1:
            return BruteForceReport(max_len, (root, forms[0], forms[1]))
    return BruteForceReport(max_len, None)
