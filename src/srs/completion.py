"""Knuth–Bendix completion with inter-reduction, and a bounded
congruence-equivalence check between presentations.

Completion repeatedly orients the normal forms of unjoinable critical
branchings into new rules, keeping the rule set inter-reduced (right-hand
sides normalized, rules with reducible left-hand sides collapsed).  The
output presents the same monoid and, when the procedure stops within its
budget, is convergent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FuelError, NotTerminatingError, UnorientableError
from .presentation import (
    GREATER,
    LESS,
    Presentation,
    Rule,
    Word,
    _weight,
    compare_words,
)
from .rewrite import _matches, _reduce, check_termination
# pinned by srsbench/tests/test_srsbench.py::test_tracing_srs_counts_and_restores
from .rewrite import normalize  # noqa: F401
from .critical import _branchings_in_order, words_up_to

DEFAULT_RULE_FUEL = 256


@dataclass(frozen=True)
class CompletionEvent:
    """One trace entry: an added, removed, or right-simplified rule."""

    kind: str  # "add" | "remove" | "simplify"
    rule_id: str
    lhs: Word
    rhs: Word
    overlap: Word | None = None


def _with_rules(p: Presentation, rules: list[Rule]) -> Presentation:
    return Presentation(p.generators, tuple(rules), p.order)


def _orient(p: Presentation, u: Word, v: Word) -> tuple[Word, Word]:
    cmp = compare_words(p.order, u, v)
    if cmp is GREATER:
        return u, v
    if cmp is LESS:
        return v, u
    raise UnorientableError(
        f"the order cannot orient {''.join(u) or 'ε'} = {''.join(v) or 'ε'}"
    )


def knuth_bendix(
    p: Presentation, fuel: int = DEFAULT_RULE_FUEL
) -> tuple[Presentation, tuple[CompletionEvent, ...]]:
    """Complete a terminating presentation into a convergent one.

    After every addition the critical branchings of the inter-reduced rule
    set are walked again in their canonical order (that of
    ``critical_branchings``), and the first one whose two sides reach
    distinct normal forms gives the next rule; the walk stops there, so the
    result is deterministic and only the branchings read are enumerated.
    The branchings of each pair of rules are built once per run and built
    again only when one of the two rules changes.

    A walk re-reads only what the rules added since the last walk can
    change.  An added rule can move a side's leftmost normal form, so a
    branching joinable under one rule set can be unjoinable under the next
    (on ``r1: a b a -> b a``, ``r2: b b -> b a``, the r1/r1 branching at
    ``a b a b a`` does so once ``b a b -> b a a`` is added).  But in an
    inter-reduced set the leftmost path from a word ``w`` changes only if an
    added left-hand side occurs in one of its words: as a new redex, or in
    the left-hand side of a rule used there (which is removed) or in its
    right-hand side (which is reduced).  No word on the path is heavier than
    ``w`` (``_weight``), so neither is that left-hand side.  Walks therefore
    keep their normal forms by weight and drop those at least as heavy as
    the lightest left-hand side added since; the rest keep their path,
    normal form and step count.  Only walks write the table, as
    ``simplify``'s rule sets are not inter-reduced; and ``simplify`` leaves
    alone a right-hand side lighter than every left-hand side added since
    the last walk, which for the same reason is irreducible.

    ``simplify`` does what a loop that starts again after each change does,
    in the same order, with one presentation per rule set.  A removal makes
    no other left-hand side reducible, so the collapse scan goes on at the
    same place with the presentation of the rest, which reduced the removed
    rule's sides; an added rule may occur in any left-hand side, so the
    scan starts again.  A left-hand side is reducible by the others when
    the automaton reads in it an occurrence other than its own rule's at 0
    (``_matches``).  Reducibility depends on the left-hand sides alone,
    so a reduced right-hand side removes no rule and leaves those read
    before it irreducible: one pass does.

    ``fuel`` bounds the number of added rules; exceeding it raises
    FuelError.  Every added rule's sides are congruent in the input
    presentation by construction.
    """
    if not check_termination(p).ok:
        raise NotTerminatingError("completion requires a terminating presentation")

    rules: list[Rule] = list(p.rules)
    trace: list[CompletionEvent] = []
    used_ids = {r.rule_id for r in rules}
    counter = itertools.count(1)
    added = 0
    # walk normal forms by weight, and the weight of the lightest lhs added
    # since the last walk (0 before the first: no right-hand side is skipped)
    forms: dict[int, dict[Word, Word]] = {}
    lightest = 0

    def fresh_id() -> str:
        while True:
            cand = f"kb{next(counter)}"
            if cand not in used_ids:
                used_ids.add(cand)
                return cand

    def add_rule(u: Word, v: Word, overlap: Word | None):
        nonlocal added, lightest
        lhs, rhs = _orient(p, u, v)
        added += 1
        if added > fuel:
            raise FuelError(f"completion did not finish within {fuel} added rules")
        lightest = min(lightest, _weight(p.order, lhs))
        rule = Rule(fresh_id(), lhs, rhs)
        rules.append(rule)
        trace.append(CompletionEvent("add", rule.rule_id, lhs, rhs, overlap))

    def simplify() -> Presentation:
        """Inter-reduce ``rules``; returns their presentation."""
        # collapse rules whose lhs the others reduce, one read of each lhs
        current = _with_rules(p, rules)
        idx = 0
        while idx < len(rules):
            if all(m == (0, idx) for m in _matches(rules[idx].lhs, current.index_automaton)):
                idx += 1
                continue
            rule = rules.pop(idx)
            current = _with_rules(p, rules)
            u = _reduce(rule.lhs, current)[0]
            trace.append(CompletionEvent("remove", rule.rule_id, rule.lhs, rule.rhs))
            v = _reduce(rule.rhs, current)[0]
            if u != v:
                add_rule(u, v, None)
                current = _with_rules(p, rules)
                idx = 0
        # normalize right-hand sides against the full set, in one pass
        for idx, rule in enumerate(rules):
            if _weight(p.order, rule.rhs) < lightest:
                continue
            rhs = _reduce(rule.rhs, current)[0]
            if rhs != rule.rhs:
                rules[idx] = Rule(rule.rule_id, rule.lhs, rhs)
                trace.append(CompletionEvent("simplify", rule.rule_id, rule.lhs, rhs))
                current = _with_rules(p, rules)
        return current

    def walk_normal_form(word: Word) -> Word:
        group = forms.setdefault(_weight(p.order, word), {})
        nf = group.get(word)
        if nf is None:
            nf = group[word] = _reduce(word, current)[0]
        return nf

    pairs: dict = {}
    current = simplify()
    while True:
        for weight in [k for k in forms if k >= lightest]:
            del forms[weight]
        lightest = float("inf")
        pending = None
        for b in _branchings_in_order(current, pairs):
            left, right = b.targets
            nf_left = walk_normal_form(left)
            nf_right = walk_normal_form(right)
            if nf_left != nf_right:
                pending = (nf_left, nf_right, b.overlap)
                break
        if pending is None:
            return current, tuple(trace)
        add_rule(pending[0], pending[1], pending[2])
        current = simplify()


# ---------------------------------------------------------------------------
# bounded congruence comparison


def _congruence_classes(p: Presentation, bound: int) -> dict[Word, Word]:
    """Union-find closure of one-step rewriting over all words of length at
    most ``bound``; returns a map from each word to a class representative."""
    parent: dict[Word, Word] = {}

    def find(w: Word) -> Word:
        root = w
        while parent[root] != root:
            root = parent[root]
        while parent[w] != root:
            parent[w], w = root, parent[w]
        return root

    words = list(words_up_to(p.generators, bound))
    for w in words:
        parent[w] = w
    index, rules = p.index_automaton, p.rules
    for w in words:
        for pos, r in _matches(w, index):
            rule = rules[r]
            rewritten = w[:pos] + rule.rhs + w[pos + len(rule.lhs) :]
            if len(rewritten) <= bound:
                ra, rb = find(w), find(rewritten)
                if ra != rb:
                    parent[rb] = ra
    # canonicalize on the smallest member so representatives are stable
    best: dict[Word, Word] = {}
    for w in words:
        root = find(w)
        cur = best.get(root)
        if cur is None or (len(w), w) < (len(cur), cur):
            best[root] = w
    return {w: best[find(w)] for w in words}


@dataclass(frozen=True)
class CongruenceReport:
    max_len: int
    witness: tuple[Word, Word] | None

    @property
    def agree(self) -> bool:
        return self.witness is None


def same_congruence(p: Presentation, q: Presentation, max_len: int) -> CongruenceReport:
    """Check that both presentations identify the same pairs of words up to
    ``max_len``, by congruence closure over a slightly larger bound (peaks
    witnessing an equality may pass through longer words)."""
    if p.generators != q.generators:
        raise ValueError("presentations must share the same alphabet")
    slack = max(
        (len(r.lhs) for r in p.rules + q.rules),
        default=1,
    )
    bound = max_len + slack
    classes_p = _congruence_classes(p, bound)
    classes_q = _congruence_classes(q, bound)
    words = list(words_up_to(p.generators, max_len))
    return CongruenceReport(max_len, _first_split_pair(words, classes_p, classes_q))


def _first_split_pair(
    words: list[Word], classes_p: dict[Word, Word], classes_q: dict[Word, Word]
) -> tuple[Word, Word] | None:
    """The first pair ``(words[i], words[j])``, ``i < j``, in the order
    (i, j), that one partition puts in one class and the other does not; None
    when the partitions agree.

    One pass over j.  For each class of either partition it keeps its first
    word, that word's class in the other partition, and the first word of
    the class that the other partition puts elsewhere: the least i that
    splits from j is one of those two, and the least such i over all j,
    first reached, gives the pair.
    """
    firsts: dict[tuple[int, Word], list] = {}
    best: tuple[int, int] | None = None
    for j, v in enumerate(words):
        for side, cls, other in ((0, classes_p[v], classes_q[v]), (1, classes_q[v], classes_p[v])):
            entry = firsts.setdefault((side, cls), [j, other, None])
            head, head_other, split = entry
            if head_other == other:
                i = split
            else:
                i = head
                if split is None:
                    entry[2] = j
            if i is not None and (best is None or i < best[0]):
                best = (i, j)
    return None if best is None else (words[best[0]], words[best[1]])
