"""Knuth–Bendix completion with inter-reduction, and a bounded
congruence-equivalence check between presentations.

Completion repeatedly orients the normal forms of unjoinable critical
branchings into new rules, keeping the rule set inter-reduced (right-hand
sides normalized, rules with reducible left-hand sides collapsed).  The
output presents the same monoid and, when the procedure stops within its
budget, is convergent.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import FuelError, NotTerminatingError, UnorientableError
from .presentation import GREATER, LESS, IndexAutomaton, Presentation, Rule, Word, compare_words
from .rewrite import _matches, _reduce, check_termination
# pinned by srsbench/tests/test_srsbench.py::test_tracing_srs_counts_and_restores
from .rewrite import normalize  # noqa: F401
from .critical import CriticalBranching, _pair_branchings, words_up_to

DEFAULT_RULE_FUEL = 256


@dataclass(frozen=True)
class CompletionEvent:
    """One trace entry: an added, removed, or right-simplified rule."""

    kind: str  # "add" | "remove" | "simplify"
    rule_id: str
    lhs: Word
    rhs: Word
    overlap: Word | None = None


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

    Each walk reads the critical branchings of the inter-reduced rule set
    in their canonical order (that of ``critical_branchings``), and the
    first one whose two sides reach distinct normal forms gives the next
    rule; the walk stops there, so the result is deterministic.

    Completion reads again only what an added rule can change.  An added
    rule can move a side's leftmost normal form, so a branching joinable
    under one rule set can be unjoinable under the next (on ``r1: a b a ->
    b a``, ``r2: b b -> b a``, the r1/r1 branching at ``a b a b a`` does so
    once ``b a b -> b a a`` is added).  But in an inter-reduced set the
    leftmost path from a word changes only if an added left-hand side
    occurs in one of its words: as a new redex, or in the left-hand side of
    a rule used there (which is removed) or in its right-hand side (which
    is reduced).  An added left-hand side that is removed again holds one
    added after it that stays.  So a branching found joinable is settled
    with the words of its two leftmost paths, and waits again only when a
    left-hand side added since occurs in one of them; a branching of a
    removed or replaced rule is gone, and the pairs of an added or replaced
    rule wait to be built.  Waiting branchings and pairs are kept by
    (rule1, rule2, offset), each rule by the place it was appended at,
    which orders the rules as their indices do: rules are only appended,
    removed, or given a new right-hand side in place.  Every branching
    before the first waiting one is settled, hence joinable, so a walk that
    resumes there finds the first unjoinable branching of a walk from the
    start, and the unjoinable one waits on at the front.

    Inter-reduction (``simplify``) does what a loop that starts again after
    each change does, in the same order.  Before an addition the set is
    inter-reduced, and an added rule's sides are normal forms of the rules
    present then, so a left-hand or right-hand side is reducible exactly
    when a left-hand side added since the last walk (every input rule,
    before the first) other than its own occurs in it.  A removal makes no
    other side reducible, so the collapse scan goes on at the same place; an
    added rule may occur in any left-hand side, so the scan starts again.
    Reducibility depends on the left-hand sides alone, so a reduced
    right-hand side removes no rule and leaves those read before it
    irreducible: one pass does.  Occurrence tests read words as strings of
    one character per letter.

    Walks and inter-reduction reduce against one ``IndexAutomaton`` per rule
    set; only the result is a ``Presentation``, validated once.

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
    code = {g: chr(k) for k, g in enumerate(p.generators, 1)}  # chr(0) separates words
    # per rule id: its place in the walk order and its sides as text
    place = {r.rule_id: k for k, r in enumerate(rules)}
    sides = {r.rule_id: (_text(code, r.lhs), _text(code, r.rhs)) for r in rules}
    # since the last walk: the lhs of the added rules still present, and the
    # ids of the rules added, removed or given a new rhs
    fresh = {rid: lhs for rid, (lhs, _) in sides.items()}
    touched = set(fresh)

    def fresh_id() -> str:
        while True:
            cand = f"kb{next(counter)}"
            if cand not in used_ids:
                used_ids.add(cand)
                return cand

    def add_rule(u: Word, v: Word, overlap: Word | None):
        nonlocal added
        lhs, rhs = _orient(p, u, v)
        added += 1
        if added > fuel:
            raise FuelError(f"completion did not finish within {fuel} added rules")
        rule = Rule(fresh_id(), lhs, rhs)
        rules.append(rule)
        place[rule.rule_id] = len(place)
        sides[rule.rule_id] = _text(code, lhs), _text(code, rhs)
        fresh[rule.rule_id] = sides[rule.rule_id][0]
        touched.add(rule.rule_id)
        trace.append(CompletionEvent("add", rule.rule_id, lhs, rhs, overlap))

    def simplify() -> IndexAutomaton:
        """Inter-reduce ``rules``; returns their index automaton."""
        current = None  # the automaton of ``rules`` as they are, once made
        idx = 0
        while idx < len(rules):
            rule = rules[idx]
            lhs = sides[rule.rule_id][0]
            if not any(u in lhs for rid, u in fresh.items() if rid != rule.rule_id):
                idx += 1
                continue
            del rules[idx]
            fresh.pop(rule.rule_id, None)
            touched.add(rule.rule_id)
            current = IndexAutomaton.of(p.generators, tuple(rules))
            u = _reduce(rule.lhs, current)[0]
            trace.append(CompletionEvent("remove", rule.rule_id, rule.lhs, rule.rhs))
            v = _reduce(rule.rhs, current)[0]
            if u != v:
                add_rule(u, v, None)
                current = None
                idx = 0
        current = current or IndexAutomaton.of(p.generators, tuple(rules))
        for idx, rule in enumerate(rules):
            if any(u in sides[rule.rule_id][1] for u in fresh.values()):
                rhs = _reduce(rule.rhs, current)[0]
                rules[idx] = Rule(rule.rule_id, rule.lhs, rhs)
                sides[rule.rule_id] = sides[rule.rule_id][0], _text(code, rhs)
                touched.add(rule.rule_id)
                trace.append(CompletionEvent("simplify", rule.rule_id, rule.lhs, rhs))
                current = IndexAutomaton.of(p.generators, tuple(rules))
        return current

    def path_text(word: Word, moves: list) -> str:
        """The words of the path from ``word`` along ``moves`` as text."""
        text = _text(code, word)
        words = [text]
        for rule, pos, _ in moves:
            lhs, rhs = sides[rule.rule_id]
            text = text[:pos] + rhs + text[pos + len(lhs) :]
            words.append(text)
        return "\0".join(words)

    def wait(i: int, j: int, offset: int, r1: Rule, r2: Rule, b: CriticalBranching | None):
        heapq.heappush(waiting, (i, j, offset, next(tie), r1, r2, b))

    # waiting: (place of rule1, place of rule2, offset, tie, rule1, rule2,
    # branching), or offset -1 and no branching for a pair to build;
    # settled: (rule1 id, rule2 id, branching, words of its paths)
    waiting: list[tuple] = []
    settled: list[tuple] = []
    tie = itertools.count()
    current = simplify()
    while True:
        live = {r.rule_id: r for r in rules}
        tests = list(fresh.values())
        kept = []
        for entry in settled:
            id1, id2, b, words = entry
            if id1 in touched or id2 in touched:
                continue
            for u in tests:
                if u in words:
                    wait(place[id1], place[id2], b.offset, b.rule1, b.rule2, b)
                    break
            else:
                kept.append(entry)
        settled = kept
        # the pairs of added and replaced rules, each once, where one lhs
        # may overlap the other: a proper overlap of C on R needs a prefix
        # of C to end R, one of R on C a suffix of C to start R
        done = set()
        for c in rules:
            if c.rule_id not in touched:
                continue
            done.add(c.rule_id)
            lhs = sides[c.rule_id][0]
            heads = tuple(lhs[:k] for k in range(1, len(lhs)))
            tails = tuple(lhs[k:] for k in range(1, len(lhs)))
            for r in rules:
                if r.rule_id in done and r is not c:
                    continue
                other = sides[r.rule_id][0]
                if lhs in other or other.endswith(heads):
                    wait(place[r.rule_id], place[c.rule_id], -1, r, c, None)
                if r is not c and (other in lhs or other.startswith(tails)):
                    wait(place[c.rule_id], place[r.rule_id], -1, c, r, None)
        fresh.clear()
        touched.clear()
        pending = None
        walked = []
        while waiting:
            i, j, _, _, r1, r2, b = waiting[0]
            if live.get(r1.rule_id) is not r1 or live.get(r2.rule_id) is not r2:
                heapq.heappop(waiting)
            elif b is None:
                heapq.heappop(waiting)
                for b in _pair_branchings(r1, r2, i, j):
                    wait(i, j, b.offset, r1, r2, b)
            else:
                nf_left, left = _reduce(b.targets[0], current)
                nf_right, right = _reduce(b.targets[1], current)
                if nf_left != nf_right:
                    pending = (nf_left, nf_right, b.overlap)
                    break
                heapq.heappop(waiting)
                walked.append((b, left, right))
        if pending is None:
            return Presentation(p.generators, tuple(rules), p.order), tuple(trace)
        # the words of the paths, read while their rules are those walked
        for b, left, right in walked:
            words = path_text(b.targets[0], left) + "\0" + path_text(b.targets[1], right)
            settled.append((b.rule1.rule_id, b.rule2.rule_id, b, words))
        add_rule(pending[0], pending[1], pending[2])
        current = simplify()


def _text(code: dict[str, str], w: Word) -> str:
    """``w`` as a string of one character per letter."""
    return "".join([code[g] for g in w])


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
