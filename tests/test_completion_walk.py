"""Completion walks the critical branchings in order and stops at the first
unjoinable one: the enumeration lists what the sort-based enumeration
listed, completion keeps the rules and traces of the loop that re-listed
every branching after each added rule, and a settled branching is checked
again exactly when an added left-hand side occurs in the words of its
paths."""

import hashlib
import itertools
import random
from pathlib import Path as FilePath

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import srs.completion
from srs import (
    LESS,
    CriticalBranching,
    FuelError,
    OrderSpec,
    Presentation,
    RewriteStep,
    Rule,
    UnorientableError,
    compare_words,
    critical_branchings,
    knuth_bendix,
    normalize,
    parse_presentation,
)
from srs.critical import CONTAINMENT, PROPER
from srs.presentation import IndexAutomaton, Word, _weight
from srs.rewrite import _matches
from helpers import (
    critical_branchings_oracle,
    find_redexes_oracle,
    knuth_bendix_oracle,
    random_ordered_presentation,
    random_terminating_presentation,
    two_rule_presentation,
    w,
)

INPUTS = FilePath(__file__).resolve().parent.parent / "srsbench" / "inputs"
GOLDEN_INPUTS = FilePath(__file__).resolve().parent / "golden" / "inputs"

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def rule_systems(draw):
    """Rules over a 1-3 letter alphabet with no orientation: short left-hand
    sides over few letters give self-overlaps and containments, and some
    left-hand sides are repeated under another rule id."""
    alphabet = "abc"[: draw(st.integers(1, 3))]
    word = st.lists(st.sampled_from(alphabet), max_size=4).map(tuple)
    lhss = draw(st.lists(word.filter(bool), min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(lhss), max_size=2))
    rules = []
    for k, lhs in enumerate(lhss + repeats):
        rhs = draw(word.filter(lambda v, lhs=lhs: v != lhs))
        rules.append(Rule(f"r{k + 1}", lhs, rhs))
    order = OrderSpec("shortlex", tuple(alphabet))
    return Presentation(tuple(alphabet), tuple(rules), order)


@PROPERTY
@given(rule_systems())
def test_walk_lists_the_sorted_enumeration(p):
    assert critical_branchings(p) == critical_branchings_oracle(p)


@PROPERTY
@given(rule_systems(), st.lists(st.sampled_from("abcd"), max_size=8).map(tuple))
def test_reducibility_read_on_the_index_matches_the_redex_list(p, word):
    """``_matches`` reads each occurrence of a left-hand side once, as the
    slice oracle lists them, in every rule's lhs and in a word that may hold
    a letter outside the alphabet; so ``simplify`` keeps a rule exactly when
    no other rule's lhs occurs in its lhs."""
    number = {rule.rule_id: k for k, rule in enumerate(p.rules)}
    for w in [rule.lhs for rule in p.rules] + [word]:
        found = list(_matches(w, p.index_automaton))
        listed = [(r.pos, number[r.rule_id]) for r in find_redexes_oracle(w, p)]
        assert sorted(found) == sorted(listed)
    for idx, rule in enumerate(p.rules):
        others = [r for r in find_redexes_oracle(rule.lhs, p) if r.rule_id != rule.rule_id]
        kept = all(m == (0, idx) for m in _matches(rule.lhs, p.index_automaton))
        assert kept == (not others)


@pytest.mark.parametrize(
    "rules, listed",
    [
        # a rule on itself at offsets 1 and 2
        (" r1: a a a -> a", [("r1", "r1", 1, PROPER), ("r1", "r1", 2, PROPER)]),
        # the same lhs under two ids meet at offset 0 in both orders: listed
        # once, at its first place
        (" r1: a b -> a\n r2: a b -> b", [("r1", "r2", 0, CONTAINMENT)]),
        # a self-overlap, then a lhs inside another at each place it occurs
        (
            " r1: a b a b -> a\n r2: a b -> b",
            [
                ("r1", "r1", 2, PROPER),
                ("r1", "r2", 0, CONTAINMENT),
                ("r1", "r2", 2, CONTAINMENT),
            ],
        ),
        # a later rule's lhs holds an earlier one's at offset 0: listed, as
        # only equal left-hand sides meet at offset 0 in both orders
        (
            " r1: a -> b\n r2: a a -> b",
            [
                ("r2", "r1", 0, CONTAINMENT),
                ("r2", "r1", 1, CONTAINMENT),
                ("r2", "r2", 1, PROPER),
            ],
        ),
    ],
)
def test_named_overlap_cases(rules, listed):
    p = parse_presentation(f"generators: a b\norder: shortlex a < b\nrules:\n{rules}\n")
    found = critical_branchings(p)
    assert found == critical_branchings_oracle(p)
    assert [(b.rule1.rule_id, b.rule2.rule_id, b.offset, b.kind) for b in found] == listed


def outcome(complete, p, fuel):
    """The completed presentation and trace, or the error's type and text."""
    try:
        return complete(p, fuel)
    except (FuelError, UnorientableError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_completion_matches_oracle_on_random_systems(seed):
    p = random_terminating_presentation(random.Random(seed))
    assert outcome(knuth_bendix, p, 64) == outcome(knuth_bendix_oracle, p, 64)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_completion_matches_oracle_on_random_weighted_systems(seed):
    """Up to five rules over up to three letters, under shortlex or weighted
    shortlex: the branchings left settled across walks, and the sides that
    no added left-hand side occurs in, give the oracle's rules, trace or
    error."""
    p = random_ordered_presentation(random.Random(seed))
    assert outcome(knuth_bendix, p, 24) == outcome(knuth_bendix_oracle, p, 24)


def precedences(p):
    """``p`` under shortlex with every generator precedence, each rule
    oriented from its larger side."""
    for precedence in itertools.permutations(p.generators):
        order = OrderSpec("shortlex", precedence)
        rules = tuple(
            Rule(r.rule_id, r.rhs, r.lhs) if compare_words(order, r.lhs, r.rhs) is LESS else r
            for r in p.rules
        )
        yield Presentation(p.generators, rules, order)


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in (INPUTS / "coxeter").glob("*.pres"))
)
def test_completion_matches_oracle_on_coxeter_groups(name):
    p = parse_presentation((INPUTS / "coxeter" / f"{name}.pres").read_text(encoding="utf-8"))
    for q in precedences(p):
        assert knuth_bendix(q) == knuth_bendix_oracle(q)


@pytest.mark.parametrize(
    "p",
    [
        parse_presentation((INPUTS / "a5.pres").read_text(encoding="utf-8")),
        two_rule_presentation(),
    ],
    ids=["a5", "two-rule"],
)
def test_completion_matches_oracle_on_named_systems(p):
    assert knuth_bendix(p) == knuth_bendix_oracle(p)


def test_joinable_branching_becomes_unjoinable_after_an_added_rule():
    """The r1/r1 branching at a b a b a is joinable before completion adds
    its first rule and unjoinable after, and completion adds its second
    rule from it: a walk that skipped branchings once found joinable would
    miss that rule."""
    text = "generators: a b\norder: shortlex a < b\nrules:\n r1: a b a -> b a\n r2: b b -> b a\n"
    before = parse_presentation(text)
    after = parse_presentation(text + " kb1: b a b -> b a a\n")
    r1 = before.rule_by_id["r1"]
    (flip,) = [
        b for b in critical_branchings(before)
        if b.rule1 == b.rule2 == r1 and b.offset == 2
    ]
    assert flip.overlap == w("ababa")
    left = RewriteStep(flip.overlap, flip.rule1, 0, 1).target
    right = RewriteStep(flip.overlap, flip.rule2, flip.offset, 1).target

    def normal_forms(q):
        return normalize(left, q)[0], normalize(right, q)[0]

    assert normal_forms(before) == (w("baa"), w("baa"))
    assert normal_forms(after) == (w("baaa"), w("baa"))

    _, trace = knuth_bendix(before)
    assert [(e.kind, e.rule_id, e.lhs, e.rhs, e.overlap) for e in trace[:2]] == [
        ("add", "kb1", w("bab"), w("baa"), w("bbb")),
        ("add", "kb2", w("baaa"), w("baa"), w("ababa")),
    ]


def test_lighter_added_rule_flips_a_branching_under_weights():
    """Under weights b=3, a=1 with b < a (shortlex would orient r1 the other
    way), the r2/r2 branching at a b a b a has sides of weight 6 and is
    joinable until completion adds kb1, whose lhs a a b weighs 5 and occurs
    in the path of its left side; then it gives completion's second rule."""
    text = "generators: a b\norder: weights b=3 a=1\nrules:\n r1: b b -> a a\n r2: a b a -> a a\n"
    before = parse_presentation(text)
    after = parse_presentation(text + " kb1: a a b -> b a a\n")
    r2 = before.rule_by_id["r2"]
    (flip,) = [
        b for b in critical_branchings(before)
        if b.rule1 == b.rule2 == r2 and b.offset == 2
    ]
    assert flip.overlap == w("ababa")
    assert flip.targets == (w("aaba"), w("abaa"))
    assert [_weight(before.order, side) for side in (*flip.targets, w("aab"))] == [6, 6, 5]

    def normal_forms(q):
        return tuple(normalize(side, q)[0] for side in flip.targets)

    assert normal_forms(before) == (w("aaa"), w("aaa"))
    assert normal_forms(after) == (w("baaa"), w("aaa"))

    _, trace = knuth_bendix(before)
    assert [(e.kind, e.rule_id, e.lhs, e.rhs, e.overlap) for e in trace[:2]] == [
        ("add", "kb1", w("aab"), w("baa"), w("bbb")),
        ("add", "kb2", w("baaa"), w("aaa"), w("ababa")),
    ]


@pytest.fixture
def walk_sets(monkeypatch):
    """Records each word completion reduces, with the ids of the rules it
    is reduced under."""
    reduced: list[tuple[Word, frozenset[str]]] = []
    reduce = srs.completion._reduce

    def recording_reduce(word, q, *args):
        reduced.append((word, frozenset(r.rule_id for r in q.rules)))
        return reduce(word, q, *args)

    monkeypatch.setattr(srs.completion, "_reduce", recording_reduce)
    return reduced


def read_under(reduced, targets):
    """The rule sets under which both targets of a branching were reduced,
    left side then right side, in order."""
    return [
        rules
        for (left, rules), (right, again) in zip(reduced, reduced[1:])
        if (left, right) == targets and rules == again
    ]


def test_a_branching_with_an_added_lhs_in_its_paths_is_read_again_and_flips(walk_sets):
    """The r1/r1 branching at a b a b a is settled in the first walk with
    the paths b a b a, b b a, b a a and a b b a, a b a a, b a a; kb1's lhs
    b a b occurs in b a b a, so the second walk reads it again, finds it
    unjoinable and adds kb2 from it.  An unjoinable branching waits on at
    the front, and the third walk reads it first."""
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n r1: a b a -> b a\n r2: b b -> b a\n"
    )
    _, trace = knuth_bendix(p)
    assert [(e.kind, e.rule_id, e.lhs, e.overlap) for e in trace[:2]] == [
        ("add", "kb1", w("bab"), w("bbb")),
        ("add", "kb2", w("baaa"), w("ababa")),
    ]
    assert read_under(walk_sets, (w("baba"), w("abba"))) == [
        {"r1", "r2"},
        {"r1", "r2", "kb1"},
        {"r1", "r2", "kb1", "kb2"},
    ]


def test_a_branching_is_read_again_only_when_an_added_lhs_occurs_in_its_paths(walk_sets):
    """The kb1/kb1 branching at b b b, with sides a a b and b a a, is
    unjoinable in the third walk and settled in the fourth, with the paths
    a a b, ε and b a a, ε.  kb4's lhs b a b occurs in neither, so the fifth
    walk passes it by; kb5's lhs b a occurs in b a a, so the sixth reads it
    again, and it stays joinable."""
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n r1: b b b ->\n r2: a a b ->\n"
    )
    completed, trace = knuth_bendix(p)
    assert (completed, trace) == knuth_bendix_oracle(p)
    assert [(e.kind, e.rule_id, e.lhs, e.rhs) for e in trace] == [
        ("add", "kb1", w("bb"), w("aa")),
        ("remove", "r1", w("bbb"), ()),
        ("add", "kb2", w("aaaa"), w("b")),
        ("add", "kb3", w("baa"), ()),
        ("add", "kb4", w("bab"), w("aaa")),
        ("add", "kb5", w("ba"), w("ab")),
        ("remove", "kb3", w("baa"), ()),
        ("remove", "kb4", w("bab"), w("aaa")),
    ]
    assert read_under(walk_sets, (w("aab"), w("baa"))) == [
        {"r2", "kb1", "kb2"},
        {"r2", "kb1", "kb2", "kb3"},
        {"r2", "kb1", "kb2", "kb5"},
    ]


def test_b4_completion_counts_and_trace(monkeypatch):
    """B4 under s4 < s2 < s1 < s3 completes in a 119-event trace.  Its walks
    and inter-reductions reduce 866 words, build 331 branchings and 82
    index automata, and the completed presentation is the one it validates.  For the same trace, rebuilding every branching and
    reducing both of its sides on every walk took 5,708 reductions and
    2,001 branchings; an inter-reduction that started again after each
    change took 1,651 reductions and 164 automata; walks that kept normal
    forms by weight and started again at the first branching, with an
    inter-reduction that read every left-hand side, took 1,640 reductions
    and 120 automata."""
    p = parse_presentation((INPUTS / "coxeter" / "B4.pres").read_text(encoding="utf-8"))
    (q,) = [q for q in precedences(p) if q.order.precedence == ("s4", "s2", "s1", "s3")]
    counts = {"reductions": 0, "branchings": 0, "automata": 0, "validations": 0}
    reduce = srs.completion._reduce
    validate = Presentation.__post_init__

    def counted_reduce(*args):
        counts["reductions"] += 1
        return reduce(*args)

    def counted(cls, key):
        init = cls.__init__

        def counted_init(self, *args):
            counts[key] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)

    def counted_validate(self):
        counts["validations"] += 1
        validate(self)

    monkeypatch.setattr(srs.completion, "_reduce", counted_reduce)
    counted(CriticalBranching, "branchings")
    counted(IndexAutomaton, "automata")
    monkeypatch.setattr(Presentation, "__post_init__", counted_validate)
    completed, trace = knuth_bendix(q)
    assert counts == {"reductions": 866, "branchings": 331, "automata": 82, "validations": 1}
    assert (len(trace), len(completed.rules)) == (119, 25)
    events = repr([(e.kind, e.rule_id, e.lhs, e.rhs, e.overlap) for e in trace])
    assert hashlib.sha256(events.encode()).hexdigest() == (
        "ce934d0c99d95459e6e3ff4440c3e8f7bcffd8df7550511aeef14ce1ea38d7fb"
    )


def test_braid_completion_work_counts(monkeypatch):
    """``b a b -> a b a`` under shortlex a < b has no finite completion, so
    ``complete braid.pres --fuel 64`` runs out of fuel.  Up to there it
    reduces 258 words, builds 65 index automata and validates no rule set;
    walks that started again at the first branching, with an inter-reduction
    that read every left-hand side, took 323 reductions, 65 automata and 65
    validations."""
    p = parse_presentation((GOLDEN_INPUTS / "braid.pres").read_text(encoding="utf-8"))
    counts = {"reductions": 0, "automata": 0, "validations": 0}
    reduce = srs.completion._reduce
    init = IndexAutomaton.__init__
    validate = Presentation.__post_init__

    def counted_reduce(*args):
        counts["reductions"] += 1
        return reduce(*args)

    def counted_init(self, *args):
        counts["automata"] += 1
        init(self, *args)

    def counted_validate(self):
        counts["validations"] += 1
        validate(self)

    monkeypatch.setattr(srs.completion, "_reduce", counted_reduce)
    monkeypatch.setattr(IndexAutomaton, "__init__", counted_init)
    monkeypatch.setattr(Presentation, "__post_init__", counted_validate)
    with pytest.raises(FuelError, match="within 64 added rules"):
        knuth_bendix(p, 64)
    assert counts == {"reductions": 258, "automata": 65, "validations": 0}


def test_a_right_hand_side_is_reduced_by_the_rules_already_reduced():
    """After kb1 ``b a -> a`` is added, one pass reduces r1's rhs ``a c`` to
    ε and then r2's rhs ``b c a`` by r1 as it now is (``c a -> ε``) to ``b``;
    r1 as it was (``c a -> a c``) would take ``b c a`` through ``b a c`` and
    ``a c`` to ε."""
    p = parse_presentation(
        "generators: a b c\norder: shortlex b < a < c\nrules:\n"
        " r1: c a -> a c\n r2: b c c -> b c a\n r3: a c ->\n r4: c a a -> b a\n"
    )
    completed, trace = knuth_bendix(p, 16)
    assert (completed, trace) == knuth_bendix_oracle(p, 16)
    events = [(e.kind, e.rule_id, e.rhs) for e in trace[:4]]
    assert events == [
        ("remove", "r4", w("ba")),
        ("add", "kb1", w("a")),
        ("simplify", "r1", ()),
        ("simplify", "r2", w("b")),
    ]
