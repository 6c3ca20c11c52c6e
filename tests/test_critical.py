import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srs import (
    BranchingFailure,
    FuelError,
    GeneratingConfluence,
    NotTerminatingError,
    brute_force_confluence,
    critical_branchings,
    format_path,
    generating_confluence,
    is_convergent,
    is_locally_confluent,
    knuth_bendix,
    parse_presentation,
    words_up_to,
)
from helpers import (
    as_presentation,
    four_rule_presentation,
    generating_confluence_loop_oracle,
    local_confluence_failures_oracle,
    random_terminating_presentation,
    reachable_normal_forms,
    two_rule_presentation,
    w,
)

GOLDEN = Path(__file__).parent / "golden"
CHAIN = GOLDEN / "inputs" / "chain.pres"


def test_as_has_exactly_one_branching():
    branchings = critical_branchings(as_presentation())
    assert len(branchings) == 1
    b = branchings[0]
    assert (b.rule1.rule_id, b.rule2.rule_id, b.offset) == ("r", "r", 1)
    assert b.overlap == w("aaa")
    assert b.kind == "proper-overlap"


def test_free_monoid_has_no_branchings():
    p = parse_presentation("generators: a\norder: shortlex a\nrules:")
    assert critical_branchings(p) == ()


def test_two_rule_branchings():
    branchings = critical_branchings(two_rule_presentation())
    summary = [
        (b.rule1.rule_id, b.rule2.rule_id, b.offset, b.overlap) for b in branchings
    ]
    assert summary == [("r1", "r2", 1, w("aba")), ("r2", "r1", 1, w("bab"))]


def test_four_rule_branchings_count_and_minimality():
    branchings = critical_branchings(four_rule_presentation())
    assert len(branchings) == 8
    for b in branchings:
        assert len(b.overlap) < len(b.rule1.lhs) + len(b.rule2.lhs)
        (id1, pos1), (id2, pos2) = b.redexes
        assert (id1, pos1) != (id2, pos2)


def test_containment_branching_enumerated():
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n big: a b a -> a\n small: b -> a"
    )
    branchings = critical_branchings(p)
    kinds = {(b.rule1.rule_id, b.rule2.rule_id, b.offset): b.kind for b in branchings}
    assert kinds[("big", "small", 1)] == "containment"


def test_duplicate_lhs_containment_reported_once_lower_index_first():
    p = parse_presentation(
        "generators: a\norder: shortlex a\nrules:\n r1: a a -> a\n r2: a a -> a"
    )
    branchings = critical_branchings(p)
    pairs = [(b.rule1.rule_id, b.rule2.rule_id, b.offset, b.kind) for b in branchings]
    assert ("r1", "r2", 0, "containment") in pairs
    assert ("r2", "r1", 0, "containment") not in pairs


def test_generating_confluence_as():
    p = as_presentation()
    conf = generating_confluence(critical_branchings(p)[0], p)
    assert format_path(conf.step1, p) == "aaa: +r@0"
    assert format_path(conf.step2, p) == "aaa: +r@1"
    assert format_path(conf.completion1, p) == "aa: +r@0"
    assert format_path(conf.completion2, p) == "aa: +r@0"
    assert format_path(conf.loop, p) == "aaa: +r@0 -r@1"


def test_generating_confluence_not_joinable():
    p = two_rule_presentation()
    b = critical_branchings(p)[0]  # overlap aba
    failure = generating_confluence(b, p)
    assert isinstance(failure, BranchingFailure)
    assert failure.branching == b
    assert {failure.left_nf, failure.right_nf} == {w("aa"), w("a")}


def test_generating_confluence_duplicate_rules_two_step_loop():
    # distinct rules with identical sides: the branches coincide after the
    # first step, so the loop reduces to the two branching steps only
    p = parse_presentation(
        "generators: a\norder: shortlex a\nrules:\n r1: a a -> a\n r2: a a -> a"
    )
    b = next(x for x in critical_branchings(p) if x.kind == "containment")
    conf = generating_confluence(b, p)
    assert format_path(conf.loop, p) == "aa: +r1@0 -r2@0"


def test_is_locally_confluent():
    assert is_locally_confluent(as_presentation()).ok
    report = is_locally_confluent(two_rule_presentation())
    assert not report.ok
    assert len(report.failures) == 2
    assert report.failures is report.failures  # built once, not on each read of ``ok``
    empty = parse_presentation("generators: a\norder: shortlex a\nrules:")
    assert is_locally_confluent(empty).ok


def test_local_confluence_completes_each_side_within_the_fuel():
    """``srs critical-pairs --fuel`` passes its fuel to the report, so the
    report fails as the golden case does: on grow_two, r1: a -> a a rewrites
    the first side, a a, for ever, and 5 steps do not reach a normal form."""
    p = parse_presentation((GOLDEN / "inputs" / "grow_two.pres").read_text(encoding="utf-8"))
    with pytest.raises(FuelError) as excinfo:
        is_locally_confluent(p, fuel=5)
    expected = json.loads((GOLDEN / "results.json").read_text(encoding="utf-8"))
    assert f"srs: {excinfo.value}\n" == expected["critical_pairs_out_of_fuel.txt"]["stderr"]


def test_is_convergent():
    assert is_convergent(as_presentation()).ok
    growing = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a -> a a")
    cert = is_convergent(growing)
    assert not cert.ok
    assert not cert.termination.ok
    assert is_convergent(four_rule_presentation()).ok


def test_brute_force_confluence():
    assert brute_force_confluence(as_presentation(), 6).ok
    report = brute_force_confluence(two_rule_presentation(), 3)
    assert not report.ok
    word, nf1, nf2 = report.counterexample
    assert word == w("aba")
    assert {nf1, nf2} == {w("a"), w("aa")}
    empty = parse_presentation("generators: a\norder: shortlex a\nrules:")
    assert brute_force_confluence(empty, 5).ok


def test_newman_small_sample():
    rng = random.Random(31)
    for _ in range(25):
        p = random_terminating_presentation(rng)
        assert is_locally_confluent(p).ok == brute_force_confluence(p, 7).ok


def test_branching_steps_share_source():
    for p in (as_presentation(), four_rule_presentation()):
        for b in critical_branchings(p):
            conf = generating_confluence(b, p)
            assert conf.step1.base == conf.step2.base == b.overlap
            assert conf.loop.base == conf.loop.target == b.overlap


def test_basis_construction_is_reproducible():
    from srs import basis_loops, footprint
    from helpers import FOUR_TEXT

    first = parse_presentation(FOUR_TEXT)
    second = parse_presentation(FOUR_TEXT)
    loops1 = basis_loops(first)
    loops2 = basis_loops(second)
    assert [bl.loop for bl in loops1] == [bl.loop for bl in loops2]
    assert [footprint(bl.loop, first) for bl in loops1] == [
        footprint(bl.loop, second) for bl in loops2
    ]


def test_brute_force_agrees_with_reachable_normal_forms():
    rng = random.Random(11)
    for _ in range(60):
        p = random_terminating_presentation(rng)
        report = brute_force_confluence(p, 5)
        expected = None
        for word in words_up_to(p.generators, 5):
            forms = sorted(reachable_normal_forms(p, word))
            if len(forms) > 1:
                expected = (word, forms[0], forms[1])
                break
        assert report.counterexample == expected


def test_brute_force_reports_a_rewriting_cycle():
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r1: a -> b\n r2: b -> a\n")
    with pytest.raises(NotTerminatingError, match="returns to"):
        brute_force_confluence(p, 1)


def test_a_rewriting_cycle_is_named_in_the_order_of_position_then_rule():
    """Each word's reducts are searched in (position, rule index) order, the
    order of ``find_redexes``, and that order decides which word of a cycle
    is named: in ``a b``, r1 at 0 comes before r2 at 0, though r2's shorter
    left-hand side ends first."""
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n"
        " r1: a b -> b a\n r2: a -> b\n r3: b b -> b a\n"
    )
    with pytest.raises(NotTerminatingError, match="from 'aa' returns to 'bb'"):
        brute_force_confluence(p, 2)


def test_brute_force_counts_the_letters_of_the_reducts_it_visits(monkeypatch):
    """Under weights a reduct can be longer than its word: on ``a -> b b``,
    ``b -> c c``, ``c -> d d``, ``d -> e e``, the letter ``a`` alone reaches
    677 words.  From the words of length at most 1 the search visits 712
    words, each listed once, roots included, holding 6,961 letters; from
    those of length at most 2 it visits more than the fuel."""
    import srs.critical

    p = parse_presentation(CHAIN.read_text(encoding="utf-8"))
    assert brute_force_confluence(p, 1).ok
    with pytest.raises(FuelError, match="reducts of the words up to 'aa' hold more than 1000000"):
        brute_force_confluence(p, 2)
    monkeypatch.setattr(srs.critical, "DEFAULT_FUEL", 6961)
    assert brute_force_confluence(p, 1).ok
    monkeypatch.setattr(srs.critical, "DEFAULT_FUEL", 6960)
    with pytest.raises(FuelError, match="up to 'e' hold more than 6960 letters"):
        brute_force_confluence(p, 1)


def test_brute_force_keeps_each_distinct_child_once(monkeypatch):
    """On ``a -> a a`` the word a^n has n redexes and one child, a^(n+1).
    The search keeps that child once, so when it lists the reducts of a^n
    its stack holds the n - 1 words before it, each with its one child; one
    entry per redex would hold about n^2/2 words of n letters, which filled
    memory before the letter budget fired.  With a budget of 5,050 letters
    the search reads a to a^100, and a^101 raises."""
    import srs.critical

    p = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a -> a a\n")
    held = []
    matches = srs.critical._matches

    def counting(w, index):
        stack = sys._getframe(1).f_locals["stack"]
        held.append((len(w), len(stack), sum(len(children or (c,)) for c, children in stack)))
        return matches(w, index)

    monkeypatch.setattr(srs.critical, "_matches", counting)
    monkeypatch.setattr(srs.critical, "DEFAULT_FUEL", 5050)
    with pytest.raises(FuelError, match="up to 'a' hold more than 5050 letters"):
        brute_force_confluence(p, 1)
    assert held == [(0, 0, 0)] + [(n, n - 1, n - 1) for n in range(1, 101)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1))
def test_branchings_check_and_loops_match_the_path_algebra_oracle(seed):
    """Local confluence reports the branchings whose targets reach distinct
    normal forms, and the generating confluences of the rest, in order; each
    loop is the free-reduced composite of the branching's steps and
    completions."""
    rng = random.Random(seed)
    p = random_terminating_presentation(rng)
    systems = [p]
    try:
        systems.append(knuth_bendix(p, fuel=12)[0])
    except FuelError:
        pass
    for q in systems:
        report = is_locally_confluent(q)
        assert report.failures == local_confluence_failures_oracle(q)
        failed = [f.branching for f in report.failures]
        joinable = [b for b in critical_branchings(q) if b not in failed]
        confluences = [o for o in report.outcomes if isinstance(o, GeneratingConfluence)]
        assert [c.branching for c in confluences] == joinable
        for b, conf in zip(joinable, confluences):
            expected = generating_confluence_loop_oracle(b, q)
            assert conf.loop == expected == generating_confluence(b, q).loop
