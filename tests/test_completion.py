import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srs import (
    FuelError,
    NotTerminatingError,
    brute_force_confluence,
    is_convergent,
    knuth_bendix,
    parse_presentation,
    same_congruence,
    words_up_to,
)
from srs.completion import _congruence_classes, _first_split_pair
from helpers import (
    as_presentation,
    congruence_classes_oracle,
    first_split_pair_oracle,
    random_terminating_presentation,
    two_rule_presentation,
    w,
)


def test_convergent_input_unchanged():
    p = as_presentation()
    done, trace = knuth_bendix(p)
    assert done == p
    assert trace == ()


def test_completes_two_rule_system():
    p = two_rule_presentation()
    done, trace = knuth_bendix(p)
    pairs = {(r.lhs, r.rhs) for r in done.rules}
    assert pairs == {
        (w("ab"), w("a")),
        (w("ba"), w("b")),
        (w("aa"), w("a")),
        (w("bb"), w("b")),
    }
    adds = [(e.lhs, e.rhs, e.overlap) for e in trace if e.kind == "add"]
    assert adds == [
        (w("aa"), w("a"), w("aba")),
        (w("bb"), w("b"), w("bab")),
    ]
    assert is_convergent(done).ok
    assert brute_force_confluence(done, 6).ok


def test_no_rules_unchanged():
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:")
    done, trace = knuth_bendix(p)
    assert done == p and trace == ()


def test_requires_termination_certificate():
    bad = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a -> a a")
    with pytest.raises(NotTerminatingError):
        knuth_bendix(bad)


def test_fuel_exhaustion():
    p = two_rule_presentation()
    with pytest.raises(FuelError):
        knuth_bendix(p, fuel=1)


def test_idempotent():
    done, _ = knuth_bendix(two_rule_presentation())
    again, trace = knuth_bendix(done)
    assert again == done and trace == ()


def test_added_rules_sound_in_input_congruence():
    p = two_rule_presentation()
    done, trace = knuth_bendix(p)
    classes = congruence_classes_oracle(p, 6)
    for event in trace:
        if event.kind == "add":
            assert classes[event.lhs] is classes[event.rhs]


def test_same_congruence_input_vs_completed():
    p = two_rule_presentation()
    done, _ = knuth_bendix(p)
    assert same_congruence(p, done, 5).agree


def test_same_congruence_detects_difference():
    p = as_presentation()
    free = parse_presentation("generators: a\norder: shortlex a\nrules:")
    report = same_congruence(p, free, 3)
    assert not report.agree
    assert report.witness == (w("a"), w("aa"))


def test_same_congruence_reflexive():
    p = two_rule_presentation()
    assert same_congruence(p, p, 4).agree


def test_same_congruence_requires_shared_alphabet():
    p = as_presentation()
    q = parse_presentation("generators: b\norder: shortlex b\nrules:")
    with pytest.raises(ValueError):
        same_congruence(p, q, 3)


def test_weighted_order_completion():
    # the rhs may be longer than the lhs as long as the weight drops
    p = parse_presentation(
        "generators: a b\norder: weights a=3 b=1\nrules:\n r1: a -> b b\n r2: a b -> b"
    )
    done, trace = knuth_bendix(p)
    assert is_convergent(done).ok
    assert brute_force_confluence(done, 5).ok
    assert same_congruence(p, done, 4).agree
    assert any(e.kind == "add" for e in trace)


def test_inter_reduction_drops_redundant_rule():
    # aaa -> a follows from aa -> a; completion should collapse it away
    p = parse_presentation(
        "generators: a\norder: shortlex a\nrules:\n big: a a a -> a\n r: a a -> a"
    )
    done, trace = knuth_bendix(p)
    assert {(r.lhs, r.rhs) for r in done.rules} == {(w("aa"), w("a"))}
    assert any(e.kind == "remove" and e.rule_id == "big" for e in trace)
    assert is_convergent(done).ok
    assert same_congruence(p, done, 5).agree


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_first_split_pair_agrees_with_the_pairwise_loop(seed):
    rng = random.Random(seed)
    words = [(str(i),) for i in range(rng.randint(0, 12))]
    classes = rng.randint(1, 4)
    classes_p = {v: (str(rng.randrange(classes)),) for v in words}
    classes_q = dict(classes_p) if rng.random() < 0.3 else {
        v: (str(rng.randrange(classes)),) for v in words
    }
    assert _first_split_pair(words, classes_p, classes_q) == first_split_pair_oracle(
        words, classes_p, classes_q
    )


def test_same_congruence_witness_matches_the_pairwise_loop():
    rng = random.Random(5)
    checked = 0
    for _ in range(80):
        p = random_terminating_presentation(rng)
        q = random_terminating_presentation(rng)
        if p.generators != q.generators:
            continue
        bound = 3 + max(len(r.lhs) for r in p.rules + q.rules)
        expected = first_split_pair_oracle(
            list(words_up_to(p.generators, 3)),
            _congruence_classes(p, bound),
            _congruence_classes(q, bound),
        )
        assert same_congruence(p, q, 3).witness == expected
        checked += expected is not None
    assert checked > 10
