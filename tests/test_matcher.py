"""The left-hand-side trie matcher and incremental normalization against the
slice-scan oracles they replaced: the same redexes, the same leftmost-lowest
steps, the same normal forms and the same point where fuel runs out."""

import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    FuelError,
    OrderSpec,
    Presentation,
    Rule,
    find_redexes,
    knuth_bendix,
    normalize,
)
from srs.rewrite import _reduce
from helpers import (
    as_presentation,
    find_redexes_oracle,
    normalize_oracle,
    random_terminating_presentation,
    random_word,
    scanned_redex,
)

ALPHABETS = (("a", "b"), ("a", "b", "c"), ("x", "x1", "yy"))

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def system(generators, *rules) -> Presentation:
    """A presentation from ``(lhs, rhs)`` pairs of space-separated names,
    rule ids r1, r2, ... in order; rules need not decrease."""
    return Presentation(
        tuple(generators),
        tuple(
            Rule(f"r{k}", tuple(lhs.split()), tuple(rhs.split()))
            for k, (lhs, rhs) in enumerate(rules, 1)
        ),
        OrderSpec("shortlex", tuple(generators)),
    )


@st.composite
def systems(draw):
    """Arbitrary rule sets, not necessarily terminating, with repeated and
    nested left-hand sides and multi-letter generator names."""
    gens = draw(st.sampled_from(ALPHABETS))
    letters = st.sampled_from(gens)
    rules = []
    for k in range(draw(st.integers(0, 5))):
        lhs = tuple(draw(st.lists(letters, min_size=1, max_size=4)))
        rhs = tuple(draw(st.lists(letters, max_size=3)))
        if lhs != rhs:
            rules.append(Rule(f"r{k + 1}", lhs, rhs))
    return Presentation(gens, tuple(rules), OrderSpec("shortlex", gens))


@st.composite
def system_and_word(draw, max_len=30):
    p = draw(systems())
    word = tuple(draw(st.lists(st.sampled_from(p.generators), max_size=max_len)))
    return p, word


def outcome(normalizer, w, p, fuel):
    """Normal form and (rule id, position) steps, or the FuelError message."""
    try:
        nf, path = normalizer(w, p, fuel)
    except FuelError as exc:
        return ("fuel", str(exc))
    return nf, [(s.rule.rule_id, s.pos) for s in path.steps], path


def redex_list(redexes):
    return [(r.rule_id, r.pos) for r in redexes]


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(system_and_word())
def test_find_redexes_agrees_with_oracle(case):
    p, w = case
    assert find_redexes(w, p) == find_redexes_oracle(w, p)


@PROPERTY
@given(system_and_word(), st.integers(0, 32))
def test_first_redex_agrees_with_oracle(case, start):
    p, w = case
    expected = next((r for r in find_redexes_oracle(w, p) if r.pos >= start), None)
    assert scanned_redex(w, p, start) == expected


@PROPERTY
@given(system_and_word(max_len=20), st.integers(0, 40))
def test_normalize_agrees_with_oracle_under_fuel(case, fuel):
    p, w = case
    assert outcome(normalize, w, p, fuel) == outcome(normalize_oracle, w, p, fuel)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_normalize_agrees_on_random_terminating_systems(seed):
    rng = random.Random(seed)
    p = random_terminating_presentation(rng)
    for _ in range(5):
        w = random_word(rng, p, 24)
        assert outcome(normalize, w, p, 10**4) == outcome(normalize_oracle, w, p, 10**4)
        assert find_redexes(w, p) == find_redexes_oracle(w, p)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_reduce_until_stops_at_the_first_word_of_the_set_on_the_oracle_path(seed):
    """``_reduce(w, p.index_automaton, until=S)`` returns the first word of
    ``S`` along ``normalize_oracle``'s path and the path's moves up to it:
    ``w`` and no moves when ``w`` is in ``S``, the normal form and every
    move when no word of the path is."""
    rng = random.Random(seed)
    p = random_terminating_presentation(rng)
    w = random_word(rng, p, 24)
    _, path = normalize_oracle(w, p, 10**4)
    words = [source for source, *_ in path.walk()] + [path.target]
    some = {u for u in words if rng.random() < 0.2} | {random_word(rng, p, 24) for _ in range(3)}
    for stops in (some, some | {w}, set()):
        k = next((i for i, u in enumerate(words) if u in stops), len(words) - 1)
        assert _reduce(w, p.index_automaton, until=stops) == (words[k], list(path.moves[:k]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_agrees_on_completed_systems(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    for _ in range(5):
        w = random_word(rng, q, 24)
        assert outcome(normalize, w, q, 10**4) == outcome(normalize_oracle, w, q, 10**4)
        assert find_redexes(w, q) == find_redexes_oracle(w, q)


# ---------------------------------------------------------------------------
# named cases


def test_lower_index_wins_when_it_is_the_longer_prefix_rule():
    p = system("abc", ("a b c", "c"), ("a b", "b"))
    w = tuple("abc")
    assert redex_list([scanned_redex(w, p)]) == [("r1", 0)]
    assert redex_list(find_redexes(w, p)) == [("r1", 0), ("r2", 0)]
    q = system("abc", ("a b", "b"), ("a b c", "c"))
    assert redex_list([scanned_redex(w, q)]) == [("r1", 0)]
    assert redex_list(find_redexes(w, q)) == [("r1", 0), ("r2", 0)]


def test_earlier_start_wins_over_a_short_lhs_that_ends_first():
    p = system("abcd", ("b", "c"), ("a b c d", "d"))
    w = tuple("abcd")
    assert redex_list([scanned_redex(w, p)]) == [("r2", 0)]
    assert redex_list(find_redexes(w, p)) == [("r2", 0), ("r1", 1)]


def test_duplicate_left_hand_sides_list_every_rule_in_index_order():
    p = system("ab", ("a b", "b"), ("b", "a"), ("a b", "a"))
    w = tuple("ab")
    assert redex_list([scanned_redex(w, p)]) == [("r1", 0)]
    assert redex_list(find_redexes(w, p)) == [("r1", 0), ("r3", 0), ("r2", 1)]
    assert find_redexes(w, p) == find_redexes_oracle(w, p)


def test_multi_letter_generator_names():
    p = system(("x", "x1", "yy"), ("x x1", "yy"), ("x1", "x"), ("yy x", "x1"))
    w = ("x", "x1", "yy", "x", "x1")
    assert redex_list(find_redexes(w, p)) == [("r1", 0), ("r2", 1), ("r3", 2), ("r1", 3), ("r2", 4)]
    assert outcome(normalize, w, p, 100) == outcome(normalize_oracle, w, p, 100)


def test_empty_word():
    p = as_presentation()
    assert scanned_redex((), p) is None
    assert find_redexes((), p) == ()
    nf, path = normalize((), p)
    assert nf == () and len(path) == 0


def test_nonzero_start():
    p = as_presentation()
    w = tuple("aaa")
    assert [scanned_redex(w, p, start).pos for start in (0, 1)] == [0, 1]
    assert scanned_redex(w, p, 2) is None
    assert scanned_redex(w, p, 7) is None


def test_restart_window_reaches_back_to_a_new_redex():
    # the step at position 2 creates a redex starting two letters earlier
    p = system("abcxz", ("b x", "c"), ("a a c", "z"))
    w = tuple("aabx")
    nf, path = normalize(w, p)
    assert [(s.rule.rule_id, s.pos) for s in path.steps] == [("r1", 2), ("r2", 0)]
    assert nf == ("z",)
    assert outcome(normalize, w, p, 10) == outcome(normalize_oracle, w, p, 10)


@pytest.mark.parametrize("fuel", [0, 1, 3, 4])
def test_fuel_error_at_the_same_step_count(fuel):
    looping = system("a", ("a", "a a"))
    expected = outcome(normalize_oracle, ("a",), looping, fuel)
    assert expected[0] == "fuel"
    assert outcome(normalize, ("a",), looping, fuel) == expected
    p = as_presentation()  # a^5 needs exactly 4 steps
    assert outcome(normalize, tuple("aaaaa"), p, fuel) == outcome(
        normalize_oracle, tuple("aaaaa"), p, fuel
    )


def test_normalize_scales_with_the_number_of_steps():
    p = as_presentation()
    started = time.perf_counter()
    nf, path = normalize(("a",) * 4000, p)
    assert time.perf_counter() - started < 2.0
    assert nf == ("a",)
    assert len(path) == 3999
