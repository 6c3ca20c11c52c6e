"""The index automaton against the slice-scan oracles: the state after a
word names exactly the left-hand sides that end there, and ``normalize``
(under fuel), a scan from state 0 at every start and ``find_redexes`` agree
with ``normalize_oracle`` and ``find_redexes_oracle`` on systems where one
left-hand side contains, extends or repeats another, and on completed
systems."""

import random
from pathlib import Path as FilePath

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
    parse_presentation,
)
from helpers import (
    find_redexes_oracle,
    normalize_oracle,
    random_terminating_presentation,
    random_word,
    scanned_redex,
)

INPUTS = FilePath(__file__).resolve().parent.parent / "srsbench" / "inputs"

PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


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
def arbitrary_systems(draw):
    """Unoriented rules over 1-3 letters, some left-hand sides repeated
    under a later rule id."""
    alphabet = tuple("abc"[: draw(st.integers(1, 3))])
    word = st.lists(st.sampled_from(alphabet), max_size=4).map(tuple)
    lhss = draw(st.lists(word.filter(bool), max_size=5))
    if lhss:
        lhss = draw(st.permutations(lhss + draw(st.lists(st.sampled_from(lhss), max_size=2))))
    return _presentation(draw, alphabet, lhss, word)


@st.composite
def nested_systems(draw):
    """Left-hand sides cut from one word, so that they contain one another
    or are prefixes of one another, in any rule order."""
    alphabet = tuple("abc"[: draw(st.integers(1, 3))])
    word = st.lists(st.sampled_from(alphabet), max_size=4).map(tuple)
    spine = tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)))
    cuts = st.tuples(st.integers(0, len(spine) - 1), st.integers(1, len(spine)))
    lhss = [spine[i : i + n] for i, n in draw(st.lists(cuts, min_size=1, max_size=5))]
    lhss = [lhs for lhs in lhss if lhs] or [spine]
    return _presentation(draw, alphabet, lhss, word)


def _presentation(draw, alphabet, lhss, word) -> Presentation:
    rules = [
        Rule(f"r{k}", lhs, draw(word.filter(lambda v, lhs=lhs: v != lhs)))
        for k, lhs in enumerate(lhss, 1)
    ]
    return Presentation(alphabet, tuple(rules), OrderSpec("shortlex", alphabet))


def with_word(systems, max_len=24):
    return systems.flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.sampled_from(p.generators), max_size=max_len).map(tuple),
        )
    )


def outcome(normalizer, w, p, fuel):
    """Normal form and (rule id, position) steps, or the FuelError message."""
    try:
        nf, path = normalizer(w, p, fuel)
    except FuelError as exc:
        return ("fuel", str(exc))
    return nf, [(s.rule.rule_id, s.pos) for s in path.steps]


def assert_matches_oracles(p, w, fuel=40):
    expected = find_redexes_oracle(w, p)
    assert find_redexes(w, p) == expected
    for start in range(len(w) + 2):
        assert scanned_redex(w, p, start) == next((r for r in expected if r.pos >= start), None)
    assert outcome(normalize, w, p, fuel) == outcome(normalize_oracle, w, p, fuel)


def suffix_matches(index, w):
    """``(length, rule index)`` of every left-hand side the automaton says
    ends after reading ``w`` from state 0, through its output links."""
    state = 0
    for letter in w:
        state = index.delta[state].get(letter, 0)
    node = state if index.ends[state] else index.out[state]
    found = []
    while node:
        found.extend((index.longest[node], rule) for rule in index.ends[node])
        node = index.out[node]
    return state, sorted(found)


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(with_word(arbitrary_systems(), max_len=8))
def test_state_names_the_left_hand_sides_ending_there(case):
    p, w = case
    index = p.index_automaton
    state, found = suffix_matches(index, w)
    expected = sorted(
        (len(rule.lhs), k)
        for k, rule in enumerate(p.rules)
        if w[max(0, len(w) - len(rule.lhs)) :] == rule.lhs
    )
    assert found == expected
    longest = max((n for n, _ in expected), default=0)
    assert index.longest[state] == longest
    if longest:
        assert index.lowest[state] == min(k for n, k in expected if n == longest)
    assert all(set(row) == set(p.generators) for row in index.delta)
    assert index.depth == max((len(rule.lhs) for rule in p.rules), default=0)


@PROPERTY
@given(with_word(arbitrary_systems()), st.integers(0, 40))
def test_arbitrary_systems_agree_with_oracles(case, fuel):
    assert_matches_oracles(*case, fuel=fuel)


@PROPERTY
@given(with_word(nested_systems()), st.integers(0, 40))
def test_nested_left_hand_sides_agree_with_oracles(case, fuel):
    assert_matches_oracles(*case, fuel=fuel)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_completed_systems_agree_with_oracles(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    for _ in range(4):
        assert_matches_oracles(q, random_word(rng, q, 20), fuel=10**4)


def test_completed_a5_agrees_with_oracles():
    q = parse_presentation((INPUTS / "a5_completed.pres").read_text(encoding="utf-8"))
    rng = random.Random(8)
    for _ in range(40):
        assert_matches_oracles(q, random_word(rng, q, 30), fuel=10**4)


# ---------------------------------------------------------------------------
# named cases


def redex_list(redexes):
    return [(r.rule_id, r.pos) for r in redexes]


def test_first_match_to_end_does_not_start_leftmost():
    p = system("abc", ("b", "c"), ("a b c", "c"))
    w = tuple("abc")
    assert redex_list([scanned_redex(w, p)]) == [("r2", 0)]
    assert redex_list(find_redexes(w, p)) == [("r2", 0), ("r1", 1)]
    assert_matches_oracles(p, w)


def test_lowest_index_at_the_leftmost_start_needs_the_full_lookahead():
    p = system("abc", ("a b c", "c"), ("a", "b"))
    w = tuple("abc")
    assert redex_list([scanned_redex(w, p)]) == [("r1", 0)]
    assert outcome(normalize, w, p, 10) == (("c",), [("r1", 0)])
    assert_matches_oracles(p, w)
    assert_matches_oracles(p, tuple("aabcabc"))


def test_letters_outside_the_alphabet_reset_the_scan():
    p = system("ab", ("a b", "b"), ("b b", "a"))
    w = ("a", "z", "b", "a", "b", "q", "b", "b")
    assert redex_list(find_redexes(w, p)) == [("r1", 3), ("r2", 6)]
    assert_matches_oracles(p, w)
    assert normalize(("z",), p)[0] == ("z",)


def test_empty_word_and_no_rules():
    p = system("ab", ("a b", "b"))
    assert_matches_oracles(p, ())
    bare = system("ab")
    assert bare.index_automaton.depth == 0
    for w in ((), tuple("abba")):
        assert find_redexes(w, bare) == ()
        assert scanned_redex(w, bare) is None
        nf, path = normalize(w, bare)
        assert nf == w and len(path) == 0


def test_start_past_the_end_of_the_word():
    p = system("ab", ("a", "b"))
    w = tuple("ab")
    assert scanned_redex(w, p, 2) is None
    assert scanned_redex(w, p, 5) is None
    assert scanned_redex((), p, 1) is None
