"""Derived paths are stored by ``Path._derived`` without a replay.  Each
builder's paths replay to themselves: ``Path.from_moves(p.base, p.moves)``
equals the path and ends at its stated target.  The ``replay_derived``
fixture catches a derived path whose moves or target are wrong."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srs import (
    DisjointnessError,
    MatchError,
    Path,
    basis_loops,
    comparison_path,
    compose,
    conjugate,
    decompose_loop,
    exchange_swap,
    free_reduce,
    functor_image,
    invert,
    normal_path,
    normalize,
    parse_presentation,
    parse_translation_map,
    whisker,
)
from helpers import (
    as_presentation,
    four_rule_presentation,
    random_loop,
    random_mixed_path,
    random_terminating_presentation,
    random_word,
    w,
)

SORTING_TEXT = (
    "generators: a b c\norder: shortlex a < b < c\nrules:\n"
    " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n"
)
SORTING_D_TEXT = (
    "generators: a b c d\norder: weights a=1 b=1 c=1 d=2\nrules:\n"
    " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n r4: d -> a b\n"
)
SORTING_D_MAP = (
    "forward: a -> a\nforward: b -> b\nforward: c -> c\n"
    "backward: a -> a\nbackward: b -> b\nbackward: c -> c\nbackward: d -> a b\n"
)

PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2**32 - 1)


def presentations(rng):
    return (
        as_presentation(),
        four_rule_presentation(),
        parse_presentation(SORTING_TEXT),
        random_terminating_presentation(rng),
    )


def mixed_paths(seed):
    rng = random.Random(seed)
    for p in presentations(rng):
        yield rng, p, random_mixed_path(rng, p, random_word(rng, p, 8), 10)


def assert_replays(path):
    replayed = Path.from_moves(path.base, path.moves)
    assert replayed == path and replayed.target == path.target


@PROPERTY
@given(SEEDS)
def test_normalize_replays(seed):
    rng = random.Random(seed)
    for p in presentations(rng):
        word = random_word(rng, p, 12)
        target, path = normalize(word, p)
        assert_replays(path)
        assert path.base == word and path.target == target


@PROPERTY
@given(SEEDS)
def test_invert_replays(seed):
    for _, _, path in mixed_paths(seed):
        assert_replays(invert(path))


@PROPERTY
@given(SEEDS)
def test_compose_replays(seed):
    for rng, p, path in mixed_paths(seed):
        assert_replays(compose(path, random_mixed_path(rng, p, path.target, 10)))


@PROPERTY
@given(SEEDS)
def test_whisker_replays(seed):
    for rng, p, path in mixed_paths(seed):
        assert_replays(whisker(random_word(rng, p, 3), path, random_word(rng, p, 3)))


@PROPERTY
@given(SEEDS)
def test_free_reduce_replays(seed):
    for rng, p, path in mixed_paths(seed):
        back = random_mixed_path(rng, p, path.target, 4)
        assert_replays(free_reduce(compose(compose(path, back), invert(back))))


@PROPERTY
@given(SEEDS)
def test_exchange_swap_replays(seed):
    for _, _, path in mixed_paths(seed):
        for i in range(len(path) - 1):
            try:
                swapped = exchange_swap(path, i)
            except DisjointnessError:
                continue
            assert_replays(swapped)


def loops(seed):
    rng = random.Random(seed)
    for p in (as_presentation(), four_rule_presentation(), parse_presentation(SORTING_TEXT)):
        basis = tuple(bl.loop for bl in basis_loops(p))
        yield rng, p, basis, random_loop(rng, p, basis, max_len=6)


@PROPERTY
@given(SEEDS)
def test_conjugate_replays(seed):
    for rng, p, _, loop in loops(seed):
        assert_replays(conjugate(loop, invert(random_mixed_path(rng, p, loop.base, 4))))


@PROPERTY
@given(SEEDS)
def test_generating_confluences_and_conjugators_replay(seed):
    for _, p, basis, loop in loops(seed):
        for basis_loop in basis:
            assert_replays(basis_loop)
        for entry in decompose_loop(loop, p).entries:
            assert_replays(entry.conjugator)
            assert entry.conjugator.base == loop.base


def sorting_pair():
    sigma = parse_presentation(SORTING_TEXT)
    upsilon = parse_presentation(SORTING_D_TEXT)
    return sigma, upsilon, parse_translation_map(SORTING_D_MAP, sigma, upsilon)


@PROPERTY
@given(SEEDS)
def test_functor_image_and_comparison_path_replay(seed):
    rng = random.Random(seed)
    sigma, upsilon, m = sorting_pair()
    path = random_mixed_path(rng, sigma, random_word(rng, sigma, 8), 10)
    image = functor_image(path, m, sigma, upsilon)
    assert_replays(image)
    assert_replays(functor_image(image, m.inverse(), upsilon, sigma))
    assert_replays(comparison_path(path.base, m, sigma, upsilon))
    up = random_mixed_path(rng, upsilon, random_word(rng, upsilon, 6), 10)
    assert_replays(functor_image(up, m.inverse(), upsilon, sigma))
    assert_replays(comparison_path(up.base, m.inverse(), upsilon, sigma))


# ---------------------------------------------------------------------------
# the replay fixture catches a wrong derived path


def test_the_fixture_catches_a_wrong_target(replay_derived):
    _, path = normalize(w("aaaa"), as_presentation())
    assert Path._derived(path.base, path.moves, path.target) == path
    with pytest.raises(AssertionError, match="derived path ends at"):
        Path._derived(path.base, path.moves, path.base)


def compose_without_the_joint_check(p, q):
    return Path._derived(p.base, p.moves + q.moves, q.target)


def test_the_fixture_catches_compose_without_its_joint_check(replay_derived):
    p = as_presentation()
    down = normal_path(p, w("aaa"))
    # q's move does not apply where down ends
    with pytest.raises(MatchError):
        compose_without_the_joint_check(down, normal_path(p, w("aa")))
    # q's moves apply where down ends, but lead elsewhere than q's target
    with pytest.raises(AssertionError, match="derived path ends at"):
        compose_without_the_joint_check(down, Path.from_moves(w("aa"), []))
