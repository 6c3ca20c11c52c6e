import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    BoundaryError,
    DisjointnessError,
    Path,
    RewriteStep,
    compose,
    conjugate,
    exchange_swap,
    format_path,
    free_reduce,
    invert,
    parse_path,
    parse_presentation,
    whisker,
)
from helpers import (
    as_presentation,
    four_rule_presentation,
    random_mixed_path,
    random_terminating_presentation,
    random_word,
    w,
)


def _step(p, word, rule_id, pos, sign=1):
    return RewriteStep(w(word), p.rule_by_id[rule_id], pos, sign)


def test_target():
    p = as_presentation()
    assert Path(w("aa")).target == w("aa")
    two = Path(w("aaa"), (_step(p, "aaa", "r", 0), _step(p, "aa", "r", 0)))
    assert two.target == w("a")
    back = Path(w("aa"), (_step(p, "aa", "r", 0, -1),))
    assert back.target == w("aaa")


def test_compose_and_units():
    p = as_presentation()
    first = Path(w("aaa"), (_step(p, "aaa", "r", 0),))
    second = Path(w("aa"), (_step(p, "aa", "r", 0),))
    both = compose(first, second)
    assert both.base == w("aaa") and both.target == w("a") and len(both) == 2
    assert compose(first, Path(w("aa"))) == first
    assert compose(Path(w("aaa")), first) == first
    with pytest.raises(BoundaryError):
        compose(first, Path(w("aaa")))


def test_compose_associative():
    p = as_presentation()
    a = Path(w("aaaa"), (_step(p, "aaaa", "r", 0),))
    b = Path(w("aaa"), (_step(p, "aaa", "r", 0),))
    c = Path(w("aa"), (_step(p, "aa", "r", 0),))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_invert():
    p = as_presentation()
    fwd = Path(w("aaa"), (_step(p, "aaa", "r", 0),))
    back = invert(fwd)
    assert back.base == w("aa") and back.target == w("aaa")
    assert [(s.rule.rule_id, s.pos, s.sign) for s in back.steps] == [("r", 0, -1)]
    assert invert(Path(w("aa"))) == Path(w("aa"))
    assert invert(invert(fwd)) == fwd


def test_whisker():
    p = as_presentation()
    inner = Path(w("aa"), (_step(p, "aa", "r", 0),))
    shifted = whisker(w("a"), inner, ())
    assert shifted.base == w("aaa")
    assert [(s.pos, s.sign) for s in shifted.steps] == [(1, 1)]
    assert whisker((), inner, ()) == inner


def test_whisker_distributes_over_compose_and_invert():
    rng = random.Random(2)
    p = four_rule_presentation()
    for _ in range(50):
        base = random_word(rng, p, 4)
        first = random_mixed_path(rng, p, base, 4)
        second = random_mixed_path(rng, p, first.target, 4)
        u, v = random_word(rng, p, 2), random_word(rng, p, 2)
        assert whisker(u, compose(first, second), v) == compose(
            whisker(u, first, v), whisker(u, second, v)
        )
        assert whisker(u, invert(first), v) == invert(whisker(u, first, v))


def test_free_reduce_cancellation():
    p = as_presentation()
    loop = Path(w("aaa"), (_step(p, "aaa", "r", 0), _step(p, "aa", "r", 0, -1)))
    assert free_reduce(loop) == Path(w("aaa"))


def test_free_reduce_four_step_boundary_loop():
    # (down, down) then (up at 0, up at 1): the middle pair cancels
    p = as_presentation()
    loop = parse_path("aaa: +r@0 +r@0 -r@0 -r@1", p)
    reduced = free_reduce(loop)
    assert format_path(reduced, p) == "aaa: +r@0 -r@1"


def test_free_reduce_idempotent_and_whisker_commutes():
    rng = random.Random(9)
    p = four_rule_presentation()
    for _ in range(100):
        base = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, base, 6)
        reduced = free_reduce(path)
        assert free_reduce(reduced) == reduced
        u, v = random_word(rng, p, 2), random_word(rng, p, 2)
        assert whisker(u, reduced, v) == free_reduce(whisker(u, path, v))


def test_free_reduce_kills_path_times_inverse():
    rng = random.Random(17)
    p = four_rule_presentation()
    for _ in range(100):
        base = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, base, 5)
        assert free_reduce(compose(path, invert(path))) == Path(base)


def test_exchange_swap_disjoint():
    p = as_presentation()
    path = parse_path("aaaa: +r@0 +r@1", p)  # second acts at old position 2
    swapped = exchange_swap(path, 0)
    assert [(s.rule.rule_id, s.pos) for s in swapped.steps] == [("r", 2), ("r", 0)]
    assert swapped.base == path.base and swapped.target == path.target
    assert exchange_swap(swapped, 0) == path


def test_exchange_swap_overlap_rejected():
    p = as_presentation()
    path = parse_path("aaa: +r@0 +r@0", p)
    with pytest.raises(DisjointnessError):
        exchange_swap(path, 0)
    with pytest.raises(DisjointnessError):
        exchange_swap(path, 5)


def test_exchange_swap_random_pairs_keep_endpoints():
    rng = random.Random(23)
    p = four_rule_presentation()
    swaps = 0
    for _ in range(200):
        base = random_word(rng, p, 6)
        path = random_mixed_path(rng, p, base, 6)
        for i in range(len(path.steps) - 1):
            try:
                swapped = exchange_swap(path, i)
            except DisjointnessError:
                continue
            swaps += 1
            assert swapped.base == path.base
            assert swapped.target == path.target
            assert exchange_swap(swapped, i) == path
    assert swaps > 50



def test_exchange_swap_is_not_an_involution_across_an_empty_factor():
    # two paths swap to one middle path, so no swap can undo both
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r2: a ->\n")
    first = parse_path("ba: -r2@2 +r2@1", p)
    other = parse_path("ba: -r2@1 +r2@2", p)
    middle = parse_path("ba: +r2@1 -r2@1", p)
    assert exchange_swap(first, 0) == middle
    assert exchange_swap(other, 0) == middle
    assert exchange_swap(middle, 0) == other


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_exchange_swap_twice_restores_without_empty_sides(seed):
    rng = random.Random(seed)
    p = random_terminating_presentation(rng)
    assume(all(rule.rhs for rule in p.rules))
    path = random_mixed_path(rng, p, random_word(rng, p, 6), 8)
    for i in range(len(path) - 1):
        try:
            swapped = exchange_swap(path, i)
        except DisjointnessError:
            continue
        assert exchange_swap(swapped, i) == path


def test_conjugate():
    p = as_presentation()
    beta = parse_path("aaa: +r@0 -r@1", p)
    assert conjugate(beta, Path(w("aaa"))) == beta
    assert conjugate(Path(w("aaa")), parse_path("aa: -r@0", p)) == Path(w("aa"))
    moved = conjugate(beta, parse_path("aa: -r@0", p))
    assert moved.base == moved.target == w("aa")
    # g's step cancels against the loop's first step under free reduction
    assert format_path(moved, p) == "aa: -r@1 +r@0"


def test_conjugate_boundary_checks():
    p = as_presentation()
    beta = parse_path("aaa: +r@0 -r@1", p)
    with pytest.raises(BoundaryError):
        conjugate(beta, Path(w("aa")))  # conjugator ends at the wrong word
    not_closed = parse_path("aaa: +r@0", p)
    with pytest.raises(BoundaryError):
        conjugate(not_closed, Path(w("aaa")))


def test_path_syntax_round_trip():
    p = four_rule_presentation()
    rng = random.Random(29)
    for _ in range(50):
        base = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, base, 5)
        assert parse_path(format_path(path, p), p) == path
    assert format_path(Path(()), p) == "ε:"
    assert parse_path("ε:", p) == Path(())
