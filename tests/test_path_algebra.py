"""Steps that carry their target, paths that check only their joints, and
the one-pass transport, against the re-rewriting oracles they replaced:
the same words, the same steps with the same sources, the same paths."""

import dataclasses
import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    FuelError,
    MatchError,
    Path,
    RewriteStep,
    apply_step,
    basis_loops,
    comparison_path,
    compose,
    functor_image,
    invert,
    knuth_bendix,
    normalize,
    parse_presentation,
    parse_translation_map,
    whisker,
)
from helpers import (
    apply_step_oracle,
    as_presentation,
    comparison_path_oracle,
    four_rule_presentation,
    functor_image_oracle,
    invert_oracle,
    path_target_oracle,
    random_loop,
    random_mixed_path,
    random_terminating_presentation,
    random_word,
    w,
    whisker_oracle,
)

# every path these tests derive is replayed (see conftest.py)
pytestmark = pytest.mark.usefixtures("replay_derived")

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

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def sorting_pair():
    sigma = parse_presentation(SORTING_TEXT)
    upsilon = parse_presentation(SORTING_D_TEXT)
    return sigma, upsilon, parse_translation_map(SORTING_D_MAP, sigma, upsilon)


def completed(seed):
    """A random terminating system and its completion, or None when the
    completion gives up."""
    rng = random.Random(seed)
    p = random_terminating_presentation(rng)
    try:
        q, _ = knuth_bendix(p, fuel=12)
    except FuelError:
        return None
    return p, q


def layout(path):
    """Everything a path holds, each step's source and target included."""
    return (
        path.base,
        [(s.source, s.rule.rule_id, s.pos, s.sign, s.target) for s in path.steps],
        path.target,
    )


def assert_same(path, reference):
    assert path == reference
    assert layout(path) == layout(reference)


def assert_steps_match_oracles(path):
    for step in path.steps:
        assert step.target == apply_step_oracle(step)
        assert apply_step(step) == step.target
    assert path.target == path_target_oracle(path)


def check_algebra(rng, p, path):
    """Targets, inversion and whiskering of one path against the oracles."""
    assert_steps_match_oracles(path)
    assert_same(invert(path), invert_oracle(path))
    assert_steps_match_oracles(invert(path))
    u, v = random_word(rng, p, 3), random_word(rng, p, 3)
    assert_same(whisker(u, path, v), whisker_oracle(u, path, v))
    assert_steps_match_oracles(whisker(u, path, v))


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_mixed_paths_agree_with_oracles(seed):
    rng = random.Random(seed)
    for p in (
        as_presentation(),
        four_rule_presentation(),
        parse_presentation(SORTING_TEXT),
        random_terminating_presentation(rng),
    ):
        path = random_mixed_path(rng, p, random_word(rng, p, 8), 10)
        check_algebra(rng, p, path)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_loops_agree_with_oracles(seed):
    rng = random.Random(seed)
    for p in (as_presentation(), four_rule_presentation(), parse_presentation(SORTING_TEXT)):
        basis = tuple(bl.loop for bl in basis_loops(p))
        check_algebra(rng, p, random_loop(rng, p, basis, max_len=6))


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_completed_systems_agree_with_oracles(seed):
    pair = completed(seed)
    assume(pair is not None)
    p, q = pair
    rng = random.Random(seed)
    basis = tuple(bl.loop for bl in basis_loops(q))
    check_algebra(rng, q, random_loop(rng, q, basis, max_len=6))
    _, path = normalize(random_word(rng, q, 12), q)
    check_algebra(rng, q, path)
    # the identity map from p to its completion sends each rule of p to the
    # canonical zigzag between its sides in q
    m = parse_translation_map(
        "".join(f"forward: {g} -> {g}\nbackward: {g} -> {g}\n" for g in p.generators), p, q
    )
    f = random_mixed_path(rng, p, random_word(rng, p, 6), 8)
    assert_same(functor_image(f, m, p, q), functor_image_oracle(f, m, p, q))


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_transport_agrees_with_oracles(seed):
    rng = random.Random(seed)
    sigma, upsilon, m = sorting_pair()
    back = m.inverse()
    f = random_mixed_path(rng, sigma, random_word(rng, sigma, 10), 12)
    assert_same(functor_image(f, m, sigma, upsilon), functor_image_oracle(f, m, sigma, upsilon))
    g = random_mixed_path(rng, upsilon, random_word(rng, upsilon, 8), 12)
    assert_same(functor_image(g, back, upsilon, sigma), functor_image_oracle(g, back, upsilon, sigma))
    assert_steps_match_oracles(functor_image(g, back, upsilon, sigma))
    word = random_word(rng, upsilon, 10)
    assert_same(
        comparison_path(word, back, upsilon, sigma),
        comparison_path_oracle(word, back, upsilon, sigma),
    )
    word = random_word(rng, sigma, 10)
    assert_same(comparison_path(word, m, sigma, upsilon), comparison_path_oracle(word, m, sigma, upsilon))


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_functor_image_preserves_composition(seed):
    rng = random.Random(seed)
    sigma, upsilon, m = sorting_pair()
    for src, dst, mapping in ((sigma, upsilon, m), (upsilon, sigma, m.inverse())):
        first = random_mixed_path(rng, src, random_word(rng, src, 8), 8)
        second = random_mixed_path(rng, src, first.target, 8)
        assert_same(
            functor_image(compose(first, second), mapping, src, dst),
            compose(functor_image(first, mapping, src, dst), functor_image(second, mapping, src, dst)),
        )


# ---------------------------------------------------------------------------
# named cases for the checks that stay


def test_path_rejects_a_step_that_does_not_chain():
    p = as_presentation()
    step = RewriteStep(w("aaa"), p.rules[0], 0, 1)
    with pytest.raises(ValueError) as info:
        Path(w("aa"), (step,))
    assert str(info.value) == "step r@0 starts at aaa, expected aa"
    with pytest.raises(ValueError) as info:
        Path(w("aaa"), (step, step))
    assert str(info.value) == "step r@0 starts at aaa, expected aa"
    with pytest.raises(ValueError) as info:
        Path((), (step,))
    assert str(info.value) == "step r@0 starts at aaa, expected ε"


def test_step_rejects_a_mismatch():
    p = four_rule_presentation()
    with pytest.raises(MatchError, match=r"lhs of rule r1 does not occur at position 1 of 'aba'"):
        RewriteStep(w("aba"), p.rule_by_id["r1"], 1, 1)
    with pytest.raises(MatchError, match=r"rhs of rule r3 does not occur at position 0 of 'b'"):
        RewriteStep(w("b"), p.rule_by_id["r3"], 0, -1)
    with pytest.raises(MatchError, match="negative position"):
        RewriteStep(w("ab"), p.rule_by_id["r1"], -1, 1)


def test_inverse_step_of_an_empty_rule_side_must_sit_inside_the_word():
    p = parse_presentation("generators: b e\norder: shortlex b < e\nrules:\n u2: e ->\n")
    rule = p.rules[0]
    assert RewriteStep(w("b"), rule, 1, -1).target == w("be")
    assert RewriteStep(w("b"), rule, 0, -1).target == w("eb")
    with pytest.raises(MatchError, match=r"rhs of rule u2 does not occur at position 2 of 'b'"):
        RewriteStep(w("b"), rule, 2, -1)
    with pytest.raises(MatchError, match=r"position 1 of 'ε'"):
        RewriteStep((), rule, 1, -1)


def test_target_takes_no_part_in_equality_hash_or_repr():
    p = as_presentation()
    step = RewriteStep(w("aaa"), p.rules[0], 1, 1)
    twin = RewriteStep(w("aaa"), p.rules[0], 1, 1)
    object.__setattr__(twin, "target", w("x"))
    assert step == twin and hash(step) == hash(twin)
    assert hash(step) == hash((step.source, step.rule, step.pos, step.sign))
    assert repr(step) == f"RewriteStep(source=('a', 'a', 'a'), rule={p.rules[0]!r}, pos=1, sign=1)"
    path = Path(w("aaa"), (step,))
    other = Path(w("aaa"), (step,))
    object.__setattr__(other, "target", w("x"))
    assert path == other and hash(path) == hash(other)
    assert hash(path) == hash((path.base, path.moves))
    assert repr(path) == f"Path(base=('a', 'a', 'a'), moves=(({p.rules[0]!r}, 1, 1),))"
    for cls in (RewriteStep, Path):
        (target,) = [f for f in dataclasses.fields(cls) if f.name == "target"]
        assert not (target.init or target.repr or target.compare)
    assert not hasattr(step, "__dict__") and not hasattr(path, "__dict__")


def test_hashing_a_long_path_builds_no_steps(monkeypatch):
    p = as_presentation()
    path = Path.from_moves(w("a" * 10001), [(p.rules[0], 0, 1)] * 10**4)
    twin = Path.from_moves(w("a" * 10001), list(path.moves))
    monkeypatch.setattr(Path, "steps", property(lambda path: pytest.fail("steps were read")))
    assert hash(path) == hash(twin) and path == twin


def test_whiskered_steps_share_their_joint_words():
    p = as_presentation()
    _, path = normalize(w("aaaa"), p)
    steps = whisker(w("b"), path, w("b")).steps
    for before, after in zip(steps, steps[1:]):
        assert after.source is before.target


def test_functor_image_is_linear_in_path_length():
    sigma, upsilon, m = sorting_pair()
    _, path = normalize(w("cba" * 30), sigma)
    assert len(path) == 1395
    start = time.perf_counter()
    image = functor_image(path, m, sigma, upsilon)
    elapsed = time.perf_counter() - start
    assert len(image) == 1395
    assert elapsed < 0.5, f"functor_image of a 1395-step path took {elapsed:.2f} s"
