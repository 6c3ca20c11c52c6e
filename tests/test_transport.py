import random

import pytest

from srs import (
    ParseError,
    Path,
    RewriteStep,
    TranslationError,
    TranslationMap,
    basis_loops,
    check_translation,
    comparison_loop,
    compose,
    footprint,
    format_path,
    functor_image,
    parse_presentation,
    parse_translation_map,
    rule_comparison_loop,
    translate_word,
    transported_generators,
    decompose_loop,
)
from srs.transport import _rule_image, format_translation_map
from helpers import as_presentation, random_loop, random_mixed_path, random_word, w

# every path these tests derive is replayed (see conftest.py)
pytestmark = pytest.mark.usefixtures("replay_derived")

UPSILON_TEXT = "generators: b e\norder: shortlex b < e\nrules:\n u1: b b -> b\n u2: e ->\n"


def upsilon():
    return parse_presentation(UPSILON_TEXT)


def as_to_upsilon_map(sigma=None, ups=None):
    sigma = sigma or as_presentation()
    ups = ups or upsilon()
    return parse_translation_map(
        "forward: a -> b\nbackward: b -> a\nbackward: e -> ε\n", sigma, ups
    )


def test_functor_image_of_an_untranslated_generator_is_an_error():
    p = parse_presentation("generators: a c\norder: shortlex a < c\nrules:\n r: a a -> a\n")
    m = TranslationMap((("a", ("b",)),), ())
    path = Path.from_moves(w("caa"), [(p.rules[0], 1, 1)])
    with pytest.raises(TranslationError, match="no translation for generator 'c'"):
        functor_image(path, m, p, upsilon())


def test_check_translation_renaming():
    sigma = as_presentation()
    tau = parse_presentation("generators: b\norder: shortlex b\nrules:\n s: b b -> b")
    m = parse_translation_map("forward: a -> b\nbackward: b -> a\n", sigma, tau)
    assert check_translation(sigma, tau, m).ok


def test_check_translation_with_unit_generator():
    report = check_translation(as_presentation(), upsilon(), as_to_upsilon_map())
    assert report.ok


def test_check_translation_degenerate_map_fails_round_trip():
    sigma = as_presentation()
    tau = parse_presentation("generators: b\norder: shortlex b\nrules:\n s: b b -> b")
    m = TranslationMap((("a", ()),), (("b", w("a")),))
    report = check_translation(sigma, tau, m)
    assert not report.ok
    assert any("round trip" in msg for msg in report.failures)


def test_map_must_cover_all_generators():
    with pytest.raises(TranslationError, match="cover"):
        parse_translation_map("forward: a -> b\nbackward: b -> a\n", as_presentation(), upsilon())


@pytest.mark.parametrize("head, name", [("forward", "a"), ("backward", "b")])
def test_a_duplicate_map_entry_is_a_parse_error(head, name):
    text = f"forward: a -> b\nbackward: b -> a\n{head}: {name} -> {'b' if head == 'forward' else 'a'}\n"
    tau = parse_presentation("generators: b\norder: shortlex b\nrules:\n s: b b -> b")
    with pytest.raises(ParseError) as info:
        parse_translation_map(text, as_presentation(), tau)
    assert info.value.line == 3
    assert str(info.value) == f"line 3, col 1: duplicate {head} entry for '{name}'"


def test_translation_map_round_trip_format():
    sigma, ups = as_presentation(), upsilon()
    m = as_to_upsilon_map(sigma, ups)
    text = format_translation_map(m, sigma, ups)
    assert parse_translation_map(text, sigma, ups) == m


def test_a_rule_image_is_kept_under_both_of_its_words():
    ups = upsilon()
    down, up = _rule_image(ups, w("bbe"), w("b")), _rule_image(ups, w("bbe"), w("bb"))
    assert (down.base, down.target, up.base, up.target) == (w("bbe"), w("b"), w("bbe"), w("bb"))
    assert _rule_image(ups, w("bbe"), w("b")) is down


def test_functor_image_identity_path():
    sigma, ups = as_presentation(), upsilon()
    m = as_to_upsilon_map(sigma, ups)
    image = functor_image(Path(w("a")), m, sigma, ups)
    assert image == Path(w("b"))


def test_functor_image_of_rule_step():
    sigma = as_presentation()
    tau = parse_presentation("generators: b\norder: shortlex b\nrules:\n s: b b -> b")
    m = parse_translation_map("forward: a -> b\nbackward: b -> a\n", sigma, tau)
    step_path = Path(w("aa"), (RewriteStep(w("aa"), sigma.rules[0], 0, 1),))
    image = functor_image(step_path, m, sigma, tau)
    assert format_path(image, tau) == "bb: +s@0"


def test_functor_image_preserves_closure_and_structure():
    rng = random.Random(73)
    sigma, ups = as_presentation(), upsilon()
    m = as_to_upsilon_map(sigma, ups)
    basis = tuple(bl.loop for bl in basis_loops(sigma))
    for _ in range(50):
        loop = random_loop(rng, sigma, basis)
        image = functor_image(loop, m, sigma, ups)
        assert image.base == translate_word(loop.base, m.forward_map)
        assert image.is_closed
    for _ in range(50):
        base = random_word(rng, sigma, 5)
        first = random_mixed_path(rng, sigma, base, 4)
        second = random_mixed_path(rng, sigma, first.target, 4)
        assert functor_image(compose(first, second), m, sigma, ups) == compose(
            functor_image(first, m, sigma, ups), functor_image(second, m, sigma, ups)
        )


def test_rule_comparison_loop_trivial_for_renaming():
    sigma, ups = as_presentation(), upsilon()
    m = as_to_upsilon_map(sigma, ups)
    loop = rule_comparison_loop(sigma.rules[0], m, sigma, ups)
    assert loop == Path(w("aa"))
    assert footprint(loop, sigma) == {}


def test_comparison_loop_nontrivial_round_trip():
    # the backward image of c is aa, so comparison cells are genuine zigzags
    sigma = as_presentation()
    tau = parse_presentation("generators: c\norder: shortlex c\nrules:\n s: c c -> c")
    m = parse_translation_map("forward: a -> c\nbackward: c -> a a\n", sigma, tau)
    assert check_translation(sigma, tau, m).ok
    loop = rule_comparison_loop(sigma.rules[0], m, sigma, tau)
    assert loop.base == w("aa") and loop.is_closed
    assert len(loop.steps) > 0
    # still decomposable over the basis
    from srs import verify_certificate

    cert = decompose_loop(loop, sigma)
    assert verify_certificate(loop, cert, sigma).ok


def test_transported_generators_identity():
    sigma = as_presentation()
    m = parse_translation_map("forward: a -> a\nbackward: a -> a\n", sigma, sigma)
    basis = tuple(bl.loop for bl in basis_loops(sigma))
    gens = transported_generators(sigma, sigma, m, basis)
    labels = [label for label, _ in gens]
    assert labels == ["cmp_r", "img_1"]
    assert gens[0][1] == Path(w("aa"))  # comparison loop of the rule is trivial
    assert gens[1][1] == basis[0]  # the basis loop passes through unchanged


def test_transported_generators_counts():
    sigma, ups = as_presentation(), upsilon()
    m = as_to_upsilon_map(sigma, ups)
    basis = tuple(bl.loop for bl in basis_loops(ups))
    assert len(basis) == 1  # bb/bb overlap only; the unit rule cannot overlap
    gens = transported_generators(sigma, ups, m, basis)
    assert len(gens) == len(sigma.rules) + len(basis)
    # the image of the target-side basis loop is the source-side basis loop
    assert gens[1][1] == basis_loops(sigma)[0].loop


def test_transport_decomposition_formula():
    # footprint of a path's comparison loop = signed sum of per-step
    # context actions on the rules' comparison loop footprints
    rng = random.Random(79)
    sigma = as_presentation()
    tau = parse_presentation("generators: c\norder: shortlex c\nrules:\n s: c c -> c")
    m = parse_translation_map("forward: a -> c\nbackward: c -> a a\n", sigma, tau)
    from srs import act_footprint

    rule_fp = {
        rule.rule_id: footprint(rule_comparison_loop(rule, m, sigma, tau), sigma)
        for rule in sigma.rules
    }
    for _ in range(60):
        base = random_word(rng, sigma, 5)
        path = random_mixed_path(rng, sigma, base, 5)
        lhs = footprint(comparison_loop(path, m, sigma, tau), sigma)
        rhs: dict = {}
        for step in path.steps:
            left = step.source[: step.pos]
            right = step.source[step.pos + len(step.matched) :]
            acted = act_footprint((left, right), rule_fp[step.rule.rule_id], sigma)
            for key, value in acted.items():
                total = rhs.get(key, 0) + step.sign * value
                if total:
                    rhs[key] = total
                else:
                    rhs.pop(key, None)
        assert lhs == rhs


def test_transport_splitting_law():
    rng = random.Random(83)
    sigma, ups = as_presentation(), upsilon()
    m = as_to_upsilon_map(sigma, ups)
    basis = tuple(bl.loop for bl in basis_loops(sigma))
    for _ in range(60):
        loop = random_loop(rng, sigma, basis)
        lam = comparison_loop(loop, m, sigma, ups)
        gf = functor_image(
            functor_image(loop, m, sigma, ups), m.inverse(), ups, sigma
        )
        total = dict(footprint(lam, sigma))
        for key, value in footprint(gf, sigma).items():
            bumped = total.get(key, 0) + value
            if bumped:
                total[key] = bumped
            else:
                total.pop(key, None)
        assert footprint(loop, sigma) == total
