import random

import pytest

from srs import (
    FuelError,
    MatchError,
    NotConvergentError,
    Path,
    RewriteStep,
    apply_step,
    check_termination,
    find_redexes,
    normalize,
    parse_presentation,
    words_equal,
)
from helpers import (
    as_presentation,
    congruence_classes_oracle,
    four_rule_presentation,
    random_word,
    reachable_normal_forms,
    two_rule_presentation,
    w,
)


def test_find_redexes_all_positions():
    p = as_presentation()
    redexes = find_redexes(w("aaa"), p)
    assert [(r.rule_id, r.pos) for r in redexes] == [("r", 0), ("r", 1)]


def test_find_redexes_normal_form():
    p = as_presentation()
    assert find_redexes(w("a"), p) == ()


def test_find_redexes_no_occurrence():
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r: a a -> a")
    assert find_redexes(w("aba"), p) == ()


def test_apply_step_forward():
    p = as_presentation()
    step = RewriteStep(w("aaa"), p.rules[0], 1, 1)
    assert apply_step(step) == w("aa")


def test_apply_step_backward():
    p = as_presentation()
    step = RewriteStep(w("aa"), p.rules[0], 0, -1)
    assert apply_step(step) == w("aaa")


def test_step_match_failure():
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r: a a -> a")
    with pytest.raises(MatchError):
        RewriteStep(w("ab"), p.rules[0], 1, 1)


def test_normalize_leftmost():
    p = as_presentation()
    nf, path = normalize(w("aaaa"), p)
    assert nf == w("a")
    assert [(s.rule.rule_id, s.pos, s.sign) for s in path.steps] == [("r", 0, 1)] * 3


def test_normalize_normal_form_is_fixed():
    p = as_presentation()
    nf, path = normalize(w("a"), p)
    assert nf == w("a")
    assert path.steps == ()


def test_normalize_mixed_rules_against_bfs_oracle():
    p = four_rule_presentation()
    # the independent oracle: exhaustive reduction finds a single normal form,
    # and every reduction of abab takes exactly three length-reducing steps
    assert reachable_normal_forms(p, w("abab")) == {w("a")}
    nf, path = normalize(w("abab"), p)
    assert nf == w("a")
    assert len(path.steps) == 3
    assert [(s.rule.rule_id, s.pos) for s in path.steps] == [
        ("r1", 0),
        ("r3", 0),
        ("r1", 0),
    ]


def test_check_termination():
    assert check_termination(as_presentation()).ok
    bad = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a -> a a")
    cert = check_termination(bad)
    assert not cert.ok
    assert cert.violations == ("r",)
    assert check_termination(two_rule_presentation()).ok


def test_normalize_fuel_guard():
    bad = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a -> a a")
    with pytest.raises(FuelError):
        normalize(w("a"), bad, fuel=10)


def test_a_fuel_error_names_a_long_word_by_its_length():
    """A word of more than 40 letters is named by its length and its first
    40 letters, not quoted whole (a^1000002 under ``a a -> a`` once gave a
    message of a megabyte)."""
    with pytest.raises(FuelError) as caught:
        normalize(("a",) * 5000, as_presentation(), fuel=3)
    assert str(caught.value) == (
        f"no normal form within 3 steps from a word of 5000 letters beginning {'a' * 40!r}"
    )


def test_words_equal_examples():
    p = as_presentation()
    assert words_equal(w("aaa"), w("a"), p)
    assert not words_equal((), w("a"), p)


def test_words_equal_requires_convergence():
    p = two_rule_presentation()
    with pytest.raises(NotConvergentError, match=r"^presentation is not convergent; run 'complete' first$"):
        words_equal(w("ab"), w("a"), p)


def test_words_equal_matches_congruence_oracle():
    rng = random.Random(7)
    for p in (as_presentation(), four_rule_presentation()):
        classes = congruence_classes_oracle(p, 8)
        for _ in range(200):
            u = random_word(rng, p, 6)
            v = random_word(rng, p, 6)
            assert words_equal(u, v, p) == (classes[u] is classes[v])


def test_positive_steps_decrease_the_order():
    from srs import GREATER, compare_words

    rng = random.Random(3)
    p = four_rule_presentation()
    for _ in range(300):
        word = random_word(rng, p, 7)
        redexes = find_redexes(word, p)
        if not redexes:
            continue
        redex = rng.choice(redexes)
        step = RewriteStep(word, redex.rule, redex.pos, 1)
        assert compare_words(p.order, word, apply_step(step)) is GREATER


def test_normalize_idempotent():
    rng = random.Random(5)
    p = four_rule_presentation()
    for _ in range(100):
        word = random_word(rng, p, 6)
        nf, _ = normalize(word, p)
        again, path = normalize(nf, p)
        assert again == nf and path.steps == ()


def test_redexes_empty_iff_path_empty():
    rng = random.Random(11)
    p = four_rule_presentation()
    for _ in range(200):
        word = random_word(rng, p, 6)
        _, path = normalize(word, p)
        assert (find_redexes(word, p) == ()) == (path.steps == ())


def test_mixed_reachability_normalizes_equal():
    # any word reachable by mixed-direction steps has the same normal form
    from helpers import random_mixed_path

    rng = random.Random(13)
    p = four_rule_presentation()
    for _ in range(100):
        word = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, word, 6)
        assert normalize(word, p)[0] == normalize(path.target, p)[0]


def test_path_chaining_enforced():
    p = as_presentation()
    good = RewriteStep(w("aaa"), p.rules[0], 0, 1)
    with pytest.raises(ValueError):
        Path(w("aa"), (good,))
    chained = Path(w("aaa"), (good,))
    assert chained.target == w("aa")
