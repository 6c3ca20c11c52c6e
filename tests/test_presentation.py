import itertools
import pickle
from pathlib import Path

import pytest

from srs import (
    EQUAL,
    GREATER,
    LESS,
    OrderSpec,
    ParseError,
    Presentation,
    Rule,
    compare_words,
    format_word,
    is_convergent,
    normal_form,
    parse_presentation,
    parse_word,
    print_presentation,
    validate,
)
from helpers import as_presentation, two_rule_presentation, w


def test_parse_basic():
    p = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a a -> a")
    assert p.generators == ("a",)
    assert len(p.rules) == 1
    assert p.rules[0].rule_id == "r"
    assert p.rules[0].lhs == w("aa")
    assert p.rules[0].rhs == w("a")


def test_parse_empty_rules():
    p = parse_presentation("generators: a\norder: shortlex a\nrules:")
    assert p.generators == ("a",)
    assert p.rules == ()


def test_parse_unknown_generator():
    with pytest.raises(ParseError) as excinfo:
        parse_presentation("rules:\n r: a -> a")
    assert "unknown generator" in str(excinfo.value)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as excinfo:
        parse_presentation("generators: a\nnonsense here\n")
    assert excinfo.value.line == 2


def test_parse_duplicate_generator():
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("generators: a a\norder: shortlex a\nrules:")


@pytest.mark.parametrize(
    "names, message",
    [
        (("a", "a", "b-c"), "bad generator name 'b-c'"),
        (("a", "b", "a"), "duplicate generator 'a'"),
    ],
)
def test_the_constructor_and_the_parser_check_generators_alike(names, message):
    """A bad name is reported before a repeated one, from either entry."""
    order = OrderSpec("shortlex", tuple(dict.fromkeys(names)))
    with pytest.raises(ValueError) as constructed:
        Presentation(names, (), order)
    with pytest.raises(ParseError) as parsed:
        parse_presentation(f"generators: {' '.join(names)}\nrules:")
    assert str(constructed.value) == str(parsed.value) == message


def test_parse_duplicate_rule_id():
    text = "generators: a\norder: shortlex a\nrules:\n r: a a -> a\n r: a a a -> a"
    with pytest.raises(ParseError, match="duplicate rule id"):
        parse_presentation(text)


def test_parse_empty_lhs_rejected():
    with pytest.raises(ParseError, match="empty left-hand side"):
        parse_presentation("generators: a\norder: shortlex a\nrules:\n r: -> a")


@pytest.mark.parametrize(
    "line, message",
    [
        (" r-1: a a -> a", "bad rule id 'r-1'"),
        (" r: -> a", "rule r: empty left-hand side"),
        (" r: a -> a", "rule r: sides are equal"),
    ],
)
def test_a_rule_that_rule_rejects_is_reported_at_its_line(line, message):
    with pytest.raises(ParseError) as excinfo:
        parse_presentation(f"generators: a\norder: shortlex a\nrules:\n s: a a a -> a\n{line}\n")
    assert excinfo.value.line == 5
    assert str(excinfo.value) == f"line 5, col 1: {message}"


def test_parse_empty_rhs_allowed():
    p = parse_presentation("generators: e\norder: shortlex e\nrules:\n u: e ->")
    assert p.rules[0].rhs == ()


def test_parse_comments_and_blank_lines():
    text = "# header\ngenerators: a b  # alphabet\n\norder: shortlex a < b\nrules:\n r1: a b -> a\n"
    p = parse_presentation(text)
    assert p.generators == ("a", "b")
    assert p.order.precedence == ("a", "b")


def test_parse_weighted_order():
    p = parse_presentation(
        "generators: a b\norder: weights a=3 b=1\nrules:\n r: a -> b b"
    )
    assert p.order.kind == "weighted-shortlex"
    assert p.order.weight == {"a": 3, "b": 1}
    assert validate(p).ok  # weight 3 > 2, despite the length increase


def test_order_must_cover_alphabet():
    with pytest.raises(ParseError, match="does not cover"):
        parse_presentation("generators: a b\norder: shortlex a\nrules:")


def test_compare_shortlex_examples():
    order = OrderSpec("shortlex", ("a",))
    assert compare_words(order, w("aa"), w("a")) is GREATER
    order2 = OrderSpec("shortlex", ("a", "b"))
    assert compare_words(order2, w("ab"), w("ba")) is LESS
    assert compare_words(order2, w("ab"), w("ab")) is EQUAL
    assert compare_words(order2, (), ()) is EQUAL


def test_compare_is_strict_total_order_small_words():
    order = OrderSpec("shortlex", ("a", "b"))
    words = [
        tuple(c)
        for n in range(5)
        for c in itertools.product("ab", repeat=n)
    ]
    ranked = sorted(words, key=lambda u: (len(u), u))
    # totality and irreflexivity on distinct words
    for u in words:
        for v in words:
            cmp = compare_words(order, u, v)
            if u == v:
                assert cmp is EQUAL
            else:
                assert cmp in (LESS, GREATER)
                assert compare_words(order, v, u) == -cmp
    # agreement with the explicit ranking gives transitivity for free
    for u in words:
        for v in words:
            expected = (ranked.index(u) > ranked.index(v)) - (
                ranked.index(u) < ranked.index(v)
            )
            assert compare_words(order, u, v) == expected


def test_compare_compatible_with_concatenation():
    order = OrderSpec("shortlex", ("a", "b"))
    words = [tuple(c) for n in range(3) for c in itertools.product("ab", repeat=n)]
    for u in words:
        for v in words:
            if compare_words(order, u, v) is not GREATER:
                continue
            for x in words:
                for y in words:
                    assert compare_words(order, x + u + y, x + v + y) is GREATER


def test_validate_as_is_clean():
    assert validate(as_presentation()).ok


def test_validate_flags_growing_rule():
    p = parse_presentation("generators: a\norder: shortlex a\nrules:\n r: a -> a a")
    report = validate(p)
    assert not report.ok
    assert report.offending == ("r",)


def test_validate_flags_lex_violation():
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n r: a b -> b a"
    )
    report = validate(p)
    assert report.offending == ("r",)


def test_round_trip_print_parse():
    for text in (
        "generators: a\norder: shortlex a\nrules:\n r: a a -> a\n",
        "generators: a b\norder: shortlex b < a\nrules:\n r1: a b -> a\n r2: b a -> b\n",
        "generators: x1 y2\norder: weights x1=2 y2=1\nrules:\n r: x1 -> y2\n",
        "generators: e\norder: shortlex e\nrules:\n u: e ->\n",
        "generators:\norder: shortlex\nrules:\n",
    ):
        p = parse_presentation(text)
        assert parse_presentation(print_presentation(p)) == p
    p = two_rule_presentation()
    assert print_presentation(parse_presentation(print_presentation(p))) == print_presentation(p)


def test_word_parsing_and_formatting():
    p = as_presentation()
    assert parse_word("a a a", p) == w("aaa")
    assert parse_word("aaa", p) == w("aaa")
    assert parse_word("ε", p) == ()
    assert parse_word("", p) == ()
    assert format_word(w("aaa"), p) == "aaa"
    assert format_word((), p) == "ε"


def test_word_tokenization_multichar_names():
    p = parse_presentation("generators: ab a b\norder: shortlex ab < a < b\nrules:")
    # longest-match split, with backtracking when the greedy choice dead-ends
    assert parse_word("aba", p) == ("ab", "a")
    assert parse_word("ab a", p) == ("ab", "a")
    assert format_word(("ab", "a"), p) == "ab a"
    with pytest.raises(ParseError):
        parse_word("abc", p)


def test_word_tokenization_long_token():
    sorting = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r: b a -> a b")
    assert parse_word("a" * 10_000, sorting) == ("a",) * 10_000
    p = parse_presentation("generators: ab a b\norder: shortlex ab < a < b\nrules:")
    assert parse_word("ab" * 5_000 + "a", p) == ("ab",) * 5_000 + ("a",)
    with pytest.raises(ParseError):
        parse_word("ab" * 5_000 + "c", p)


def test_rule_invariants():
    with pytest.raises(ValueError):
        Rule("r", (), w("a"))
    with pytest.raises(ValueError):
        Rule("r", w("a"), w("a"))


def test_presentation_invariants():
    order = OrderSpec("shortlex", ("a",))
    with pytest.raises(ValueError, match="unknown generator"):
        Presentation(("a",), (Rule("r", ("a", "b"), ("a",)),), order)
    with pytest.raises(ValueError, match="precedence"):
        Presentation(("a", "b"), (), order)


def test_the_hash_is_kept_and_left_out_of_pickles():
    p = as_presentation()
    assert hash(p) == hash((p.generators, p.rules, p.order)) == hash(as_presentation())
    assert normal_form(p, w("aaa")) == w("a") and p._normal_forms == {w("aaa"): w("a")}
    assert is_convergent(p).ok and set(p._cache) == {"convergence"}
    # the table of normal forms and what is derived from the presentation
    # are caches, which a pickle leaves out
    q = pickle.loads(pickle.dumps(p))
    assert "_cache" not in vars(q) and "_normal_forms" not in vars(q)
    assert q == p and hash(q) == hash(p)
    assert normal_form(q, w("aaa")) == w("a")


def test_a_pickle_holds_the_three_fields_only():
    """Reading the public cached properties leaves the pickle as it was."""
    text = Path(__file__).resolve().parent.parent / "srsbench" / "inputs" / "a5_completed.pres"
    p = parse_presentation(text.read_text(encoding="utf-8"))
    fresh = pickle.dumps(p)
    assert p.index_automaton.depth and p.rule_by_id and p.generator_index
    assert pickle.dumps(p) == fresh
    q = pickle.loads(fresh)
    assert set(vars(q)) == {"generators", "rules", "order"} and q == p
