"""The table of classes of a convergent presentation (``critical._classes``):
reading a word through it gives the word's normal form, reading on from a
class gives the class of the concatenation, its size follows the classes
and letters met, and a presentation that is not certified convergent never
gets one.  Its class words hold at most ``DEFAULT_FUEL`` letters."""

import random
import sys
import threading
from pathlib import Path as FilePath

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    DEFAULT_FUEL,
    FuelError,
    NotConvergentError,
    Path,
    RewriteStep,
    act_footprint,
    basis_loops,
    check_translation,
    context_act,
    decompose_loop,
    decompose_step,
    footprint,
    knuth_bendix,
    normal_form,
    normalize,
    parse_presentation,
    parse_translation_map,
    pi_footprint,
    verify_certificate,
    words_equal,
)
from srs.abelian import DecompositionCertificate
from srs.cli import main
from srs.critical import _Classes, _classes
from helpers import (
    AS_TEXT,
    TWO_TEXT,
    random_terminating_presentation,
    random_word,
)

INPUTS = FilePath(__file__).resolve().parent.parent / "srsbench" / "inputs"

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_reading_a_word_gives_its_normal_form(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    classes = _classes(q)
    for _ in range(10):
        u, v = random_word(rng, q, 12), random_word(rng, q, 12)
        assert classes.form(u) == normalize(u, q)[0]
        assert classes.words[classes.read(v, classes.read(u))] == normalize(u + v, q)[0]
    assert all(classes.ids[word] == c for c, word in enumerate(classes.words))
    assert len(classes.rows) == len(classes.words)


def test_a5_holds_one_row_per_element():
    """Completed A5 has 60 elements over 3 generators: however many words
    are read, the table holds 60 classes and at most 180 transitions."""
    p = parse_presentation((INPUTS / "a5_completed.pres").read_text(encoding="utf-8"))
    rng = random.Random(5)
    classes = _classes(p)
    for _ in range(300):
        word = random_word(rng, p, 30)
        assert classes.form(word) == normalize(word, p)[0]
    assert len(classes.words) == len(classes.ids) == 60
    assert sum(len(row) for row in classes.rows) <= 180


def test_the_class_words_hold_at_most_the_default_fuel_in_letters():
    """Under ``b a -> a b`` the prefixes of a^3000 b a are 3,002 classes of
    up to 3,001 letters, 4.5 million in all: the table keeps them up to a
    million letters, and past that the word is reduced whole."""
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r: b a -> a b\n")
    word, nf = ("a",) * 3000 + ("b", "a"), ("a",) * 3001 + ("b",)
    classes = _classes(p)
    assert classes.form(word) == nf and classes.read(word) is None
    assert classes.letters == sum(map(len, classes.words)) <= DEFAULT_FUEL
    assert words_equal(word, nf, p) and classes.read(("a",) * 1000) is not None


def test_threads_share_one_table():
    """Four threads read random words through one fresh table of the
    sorting presentation while the interpreter switches threads every
    microsecond, 100 times over: every read gives the word's normal form,
    and every class keeps one id.  (Without the lock, about one table in
    four went wrong.)"""
    p = parse_presentation((INPUTS / "sorting.pres").read_text(encoding="utf-8"))
    rng = random.Random(3)
    batches = [[random_word(rng, p, 14) for _ in range(150)] for _ in range(4)]
    expected = [[normalize(word, p)[0] for word in batch] for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            classes = _Classes(p.index_automaton)
            results: list[list] = [[] for _ in batches]

            def work(k: int) -> None:
                results[k] = [classes.form(word) for word in batches[k]]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == expected
            assert all(classes.ids[word] == c for c, word in enumerate(classes.words))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "text",
    [TWO_TEXT, "generators: a b\norder: shortlex a < b\nrules:\n r: a -> b\n"],
    ids=["not-confluent", "not-terminating"],
)
def test_a_presentation_that_is_not_convergent_gets_no_table(text, tmp_path, capsys):
    """Every call that needs convergence raises NotConvergentError and
    leaves neither a table nor a basis, ahead of a second fault in its
    input: an open loop, a negative step, a word that does not parse."""
    p = parse_presentation(text)
    sides = parse_presentation(AS_TEXT)
    m = parse_translation_map("forward: a -> a\nbackward: a -> a\n", sides, sides)
    rule = p.rules[0]
    step, closed = RewriteStep(rule.lhs, rule, 0, 1), Path(rule.lhs)
    for attempt in (
        lambda: _classes(p),
        lambda: normal_form(("a",), p),
        lambda: words_equal(("a",), ("b",), p),
        lambda: footprint(normalize(("b", "a"), p)[1], p),
        lambda: act_footprint((("a",), ()), {}, p),
        lambda: context_act((("a",), ()), {}, p),
        lambda: basis_loops(p),
        lambda: decompose_step(step, p),
        lambda: decompose_step(RewriteStep(rule.rhs, rule, 0, -1), p),
        lambda: decompose_loop(closed, p),
        lambda: decompose_loop(Path.from_moves(rule.lhs, [(rule, 0, 1)]), p),
        lambda: pi_footprint({}, p),
        lambda: verify_certificate(closed, DecompositionCertificate(closed, (), {}), p),
    ):
        with pytest.raises(NotConvergentError):
            attempt()
        assert not {"classes", "basis"} & set(p._cache)
    path = tmp_path / "p.pres"
    path.write_text(text, encoding="utf-8")
    assert main(["equal", str(path), "no-such-letter", "a"]) == 2
    assert capsys.readouterr().err == "srs: presentation is not convergent; run 'complete' first\n"
    # a convergent one gets its table when it is first read
    assert check_translation(sides, sides, m).ok and basis_loops(sides)
    assert "classes" in sides._cache
