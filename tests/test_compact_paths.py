"""Paths stored as a base word plus (rule, pos, sign) moves: the moves
round-trip through RewriteSteps, the walk yields the words the steps hold,
the move-level algebra agrees with the step-level oracles, and stored paths
hold no word per step."""

import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    FuelError,
    MatchError,
    ParseError,
    Path,
    basis_loops,
    comparison_loop,
    compose,
    decompose_loop,
    exchange_swap,
    footprint,
    free_reduce,
    invert,
    knuth_bendix,
    normal_form,
    normal_path,
    normalize,
    parse_path,
    parse_presentation,
    parse_translation_map,
    verify_certificate,
)
from srs import rewrite
from srs.critical import _classes
from helpers import (
    alt_normal_path,
    as_presentation,
    exchange_swap_oracle,
    footprint_oracle,
    four_rule_presentation,
    free_reduce_oracle,
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

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def paths_for(rng, p):
    """A mixed zigzag and a random loop over ``p``."""
    basis = tuple(bl.loop for bl in basis_loops(p))
    return (
        random_mixed_path(rng, p, random_word(rng, p, 8), 10),
        random_loop(rng, p, basis, max_len=6),
    )


def check_round_trip(path):
    """Moves -> steps -> moves, and the walk against the steps."""
    steps = path.steps
    assert path.moves == tuple((s.rule, s.pos, s.sign) for s in steps)
    rebuilt = Path(path.base, steps)
    assert rebuilt == path and rebuilt.moves == path.moves and rebuilt.target == path.target
    replayed = Path.from_moves(path.base, path.moves)
    assert replayed == path and replayed.target == path.target
    assert list(path.walk()) == [(s.source, s.rule, s.pos, s.sign) for s in steps]
    assert path.target == (steps[-1].target if steps else path.base)
    assert len(path) == len(steps)


def check_moves_algebra(path, p):
    assert free_reduce(path) == free_reduce_oracle(path)
    assert free_reduce(path).target == path.target
    assert footprint(path, p) == footprint_oracle(path, p)
    for i in range(len(path) - 1):
        try:
            expected = exchange_swap_oracle(path, i)
        except ValueError:
            continue
        swapped = exchange_swap(path, i)
        assert swapped == expected and swapped.target == path.target


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_moves_round_trip_on_random_paths(seed):
    rng = random.Random(seed)
    for p in (as_presentation(), four_rule_presentation(), parse_presentation(SORTING_TEXT)):
        for path in paths_for(rng, p):
            check_round_trip(path)
            check_moves_algebra(path, p)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_moves_round_trip_on_completed_systems(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    for path in paths_for(rng, q) + (normalize(random_word(rng, q, 12), q)[1],):
        check_round_trip(path)
        check_moves_algebra(path, q)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_scan_start_hints_find_the_first_redex(seed):
    """Every scan of a decomposition (peak elimination, normal forms and
    conjugators) that starts at a hint or reads on from stored states finds
    what a scan of the whole word finds, so the certificates do not depend
    on the hints or the kept states."""
    rng = random.Random(seed)
    p = parse_presentation(SORTING_TEXT) if seed % 2 else four_rule_presentation()
    loop = random_loop(rng, p, tuple(bl.loop for bl in basis_loops(p)), max_len=8)
    original = rewrite._scan

    def checked(word, automaton, states, base):
        resumed = base or len(states) > 1
        found = original(word, automaton, states, base)
        if resumed:
            assert found == original(word, automaton, [0], 0), (word, base, states)
        return found

    rewrite._scan = checked
    try:
        cert = decompose_loop(loop, p)
    finally:
        rewrite._scan = original
    assert verify_certificate(loop, cert, p).ok


def test_scan_start_hints_are_used(monkeypatch):
    p = parse_presentation(SORTING_TEXT)
    original = rewrite._scan
    bases = []

    def counting(word, automaton, states, base):
        bases.append(base)
        return original(word, automaton, states, base)

    word = w("cbacbacba")
    loop = compose(normal_path(p, word), invert(alt_normal_path(p, word)))
    monkeypatch.setattr(rewrite, "_scan", counting)
    decompose_loop(loop, p)
    assert any(bases)


# ---------------------------------------------------------------------------
# named cases


def test_from_moves_checks_every_move():
    p = four_rule_presentation()
    r1 = p.rule_by_id["r1"]
    path = Path.from_moves(w("abab"), [(r1, 0, 1), (r1, 0, -1)])
    assert path.target == w("abab") and len(path) == 2
    with pytest.raises(MatchError, match=r"lhs of rule r1 does not occur at position 1 of 'aba'"):
        Path.from_moves(w("abab"), [(r1, 2, 1), (r1, 1, 1)])
    with pytest.raises(ValueError, match="sign must be"):
        Path.from_moves(w("ab"), [(r1, 0, 0)])
    with pytest.raises(MatchError, match="negative position"):
        Path.from_moves(w("ab"), [(r1, -1, 1)])


def test_parse_path_reports_the_first_fault_in_the_text():
    p = as_presentation()
    with pytest.raises(MatchError, match="position 5"):
        parse_path("aa: +r@5 +zz@0", p)
    with pytest.raises(ParseError, match="unknown rule 'zz'"):
        parse_path("aa: +zz@0 +r@5", p)


def test_steps_chain_their_words_within_one_read():
    _, path = normalize(w("aaaa"), as_presentation())
    steps = path.steps
    for before, after in zip(steps, steps[1:]):
        assert after.source is before.target


def test_normalize_of_a_long_word_holds_no_word_per_step():
    p = as_presentation()
    word = ("a",) * 16000
    tracemalloc.start()
    try:
        nf, path = normalize(word, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nf == ("a",) and len(path) == 15999
    assert peak < 20e6, f"normalize of a^16000 peaked at {peak / 1e6:.1f} MB"


def test_a_stored_path_holds_under_a_megabyte():
    p = parse_presentation("generators: a b\norder: shortlex a < b\nrules:\n r: b a -> a b\n")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _, path = normalize(tuple("ba" * 100), p)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path) == 5050
    assert held - before < 1e6, f"the (ba)^100 path holds {(held - before) / 1e6:.2f} MB"


def test_loops_keep_no_normal_paths(monkeypatch):
    """Footprints, certificate replay and decomposition read normal forms
    from the presentation's table of classes and take conjugators from
    reductions of their own: none adds to the ``normal_path`` cache, and
    the table, read by ``normal_form``, builds no path."""
    p = parse_presentation(SORTING_TEXT)
    loop = random_loop(random.Random(11), p, tuple(bl.loop for bl in basis_loops(p)), max_len=8)
    cached = rewrite.normal_path.cache_info().currsize
    cert = decompose_loop(loop, p)
    assert verify_certificate(loop, cert, p).ok
    footprint(loop, p)
    assert rewrite.normal_path.cache_info().currsize == cached
    assert "classes" in p._cache
    fresh = parse_presentation(SORTING_TEXT)
    words = [source for source, *_ in loop.walk()]
    forms = [normalize(word, fresh)[0] for word in words]
    classes = _classes(fresh)  # the convergence check builds its paths
    monkeypatch.setattr(rewrite, "_stored", lambda *fields: pytest.fail("a path was built"))
    assert [normal_form(word, fresh) for word in words] == forms
    assert all(classes.read(word) == classes.ids[form] for word, form in zip(words, forms))


def test_library_code_reads_no_steps(monkeypatch):
    """Nothing in the library materializes steps: peak elimination,
    certificate replay, footprints and transport never read them."""
    p = parse_presentation(SORTING_TEXT)
    rng = random.Random(7)
    loop = random_loop(rng, p, tuple(bl.loop for bl in basis_loops(p)), max_len=8)
    loop = Path.from_moves(loop.base, loop.moves)
    monkeypatch.setattr(Path, "steps", property(lambda path: pytest.fail("steps were read")))
    cert = decompose_loop(loop, p)
    assert verify_certificate(loop, cert, p).ok
    footprint(loop, p)
    identity = parse_translation_map(
        "".join(f"forward: {g} -> {g}\nbackward: {g} -> {g}\n" for g in p.generators), p, p
    )
    assert comparison_loop(loop, identity, p, p).is_closed
