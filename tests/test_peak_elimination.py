"""Peak elimination on one explicit work stack: certificates (conjugators
included), elements and step classes equal those of the recursive oracle,
loops longer than the interpreter's recursion limit decompose, and the
frames expanded are bounded by fuel and pinned, chains of far-disjoint
frames included."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srs import (
    FuelError,
    Path,
    RewriteStep,
    basis_loops,
    compose,
    conjugate,
    decompose_loop,
    decompose_step,
    find_redexes,
    invert,
    knuth_bendix,
    normal_path,
    parse_presentation,
    verify_certificate,
)
from srs import abelian, rewrite
from helpers import (
    alt_normal_path,
    as_presentation,
    decompose_loop_oracle,
    decompose_step_oracle,
    four_rule_presentation,
    random_loop,
    random_mixed_path,
    random_ordered_presentation,
    random_terminating_presentation,
    random_word,
)

# every path these tests derive is replayed (see conftest.py)
pytestmark = pytest.mark.usefixtures("replay_derived")

SORTING_TEXT = (
    "generators: a b c\norder: shortlex a < b < c\nrules:\n"
    " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n"
)

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def sorting_presentation():
    return parse_presentation(SORTING_TEXT)


def zigzag(p, word):
    """Leftmost normalization of ``word`` against the rightmost one."""
    return compose(normal_path(p, word), invert(alt_normal_path(p, word)))


def check_against_oracle(loop, p):
    cert = decompose_loop(loop, p)
    expected = decompose_loop_oracle(loop, p)
    assert cert.entries == expected.entries
    assert cert.pi == expected.pi


def check_loops_and_steps(rng, p, max_len):
    basis = tuple(bl.loop for bl in basis_loops(p))
    loop = random_loop(rng, p, basis, max_len=max_len)
    check_against_oracle(loop, p)
    out = random_mixed_path(rng, p, loop.base, 4)
    check_against_oracle(conjugate(loop, invert(out)), p)
    word = random_word(rng, p, max_len + 2)
    check_against_oracle(zigzag(p, word), p)
    for redex in find_redexes(word, p):
        step = RewriteStep(word, redex.rule, redex.pos, 1)
        assert decompose_step(step, p) == decompose_step_oracle(step, p)


@PROPERTY
@given(
    st.sampled_from((as_presentation, four_rule_presentation, sorting_presentation)),
    st.integers(0, 2**32 - 1),
)
def test_certificates_and_step_classes_match_the_recursive_oracle(make, seed):
    check_loops_and_steps(random.Random(seed), make(), 8)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_certificates_on_completed_systems_match_the_recursive_oracle(seed):
    rng = random.Random(seed)
    try:
        q, _ = knuth_bendix(random_terminating_presentation(rng), fuel=12)
    except FuelError:
        assume(False)
    check_loops_and_steps(rng, q, 6)


def test_negated_completion_steps_join_in_reverse_order():
    """Both completions of an overlap hold several steps with entries, so the
    order in which the second one's are negated shows in the entries."""
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n r1: b a a -> a b\n"
        " r2: a b a -> b a\n r3: b b b -> a b b\n kb1: a b b a -> b b a\n"
        " kb2: a a b -> a b\n kb3: b a b -> a b b\n"
    )
    check_against_oracle(zigzag(p, tuple("abbaabaaba")), p)


def test_a_residual_one_letter_short_of_the_longest_lhs_is_visited():
    """After ``r3`` at 2 in ``a b d``, the first step ``r2`` at 0 meets
    ``r1``, of lower index, which now occurs at 0 in ``a b c``: b's residual
    is not the first step there."""
    p = parse_presentation(
        "generators: a b c d\norder: shortlex a < b < c < d\nrules:\n"
        " r1: a b c -> b c\n r2: a ->\n r3: d -> c\n"
    )
    step = RewriteStep(tuple("abd"), p.rule_by_id["r3"], 2, 1)
    assert decompose_step(step, p) == decompose_step_oracle(step, p) != {}


def certificate_digest(cert):
    h = hashlib.sha256()
    for e in cert.entries:
        moves = [(rule.rule_id, pos, sign) for rule, pos, sign in e.conjugator.moves]
        h.update(repr((e.sign, e.left, e.right, e.basis_id, e.conjugator.base, moves)).encode())
    h.update(repr(sorted(cert.pi.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("order", [("r1", "r2"), ("r2", "r1")])
def test_rules_with_one_lhs_decompose_from_either_rule(order):
    """Two rules with one left-hand side meet at offset 0 in both orders;
    each is looked up from the other as the first step of a word."""
    sides = {"r1": "b a -> a", "r2": "b a -> a a"}
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n"
        + "".join(f" {rule_id}: {sides[rule_id]}\n" for rule_id in order)
        + " r3: a a -> a\n"
    )
    nonzero = 0
    for word, pos in (("ba", 0), ("bba", 1), ("baba", 2), ("abaa", 1)):
        for rule_id in order:
            step = RewriteStep(tuple(word), p.rule_by_id[rule_id], pos, 1)
            pi = decompose_step(step, p)
            assert pi == decompose_step_oracle(step, p)
            nonzero += bool(pi)
    assert nonzero >= 4


def test_a_branching_met_from_its_second_redex_takes_the_other_orientation():
    """``b`` is a proper prefix of ``b b a`` and has the lower rule index, so
    it is the first step where the two start together, while the branching
    lists ``b b a``'s redex first: the lookup takes the sign and the
    completions in the other order."""
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n r0: b a -> a\n r1: b ->\n r2: b b a -> a b\n"
    )
    for word in ("bba", "bbbaa", "abbab", "bbabba"):
        for redex in find_redexes(tuple(word), p):
            step = RewriteStep(tuple(word), redex.rule, redex.pos, 1)
            assert decompose_step(step, p) == decompose_step_oracle(step, p)


@pytest.fixture
def scans(monkeypatch):
    """The bases of the scans peak elimination makes, one per frame it
    expands: those made while ``abelian._peak_entries`` runs, so the
    descents of normal forms and conjugators are left out."""
    scan, peak_entries = rewrite._scan, abelian._peak_entries
    bases = []
    running = []

    def counting(word, automaton, states, base):
        if running:
            bases.append(base)
        return scan(word, automaton, states, base)

    def counted(*args):
        running.append(True)
        try:
            return peak_entries(*args)
        finally:
            running.pop()

    monkeypatch.setattr(rewrite, "_scan", counting)
    monkeypatch.setattr(abelian, "_peak_entries", counted)
    return bases


def test_the_816_step_zigzag_certificate_is_pinned(scans):
    """The certificate of the (cba)^16 zigzag under the sorting system, as
    the recursive peak elimination gave it: entries, conjugators and
    element; and the frames expanded, as each far-disjoint frame was
    expanded on its own."""
    p = sorting_presentation()
    loop = zigzag(p, tuple("cba" * 16))
    assert len(loop) == 816
    cert = decompose_loop(loop, p)
    assert (len(cert.entries), len(cert.pi)) == (816, 816)
    assert certificate_digest(cert) == (
        "2fd4749b59292493a740c61330cf05412cfa74d8c183fea9588944d5a2744b3a"
    )
    assert len(scans) == 67_015


# the moves of two loops at a^1000, and the frames their decomposition expands
LONG_LOOPS = {((950, 1), (950, -1)): 951, ((998, 1), (0, -1)): 1_000}


@pytest.mark.parametrize("moves", list(LONG_LOOPS))
def test_a_1000_letter_loop_decomposes(moves, scans):
    p = as_presentation()
    r = p.rule_by_id["r"]
    loop = Path.from_moves(("a",) * 1000, [(r, pos, sign) for pos, sign in moves])
    cert = decompose_loop(loop, p)
    assert len(scans) == LONG_LOOPS[moves]
    assert verify_certificate(loop, cert, p).ok


def test_a_chain_of_far_disjoint_frames_meets_a_memoized_step():
    """The last step, ``r`` at 12 in ``a^20``, starts a chain whose second
    link, ``r`` at 11 in ``a^19``, is the first step, memoized by then with
    entries: the chain takes them."""
    p = as_presentation()
    r = p.rule_by_id["r"]
    moves = [(r, 11, 1), (r, 11, -1), (r, 5, -1), (r, 12, 1)]
    loop = Path.from_moves(("a",) * 19, moves)
    check_against_oracle(loop, p)
    step = RewriteStep(("a",) * 19, r, 11, 1)
    assert decompose_step(step, p) == decompose_step_oracle(step, p) != {}


def test_a_chain_link_whose_first_redex_starts_left_of_the_stack_base(scans):
    """``r1`` at 3 in ``a c c b a a`` is near disjoint from the step ``r3``
    at 4.  Its child, ``r3`` at 4 in ``a c c a a a``, is scanned from 1, and
    its first redex ``r2`` at 1 is far disjoint.  After it the word is
    ``a a a a``, whose first redex ``r3`` at 0 starts left of 1: the chain's
    next scan starts afresh at 0."""
    p = parse_presentation(
        "generators: a b c\norder: shortlex a < b < c\nrules:\n"
        " r1: b -> a\n r2: c c a -> a\n r3: a a -> a\n"
    )
    step = RewriteStep(tuple("accbaa"), p.rule_by_id["r3"], 4, 1)
    assert decompose_step(step, p) == decompose_step_oracle(step, p) != {}
    assert scans[:3] == [0, 1, 0]


def deep_completed_presentation(rng):
    """A completed random presentation whose longest left-hand side has at
    least 3 letters, so that a redex can start two letters or more left of
    a rewritten position."""
    while True:
        try:
            q, _ = knuth_bendix(random_ordered_presentation(rng), fuel=12)
        except FuelError:
            continue
        if q.index_automaton.depth >= 3:
            return q


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_certificates_with_long_left_hand_sides_match_the_recursive_oracle(seed):
    """Entries, conjugators and element, on random loops and their
    composites, where chains restart their scans and entry bases share
    their descents."""
    rng = random.Random(seed)
    q = deep_completed_presentation(rng)
    basis = tuple(bl.loop for bl in basis_loops(q))
    for _ in range(3):
        check_against_oracle(random_loop(rng, q, basis, max_len=8), q)


def test_fuel_counts_expanded_frames(scans):
    p = sorting_presentation()
    loop = zigzag(p, tuple("cbacba"))
    expected = decompose_loop(loop, p)
    frames = len(scans)
    assert frames > 1
    assert decompose_loop(loop, p, fuel=frames) == expected
    with pytest.raises(FuelError, match=f"within {frames - 1} frames"):
        decompose_loop(loop, p, fuel=frames - 1)


def test_small_fuel_raises_fuel_error():
    p = as_presentation()
    r = p.rule_by_id["r"]
    loop = Path.from_moves(("a",) * 50, [(r, 40, 1), (r, 40, -1)])
    with pytest.raises(FuelError, match="peak elimination did not finish within 10 frames"):
        decompose_loop(loop, p, fuel=10)
    with pytest.raises(FuelError):
        decompose_step(RewriteStep(("a",) * 50, r, 40, 1), p, fuel=10)
