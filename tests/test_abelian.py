import random

import pytest

from srs import (
    FuelError,
    NotConvergentError,
    Path,
    RewriteStep,
    act_footprint,
    basis_loops,
    compose,
    conjugate,
    context_act,
    decompose_loop,
    decompose_step,
    exchange_swap,
    footprint,
    free_reduce,
    invert,
    normal_form,
    normal_path,
    parse_path,
    parse_presentation,
    pi_footprint,
    verify_certificate,
    whisker,
)
from srs import abelian
from srs.abelian import DecompositionCertificate
from srs.errors import DisjointnessError
from helpers import (
    alt_normal_path,
    as_presentation,
    conjugator_oracle,
    four_rule_presentation,
    random_loop,
    random_mixed_path,
    random_word,
    two_rule_presentation,
    w,
)


def _add(a, b, scale=1):
    out = dict(a)
    for key, value in b.items():
        total = out.get(key, 0) + scale * value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def test_footprint_of_boundary_loop():
    p = as_presentation()
    beta = parse_path("aaa: +r@0 -r@1", p)
    assert footprint(beta, p) == {((), "r", w("a")): 1, (w("a"), "r", ()): -1}


def test_footprint_of_empty_and_cancelling_paths():
    p = as_presentation()
    assert footprint(Path(w("aa")), p) == {}
    path = parse_path("aaa: +r@0 +r@0", p)
    assert footprint(compose(path, invert(path)), p) == {}


def test_footprint_requires_convergence():
    p = two_rule_presentation()
    with pytest.raises(NotConvergentError):
        footprint(Path(w("ab")), p)


def test_basis_loops_counts():
    assert [bl.basis_id for bl in basis_loops(as_presentation())] == ["b1"]
    free = parse_presentation("generators: a\norder: shortlex a\nrules:")
    assert basis_loops(free) == ()
    assert len(basis_loops(four_rule_presentation())) == 8


def test_basis_loop_of_as():
    p = as_presentation()
    loop = basis_loops(p)[0].loop
    assert loop == parse_path("aaa: +r@0 -r@1", p)


def _defining_loop(step, p):
    # the loop a step's class is measured by: down from the source, against
    # the step, down from the target; closed at the normal form
    down_source = normal_path(p, step.source)
    down_target = normal_path(p, apply_step_local(step))
    return compose(invert(down_source), compose(Path(step.source, (step,)), down_target))


def apply_step_local(step):
    from srs import apply_step

    return apply_step(step)


def test_decompose_step_canonical_step_is_zero():
    p = as_presentation()
    step = RewriteStep(w("aaa"), p.rule_by_id["r"], 0, 1)
    assert decompose_step(step, p) == {}


def test_decompose_step_second_position():
    p = as_presentation()
    step = RewriteStep(w("aaa"), p.rule_by_id["r"], 1, 1)
    pi = decompose_step(step, p)
    assert pi == {(((), ()), "b1"): -1}
    # oracle: the defining loop's footprint
    assert pi_footprint(pi, p) == footprint(_defining_loop(step, p), p)


def test_decompose_step_through_disjoint_case():
    p = as_presentation()
    step = RewriteStep(w("aaaa"), p.rule_by_id["r"], 2, 1)
    pi = decompose_step(step, p)
    assert pi == {(((), ()), "b1"): -1}
    assert pi_footprint(pi, p) == footprint(_defining_loop(step, p), p)


def test_decompose_step_matches_defining_loop_randomly():
    rng = random.Random(37)
    for p in (as_presentation(), four_rule_presentation()):
        from srs import find_redexes

        for _ in range(150):
            word = random_word(rng, p, 6)
            redexes = find_redexes(word, p)
            if not redexes:
                continue
            redex = rng.choice(redexes)
            step = RewriteStep(word, redex.rule, redex.pos, 1)
            pi = decompose_step(step, p)
            assert pi_footprint(pi, p) == footprint(_defining_loop(step, p), p)


def test_decompose_step_rejects_negative():
    p = as_presentation()
    step = RewriteStep(w("aa"), p.rule_by_id["r"], 0, -1)
    with pytest.raises(ValueError):
        decompose_step(step, p)


def test_decompose_loop_boundary_loop():
    p = as_presentation()
    beta = parse_path("aaa: +r@0 -r@1", p)
    cert = decompose_loop(beta, p)
    assert cert.pi == {(((), ()), "b1"): 1}
    assert verify_certificate(beta, cert, p).ok


def test_decompose_loop_empty():
    p = as_presentation()
    cert = decompose_loop(Path(w("aaaa")), p)
    assert cert.pi == {}
    assert cert.entries == ()
    assert verify_certificate(Path(w("aaaa")), cert, p).ok


def test_decompose_loop_wider_insertion():
    p = as_presentation()
    loop = parse_path("aaaa: +r@0 -r@2", p)
    cert = decompose_loop(loop, p)
    assert cert.pi == {(((), ()), "b1"): 1}
    assert verify_certificate(loop, cert, p).ok


def test_decompose_loop_requires_closed():
    p = as_presentation()
    with pytest.raises(ValueError):
        decompose_loop(parse_path("aaa: +r@0", p), p)


def test_decompose_loop_requires_convergence():
    p = two_rule_presentation()
    with pytest.raises(NotConvergentError):
        decompose_loop(Path(w("ab")), p)


def test_pi_footprint_examples():
    p = as_presentation()
    beta = basis_loops(p)[0].loop
    assert pi_footprint({(((), ()), "b1"): 1}, p) == footprint(beta, p)
    acted = pi_footprint({((w("a"), ()), "b1"): 1}, p)
    assert acted == {(w("a"), "r", w("a")): 1, (w("a"), "r", ()): -1}
    assert pi_footprint({}, p) == {}
    # the context action on footprints agrees with whiskering the loop
    assert acted == footprint(whisker(w("a"), beta, ()), p)


def test_context_act():
    p = as_presentation()
    x = {(((), ()), "b1"): 1}
    assert context_act(((), ()), x, p) == x
    assert context_act((w("a"), ()), x, p) == {((w("a"), ()), "b1"): 1}
    # contexts normalize componentwise
    assert context_act((w("aa"), w("aaa")), x, p) == {((w("a"), w("a")), "b1"): 1}


def test_context_act_commutes_with_pi_footprint():
    rng = random.Random(41)
    p = four_rule_presentation()
    ids = [bl.basis_id for bl in basis_loops(p)]
    for _ in range(100):
        x = {}
        for _ in range(rng.randint(0, 3)):
            ctx = (random_word(rng, p, 2), random_word(rng, p, 2))
            x = _add(x, {((ctx), rng.choice(ids)): rng.randint(-2, 2)})
        ctx = (random_word(rng, p, 2), random_word(rng, p, 2))
        assert pi_footprint(context_act(ctx, x, p), p) == act_footprint(
            ctx, pi_footprint(x, p), p
        )


def test_verify_certificate_rejects_zero_certificate():
    p = as_presentation()
    beta = parse_path("aaa: +r@0 -r@1", p)
    zero = DecompositionCertificate(beta, (), {})
    report = verify_certificate(beta, zero, p)
    assert not report.ok
    empty_loop = Path(w("aa"))
    assert verify_certificate(empty_loop, DecompositionCertificate(empty_loop, (), {}), p).ok


# ---------------------------------------------------------------------------
# algebraic laws (smaller samples; the acceptance suite runs the full sizes)


def test_footprint_homomorphism_laws():
    rng = random.Random(43)
    p = four_rule_presentation()
    for _ in range(150):
        base = random_word(rng, p, 5)
        first = random_mixed_path(rng, p, base, 5)
        second = random_mixed_path(rng, p, first.target, 5)
        assert footprint(compose(first, second), p) == _add(
            footprint(first, p), footprint(second, p)
        )
        assert footprint(invert(first), p) == _add({}, footprint(first, p), -1)
        u, v = random_word(rng, p, 2), random_word(rng, p, 2)
        assert footprint(whisker(u, first, v), p) == act_footprint(
            (u, v), footprint(first, p), p
        )
        assert footprint(free_reduce(first), p) == footprint(first, p)


def test_footprint_exchange_invariance():
    rng = random.Random(47)
    p = four_rule_presentation()
    swaps = 0
    for _ in range(150):
        base = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, base, 5)
        for i in range(len(path.steps) - 1):
            try:
                swapped = exchange_swap(path, i)
            except DisjointnessError:
                continue
            swaps += 1
            assert footprint(swapped, p) == footprint(path, p)
    assert swaps > 30


def test_footprint_conjugation_invariance():
    rng = random.Random(53)
    p = four_rule_presentation()
    basis = tuple(bl.loop for bl in basis_loops(p))
    for _ in range(100):
        loop = random_loop(rng, p, basis)
        out = random_mixed_path(rng, p, loop.base, 4)
        moved = conjugate(loop, invert(out))
        assert footprint(moved, p) == footprint(loop, p)


def test_decomposition_sound_on_random_loops():
    rng = random.Random(59)
    for p in (as_presentation(), four_rule_presentation()):
        basis = tuple(bl.loop for bl in basis_loops(p))
        for _ in range(100):
            loop = random_loop(rng, p, basis)
            cert = decompose_loop(loop, p)
            assert verify_certificate(loop, cert, p).ok


def test_pi_additivity_and_cyclicity():
    rng = random.Random(61)
    p = four_rule_presentation()
    basis = tuple(bl.loop for bl in basis_loops(p))
    from helpers import move_loop, return_path

    for _ in range(60):
        first = random_loop(rng, p, basis)
        second = move_loop(p, random_loop(rng, p, basis), first.base)
        both = compose(first, second)
        assert decompose_loop(both, p).pi == _add(
            decompose_loop(first, p).pi, decompose_loop(second, p).pi
        )
    for _ in range(60):
        base = random_word(rng, p, 5)
        out = random_mixed_path(rng, p, base, 5)
        back = return_path(p, out.target, base)
        assert (
            decompose_loop(compose(out, back), p).pi
            == decompose_loop(compose(back, out), p).pi
        )


def test_decompose_loop_conjugation_invariance():
    rng = random.Random(67)
    p = as_presentation()
    basis = tuple(bl.loop for bl in basis_loops(p))
    for _ in range(60):
        loop = random_loop(rng, p, basis)
        out = random_mixed_path(rng, p, loop.base, 4)
        moved = conjugate(loop, invert(out))
        assert decompose_loop(moved, p).pi == decompose_loop(loop, p).pi


def test_decomposition_with_containment_branchings():
    # nested left-hand sides: the canonical first step can sit inside the
    # other redex, exercising the mirrored overlap case of the recursion
    p = parse_presentation(
        "generators: a\norder: shortlex a\nrules:\n r1: a a -> a\n r2: a a a -> a"
    )
    assert len(basis_loops(p)) == 7
    step = RewriteStep(w("aaa"), p.rule_by_id["r2"], 0, 1)
    pi = decompose_step(step, p)
    assert pi == {(((), ()), "b3"): 1}
    assert pi_footprint(pi, p) == footprint(_defining_loop(step, p), p)
    rng = random.Random(89)
    basis = tuple(bl.loop for bl in basis_loops(p))
    for _ in range(100):
        loop = random_loop(rng, p, basis)
        cert = decompose_loop(loop, p)
        assert verify_certificate(loop, cert, p).ok


def test_certificate_entries_sum_to_element():
    rng = random.Random(71)
    p = four_rule_presentation()
    basis = tuple(bl.loop for bl in basis_loops(p))

    for _ in range(40):
        loop = random_loop(rng, p, basis)
        cert = decompose_loop(loop, p)
        summary = {}
        for entry in cert.entries:
            ctx = (normal_form(p, entry.left), normal_form(p, entry.right))
            summary = _add(summary, {(ctx, entry.basis_id): entry.sign})
        assert summary == cert.pi
        for entry in cert.entries:
            assert entry.conjugator.base == loop.base


def _check_conjugators(loop, p):
    """Each entry's conjugator ends where its whiskered basis loop is closed
    and equals the free-reduced composite the oracle builds."""
    by_id = {bl.basis_id: bl for bl in basis_loops(p)}
    entries = decompose_loop(loop, p).entries
    for entry in entries:
        base = entry.left + by_id[entry.basis_id].loop.base + entry.right
        assert entry.conjugator.target == base
        assert entry.conjugator == conjugator_oracle(p, loop.base, base)
    return len(entries)


def test_conjugators_match_the_oracle():
    rng = random.Random(97)
    sorting = parse_presentation(
        "generators: a b c\norder: shortlex a < b < c\nrules:\n"
        " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n"
    )
    for p in (as_presentation(), four_rule_presentation(), sorting):
        basis = tuple(bl.loop for bl in basis_loops(p))
        for _ in range(30):
            loop = random_loop(rng, p, basis)
            _check_conjugators(loop, p)
            out = random_mixed_path(rng, p, loop.base, 4)
            _check_conjugators(conjugate(loop, invert(out)), p)
    for text in ("cbacbacba", "cbcbaacb"):
        word = w(text)
        zigzag = compose(normal_path(sorting, word), invert(alt_normal_path(sorting, word)))
        assert _check_conjugators(zigzag, sorting) > 0


def test_two_entry_bases_merge_before_the_normal_path_of_the_loop_base():
    """In the zigzag of ``c b a b a`` under the sorting system, the normal
    path of the first entry's base ``a c b a b`` meets that of the loop's
    base only at the normal form.  The second entry's base ``c b a a b``
    meets the first one's path at ``a b c a b``, two steps earlier."""
    p = parse_presentation(
        "generators: a b c\norder: shortlex a < b < c\nrules:\n"
        " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n"
    )
    word = w("cbaba")
    zigzag = compose(normal_path(p, word), invert(alt_normal_path(p, word)))
    entries = decompose_loop(zigzag, p).entries
    first, second = (entry.conjugator.target for entry in entries[:2])
    assert (first, second) == (w("acbab"), w("cbaab"))

    def words(base):
        return [source for source, *_ in normal_path(p, base).walk()] + [normal_form(p, base)]

    head = words(zigzag.base)
    assert set(words(first)) & set(head) == {w("aabbc")}
    assert [u for u in words(second) if u in words(first)][0] == w("abcab") not in head
    assert _check_conjugators(zigzag, p) == 3


def test_a_conjugator_counts_its_whole_path_against_the_fuel(monkeypatch):
    """The loop at the normal form ``a a b c`` climbs to ``c b a a`` along
    the rightmost reduction and comes down the leftmost one.  The entry
    based at ``c b a a`` has a 5-step normal path, whose descent meets the
    paths of the bases before it after 3 steps: all 5 count."""
    p = parse_presentation(
        "generators: a b c\norder: shortlex a < b < c\nrules:\n"
        " r1: b a -> a b\n r2: c a -> a c\n r3: c b -> b c\n"
    )
    word = w("cbaa")
    loop = compose(invert(alt_normal_path(p, word)), normal_path(p, word))
    monkeypatch.setattr(abelian, "DEFAULT_FUEL", 5)
    conjugators = [entry.conjugator for entry in decompose_loop(loop, p).entries]
    assert max(map(len, conjugators)) == 5
    monkeypatch.setattr(abelian, "DEFAULT_FUEL", 4)
    with pytest.raises(FuelError, match="no normal form within 4 steps from 'cbaa'"):
        decompose_loop(loop, p)
