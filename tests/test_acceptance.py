"""Acceptance suite.

Each test exercises one acceptance criterion end to end, enforces its
runtime budget, and prints one PASS/FAIL line (visible with ``pytest -s``).
All equalities are exact integer/structure comparisons; there are no
tolerances to calibrate.
"""

import random
import time

import pytest

from srs import (
    act_footprint,
    basis_loops,
    brute_force_confluence,
    compose,
    conjugate,
    critical_branchings,
    decompose_loop,
    exchange_swap,
    footprint,
    free_reduce,
    generating_confluence,
    invert,
    is_convergent,
    is_locally_confluent,
    knuth_bendix,
    parse_path,
    parse_presentation,
    parse_translation_map,
    pi_footprint,
    same_congruence,
    transported_generators,
    verify_certificate,
    whisker,
    functor_image,
    comparison_loop,
)
from srs.cli import main
from srs.errors import DisjointnessError
from helpers import (
    as_presentation,
    four_rule_presentation,
    move_loop,
    random_loop,
    random_mixed_path,
    random_terminating_presentation,
    random_word,
    return_path,
    two_rule_presentation,
    w,
)

# every path these tests derive is replayed (see conftest.py)
pytestmark = pytest.mark.usefixtures("replay_derived")


def _report(number: int, name: str, problems: list[str]):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _check(problems: list[str], condition: bool, message: str):
    if not condition:
        problems.append(message)


def _add(a, b, scale=1):
    out = dict(a)
    for key, value in b.items():
        total = out.get(key, 0) + scale * value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def test_acceptance_1_golden_example(capsys, tmp_path):
    start = time.monotonic()
    problems: list[str] = []
    p = as_presentation()

    _check(problems, is_convergent(p).ok, "not certified convergent")
    branchings = critical_branchings(p)
    _check(problems, len(branchings) == 1, f"{len(branchings)} branchings, expected 1")
    confluences = [generating_confluence(b, p) for b in branchings]
    _check(problems, len(confluences) == 1, "expected exactly one generating confluence")
    loops = basis_loops(p)
    _check(problems, len(loops) == 1, f"{len(loops)} basis loops, expected 1")
    beta = loops[0].loop
    _check(
        problems,
        beta == parse_path("aaa: +r@0 -r@1", p),
        "basis loop differs from the boundary loop",
    )
    fp = footprint(beta, p)
    _check(
        problems,
        fp == {((), "r", w("a")): 1, (w("a"), "r", ()): -1},
        f"footprint {fp} differs",
    )
    pres_file = tmp_path / "as.pres"
    pres_file.write_text(
        "generators: a\norder: shortlex a\nrules:\n r: a a -> a\n", encoding="utf-8"
    )
    code = main(["pi-basis", str(pres_file)])
    out = capsys.readouterr().out
    _check(problems, code == 0, "pi-basis exit code")
    _check(
        problems,
        "pi generated by 1 element(s)" in out,
        "tool does not report generation by one element",
    )
    elapsed = time.monotonic() - start
    _check(problems, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    with capsys.disabled():
        _report(1, "golden example", problems)


def test_acceptance_2_decomposition_soundness(capsys):
    start = time.monotonic()
    problems: list[str] = []
    rng = random.Random(101)
    for p in (as_presentation(), four_rule_presentation()):
        basis = tuple(bl.loop for bl in basis_loops(p))
        for k in range(500):
            loop = random_loop(rng, p, basis)
            cert = decompose_loop(loop, p)
            if not verify_certificate(loop, cert, p).ok:
                problems.append(f"certificate {k} failed verification")
                break
            if pi_footprint(cert.pi, p) != footprint(loop, p):
                problems.append(f"footprint mismatch on loop {k}")
                break
    elapsed = time.monotonic() - start
    _check(problems, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    with capsys.disabled():
        _report(2, "decomposition soundness, 500 loops per system", problems)


def test_acceptance_3_footprint_algebra(capsys):
    start = time.monotonic()
    problems: list[str] = []
    rng = random.Random(103)
    p = four_rule_presentation()
    basis = tuple(bl.loop for bl in basis_loops(p))

    for _ in range(1000):  # compose + invert
        base = random_word(rng, p, 5)
        first = random_mixed_path(rng, p, base, 5)
        second = random_mixed_path(rng, p, first.target, 5)
        if footprint(compose(first, second), p) != _add(
            footprint(first, p), footprint(second, p)
        ):
            problems.append("compose law failed")
            break
        if footprint(invert(first), p) != _add({}, footprint(first, p), -1):
            problems.append("invert law failed")
            break

    for _ in range(1000):  # whisker
        base = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, base, 5)
        u, v = random_word(rng, p, 2), random_word(rng, p, 2)
        if footprint(whisker(u, path, v), p) != act_footprint(
            (u, v), footprint(path, p), p
        ):
            problems.append("whisker law failed")
            break

    swaps = 0
    for _ in range(1000):  # exchange
        base = random_word(rng, p, 6)
        path = random_mixed_path(rng, p, base, 6)
        reference = footprint(path, p)
        for i in range(len(path.steps) - 1):
            try:
                swapped = exchange_swap(path, i)
            except DisjointnessError:
                continue
            swaps += 1
            if footprint(swapped, p) != reference:
                problems.append("exchange law failed")
                break
    _check(problems, swaps >= 500, f"only {swaps} disjoint swaps exercised")

    for _ in range(1000):  # free reduction
        base = random_word(rng, p, 5)
        path = random_mixed_path(rng, p, base, 6)
        if footprint(free_reduce(path), p) != footprint(path, p):
            problems.append("free-reduce law failed")
            break

    for _ in range(1000):  # conjugation
        loop = random_loop(rng, p, basis, depth=1)
        out = random_mixed_path(rng, p, loop.base, 3)
        if footprint(conjugate(loop, invert(out)), p) != footprint(loop, p):
            problems.append("conjugate law failed")
            break

    elapsed = time.monotonic() - start
    _check(problems, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    with capsys.disabled():
        _report(3, "footprint algebra, 1000 paths per law", problems)


def test_acceptance_4_pi_relations(capsys):
    start = time.monotonic()
    problems: list[str] = []
    rng = random.Random(107)
    p = four_rule_presentation()
    basis = tuple(bl.loop for bl in basis_loops(p))

    for _ in range(200):  # additivity on loops at a shared base
        first = random_loop(rng, p, basis, depth=1)
        second = move_loop(p, random_loop(rng, p, basis, depth=1), first.base)
        lhs = decompose_loop(compose(first, second), p).pi
        rhs = _add(decompose_loop(first, p).pi, decompose_loop(second, p).pi)
        if lhs != rhs:
            problems.append("additivity failed")
            break

    for _ in range(200):  # cyclic invariance of out-and-back loops
        base = random_word(rng, p, 5)
        out = random_mixed_path(rng, p, base, 5)
        back = return_path(p, out.target, base)
        if (
            decompose_loop(compose(out, back), p).pi
            != decompose_loop(compose(back, out), p).pi
        ):
            problems.append("cyclic invariance failed")
            break

    elapsed = time.monotonic() - start
    _check(problems, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    with capsys.disabled():
        _report(4, "pi relations, 200 pairs each", problems)


def test_acceptance_5_newman_coherence(capsys):
    start = time.monotonic()
    problems: list[str] = []
    rng = random.Random(109)
    for k in range(100):
        p = random_terminating_presentation(rng)
        local = is_locally_confluent(p).ok
        brute = brute_force_confluence(p, 7).ok
        if local != brute:
            problems.append(
                f"presentation {k}: local confluence {local} but brute force {brute}"
            )
            break
    elapsed = time.monotonic() - start
    _check(problems, elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s")
    with capsys.disabled():
        _report(5, "Newman coherence on 100 random systems", problems)


def test_acceptance_6_completion(capsys):
    start = time.monotonic()
    problems: list[str] = []
    p = two_rule_presentation()
    done, _ = knuth_bendix(p)
    expected = {
        (w("ab"), w("a")),
        (w("ba"), w("b")),
        (w("aa"), w("a")),
        (w("bb"), w("b")),
    }
    _check(
        problems,
        {(r.lhs, r.rhs) for r in done.rules} == expected,
        "completed rule set differs",
    )
    _check(problems, is_convergent(done).ok, "completed system not convergent")
    _check(
        problems,
        same_congruence(p, done, 5).agree,
        "completed system changes the congruence",
    )
    elapsed = time.monotonic() - start
    _check(problems, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    with capsys.disabled():
        _report(6, "completion of the two-rule system", problems)


def test_acceptance_7_insertion_loop_family(capsys):
    start = time.monotonic()
    problems: list[str] = []
    p = as_presentation()
    for n in range(2, 7):
        for i in range(n):
            for j in range(i + 1, n):
                loop = parse_path(f"{'a' * (n + 1)}: +r@{i} -r@{j}", p)
                cert = decompose_loop(loop, p)
                if not verify_certificate(loop, cert, p).ok:
                    problems.append(f"loop (n={n}, i={i}, j={j}) failed verification")
    base_case = decompose_loop(parse_path("aaa: +r@0 -r@1", p), p).pi
    _check(
        problems,
        base_case == {(((), ()), "b1"): 1},
        f"base loop decomposes to {base_case}",
    )
    elapsed = time.monotonic() - start
    _check(problems, elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s")
    with capsys.disabled():
        _report(7, "insertion loop family n=2..6", problems)


def test_acceptance_8_transport(capsys):
    start = time.monotonic()
    problems: list[str] = []
    rng = random.Random(113)
    sigma = as_presentation()
    upsilon = parse_presentation(
        "generators: b e\norder: shortlex b < e\nrules:\n u1: b b -> b\n u2: e ->\n"
    )
    m = parse_translation_map(
        "forward: a -> b\nbackward: b -> a\nbackward: e -> ε\n", sigma, upsilon
    )
    upsilon_basis = tuple(bl.loop for bl in basis_loops(upsilon))
    generators = transported_generators(sigma, upsilon, m, upsilon_basis)
    _check(
        problems,
        len(generators) == len(sigma.rules) + len(upsilon_basis),
        f"{len(generators)} transported generators, expected "
        f"{len(sigma.rules) + len(upsilon_basis)}",
    )
    sigma_basis = tuple(bl.loop for bl in basis_loops(sigma))
    for k in range(100):
        loop = random_loop(rng, sigma, sigma_basis)
        lam = comparison_loop(loop, m, sigma, upsilon)
        gf = functor_image(
            functor_image(loop, m, sigma, upsilon), m.inverse(), upsilon, sigma
        )
        if footprint(loop, sigma) != _add(footprint(lam, sigma), footprint(gf, sigma)):
            problems.append(f"splitting law failed on loop {k}")
            break
    elapsed = time.monotonic() - start
    _check(problems, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    with capsys.disabled():
        _report(8, "transport and splitting law", problems)
