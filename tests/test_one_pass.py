"""One pass over the critical branchings certifies local confluence and
builds the basis.  ``is_locally_confluent`` completes every branching into
its generating confluence, and ``basis_loops`` reads the basis from the
report, so ``is_convergent`` then ``basis_loops`` lists the branchings
once and reduces each side of each branching once."""

import sys
from pathlib import Path as FilePath

from srs import (
    basis_loops,
    critical,
    critical_branchings,
    format_path,
    generating_confluence,
    is_convergent,
    is_locally_confluent,
    parse_presentation,
    rewrite,
)
from helpers import two_rule_presentation, w

A5_COMPLETED = FilePath(__file__).resolve().parents[1] / "srsbench" / "inputs" / "a5_completed.pres"


def counted_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` at every binding an ``srs`` module holds, and
    return the list each call appends to."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for bound in [m for n, m in sys.modules.items() if n == "srs" or n.startswith("srs.")]:
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


def test_convergence_then_basis_lists_and_completes_each_branching_once(monkeypatch):
    text = A5_COMPLETED.read_text(encoding="utf-8")
    p = parse_presentation(text)
    listings = counted_calls(monkeypatch, critical, "critical_branchings")
    reductions = counted_calls(monkeypatch, rewrite, "_reduce")
    assert is_convergent(p).ok
    loops = basis_loops(p)
    assert (len(listings), len(reductions)) == (1, 368)
    monkeypatch.undo()

    fresh = parse_presentation(text)
    expected = [format_path(generating_confluence(b, fresh).loop, fresh) for b in critical_branchings(fresh)]
    assert len(expected) == 184
    assert [loop.basis_id for loop in loops] == [f"b{n}" for n in range(1, 185)]
    assert [format_path(loop.loop, p) for loop in loops] == expected
    confluences = is_convergent(p).local_confluence.confluences
    assert all(loop.confluence is c for loop, c in zip(loops, confluences, strict=True))


def test_the_failures_are_those_of_the_two_rule_system():
    report = is_locally_confluent(two_rule_presentation())
    assert [
        (f.branching.rule1.rule_id, f.branching.rule2.rule_id, f.branching.overlap, f.left_nf, f.right_nf)
        for f in report.failures
    ] == [("r1", "r2", w("aba"), w("aa"), w("a")), ("r2", "r1", w("bab"), w("bb"), w("b"))]
    assert report.confluences == ()


def test_a_report_holds_the_failures_and_the_confluences_of_the_joinable_rest():
    p = parse_presentation(
        "generators: a b\norder: shortlex a < b\nrules:\n r1: a b -> a\n r2: b a -> b\n r3: a a -> a\n"
    )
    report = is_locally_confluent(p)
    assert [(f.branching.overlap, f.left_nf, f.right_nf) for f in report.failures] == [
        (w("bab"), w("bb"), w("b"))
    ]
    assert [format_path(c.loop, p) for c in report.confluences] == [
        "aba: +r1@0 +r3@0 -r1@0 -r2@1",
        "baa: +r2@0 -r3@1",
        "aab: +r3@0 +r1@0 -r3@0 -r1@1",
        "aaa: +r3@0 -r3@1",
    ]
    failed = report.failures[0].branching
    rest = [b for b in critical_branchings(p) if b != failed]
    assert list(report.confluences) == [generating_confluence(b, p) for b in rest]
