"""Tests of the benchmark itself: inputs, independent checks and tracing."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import srs
import srs.cli  # noqa: F401  (the workloads call srs.cli.main)
from srsbench import oracle, run, workloads
from srsbench.tracer import Tracer, read_spans

BENCH = Path(run.__file__).resolve().parent


def inputs_text(name: str) -> str:
    return (workloads.INPUTS / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["normalize", "complete", "loops"])
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    def draw(seed, folder):
        folder.mkdir()
        ops = workloads.WORKLOADS[name](srs, seed, folder).make_pass(0)
        if name == "complete":
            return [(op[0], op[1], op[2].read_text(encoding="utf-8")) for op in ops]
        if name == "loops":
            return [(op[0], workloads.describe(op[1])) for op in ops]
        return ops

    first = draw(7, tmp_path / "a")
    assert len(first) >= 96
    assert draw(7, tmp_path / "b") == first
    assert draw(8, tmp_path / "c") != first


def test_reducer_reproduces_the_readme_example():
    rs = oracle.read_rules(inputs_text("as.pres"))
    nf, steps = oracle.leftmost_reduction(("a",) * 4, rs)
    assert oracle.format_word(nf, rs) == "a"
    assert oracle.format_reduction(("a",) * 4, steps, rs) == "aaaa: +r@0 +r@0 +r@0"


def test_reducer_agrees_with_srs_on_the_sorting_system():
    text = inputs_text("sorting.pres")
    word = tuple("cbacbacab")
    nf, steps = oracle.leftmost_reduction(word, oracle.read_rules(text))
    p = srs.parse_presentation(text)
    expected_nf, path = srs.normalize(word, p)
    assert nf == expected_nf
    assert [(s.rule.rule_id, s.pos) for s in path.steps] == steps


def test_group_order_check_gives_24_for_s4(tmp_path):
    assert oracle.count_irreducible(oracle.read_rules(inputs_text("s4.pres")), 1000) == 24
    complete = workloads.Complete(srs, 1, tmp_path)
    ops = [op for op in complete.make_pass(0) if op[0] == "A3"]
    assert len(ops) == 6
    for op in ops:
        complete.check(op, complete.run(op))


def test_group_order_check_rejects_an_incomplete_system():
    base = oracle.read_rules(inputs_text("coxeter/A3.pres"))
    assert oracle.count_irreducible(base, 96) > 24


def fake_package(clock):
    """A package with a rewrite and an abelian layer: decompose_loop takes
    1 s, calls find_redexes (3 s) through its own binding, then takes 2 s."""
    pkg = types.ModuleType("fakesrs")
    rewrite = types.ModuleType("fakesrs.rewrite")
    abelian = types.ModuleType("fakesrs.abelian")

    def find_redexes(w):
        clock.now += 3
        return (1, 2)

    def decompose_loop(f):
        clock.now += 1
        abelian.find_redexes(f)
        clock.now += 2
        return "no entries attribute"

    for fn, module in ((find_redexes, rewrite), (decompose_loop, abelian)):
        fn.__module__ = module.__name__
        setattr(module, fn.__name__, fn)
    abelian.find_redexes = find_redexes
    pkg.rewrite, pkg.abelian, pkg.decompose_loop = rewrite, abelian, decompose_loop
    return {"fakesrs": pkg, "fakesrs.rewrite": rewrite, "fakesrs.abelian": abelian}


@pytest.fixture
def fake_srs(monkeypatch):
    clock = types.SimpleNamespace(now=0.0)
    for name, module in fake_package(clock).items():
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer(package="fakesrs", clock=lambda: clock.now)
    tracer.install()
    yield tracer, sys.modules["fakesrs"], clock
    tracer.uninstall()


def test_self_time_of_a_nested_call(fake_srs):
    tracer, pkg, clock = fake_srs
    tracer.begin_op()
    pkg.decompose_loop("w")
    clock.now += 0.5
    tracer.end_op()
    metrics, _ = tracer.metrics(overhead_s=0.25)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["rewrite.find_redexes.self_s"] == 3
    assert value["rewrite.find_redexes.calls"] == 1
    assert value["abelian.decompose_loop.self_s"] == 3
    assert value["abelian.self_s"] == 3
    assert value["rewrite.self_s"] == 3
    assert value["trace.overhead_s"] == 0.25
    # the op's root span covers everything: 6.5 s, of which 0.5 s its own
    assert tracer.end[0] - tracer.start[0] == 6.5
    assert [tracer.names[f] for f in tracer.fid] == ["bench.op", "abelian.decompose_loop", "rewrite.find_redexes"]
    assert list(tracer.parent) == [-1, 0, 1]


def test_missing_hooks_are_reported_absent(fake_srs, tmp_path):
    tracer, pkg, _ = fake_srs
    tracer.begin_op()
    pkg.decompose_loop("w")
    tracer.end_op()
    metrics, absent = tracer.metrics(overhead_s=None)
    for name in ("track.compose.calls", "transport.loop_steps", "cli.main.total_s", "trace.overhead_s",
                 "rewrite.normal_path.hit_ratio"):
        assert name in absent and name not in metrics
    # decompose_loop exists but its result has changed shape
    assert "abelian.certificate_entries" in absent
    assert "abelian.decompose_loop.self_s" in metrics
    spans = tmp_path / "spans.bin"
    assert tracer.write_spans(spans) == 3
    names, arrays = read_spans(spans)
    assert [names[f] for f in arrays["fid"]] == ["bench.op", "abelian.decompose_loop", "rewrite.find_redexes"]
    assert list(arrays["end"]) == [6.0, 6.0, 4.0]


def test_tracing_srs_counts_and_restores(tmp_path):
    original = srs.rewrite.normalize
    normalize = workloads.Normalize(srs, 1, tmp_path)
    op = ("sorting.pres", tuple("cbacba"))
    tracer = Tracer()
    tracer.install()
    try:
        assert srs.completion.normalize is srs.rewrite.normalize is not original
        tracer.begin_op()
        output = normalize.run(op)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert srs.rewrite.normalize is original and srs.completion.normalize is original
    normalize.check(op, output)
    metrics, absent = tracer.metrics(overhead_s=0.0)
    assert not absent
    steps = len(json.loads(output)["path"].split()) - 1
    assert metrics["rewrite.normalize.steps"]["value"] == steps
    assert metrics["presentation.parse_presentation.calls"]["value"] == 1
    assert metrics["cli.main.total_s"]["value"] > 0


class Failing:
    """A workload whose ops raise the errors a run must survive."""

    name = "normalize"

    def __init__(self, srs_module, seed, scratch):
        self.errors = [None, srs_module.FuelError("out of fuel"), RecursionError("deep"), None]

    def make_pass(self, k):
        return list(range(len(self.errors)))

    def run(self, op):
        if self.errors[op] is not None:
            raise self.errors[op]
        return str(op)

    def check(self, op, output):
        workloads.expect(op != 3, "wrong output")
        return output


def test_failed_ops_are_counted_and_the_run_goes_on(monkeypatch, tmp_path):
    saved = {name: module for name, module in sys.modules.items() if name == "srs" or name.startswith("srs.")}
    args = argparse.Namespace(workload="normalize", seed=1, seconds=0, trace=0, passes=1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    try:
        result = run.measure(args, types.SimpleNamespace(WORKLOADS={"normalize": Failing}), None)
    finally:
        sys.modules.update(saved)
    assert result["attempted"] == 4
    assert result["failed"] == 3
    assert len(result["latencies"]) == 4
    assert [p.split(":")[1].strip() for p in result["problems"]] == ["FuelError", "RecursionError", "CheckFailed"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (BENCH.parent / "BENCHMARK.json").is_file():
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "normalize", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
