"""The srs benchmark.

    python3 srsbench/run.py --workload normalize --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; ``srs`` is imported from ``src/`` there.
Each workload runs in its own process as a closed loop with one caller:
the next op starts when the previous one returns.  The run does whole
passes of seeded inputs until ``--seconds`` have passed (at least one; a
traced run does exactly one), and checks every op's output outside the
timed region.  ``--workload all`` runs
each workload in its own child process and prints every report.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A traced
run also runs the same pass untraced in a child process to measure the
tracing overhead, and writes its spans to ``srsbench/out/`` (see
``tracer.read_spans``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = (5, 31)  # at least, at most
SETUP_BUDGET_S = 2.0
CHILD_TIMEOUT_S = 170


def import_srs():
    """A fresh import of the package under test, from this checkout."""
    for name in [n for n in sys.modules if n == "srs" or n.startswith("srs.")]:
        del sys.modules[name]
    srs = importlib.import_module("srs")
    importlib.import_module("srs.cli")
    if Path(srs.__file__).resolve().parent != SRC / "srs":
        raise ImportError(f"srs was imported from {srs.__file__}, not from {SRC}")
    return srs


def run_child(argv: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + argv,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child run {argv} failed:\n{done.stderr}")
    return done.stdout


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, as for small samples)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, workloads, tracer_module) -> dict:
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # Set-up is repeated and its median reported: a fresh import of srs,
        # loading the workload files, the first pass's inputs and the
        # library session's warm-up.  Short set-ups are repeated more often.
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS[0] or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_REPEATS[1]
        ):
            started = time.perf_counter()
            srs = import_srs()
            workload = workloads.WORKLOADS[args.workload](srs, args.seed, scratch)
            ops = workload.make_pass(0)
            setups.append(time.perf_counter() - started)

        tracer = None
        if args.trace:
            tracer = tracer_module.Tracer()
            tracer.install()
        latencies: list[float] = []
        attempted = failed = 0
        problems: list[str] = []
        digest = hashlib.sha256()
        passes = 0
        peak_rss_mb = 0.0
        run_started = time.perf_counter()
        while True:
            for op in ops:
                attempted += 1
                error = None
                if tracer:
                    tracer.begin_op()
                started = time.perf_counter()
                try:
                    output = workload.run(op)
                except Exception as exc:  # every op failure is counted, then the run goes on
                    error = exc
                finally:
                    latencies.append(time.perf_counter() - started)
                    if tracer:
                        tracer.end_op()
                if error is None:
                    try:
                        text = workload.check(op, output)
                    except Exception as exc:
                        error = exc
                if error is not None:
                    failed += 1
                    problems.append(f"op {attempted}: {type(error).__name__}: {error}"[:300])
                    traceback.print_exception(type(error), error, error.__traceback__, limit=-3, file=sys.stderr)
                elif passes == 0:
                    digest.update(hashlib.sha256(text.encode()).digest())
            if passes == 0:
                # The first pass has the same inputs whatever the speed, so
                # its peak is comparable between versions.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes += 1
            if args.passes:
                if passes >= args.passes:
                    break
            elif time.perf_counter() - run_started >= args.seconds:
                break
            ops = workload.make_pass(passes)
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "setups": setups,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest.hexdigest(),
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "tracer": tracer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="the srs benchmark")
    parser.add_argument("--workload", required=True, choices=("normalize", "complete", "loops", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Run exactly this many passes (the untraced twin of a traced run).
    parser.add_argument("--passes", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace:
        # One pass: the per-layer counts then cover the same inputs on
        # every version of the program, whatever its speed.
        args.passes = 1

    if not (SRC / "srs" / "__init__.py").is_file():
        print(f"srsbench: no srs sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in ("normalize", "complete", "loops"):
            sys.stdout.write(run_child([
                "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]))
        return 0

    sys.path[:0] = [str(SRC), str(ROOT)]
    from srsbench import tracer as tracer_module
    from srsbench import workloads

    OUT.mkdir(exist_ok=True)
    result = measure(args, workloads, tracer_module)
    latencies = result["latencies"]
    attempted, failed = result["attempted"], result["failed"]
    timed_s = sum(latencies)
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    digest_ok = args.seed != DEFAULT_SEED or recorded.get(args.workload) == result["digest"]
    correct = not result["problems"] and digest_ok

    print(
        f"srsbench {args.workload}: seed {args.seed}, {result['passes']} pass(es), "
        f"{attempted} ops attempted, {failed} failed, failed_ratio {failed / attempted:g} ({failed}/{attempted})"
    )
    print(f"  timed_s: {timed_s!r}")
    print(f"  digest: {result['digest']}" + (
        "" if args.seed != DEFAULT_SEED else (" (matches the record)" if digest_ok else " (DIFFERS from the record)")
    ))
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")

    if args.trace:
        untraced = run_child([
            "--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
            "--passes", str(result["passes"]),
        ])
        untraced_s = float(next(
            line.split(":", 1)[1] for line in untraced.splitlines() if line.strip().startswith("timed_s:")
        ))
        tracer = result["tracer"]
        metrics, absent = tracer.metrics(timed_s - untraced_s)
        spans_file = OUT / f"spans-{args.workload}.bin"
        count = tracer.write_spans(spans_file)
        print(f"  spans: {count} written to {spans_file.relative_to(ROOT)}")
        for name, base in tracer.bases().items():
            print(f"  base of {name}: {base}")
        if absent:
            print(f"  absent: {' '.join(absent)}")
    else:
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / timed_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(result["setups"]), "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
