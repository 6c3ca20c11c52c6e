"""Run the benchmark over several seeds and summarize its spread.

    python3 srsbench/baseline.py --workloads normalize complete loops \
        --seeds 1-10 --seconds 10 --traced-seeds 1 --write srsbench/baseline.json

For each workload, runs ``run.py`` once per seed (one after the other, each
in its own process) and prints, for every metric, the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median.  ``--traced-seeds`` adds traced runs for the per-layer metrics.
``--write`` stores everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["normalize", "complete", "loops"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--traced-seeds", type=seed_list, default=[])
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    report = {
        "conditions": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "seconds": args.seconds,
            "seeds": args.seeds,
        },
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "untraced": {
                name: dict(summarize([r["metrics"][name]["value"] for r in runs]), unit=metric["unit"])
                for name, metric in runs[0]["metrics"].items()
            },
        }
        print(f"{workload}: attempted {entry['attempted']}, failed {sum(entry['failed'])}, "
              f"correct {entry['correct']}")
        for name, s in entry["untraced"].items():
            print(f"  {name:14s} median {s['median']:10.4f} {s['unit']:5s} q1 {s['q1']:10.4f} "
                  f"q3 {s['q3']:10.4f} spread {s['spread']:.3f}")
        if args.traced_seeds:
            traced = [run_once(workload, seed, args.seconds, 1) for seed in args.traced_seeds]
            entry["traced"] = {
                name: {"values": [r["metrics"][name]["value"] for r in traced if name in r["metrics"]],
                       "unit": metric["unit"]}
                for name, metric in traced[0]["metrics"].items()
            }
            for name, s in entry["traced"].items():
                print(f"  {name:40s} {' '.join(f'{v:.6g}' for v in s['values'])} {s['unit']}")
        report["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
