"""Repeat workloads and report how steady each end-to-end metric is.

Usage, from the repository root::

    python3 perfbench/steady.py --workloads search,family,service --seeds 1-10 --sets 2

Every (set, workload, seed) is one ``perfbench/run.py`` run, made one after
another.  For each workload and metric the report gives, per set, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, and marks:

* ``wide``  — the spread exceeds a third of the metric's bound in BENCHMARK.json;
* ``OVER``  — the spread exceeds the bound itself;
* ``SHIFT`` — a later set's median is worse than the first set's by more than
  the bound.

``propagations`` must repeat exactly for a seed: a run whose count differs
from another run of the same seed is flagged.  ``--seeds 4,4,4`` repeats one
seed, so every run must then report the same count.  The failed share of
each set is printed, since it must be identical between sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    begun = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed"] = time.perf_counter() - begun
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def report(workload: str, sets: list[list[tuple[int, dict]]], metrics: list[dict]) -> bool:
    """Print one workload's table; return False when something is flagged."""
    steady = True
    print(f"\n== {workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    shares = set()
    for index, runs in enumerate(sets):
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        correct = all(r["correct"] for _, r in runs)
        elapsed = statistics.median(r["elapsed"] for _, r in runs)
        print(
            f"set {index + 1}: correct={correct} failed {failed}/{attempted}, "
            f"median run {elapsed:.1f} s"
        )
        steady &= correct
        shares.add(failed / attempted)
    if len(shares) > 1:
        steady = False
        print(f"  FLAG the failed share differs between sets: {sorted(shares)}")
    for metric in metrics:
        name, bound, better = metric["name"], metric.get("bound"), metric["better"]
        first_median = None
        for index, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for _, r in runs]
            middle, q1, q3, share = spread(values)
            marks = []
            if bound is not None and name != "setup_s":
                if share > bound:
                    marks.append("OVER")
                elif share > bound / 3:
                    marks.append("wide")
            if first_median is None:
                first_median = middle
            elif bound is not None and first_median:
                worse = (middle - first_median) / first_median
                if better == "higher":
                    worse = -worse
                if worse > bound:
                    marks.append("SHIFT")
            steady &= not any(mark in ("OVER", "SHIFT") for mark in marks)
            print(
                f"  {name:<26} set {index + 1}: median {middle:<12.6g} "
                f"Q1 {q1:<12.6g} Q3 {q3:<12.6g} spread {share:6.2%}  "
                f"bound {bound if bound is not None else '-'} {' '.join(marks)}"
            )
    by_seed: dict[int, set] = {}
    for runs in sets:
        for seed, result in runs:
            if "propagations" in result["metrics"]:
                by_seed.setdefault(seed, set()).add(result["metrics"]["propagations"]["value"])
    for seed, counts in sorted(by_seed.items()):
        if len(counts) > 1:
            steady = False
            print(f"  FLAG propagations differ between runs of seed {seed}: {sorted(counts)}")
    return steady


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,3,3")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", action="store_true", help="make traced runs (per-layer metrics, no bounds)"
    )
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    steady = True
    for workload in args.workloads.split(","):
        sets = [
            [(seed, run_once(workload, seed, args.seconds, args.trace)) for seed in seeds]
            for _ in range(args.sets)
        ]
        steady &= report(workload, sets, metrics)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
