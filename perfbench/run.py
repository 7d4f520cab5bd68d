"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The workload's inputs are made from ``--seed``.  The run repeats whole
rounds of identical work until the timed phases add up to ``--seconds``
(at least three rounds), sets the workload up at least five times, checks
every round's outputs, and prints as its last line::

    {"correct": true, "attempted": 500, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the rounds alternate between untraced and traced (at least one of each),
and the metrics are the per-layer ones, measured by wrappers around each
layer's public entry points, plus ``trace.overhead_pct``: how much longer a
traced round took than an untraced one.  Spans are written to
``.perfbench-work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, WORK, median, peak_rss_mb, quantile, use_repo_sources  # noqa: E402

WORKLOADS = ("search", "family", "service")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Untraced rounds per run at least, so a median over rounds outvotes one
#: round that a burst of load on the machine slowed down.
MIN_ROUNDS = 3
#: No round starts once a run has taken this long (the run must end in 180 s).
ROUND_DEADLINE_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "propagations": "count",
}

PER_LAYER = {
    "problems.build_ms": "ms",
    "simplify.preprocess_ms": "ms",
    "simplify.clauses_removed": "count",
    "core.eval_ms_p50": "ms",
    "core.search_self_s": "s",
    "core.cache_hit_ratio": "ratio",
    "cdcl.solve_calls": "count",
    "cdcl.solve_s": "s",
    "cdcl.call_us_p50": "us",
    "cdcl.props_per_s": "1/s",
    "cdcl.batch_s": "s",
    "cdcl.batch_rows_per_call": "count",
    "runner.busy_share": "ratio",
    "runner.overhead_s": "s",
    "service.queue_wait_ms_p50": "ms",
    "service.run_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.overhead_growth_ms": "ms",
    "service.run_vs_direct": "ratio",
    "service.checkpoint_saves": "count",
    "service.checkpoint_mb": "MB",
    "service.journal_kb": "KB",
    "service.store_hits": "count",
    "trace.overhead_pct": "%",
}


def make_workload(name: str, seed: int, work_dir: Path):
    from perfbench.workloads import FamilyWorkload, SearchWorkload, ServiceWorkload

    if name == "search":
        return SearchWorkload(seed)
    if name == "family":
        return FamilyWorkload(seed)
    return ServiceWorkload(seed, work_dir)


def measure(workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    """Run rounds, check them, and fold them into the printed result."""
    from perfbench.tracing import Tracer, load_spans, span_metrics

    tracer = Tracer()
    # The daemon carries its own wrappers; the load generator is not traced.
    trace_here = workload.name != "service"
    setups: list[float] = []
    rounds, traced_rounds = [], []
    correct, broken = True, 0
    begun = time.perf_counter()
    while True:
        traced = trace and (len(rounds) + len(traced_rounds)) % 2 == 1
        if traced and trace_here:
            tracer.install()
        try:
            started = time.perf_counter()
            state = workload.setup(traced)
            setups.append(time.perf_counter() - started)
            try:
                try:
                    round_ = workload.run_round(state)
                finally:
                    if traced and trace_here:
                        tracer.uninstall()
                workload.check(state, round_)
            finally:
                workload.teardown(state)
        except Exception:  # noqa: BLE001 - report the round as failed, keep the result line
            traceback.print_exc()
            correct, broken = False, workload.ops_per_round
            break
        (traced_rounds if traced else rounds).append(round_)
        if round_.spans is not None:
            offset = max((span[0] for span in tracer.spans), default=0)
            tracer.spans.extend(load_spans(round_.spans, offset))
        measured = sum(r.wall for r in rounds + traced_rounds)
        enough = measured >= seconds and (traced_rounds if trace else len(rounds) >= MIN_ROUNDS)
        if enough or time.perf_counter() - begun > ROUND_DEADLINE_S:
            break
    while not trace and correct and len(setups) < SETUPS:
        started = time.perf_counter()
        state = workload.setup(False)
        setups.append(time.perf_counter() - started)
        workload.teardown(state)
    peak = peak_rss_mb()

    every = rounds + traced_rounds
    attempted = workload.ops_per_round * len(every) + broken
    failed = sum(len(r.failed) for r in every) + broken
    if failed:
        correct = False
        for r in every:
            for op, reason in sorted(r.failed.items())[:5]:
                print(f"check failed: op {op}: {reason}", file=sys.stderr)
    if len({r.propagations for r in every}) > 1:
        print("propagations differ between rounds of identical work", file=sys.stderr)
        correct = False

    if not trace:
        # Timings are medians over rounds; every round has >= 100 ops, so
        # each round's p90 has at least ten samples beyond it.
        timed = [r for r in rounds if r.latencies]
        values = {
            "setup_s": median(setups),
            "wall_s": median([r.wall for r in rounds]),
            "ops_per_s": median([len(r.latencies) / r.wall for r in timed]),
            "op_p50_ms": median([quantile(r.latencies, 0.5) for r in timed]) * 1e3,
            "op_p90_ms": median([quantile(r.latencies, 0.9) for r in timed]) * 1e3,
            "peak_rss_mb": peak,
            "propagations": every[0].propagations if every else 0,
        }
        units = END_TO_END
    else:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(span_metrics(tracer.spans, len(traced_rounds)))
        for name in {key for r in traced_rounds for key in r.layers}:
            values[name] = median([r.layers[name] for r in traced_rounds if name in r.layers])
        if rounds and traced_rounds:
            plain = median([r.wall for r in rounds])
            values["trace.overhead_pct"] = (median([r.wall for r in traced_rounds]) / plain - 1) * 100
        units = PER_LAYER
        tracer.dump(spans_path)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    use_repo_sources()
    os.chdir(ROOT)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        result = measure(workload, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
