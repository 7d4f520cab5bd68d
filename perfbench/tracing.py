"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces a handful of public methods of the program with
timing wrappers while it is installed, keeps every span in memory and writes
them out as JSON lines when the run ends.  A span records its name, start
and end (``time.perf_counter``), the span that caused it (the innermost span
open on the same thread) and the outermost span of that chain, so the spans
of one operation share a root.  Nothing inside the program is changed; the
daemon launcher installs the same wrappers inside the daemon process.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

from perfbench.common import median

#: Field order of a span tuple.
SPAN_FIELDS = ("id", "parent", "root", "name", "start", "end", "attrs")


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., dict] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, prepared)``, which returns
        the span's counters.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            root = stack[0] if stack else span_id
            prepared = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, root, name, start, end, {"error": type(error).__name__})
                )
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = after(args, kwargs, result, prepared) if after is not None else None
            tracer.spans.append((span_id, parent, root, name, start, end, attrs))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap the public entry points of every layer the workloads drive."""
        from repro.api.experiment import Experiment
        from repro.api.specs import InstanceSpec
        from repro.core.pdsat import PDSAT
        from repro.core.predictive import PredictiveFunction
        from repro.runner.scheduler import SchedulerCheckpoint
        from repro.sat.cdcl import CDCLSolver
        from repro.sat.simplify import Preprocessor

        self.wrap(InstanceSpec, "build", "problems.build")
        self.wrap(
            Preprocessor,
            "preprocess",
            "simplify.preprocess",
            before=lambda args, kwargs: _argument(args, kwargs, 1, "cnf").num_clauses,
            after=lambda args, kwargs, result, clauses: {
                "clauses_before": clauses,
                "clauses_after": result.cnf.num_clauses,
            },
        )
        self.wrap(Experiment, "estimate", "api.estimate")
        self.wrap(Experiment, "solve", "api.solve")
        self.wrap(
            PDSAT,
            "estimate",
            "core.estimate",
            before=lambda args, kwargs: (
                args[0].evaluator.sample_cache_hits,
                args[0].evaluator.num_subproblem_solves,
            ),
            after=lambda args, kwargs, result, counts: {
                "cache_hits": args[0].evaluator.sample_cache_hits - counts[0],
                "sample_solves": args[0].evaluator.num_subproblem_solves - counts[1],
            },
        )
        self.wrap(PredictiveFunction, "evaluate", "core.evaluate")
        self.wrap(
            CDCLSolver,
            "solve",
            "cdcl.solve",
            after=lambda args, kwargs, result, _: {"propagations": result.stats.propagations},
        )
        self.wrap(
            CDCLSolver,
            "solve_batch",
            "cdcl.solve_batch",
            after=lambda args, kwargs, result, _: {
                "rows": len(result),
                "propagations": sum(r.stats.propagations for r in result),
            },
        )
        self.wrap(
            SchedulerCheckpoint,
            "save",
            "service.checkpoint_save",
            after=lambda args, kwargs, result, _: {
                "bytes": Path(_argument(args, kwargs, 1, "path")).stat().st_size
            },
        )
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output
    def dump(self, path: Path, process: str = "benchmark") -> None:
        """Write the spans to ``path`` as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                record = dict(zip(SPAN_FIELDS, span))
                record["process"] = process
                out.write(json.dumps(record) + "\n")


def _argument(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def load_spans(path: Path, offset: int) -> list[tuple]:
    """Read spans written by :meth:`Tracer.dump` back as tuples.

    Every id is shifted by ``offset`` so spans of several processes never
    share an id (each process numbers its spans from 1).
    """
    spans = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["id"] += offset
        record["root"] += offset
        if record["parent"] is not None:
            record["parent"] += offset
        spans.append(tuple(record[field] for field in SPAN_FIELDS))
    return spans


def span_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer metrics that the spans alone determine.

    Totals are per round (``rounds`` traced rounds went into ``spans``);
    latencies are medians over calls.  A layer that no span reached reads 0.
    """
    rounds = max(1, rounds)
    names = {span[0]: span[3] for span in spans}

    def of(name: str) -> list[tuple]:
        return [span for span in spans if span[3] == name]

    def seconds(group: list[tuple]) -> list[float]:
        return [span[5] - span[4] for span in group]

    builds = seconds(of("problems.build"))
    preprocess = of("simplify.preprocess")
    evaluations = of("core.evaluate")
    estimates = of("core.estimate")
    # Solver calls made by another solver call (the batch engine's scalar
    # fallback) are already inside that call's time.
    solves = [
        span for span in of("cdcl.solve") if not str(names.get(span[1], "")).startswith("cdcl.")
    ]
    batches = of("cdcl.solve_batch")
    saves = of("service.checkpoint_save")
    hits = sum(span[6]["cache_hits"] for span in estimates if span[6] and "cache_hits" in span[6])
    sample_solves = sum(
        span[6]["sample_solves"] for span in estimates if span[6] and "sample_solves" in span[6]
    )
    solver_seconds = sum(seconds(solves)) + sum(seconds(batches))
    solver_props = sum(
        span[6].get("propagations", 0) for span in solves + batches if span[6]
    )
    return {
        "problems.build_ms": median(builds) * 1e3,
        "simplify.preprocess_ms": median(seconds(preprocess)) * 1e3,
        "simplify.clauses_removed": median(
            [
                span[6]["clauses_before"] - span[6]["clauses_after"]
                for span in preprocess
                if span[6] and "clauses_before" in span[6]
            ]
        ),
        "core.eval_ms_p50": median(seconds(evaluations)) * 1e3,
        "core.search_self_s": (sum(seconds(estimates)) - sum(seconds(evaluations))) / rounds
        if estimates
        else 0.0,
        "core.cache_hit_ratio": hits / sample_solves if sample_solves else 0.0,
        "cdcl.solve_calls": len(solves) / rounds,
        "cdcl.solve_s": sum(seconds(solves)) / rounds,
        "cdcl.call_us_p50": median(seconds(solves)) * 1e6,
        "cdcl.props_per_s": solver_props / solver_seconds if solver_seconds else 0.0,
        "cdcl.batch_s": sum(seconds(batches)) / rounds,
        "cdcl.batch_rows_per_call": (
            sum(span[6]["rows"] for span in batches if span[6]) / len(batches)
            if batches
            else 0.0
        ),
        "service.checkpoint_saves": len(saves) / rounds,
        "service.checkpoint_mb": sum(span[6]["bytes"] for span in saves if span[6])
        / 1e6
        / rounds,
    }
