"""The three workloads: tabu search, a paper-scale family solve, the daemon.

A workload turns the run seed into its inputs, then repeats rounds.  Each
round sets up (timed as ``setup_s``), performs the same fixed list of
operations (the timed phase), and checks their outputs.  Every round of a
run does identical work, so ``propagations`` must repeat exactly.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.checks import check_family, check_search, check_service
from perfbench.common import ROOT, median


@dataclass
class Round:
    """What one round's timed phase produced, and what its check found."""

    wall: float
    latencies: list[float]
    #: The program's outputs, kept for :meth:`check`.
    outputs: Any = None
    propagations: int = 0
    #: Index of op -> reason, for ops whose output failed a check.
    failed: dict[int, str] = field(default_factory=dict)
    #: Workload-specific per-layer figures of this round.
    layers: dict[str, float] = field(default_factory=dict)
    #: Span file a daemon wrote during this round (traced service rounds).
    spans: Path | None = None


def _mark(failures, ops: int, into: dict[int, str], offset: int = 0) -> None:
    """Record check failures; an op-less failure fails all ``ops`` of the unit."""
    for op, reason in failures:
        targets = range(offset, offset + ops) if op is None else [offset + op]
        for target in targets:
            into.setdefault(target, reason)


# ===================================================================== search
class SearchWorkload:
    """Estimating mode: tabu search over bivium-tiny with the default estimator.

    A round is ``SEARCHES`` searches of ``EVALUATIONS`` ξ evaluations each,
    on instances (secret states and sampling seeds) drawn from the run seed.
    Splitting the evaluations over several instances keeps the work of a
    round within ~2% across seeds, where one long search varies by ~15%.
    """

    name = "search"
    SEARCHES = 5
    EVALUATIONS = 50
    SAMPLE_SIZE = 50
    CIPHER = "bivium-tiny"

    def __init__(self, seed: int):
        from repro import EstimatorSpec, ExperimentConfig, InstanceSpec, MinimizerSpec

        rng = random.Random(f"search-{seed}")
        self.configs = [
            ExperimentConfig(
                instance=InstanceSpec(cipher=self.CIPHER, seed=instance_seed),
                minimizer=MinimizerSpec(name="tabu", max_evaluations=self.EVALUATIONS),
                estimator=EstimatorSpec(sample_size=self.SAMPLE_SIZE),
                seed=instance_seed,
            )
            for instance_seed in rng.sample(range(1, 1 << 20), self.SEARCHES)
        ]
        self.ops_per_round = self.SEARCHES * self.EVALUATIONS

    def setup(self, traced: bool):
        from repro import Experiment

        state = []
        for cfg in self.configs:
            marks: list[tuple[int, float]] = []
            experiment = Experiment(
                cfg,
                progress=lambda event, marks=marks: marks.append(
                    (event.completed, time.perf_counter())
                ),
            )
            experiment.pdsat  # instance build and evaluator
            state.append((experiment, marks))
        return state

    def run_round(self, state) -> Round:
        results = []
        latencies: list[float] = []
        started = time.perf_counter()
        for experiment, marks in state:
            begun = time.perf_counter()
            results.append(experiment.estimate())
            # Progress fires once per search iteration with the evaluation
            # count so far; op k ends at the first event that reports k.
            ends: dict[int, float] = {}
            for completed, at in marks:
                if completed >= 1:
                    ends.setdefault(completed, at)
            previous = begun
            for k in sorted(ends):
                latencies.append(ends[k] - previous)
                previous = ends[k]
        return Round(time.perf_counter() - started, latencies, outputs=results)

    def check(self, state, round_: Round) -> None:
        for position, ((experiment, _), result) in enumerate(zip(state, round_.outputs)):
            history = experiment.pdsat.evaluator.cached_results()
            round_.propagations += sum(
                int(o.cost) for point in history for o in point.observations if not o.cached
            )
            failures = check_search(
                experiment.instance,
                history,
                result.data["best_value"],
                result.data["best_decomposition"],
                result.data["num_evaluations"],
                self.EVALUATIONS,
                self.SAMPLE_SIZE,
            )
            _mark(failures, self.EVALUATIONS, round_.failed, offset=position * self.EVALUATIONS)
        if len(round_.latencies) != self.ops_per_round:
            timed = [(None, f"{len(round_.latencies)} evaluations timed")]
            _mark(timed, self.ops_per_round, round_.failed)

    def teardown(self, state) -> None:
        state.clear()


# ===================================================================== family
class FamilyWorkload:
    """Solving mode on a paper-scale encoding.

    ``bivium-full`` (1970 variables) weakened by revealing the last 56 cells
    of register B, simplified by ``satelite``; the family of the last 7 free
    cells of register B (128 cubes) is solved through the ``process-pool``
    backend with 2 processes.  The instance is fixed: between secret states
    a family's work differs by up to 60%, which would swamp a regression.
    The run seed sets the order the cubes are dispatched in.
    """

    name = "family"
    INSTANCE = {"cipher": "bivium-full", "seed": 1, "known_bits": 56}
    FREE_BITS = 7
    PROCESSES = 2
    #: Sample size and seed of the fresh ξ evaluation the check compares with.
    CHECK_SAMPLE = 24
    CHECK_SEED = 0

    def __init__(self, seed: int):
        self.order = list(range(2**self.FREE_BITS))
        random.Random(f"family-{seed}").shuffle(self.order)
        self.ops_per_round = len(self.order)
        self._prediction = None

    def config(self):
        from repro import BackendSpec, ExperimentConfig, InstanceSpec, PreprocessorSpec

        return ExperimentConfig(
            instance=InstanceSpec(**self.INSTANCE),
            preprocessor=PreprocessorSpec(name="satelite"),
            backend=BackendSpec(name="process-pool", options={"processes": self.PROCESSES}),
        )

    def setup(self, traced: bool):
        from repro import Experiment

        experiment = Experiment.from_config(self.config())
        experiment.pdsat  # instance build and preprocessing
        return experiment

    def decomposition(self, instance) -> list[int]:
        free = set(instance.free_start_variables)
        register_b = instance.register_vars["B"]
        return [v for v in register_b if v in free][-self.FREE_BITS :]

    def run_round(self, experiment) -> Round:
        from repro.core.decomposition import DecompositionSet

        variables = self.decomposition(experiment.instance)
        cubes = [a.to_literals() for a in DecompositionSet.of(variables).all_assignments()]
        vectors = [cubes[i] for i in self.order]
        cfg = experiment.config
        backend = cfg.backend.build()
        started = time.perf_counter()
        run = backend.run(
            experiment.pdsat.cnf, vectors, solver=cfg.solver, cost_measure=cfg.cost_measure
        )
        wall = time.perf_counter() - started
        # A cube's latency is the solver's own wall_time field.
        latencies = [outcome.wall_time for outcome in run.outcomes]
        return Round(wall, latencies, outputs=(variables, run.outcomes))

    def check(self, experiment, round_: Round) -> None:
        variables, outcomes = round_.outputs
        round_.propagations = int(sum(outcome.cost for outcome in outcomes))
        if len(outcomes) != self.ops_per_round:
            lost = [(None, f"{len(outcomes)} of {self.ops_per_round} cubes came back")]
            _mark(lost, self.ops_per_round, round_.failed)
        else:
            if self._prediction is None:
                self._prediction = self.fresh_prediction(experiment.pdsat.cnf, variables)
            failures = check_family(
                experiment.instance, experiment.pdsat.presolve, variables, outcomes, self._prediction
            )
            _mark(failures, self.ops_per_round, round_.failed)
        cube_seconds = sum(round_.latencies)
        round_.layers = {
            "cdcl.solve_calls": float(len(outcomes)),
            "cdcl.solve_s": cube_seconds,
            "cdcl.call_us_p50": median(round_.latencies) * 1e6,
            "cdcl.props_per_s": round_.propagations / cube_seconds if cube_seconds else 0.0,
            "runner.busy_share": cube_seconds / (self.PROCESSES * round_.wall),
            "runner.overhead_s": round_.wall - cube_seconds / self.PROCESSES,
        }

    def fresh_prediction(self, cnf, variables):
        """ξ with the paper's fresh-solve semantics, from a fixed sampling seed.

        Computed once per run: every round solves the same family, and each
        round's outcomes are compared with this one reference.
        """
        from repro.core.predictive import PredictiveFunction

        evaluator = PredictiveFunction(
            cnf,
            sample_size=self.CHECK_SAMPLE,
            seed=self.CHECK_SEED,
            confidence_level=0.999,
            sample_cache_size=None,
        )
        return evaluator.evaluate(variables)

    def teardown(self, experiment) -> None:
        pass


# ==================================================================== service
class ServiceWorkload:
    """The job daemon (``repro-sat serve --workers 1``) under a closed-loop load.

    Two client threads each work through their own list of 52 jobs, sending
    the next only when the previous result is in: 39 fresh jobs (``solve``
    of a 32-cube geffe-tiny family, or a batched fresh-ξ ``estimate`` tabu
    run on bivium-tiny) and 13 resubmissions of a config the same client
    completed earlier, which the content-addressed store answers.
    Completion is observed through ``watch``.  The 78 fresh jobs are a fixed
    pool, so every run does the same solver work; the run seed deals them to
    the clients, orders them, and places and aims the resubmissions.
    """

    name = "service"
    CLIENTS = 2
    FRESH_PER_CLIENT = 39
    AGAIN_PER_CLIENT = 13
    #: One daemon worker: two worker threads contend for the interpreter
    #: lock, so a job's run time would depend on which job it overlaps, and
    #: that amplifies the machine's own noise (see README).
    WORKERS = 1
    SOLVE_BITS = 5
    DIRECT_CHECKS = 4  # per job kind

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        fresh = self.job_pool()
        rng = random.Random(f"service-{seed}")
        rng.shuffle(fresh)
        # Each client's plan: a list of op indices; ops are numbered globally.
        self.ops: list[dict[str, Any]] = []
        self.plans: list[list[int]] = []
        for client in range(self.CLIENTS):
            mine = fresh[client * self.FRESH_PER_CLIENT : (client + 1) * self.FRESH_PER_CLIENT]
            slots = ["fresh"] * self.FRESH_PER_CLIENT
            # A resubmission needs an earlier fresh job: never in slot 0.
            for position in sorted(
                rng.sample(range(1, self.FRESH_PER_CLIENT + self.AGAIN_PER_CLIENT), self.AGAIN_PER_CLIENT)
            ):
                slots.insert(position, "again")
            plan, done_fresh, queue = [], [], iter(mine)
            for slot in slots:
                index = len(self.ops)
                if slot == "fresh":
                    kind, config = next(queue)
                    self.ops.append({"kind": kind, "config": config, "again_of": None})
                    done_fresh.append(index)
                else:
                    origin = rng.choice(done_fresh)
                    self.ops.append(dict(self.ops[origin], again_of=origin))
                plan.append(index)
            self.plans.append(plan)
        fresh_ops = [i for i, op in enumerate(self.ops) if op["again_of"] is None]
        self.direct = sorted(
            rng.sample([i for i in fresh_ops if self.ops[i]["kind"] == "solve"], self.DIRECT_CHECKS)
            + rng.sample(
                [i for i in fresh_ops if self.ops[i]["kind"] == "estimate"], self.DIRECT_CHECKS
            )
        )
        self.ops_per_round = len(self.ops)
        self._daemons = 0

    def job_pool(self) -> list[tuple[str, dict[str, Any]]]:
        """The fresh jobs, the same for every run seed (so is their work)."""
        from repro import InstanceSpec

        rng = random.Random("service-pool")
        half = self.CLIENTS * self.FRESH_PER_CLIENT // 2
        seeds = rng.sample(range(1, 1 << 20), 2 * half)
        start_set = InstanceSpec(cipher="geffe-tiny").build().free_start_variables
        solves = [
            (
                "solve",
                {
                    "instance": {"cipher": "geffe-tiny", "seed": instance_seed},
                    "decomposition": sorted(rng.sample(start_set, self.SOLVE_BITS)),
                },
            )
            for instance_seed in seeds[:half]
        ]
        estimates = [
            (
                "estimate",
                {
                    "instance": {"cipher": "bivium-tiny", "seed": instance_seed},
                    "minimizer": {"name": "tabu", "max_evaluations": 6},
                    "estimator": {"sample_size": 16, "incremental": False, "batch_size": 16},
                    "seed": instance_seed,
                },
            )
            for instance_seed in seeds[half:]
        ]
        return solves + estimates

    # -------------------------------------------------------------- daemon
    def setup(self, traced: bool):
        """Start a daemon on a fresh state directory; timed up to its first ping."""
        from repro.service import ServiceClient, ServiceError

        self._daemons += 1
        home = self.work_dir / f"daemon-{self._daemons}"
        home.mkdir(parents=True)
        relative = home.relative_to(ROOT)
        spans = home / "spans.jsonl"
        command = [sys.executable, str(ROOT / "perfbench" / "daemon_launcher.py")]
        if traced:
            command += ["--spans", str(spans)]
        # Relative paths keep the unix socket path short whatever the checkout.
        command += [
            "serve",
            "--state-dir",
            str(relative / "state"),
            "--socket",
            str(relative / "daemon.sock"),
            "--workers",
            str(self.WORKERS),
        ]
        log = (home / "daemon.log").open("w")
        process = subprocess.Popen(command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        log.close()
        state = {"process": process, "home": home, "spans": spans, "relative": relative}
        client = ServiceClient(str(relative / "daemon.sock"), timeout=120.0, connect_retries=0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                client.ping()
                break
            except (ServiceError, OSError):
                if process.poll() is not None or time.monotonic() > deadline:
                    self.teardown(state)
                    log = (home / "daemon.log").read_text()[-2000:]
                    raise RuntimeError(f"daemon did not come up:\n{log}")
                time.sleep(0.005)
        state["client"] = client
        return state

    def teardown(self, state) -> None:
        """Shut the daemon down and wait for its process to end."""
        from repro.service import ServiceError

        process = state["process"]
        if process.poll() is None:
            try:
                state["client"].shutdown()
            except (KeyError, ServiceError, OSError):
                process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    # --------------------------------------------------------------- load
    def _client_loop(self, client, plan: list[int], records: list[dict]) -> None:
        for index in plan:
            op = self.ops[index]
            record = records[index]
            try:
                begun = time.perf_counter()
                outcome = client.submit(op["kind"], op["config"])
                final = None
                for message in client.watch(outcome["job_id"]):
                    if message.get("done"):
                        final = message["state"]
                result = client.result(outcome["job_id"]) if final == "done" else None
                record.update(
                    latency=time.perf_counter() - begun,
                    job_id=outcome["job_id"],
                    cached=bool(outcome.get("cached")),
                    state=final,
                    result=result,
                )
            except Exception as error:  # noqa: BLE001 - one failed op must not stop the load
                record.update(state=f"error: {type(error).__name__}: {error}")

    def run_round(self, state) -> Round:
        from repro.service import ServiceClient

        address = str(state["relative"] / "daemon.sock")
        records = [dict(op) for op in self.ops]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(ServiceClient(address, timeout=120.0), plan, records),
                name=f"perfbench-client-{n}",
            )
            for n, plan in enumerate(self.plans)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        latencies = [r["latency"] for r in records if "latency" in r]
        for record in records:
            if "job_id" in record:
                record["status"] = state["client"].status(record["job_id"])
        self.teardown(state)
        spans = state["spans"] if state["spans"].exists() else None
        return Round(wall, latencies, outputs=records, spans=spans)

    def check(self, state, round_: Round) -> None:
        records = round_.outputs
        round_.propagations = sum(
            _job_propagations(r) for r in records if r.get("result") and not r.get("cached")
        )
        direct, direct_seconds = self.direct_results()
        _mark(check_service(records, _verify_state, direct), len(records), round_.failed)
        journal = state["home"] / "state" / "jobs.json"
        journal_kb = journal.stat().st_size / 1024 if journal.exists() else 0.0
        round_.layers = self._layers(records, direct_seconds, journal_kb)

    def direct_results(self) -> tuple[dict[int, dict], dict[int, float]]:
        """Direct facade calls of the configs the daemon result is compared with."""
        from repro import Experiment, ExperimentConfig

        results, seconds = {}, {}
        for index in self.direct:
            op = self.ops[index]
            begun = time.perf_counter()
            result = getattr(Experiment(ExperimentConfig.from_dict(op["config"])), op["kind"])()
            seconds[index] = time.perf_counter() - begun
            results[index] = result.to_dict()
        return results, seconds

    def _layers(self, records, direct_seconds, journal_kb) -> dict[str, float]:
        # Job timestamps are the daemon's own submitted/started/finished fields.
        fresh = [
            r for r in records if r.get("status") and not r.get("cached") and r["status"]["started_at"]
        ]
        fresh.sort(key=lambda r: r["status"]["submitted_at"])
        run = {id(r): r["status"]["finished_at"] - r["status"]["started_at"] for r in fresh}
        waits = [r["status"]["started_at"] - r["status"]["submitted_at"] for r in fresh]
        overheads = [r["latency"] - run[id(r)] for r in fresh]
        quarter = max(1, len(overheads) // 4)
        ratios = [
            (records[i]["status"]["finished_at"] - records[i]["status"]["started_at"]) / seconds
            for i, seconds in direct_seconds.items()
            if records[i].get("status") and records[i]["status"]["started_at"]
        ]
        return {
            "service.queue_wait_ms_p50": median(waits) * 1e3,
            "service.run_ms_p50": median(list(run.values())) * 1e3,
            "service.overhead_ms_p50": median(overheads) * 1e3,
            "service.overhead_growth_ms": (
                sum(overheads[-quarter:]) / quarter - sum(overheads[:quarter]) / quarter
            )
            * 1e3
            if overheads
            else 0.0,
            "service.run_vs_direct": median(ratios),
            "service.journal_kb": journal_kb,
            "service.store_hits": float(sum(1 for r in records if r.get("cached"))),
        }


def _job_propagations(record: dict) -> int:
    """Propagations a job's public result accounts for.

    A solve reports every cube's cost; an estimate reports ξ_best, which is
    2^d times the mean sample cost at the best point, so ξ_best·N/2^d is the
    work of the N samples at that point.
    """
    data = record["result"]["data"]
    if record["kind"] == "solve":
        return int(data["total_cost"])
    return round(data["best_value"] * data["sample_size"] / 2 ** len(data["best_decomposition"]))


def _verify_state(config: dict, bits: list[int]) -> bool:
    from repro import InstanceSpec

    return InstanceSpec.from_dict(dict(config["instance"])).build().verify_state(bits)
