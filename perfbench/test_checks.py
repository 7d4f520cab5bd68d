"""The benchmark's checks must reject corrupted outputs.

Each check is run once on genuine outputs of small geffe-tiny runs (it must
pass) and then on copies with one deliberate corruption: a flipped status, a
perturbed cost, a wrong recovered state, or a store hit that differs from
its first submission.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from perfbench.common import use_repo_sources

use_repo_sources()

from perfbench.checks import check_family, check_search, check_service  # noqa: E402
from repro import (  # noqa: E402
    BackendSpec,
    EstimatorSpec,
    Experiment,
    ExperimentConfig,
    InstanceSpec,
    MinimizerSpec,
    PreprocessorSpec,
)
from repro.core.decomposition import DecompositionSet  # noqa: E402
from repro.core.predictive import PredictiveFunction  # noqa: E402
from repro.sat.solver import SolverStatus  # noqa: E402

BUDGET = 6
SAMPLE = 8


def agreeing(variables, bits, secret) -> bool:
    return all(secret[v] == b for v, b in zip(variables, bits))


# ------------------------------------------------------------------- search
@pytest.fixture(scope="module")
def search():
    cfg = ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=3),
        minimizer=MinimizerSpec(name="tabu", max_evaluations=BUDGET),
        estimator=EstimatorSpec(sample_size=SAMPLE),
    )
    experiment = Experiment(cfg)
    result = experiment.estimate()
    history = experiment.pdsat.evaluator.cached_results()
    return experiment.instance, history, result.data


def run_search_check(instance, history, data):
    return check_search(
        instance,
        history,
        data["best_value"],
        data["best_decomposition"],
        data["num_evaluations"],
        BUDGET,
        SAMPLE,
    )


def test_search_check_accepts_genuine_output(search):
    assert run_search_check(*search) == []


def test_search_check_rejects_perturbed_cost(search):
    instance, history, data = search
    history = copy.deepcopy(history)
    history[2].observations[0].cost += 1
    assert any(op == 2 for op, _ in run_search_check(instance, history, data))


def test_search_check_rejects_flipped_status_of_the_secret_sample(search):
    instance, _, _ = search
    secret = dict(zip(instance.start_set, instance.secret_state))
    # Three variables: about one sample in eight agrees with the secret.
    point = PredictiveFunction(instance.cnf, sample_size=16).evaluate(instance.start_set[:3])
    history = [point]
    data = {
        "best_value": point.value,
        "best_decomposition": list(point.decomposition.variables),
        "num_evaluations": 1,
    }
    check = lambda h: check_search(instance, h, **data, budget=1, sample_size=16)  # noqa: E731
    assert check(history) == []
    corrupted = copy.deepcopy(history)
    variables = point.decomposition.variables
    target = next(
        o for o in corrupted[0].observations if agreeing(variables, o.assignment_bits, secret)
    )
    target.status = SolverStatus.UNSAT
    assert check(corrupted)


def test_search_check_rejects_wrong_best_value_and_budget(search):
    instance, history, data = search
    assert run_search_check(instance, history, dict(data, best_value=data["best_value"] + 1))
    assert run_search_check(instance, history[:-1], data)


# ------------------------------------------------------------------- family
@pytest.fixture(scope="module")
def family():
    cfg = ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=5),
        preprocessor=PreprocessorSpec(name="satelite"),
        backend=BackendSpec(name="serial"),
    )
    experiment = Experiment(cfg)
    variables = experiment.instance.free_start_variables[:4]
    vectors = [a.to_literals() for a in DecompositionSet.of(variables).all_assignments()]
    run = cfg.backend.build().run(experiment.pdsat.cnf, vectors, solver=cfg.solver)
    prediction = PredictiveFunction(
        experiment.pdsat.cnf, sample_size=SAMPLE, confidence_level=0.999
    ).evaluate(variables)
    return experiment, variables, run.outcomes, prediction


def run_family_check(family, outcomes=None, prediction=None):
    experiment, variables, genuine, fresh = family
    return check_family(
        experiment.instance,
        experiment.pdsat.presolve,
        variables,
        outcomes if outcomes is not None else genuine,
        prediction if prediction is not None else fresh,
    )


def sat_index(outcomes) -> int:
    return next(i for i, o in enumerate(outcomes) if o.status is SolverStatus.SAT)


def test_family_check_accepts_genuine_output(family):
    assert run_family_check(family) == []


def test_family_check_rejects_flipped_status(family):
    outcomes = list(family[2])
    index = sat_index(outcomes)
    outcomes[index] = dataclasses.replace(outcomes[index], status=SolverStatus.UNSAT, model=None)
    assert any(op == index for op, _ in run_family_check(family, outcomes=outcomes))
    outcomes = list(family[2])
    outcomes[0] = dataclasses.replace(outcomes[0], status=SolverStatus.UNKNOWN)
    assert any(op == 0 for op, _ in run_family_check(family, outcomes=outcomes))


def test_family_check_rejects_perturbed_cost(family):
    experiment, variables, outcomes, prediction = family
    sampled = frozenset(
        v if b else -v for v, b in zip(variables, prediction.observations[0].assignment_bits)
    )
    index = next(i for i, o in enumerate(outcomes) if frozenset(o.assumptions) == sampled)
    outcomes = list(outcomes)
    outcomes[index] = dataclasses.replace(outcomes[index], cost=outcomes[index].cost + 1)
    assert any(op == index for op, _ in run_family_check(family, outcomes=outcomes))


def test_family_check_rejects_wrong_recovered_state(family):
    experiment = family[0]
    outcomes = list(family[2])
    index = sat_index(outcomes)
    model = dict(outcomes[index].model)
    state_variable = experiment.instance.free_start_variables[-1]
    model[state_variable] = not model[state_variable]
    outcomes[index] = dataclasses.replace(outcomes[index], model=model)
    assert any(op == index for op, _ in run_family_check(family, outcomes=outcomes))


def test_family_check_rejects_a_biased_estimate(family):
    prediction = copy.deepcopy(family[3])
    for observation in prediction.observations:
        observation.cost *= 10
    assert run_family_check(family, prediction=prediction)


# ------------------------------------------------------------------ service
@pytest.fixture(scope="module")
def service():
    solve_config = ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=7), decomposition=(1, 2, 3)
    ).to_dict()
    estimate_config = ExperimentConfig(
        instance=InstanceSpec(cipher="geffe-tiny", seed=8),
        minimizer=MinimizerSpec(max_evaluations=3),
        estimator=EstimatorSpec(sample_size=8, incremental=False, batch_size=8),
    ).to_dict()
    solved = Experiment(ExperimentConfig.from_dict(solve_config)).solve().to_dict()
    estimated = Experiment(ExperimentConfig.from_dict(estimate_config)).estimate().to_dict()
    records = [
        {"kind": "solve", "config": solve_config, "again_of": None, "state": "done", "result": solved},
        {
            "kind": "solve",
            "config": solve_config,
            "again_of": 0,
            "state": "done",
            "result": copy.deepcopy(solved),
        },
        {
            "kind": "estimate",
            "config": estimate_config,
            "again_of": None,
            "state": "done",
            "result": estimated,
        },
    ]
    direct = copy.deepcopy({0: solved, 2: estimated})
    return records, direct


def verify(config, bits) -> bool:
    return InstanceSpec.from_dict(dict(config["instance"])).build().verify_state(bits)


def test_service_check_accepts_genuine_output(service):
    records, direct = service
    assert check_service(records, verify, direct) == []


def test_service_check_rejects_a_store_hit_that_differs(service):
    records, direct = copy.deepcopy(service)
    records[1]["result"]["data"]["costs"][0] += 1
    assert [op for op, _ in check_service(records, verify, direct)] == [1]


def test_service_check_rejects_wrong_recovered_state(service):
    records, direct = copy.deepcopy(service)
    for record in records[:2]:
        state = record["result"]["data"]["recovered_state"]
        record["result"]["data"]["recovered_state"] = ("1" if state[0] == "0" else "0") + state[1:]
    failing = {op for op, _ in check_service(records, verify, direct)}
    assert {0, 1} <= failing


def test_service_check_rejects_flipped_status_and_perturbed_estimate(service):
    records, direct = copy.deepcopy(service)
    statuses = records[0]["result"]["data"]["statuses"]
    statuses[0] = "UNSAT" if statuses[0] == "SAT" else "SAT"
    records[2]["result"]["data"]["best_value"] *= 1.5
    failing = {op for op, _ in check_service(records, verify, direct)}
    assert {0, 2} <= failing


def test_service_check_rejects_a_job_that_did_not_finish(service):
    records, direct = copy.deepcopy(service)
    records[2]["state"] = "failed"
    assert [op for op, _ in check_service(records, verify, direct)] == [2]
