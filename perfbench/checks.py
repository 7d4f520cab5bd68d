"""Correctness checks run after every timed phase.

Each check recomputes what it can apart from the program (ξ from the
reported sample costs, clause satisfaction, confidence intervals) or tests a
property the method must have (the cube that agrees with the secret state is
satisfiable).  A check returns a list of ``(op, reason)`` failures: ``op`` is
the index of the operation whose output is wrong, or ``None`` when the
failure belongs to every operation of the checked unit.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Any, Callable, Sequence

Failure = tuple[int | None, str]

#: Two-sided normal quantile of the family check's 99.9% confidence interval.
Z_999 = statistics.NormalDist().inv_cdf(0.9995)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _status(value: Any) -> str:
    return getattr(value, "value", value)


def _agrees(literals: Sequence[int], secret: dict[int, int]) -> bool:
    return all(secret[abs(lit)] == (1 if lit > 0 else 0) for lit in literals)


def _satisfies(clauses, model: dict[int, bool]) -> bool:
    return all(any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)


def secret_bits(instance) -> dict[int, int]:
    """Start-set variable -> its bit in the instance's secret state."""
    return dict(zip(instance.start_set, instance.secret_state))


# ------------------------------------------------------------------- search
def check_search(
    instance,
    history: Sequence[Any],
    best_value: float,
    best_decomposition: Sequence[int],
    num_evaluations: int,
    budget: int,
    sample_size: int,
) -> list[Failure]:
    """One tabu search: ``history`` is its evaluated points, in order.

    * every point's ξ equals 2^d times the mean of its reported sample costs;
    * ``best_value`` is the minimum over the history, at ``best_decomposition``;
    * the number of evaluations equals the budget;
    * a sample whose bits agree with the secret state is SAT.
    """
    failures: list[Failure] = []
    secret = secret_bits(instance)
    for index, point in enumerate(history):
        variables = list(point.decomposition.variables)
        costs = [observation.cost for observation in point.observations]
        if len(costs) != sample_size:
            failures.append((index, f"{len(costs)} samples instead of {sample_size}"))
            continue
        xi = 2 ** len(variables) * (sum(costs) / len(costs))
        if not _close(point.value, xi):
            failures.append((index, f"xi {point.value} != 2^d * mean cost {xi}"))
        for observation in point.observations:
            literals = [v if bit else -v for v, bit in zip(variables, observation.assignment_bits)]
            if _agrees(literals, secret) and _status(observation.status) != "SAT":
                failures.append((index, "a sample agreeing with the secret state is not SAT"))
    if len(history) != budget or num_evaluations != budget:
        failures.append(
            (None, f"{len(history)} points / {num_evaluations} evaluations, budget {budget}")
        )
    if history:
        lowest = min(point.value for point in history)
        at_lowest = {
            tuple(sorted(point.decomposition.variables))
            for point in history
            if point.value == lowest
        }
        if not _close(best_value, lowest):
            failures.append((None, f"best value {best_value} != history minimum {lowest}"))
        elif tuple(sorted(best_decomposition)) not in at_lowest:
            failures.append((None, "best decomposition is not a minimum of the history"))
    return failures


# ------------------------------------------------------------------- family
def check_family(
    instance,
    presolve,
    variables: Sequence[int],
    outcomes: Sequence[Any],
    prediction,
) -> list[Failure]:
    """One solved family: ``outcomes`` in dispatch order, ``prediction`` a
    fresh paper-semantics ξ evaluation at the same decomposition.

    * every cube is SAT or UNSAT, and the cube agreeing with the secret state is SAT;
    * every SAT model, reconstructed over the original variables, satisfies
      the original (un-preprocessed) CNF and yields a state that regenerates
      the keystream;
    * each sampled cube of ``prediction`` has exactly the family's cost and
      status, ξ is 2^d times their mean, and the 99.9% confidence interval
      around it contains the exact family total.
    """
    failures: list[Failure] = []
    secret = secret_bits(instance)
    by_cube: dict[frozenset[int], int] = {}
    agreeing = 0
    for index, outcome in enumerate(outcomes):
        by_cube[frozenset(outcome.assumptions)] = index
        status = _status(outcome.status)
        if status not in ("SAT", "UNSAT"):
            failures.append((index, f"cube ended {status}"))
            continue
        if _agrees(outcome.assumptions, secret):
            agreeing += 1
            if status != "SAT":
                failures.append((index, "the cube agreeing with the secret state is not SAT"))
        if status == "SAT":
            if outcome.model is None:
                failures.append((index, "SAT cube without a model"))
                continue
            model = presolve.reconstruct(outcome.model) if presolve is not None else outcome.model
            if not _satisfies(instance.cnf.clauses, model):
                failures.append((index, "reconstructed model violates the original CNF"))
            elif not instance.verify_state(instance.state_from_model(model)):
                failures.append((index, "recovered state does not regenerate the keystream"))
    if len(by_cube) != 2 ** len(variables) or agreeing != 1:
        failures.append((None, f"family of {len(by_cube)} cubes, {agreeing} agree with the secret"))
    total = sum(outcome.cost for outcome in outcomes)
    costs = []
    for observation in prediction.observations:
        cube = frozenset(v if bit else -v for v, bit in zip(variables, observation.assignment_bits))
        index = by_cube.get(cube)
        costs.append(observation.cost)
        if index is None:
            failures.append((None, "sampled cube is not in the family"))
        elif observation.cost != outcomes[index].cost or _status(observation.status) != _status(
            outcomes[index].status
        ):
            failures.append((index, "sampled cost or status differs from the family's"))
    scale = 2 ** len(variables)
    mean = sum(costs) / len(costs)
    if not _close(prediction.value, scale * mean):
        failures.append((None, f"xi {prediction.value} != 2^d * mean sampled cost"))
    half = Z_999 * statistics.stdev(costs) / math.sqrt(len(costs)) * scale
    if not scale * mean - half <= total <= scale * mean + half:
        failures.append((None, f"99.9% interval around {scale * mean:.6g} misses the total {total}"))
    return failures


# ------------------------------------------------------------------ service
#: Result fields a daemon job must share with a direct facade call.
COMPARED_FIELDS = {
    "solve": ("decomposition", "statuses", "costs", "total_cost", "num_sat", "recovered_state"),
    "estimate": (
        "best_decomposition",
        "best_value",
        "num_evaluations",
        "num_subproblem_solves",
    ),
}


def _canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True)


def check_service(
    records: Sequence[dict[str, Any]],
    verify_state: Callable[[dict[str, Any], list[int]], bool],
    direct: dict[int, dict[str, Any]],
) -> list[Failure]:
    """One round of daemon jobs.

    ``records[i]`` describes op ``i``: ``kind`` (solve/estimate), ``state``,
    ``config``, ``result`` (the daemon's result document) and ``again_of``
    (the op whose config it resubmits, or ``None``).  ``verify_state`` says
    whether a bit list regenerates the keystream of a config's instance;
    ``direct`` maps op index to a direct facade result of the same config.

    * every job ends ``done``;
    * a resubmission returns a result identical to its first submission;
    * every solve job recovers a state that regenerates the keystream;
    * the daemon's result fields equal the direct call's.
    """
    failures: list[Failure] = []
    for index, record in enumerate(records):
        result = record.get("result")
        if record.get("state") != "done" or result is None:
            failures.append((index, f"job ended {record.get('state')}"))
            continue
        origin = record.get("again_of")
        if origin is not None and _canonical(result) != _canonical(records[origin].get("result")):
            failures.append((index, f"resubmission differs from op {origin}'s result"))
        data = result.get("data", {})
        if record["kind"] == "solve":
            state = data.get("recovered_state")
            if not state or not verify_state(record["config"], [int(bit) for bit in state]):
                failures.append((index, "solve job recovered no valid state"))
        reference = direct.get(index)
        if reference is not None:
            for key in COMPARED_FIELDS[record["kind"]]:
                if _canonical(data.get(key)) != _canonical(reference["data"].get(key)):
                    failures.append((index, f"daemon {key} differs from a direct call"))
    return failures
