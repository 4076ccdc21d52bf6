"""Correctness gate: checks a sweep's outputs against the scalar references.

Runs outside the timed region, on the first cold run of a workload.  Every
scenario x policy cell starts out good and is marked failed when one of the
checks below fails on it; ``failed / attempted`` is the workload's
``failed_frac``.

* Finite: every lifetime is finite (the workloads are built so that the
  batteries always run empty before the load ends).
* Heuristic parity: a subset of heuristic cells, drawn with the run's seed,
  matches the scalar ``MultiBatterySimulator`` -- within 1e-9 minutes on
  the analytical model and on the exact tick on the dKiBaM.
* Optimal replay: every optimal cell's schedule, replayed through the scalar
  simulator, gives back the reported lifetime (same tolerance).
* Optimal range: the optimal lifetime is at least the best heuristic's and
  at most the ideal sum-capacity lifetime; on the dKiBaM the ideal is
  raised by one charge unit per battery at the load's gentlest drain,
  because each battery empties on a quantized threshold.
* Paper reference: the base-capacity cells of ``paper-optimal`` are within
  3% of ``repro.analysis.tables.PAPER_TABLE5``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.analysis.tables import PAPER_TABLE5
from repro.core import FixedAssignmentPolicy, MultiBatterySimulator, make_policy
from repro.core.battery import make_battery_models
from repro.kibam.parameters import B1
from repro.sweep.builtin import PAPER_POLICIES
from repro.sweep.spec import OPTIMAL_POLICY

#: dKiBaM discretization the sweep runner uses (its defaults).
TIME_STEP = 0.01
CHARGE_UNIT = 0.01
#: Heuristic cells per sweep checked against the scalar simulator.
PARITY_SAMPLES = 24
ANALYTICAL_TOLERANCE = 1e-9
PAPER_TOLERANCE = 0.03

Cell = Tuple[int, str, int]


def _agree(model: str, a, b) -> bool:
    if a is None or b is None or not np.isfinite(a) or not np.isfinite(b):
        return False
    if model == "discrete":
        return round(a / TIME_STEP) == round(b / TIME_STEP)
    return abs(a - b) <= ANALYTICAL_TOLERANCE


def _at_least(model: str, a: float, b: float) -> bool:
    if model == "discrete":
        return round(a / TIME_STEP) >= round(b / TIME_STEP)
    return a >= b - ANALYTICAL_TOLERANCE


def _scalar_lifetime(params, load, model: str, policy):
    models = make_battery_models(
        params, backend=model, time_step=TIME_STEP, charge_unit=CHARGE_UNIT
    )
    return MultiBatterySimulator(models).run(load, policy).lifetime


def ideal_lifetime(params, load, model: str) -> float:
    """When the load has drawn the batteries' total capacity (no rate effect)."""
    remaining = sum(p.capacity for p in params)
    elapsed = 0.0
    for epoch in load.epochs:
        demand = epoch.current * epoch.duration
        if epoch.current > 0.0 and demand >= remaining:
            elapsed += remaining / epoch.current
            break
        remaining -= demand
        elapsed += epoch.duration
    else:
        return float("inf")
    if model == "discrete":
        gentlest = min(e.current for e in load.epochs if e.current > 0.0)
        elapsed += len(params) * CHARGE_UNIT / gentlest
    return elapsed


def check(
    name: str, results: Sequence, captured: Dict, seed: int
) -> Tuple[int, Set[Cell], List[str]]:
    """Gate one cold run's sweep results.

    Args:
        name: the workload name (selects the paper-reference check).
        results: one ``SweepResult`` per spec of the workload.
        captured: ``(id(load), params) -> OptimalScheduleResult`` from
            :class:`tracing.Capture`.
        seed: draws the heuristic-parity subset.

    Returns:
        ``(attempted cells, failed cells, one note per failure)``.
    """
    rng = random.Random(seed)
    attempted = 0
    failed: Set[Cell] = set()
    notes: List[str] = []

    def fail(cell: Cell, why: str) -> None:
        failed.add(cell)
        notes.append(f"spec {cell[0]} {cell[1]} scenario {cell[2]}: {why}")

    for s, result in enumerate(results):
        model = result.spec.model
        points = result.points
        attempted += len(points) * len(result.spec.policies)
        heuristics = [p for p in result.spec.policies if p != OPTIMAL_POLICY]
        for policy in result.spec.policies:
            for i in np.flatnonzero(~np.isfinite(result.lifetimes[policy])):
                fail((s, policy, int(i)), "non-finite lifetime")

        cells = [(policy, i) for policy in heuristics for i in range(len(points))]
        for policy, i in rng.sample(cells, min(PARITY_SAMPLES, len(cells))):
            point = points[i]
            scalar = _scalar_lifetime(
                point.battery_params, point.load, model, make_policy(policy)
            )
            if not _agree(model, scalar, float(result.lifetimes[policy][i])):
                batch = float(result.lifetimes[policy][i])
                fail((s, policy, i), f"batch {batch!r} != scalar {scalar!r}")

        if not result.spec.has_optimal:
            continue
        for i, point in enumerate(points):
            cell = (s, OPTIMAL_POLICY, i)
            optimal = float(result.lifetimes[OPTIMAL_POLICY][i])
            found = captured.get((id(point.load), tuple(point.battery_params)))
            if found is None or found.lifetime != optimal:
                fail(cell, "stored lifetime is not the search's result")
                continue
            replay = _scalar_lifetime(
                point.battery_params, point.load, model,
                FixedAssignmentPolicy(found.assignment),
            )
            if not _agree(model, replay, optimal):
                fail(cell, f"schedule replays to {replay!r}, reported {optimal!r}")
            best = max(float(result.lifetimes[p][i]) for p in heuristics)
            if not _at_least(model, optimal, best):
                fail(cell, f"optimal {optimal!r} below best heuristic {best!r}")
            ideal = ideal_lifetime(point.battery_params, point.load, model)
            if not optimal <= ideal + ANALYTICAL_TOLERANCE:
                fail(cell, f"optimal {optimal!r} above ideal {ideal!r}")

        if name == "paper-optimal":
            columns = PAPER_POLICIES + (OPTIMAL_POLICY,)
            for i, point in enumerate(points):
                reference = PAPER_TABLE5.get(point.load_label)
                if reference is None or point.battery_params[0].capacity != B1.capacity:
                    continue
                for policy, paper in zip(columns, reference):
                    value = float(result.lifetimes[policy][i])
                    if abs(value - paper) > PAPER_TOLERANCE * paper:
                        fail((s, policy, i), f"{value:.2f} vs paper {paper:.2f}")
    return attempted, failed, notes
