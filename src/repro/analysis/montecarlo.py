"""Monte-Carlo analysis of scheduling policies under random loads.

The paper's conclusion calls for the analysis of "realistic random loads",
which Uppaal Cora cannot express (it has no probabilities).  This module
closes that gap on the simulation side: it samples random loads, runs the
scheduling policies (and optionally the optimal scheduler) on each sample
and summarizes the lifetime distribution -- the simulation counterpart of
the lifetime-distribution work the authors reference (Cloth et al.,
DSN 2007).

:func:`run_montecarlo` has two execution paths.  By default it describes
the run as a :class:`repro.sweep.spec.SweepSpec` (one battery
configuration, one random or explicit load axis, the requested policies
and optional ``optimal`` column) and executes it through
:class:`repro.sweep.runner.SweepRunner`, which advances the samples
through the vectorized batch engine (scenario by scenario through the
scalar fallback where a model or policy has no array form) and, with a
``cache_dir``, persists them in the content-addressed result store.
``engine="scalar"`` -- or any policy *object* -- runs the golden-reference
loop over :func:`repro.core.simulator.simulate_policy` and
:func:`repro.core.optimal.find_optimal_schedule` instead.  The two agree
within the 1e-9 root-finder tolerance on the analytical model and
*exactly*, tick for tick, on ``model="discrete"``.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.optimal import find_optimal_schedule
from repro.core.simulator import simulate_policy
from repro.engine.batch import resolve_model
from repro.engine.kernels import VECTOR_MODELS
from repro.engine.policies import VectorPolicy, has_vector_policy
from repro.kibam.parameters import BatteryParameters
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import (
    DEFAULT_CHUNK_SIZE,
    OPTIMAL_POLICY,
    BatteryConfig,
    LoadAxis,
    SweepSpec,
)
from repro.sweep.store import ResultStore
from repro.workloads.generator import (
    ILS_LIKE_RANDOM_CONFIG,
    RandomLoadConfig,
    generate_random_load,
)
from repro.workloads.load import Load

#: Engines understood by :func:`run_montecarlo`.
ENGINES = ("auto", "scalar", "batch")


@dataclasses.dataclass(frozen=True)
class LifetimeDistribution:
    """Summary statistics of a set of lifetimes (minutes)."""

    policy: str
    samples: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    percentile_10: float
    median: float
    percentile_90: float

    @staticmethod
    def from_samples(policy: str, lifetimes: Sequence[float]) -> "LifetimeDistribution":
        """Summarize a non-empty sequence (or array) of lifetime samples.

        A single sample is a legitimate degenerate sweep and yields a zero
        standard deviation; an empty sequence is rejected with a clear
        error instead of crashing inside the statistics helpers.
        """
        values = [float(value) for value in lifetimes]
        if not values:
            raise ValueError(
                "cannot summarize an empty set of lifetime samples; "
                "at least one lifetime is required"
            )
        ordered = sorted(values)
        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
            return ordered[index]
        return LifetimeDistribution(
            policy=policy,
            samples=len(ordered),
            mean=statistics.fmean(ordered),
            stdev=statistics.pstdev(ordered) if len(ordered) > 1 else 0.0,
            minimum=ordered[0],
            maximum=ordered[-1],
            percentile_10=percentile(0.10),
            median=percentile(0.50),
            percentile_90=percentile(0.90),
        )


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Lifetime distributions per policy over a common set of random loads."""

    distributions: Dict[str, LifetimeDistribution]
    per_sample: Dict[str, List[float]]
    n_samples: int
    engine: str = "scalar"

    def mean_gain_percent(self, policy: str, reference: str) -> float:
        """Mean per-sample lifetime gain of ``policy`` over ``reference`` in percent."""
        gains = [
            (a - b) / b * 100.0
            for a, b in zip(self.per_sample[policy], self.per_sample[reference])
        ]
        return statistics.fmean(gains)


def _require_lifetimes(
    lifetimes: Sequence[Optional[float]], policy: str
) -> List[float]:
    """Reject survived-the-load samples, mirroring ``lifetime_or_raise``."""
    out: List[float] = []
    for value in lifetimes:
        if value is None or (isinstance(value, float) and np.isnan(value)):
            raise RuntimeError(
                f"a sample survived the whole load under policy {policy!r}; "
                "extend the load to measure a lifetime"
            )
        out.append(float(value))
    return out


def run_montecarlo(
    params: Sequence[BatteryParameters],
    n_samples: int = 50,
    policies: Sequence[str] = ("sequential", "round-robin", "best-of-two"),
    include_optimal: bool = False,
    config: Optional[RandomLoadConfig] = None,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    engine: str = "auto",
    backend: Optional[str] = None,
    optimal_max_nodes: Optional[int] = 20_000,
    loads: Optional[Sequence[Load]] = None,
    cache_dir: Optional[str] = None,
    model: Optional[str] = None,
    dominance_tolerance: float = 0.005,
) -> MonteCarloResult:
    """Sample random loads and summarize the policy lifetimes on them.

    Args:
        params: battery parameter sets, one per battery.
        n_samples: number of random loads to draw.
        policies: policies to evaluate on every sample: registry names or
            :class:`repro.core.policies.SchedulingPolicy` objects.  The
            pseudo-policy ``"optimal"`` is a first-class column: it runs
            one branch-and-bound search per sample with the
            ``optimal_max_nodes`` cap and the ``dominance_tolerance``
            state-merge tolerance.
        include_optimal: legacy spelling of appending ``"optimal"`` to
            ``policies``; the resulting column is labelled ``"optimal"``.
        config: random-load configuration; the default produces ILs-like
            loads with mixed currents.
        seed: base seed; sample ``i`` uses ``seed + i`` (ignored when
            ``rng`` or ``loads`` is given).
        rng: an explicit :class:`numpy.random.Generator` to draw every
            sample from one stream.  The loads are drawn exactly once, so
            both engines see identical samples.
        engine: ``"scalar"`` runs the golden-reference Python loop;
            ``"batch"`` and ``"auto"`` run the sweep runner.  Policy
            objects always run the scalar loop.  The result's ``engine``
            field is ``"batch"`` only when the runner advanced every
            policy column through the vectorized kernels (a vector model
            and vector-capable policy names); the runner's scenario-by-
            scenario scalar fallback is labelled ``"scalar"``.
        backend: battery model (legacy name; ``model`` is the preferred
            spelling).  ``"analytical"`` and ``"discrete"`` vectorize;
            ``"linear"`` runs through the runner's scalar fallback.
        model: alias of ``backend``; passing both with different values is
            an error.
        optimal_max_nodes: node cap per optimal search.
        loads: explicit sample loads, overriding the random sampling; the
            length overrides ``n_samples``.
        cache_dir: directory of a :class:`repro.sweep.store.ResultStore`.
            The runner then persists every column chunk by chunk: a
            repeated call with the same seed/config/params (or the same
            explicit loads) is a pure cache read, and an interrupted run
            resumes from its last stored chunk.  The store is keyed by spec
            content (the optimal column's node cap and merge tolerance
            included).  The scalar loop and explicit ``rng`` streams, which
            no spec can describe, bypass it.
        dominance_tolerance: state-merge tolerance (Amin) of the optimal
            column's searches; the long-standing sweep default is half a
            charge unit.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known engines: {ENGINES}")
    backend = resolve_model(model, backend)
    load_config = config if config is not None else ILS_LIKE_RANDOM_CONFIG
    if loads is not None:
        n_samples = len(loads)
    elif n_samples < 1:
        raise ValueError("n_samples must be at least 1")

    # The result columns are keyed by the policy's name.  The pseudo-policy
    # "optimal" is one branch-and-bound search per sample, not a policy
    # simulation.
    policies = list(policies)
    names = [policy if isinstance(policy, str) else policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise ValueError(f"policy names must be unique, got {names}")
    for policy in policies:
        if isinstance(policy, VectorPolicy):
            raise TypeError(
                f"run_montecarlo cannot run vector policy {policy.name!r}; "
                "pass its registry name or a SchedulingPolicy instead"
            )
        if not isinstance(policy, str) and policy.name == OPTIMAL_POLICY:
            raise ValueError(
                "the 'optimal' column is computed by the branch-and-bound "
                "search, so a policy *object* named 'optimal' would be "
                "silently shadowed; rename the policy or pass the string "
                "'optimal' to request the search column"
            )
    if include_optimal and OPTIMAL_POLICY not in names:
        policies.append(OPTIMAL_POLICY)
        names.append(OPTIMAL_POLICY)

    if loads is not None:
        axis = LoadAxis.explicit(list(loads), label="montecarlo")
    elif rng is not None:
        drawn = [
            generate_random_load(config=load_config, rng=rng)
            for _ in range(n_samples)
        ]
        axis = LoadAxis.explicit(drawn, label="montecarlo")
    else:
        axis = LoadAxis.random(n_samples, seed=seed, config=load_config)

    if engine == "scalar" or not all(isinstance(policy, str) for policy in policies):
        sample_loads = [load for _, load in axis.resolve()]
        columns: Dict[str, Sequence[Optional[float]]] = {}
        for name, policy in zip(names, policies):
            if name == OPTIMAL_POLICY:
                columns[name] = [
                    find_optimal_schedule(
                        params,
                        load,
                        backend=backend,
                        dominance_tolerance=dominance_tolerance,
                        max_nodes=optimal_max_nodes,
                    ).lifetime
                    for load in sample_loads
                ]
            else:
                columns[name] = [
                    simulate_policy(params, load, policy, backend=backend).lifetime
                    for load in sample_loads
                ]
        executed_engine = "scalar"
    else:
        # An rng stream is not reproducible from a spec, so it never
        # addresses a store entry.
        store = None if cache_dir is None or rng is not None else ResultStore(cache_dir)
        spec = SweepSpec(
            name="montecarlo",
            batteries=(BatteryConfig(label="batteries", params=tuple(params)),),
            loads=(axis,),
            policies=tuple(names),
            backend=backend,
            # Chunks are the store's resume unit; in memory one chunk keeps
            # the whole sample set in a single vectorized batch (the event
            # loop costs per chunk).
            chunk_size=DEFAULT_CHUNK_SIZE if store is not None else n_samples,
        )
        if OPTIMAL_POLICY in names:
            spec = spec.with_optimal(
                max_nodes=optimal_max_nodes,
                dominance_tolerance=dominance_tolerance,
            )
        columns = SweepRunner(store).run(spec).per_sample
        vectorized = backend in VECTOR_MODELS and all(
            has_vector_policy(name) for name in names if name != OPTIMAL_POLICY
        )
        executed_engine = "batch" if vectorized else "scalar"

    per_sample = {name: _require_lifetimes(columns[name], name) for name in names}
    distributions = {
        policy: LifetimeDistribution.from_samples(policy, lifetimes)
        for policy, lifetimes in per_sample.items()
    }
    return MonteCarloResult(
        distributions=distributions,
        per_sample=per_sample,
        n_samples=n_samples,
        engine=executed_engine,
    )


def lifetime_distribution(
    params: Sequence[BatteryParameters],
    n_samples: int = 50,
    policies: Sequence[str] = ("sequential", "round-robin", "best-of-two"),
    include_optimal: bool = False,
    config: Optional[RandomLoadConfig] = None,
    seed: int = 0,
    backend: str = "analytical",
    optimal_max_nodes: Optional[int] = 20_000,
) -> MonteCarloResult:
    """Backward-compatible wrapper around :func:`run_montecarlo`.

    Kept for the original call sites (tests, benchmarks, examples); new code
    should call :func:`run_montecarlo`, which also exposes the engine
    selection, explicit loads or ``rng`` and the result store.
    """
    return run_montecarlo(
        params,
        n_samples=n_samples,
        policies=policies,
        include_optimal=include_optimal,
        config=config,
        seed=seed,
        engine="auto",
        backend=backend,
        optimal_max_nodes=optimal_max_nodes,
    )

def render_distributions(result: MonteCarloResult) -> str:
    """Plain-text table of the lifetime distributions."""
    header = (
        f"{'policy':12s} {'mean':>7s} {'stdev':>7s} {'min':>7s} {'p10':>7s} "
        f"{'median':>7s} {'p90':>7s} {'max':>7s}"
    )
    lines = [header, "-" * len(header)]
    for policy, dist in result.distributions.items():
        lines.append(
            f"{policy:12s} {dist.mean:7.2f} {dist.stdev:7.2f} {dist.minimum:7.2f} "
            f"{dist.percentile_10:7.2f} {dist.median:7.2f} {dist.percentile_90:7.2f} "
            f"{dist.maximum:7.2f}"
        )
    return "\n".join(lines)
