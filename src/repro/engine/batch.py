"""Lock-step batch simulator: many scenarios, one set of NumPy calls.

:class:`BatchSimulator` is the array-native counterpart of
:class:`repro.core.simulator.MultiBatterySimulator`.  It advances a whole
:class:`repro.engine.scenarios.ScenarioSet` at once: every iteration of its
event loop moves *every* still-active scenario forward by one span (a full
idle epoch, or one served slice of a job epoch), with the KiBaM dynamics,
the empty-crossing search and the scheduling decisions all evaluated as
vectorized kernels over the scenario axis.  Scenarios that die or exhaust
their load drop out of the active set; the loop ends when none remain.

The semantics are a faithful transliteration of the scalar simulator --
same epoch walk, same ``1e-9`` span epsilon, same ``1e-12`` emptiness
tolerance, same sticky empty observation (Section 4.3 of the paper), same
mid-job switchover rule -- so batch lifetimes match scalar lifetimes to
within the root-finder tolerance (far below 1e-9 minutes; the test suite
pins this).

The loop is written once, over a *lane kernel* per battery model that holds
the battery state and its advances (serve the chosen battery up to its
empty crossing and rest the others, or rest every live battery through an
idle epoch).  ``model="analytical"`` (:class:`_AnalyticalLanes`) keeps float
wells and steps whole constant-current spans through the closed-form
kernels, in minutes.  ``model="discrete"`` (:class:`_DiscreteLanes`, the
dKiBaM of Section 2.3) keeps integer counters and advances them with
:func:`repro.engine.kernels.serve_and_rest_array`, the same serve-one,
rest-the-others step over the event-jumping
:func:`repro.engine.kernels.discrete_segment_array` that the batched
search uses, in ticks.  Because
that state is integers, the parity bar with the scalar dKiBaM is exact
equality -- unit for unit, tick for tick -- not a float tolerance.
Scenarios whose policy or battery model has no vectorized implementation
transparently fall back to the scalar simulator, one scenario at a time.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.battery import make_battery_models
from repro.core.policies import SchedulingPolicy
from repro.core.simulator import MultiBatterySimulator
from repro.engine.kernels import (
    DELTA,
    GAMMA,
    M_ROW,
    N_ROW,
    RCT_ROW,
    VECTOR_MODELS,
    DiscreteKernelParams,
    KernelParams,
    empty_margin_array,
    initial_state_array,
    serve_and_rest_array,
    step_constant_current_array,
    time_to_empty_array,
    total_charge_array,
)
from repro.engine.policies import (
    BatchDecisionContext,
    VectorPolicy,
    VectorPolicyStack,
    has_vector_policy,
    make_vector_policy,
)
from repro.engine.scenarios import ScenarioSet
from repro.kibam.parameters import BatteryParameters
from repro.workloads.load import Load

#: Spans shorter than this (minutes) end a job epoch; identical to the
#: scalar simulator's ``_TIME_EPSILON``.
_TIME_EPSILON = 1e-9
#: Emptiness tolerance (Amin); identical to ``AnalyticalBattery.is_empty``.
_EMPTY_TOLERANCE = 1e-12


def resolve_model(model: Optional[str], backend: Optional[str]) -> str:
    """Resolve the ``model``/``backend`` alias pair to one model name.

    ``model`` is the preferred spelling, ``backend`` the legacy one; passing
    both with different values is an error, passing neither means
    ``"analytical"``.  Shared by every entry point that accepts the pair.
    """
    if model is not None and backend is not None and model != backend:
        raise ValueError(
            f"conflicting battery models: model={model!r}, backend={backend!r}"
        )
    return model if model is not None else (backend or "analytical")


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Outcome of one policy over a batch of scenarios.

    Attributes:
        policy_name: name of the policy that produced the batch.
        lifetimes: system lifetime per scenario in minutes; NaN where the
            batteries survived the whole load.
        decisions: scheduling decisions taken per scenario.
        residual_charge: total charge (Amin) left across the batteries of
            each scenario at the end of its simulation.
        final_states: transformed KiBaM states, shape
            ``(n_scenarios, n_batteries, 2)``; ``None`` when the batch ran
            through the scalar fallback.
        lifetime_ticks: ``model="discrete"`` only -- the lifetime per
            scenario as an exact tick count (``-1`` where the batteries
            survived); ``lifetimes`` is ``lifetime_ticks * time_step``.
        charge_units: ``model="discrete"`` only -- final integer dKiBaM
            state, shape ``(n_scenarios, n_batteries, 2)`` with the last
            axis holding ``(n, m)``: remaining charge units and height
            difference units.  Exactly comparable to the scalar
            :class:`repro.kibam.discrete.DiscreteBatteryState`.
    """

    policy_name: str
    lifetimes: np.ndarray
    decisions: np.ndarray
    residual_charge: np.ndarray
    final_states: Optional[np.ndarray] = None
    lifetime_ticks: Optional[np.ndarray] = None
    charge_units: Optional[np.ndarray] = None

    @property
    def n_scenarios(self) -> int:
        return self.lifetimes.shape[0]

    def take(self, lanes, policy_name: Optional[str] = None) -> "BatchResult":
        """The result restricted to a lane selection (slice or index array)."""

        def sel(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if array is None else array[lanes]

        return BatchResult(
            policy_name=self.policy_name if policy_name is None else policy_name,
            lifetimes=self.lifetimes[lanes],
            decisions=self.decisions[lanes],
            residual_charge=self.residual_charge[lanes],
            final_states=sel(self.final_states),
            lifetime_ticks=sel(self.lifetime_ticks),
            charge_units=sel(self.charge_units),
        )

    @property
    def survived(self) -> np.ndarray:
        """Boolean mask of the scenarios whose batteries outlived the load."""
        return np.isnan(self.lifetimes)

    def lifetimes_or_raise(self) -> np.ndarray:
        """All lifetimes, raising if any scenario survived its load."""
        if bool(np.any(self.survived)):
            count = int(np.sum(self.survived))
            raise RuntimeError(
                f"{count} scenario(s) survived the whole load; extend the "
                "loads to measure lifetimes"
            )
        return self.lifetimes


class _AnalyticalLanes:
    """Analytical-KiBaM lanes: ``(S, B, 2)`` float wells, time in minutes.

    A lane kernel is everything the event loop of :class:`BatchSimulator`
    needs to know about a battery model: the epoch span table ``spans`` in
    its time unit, ``time_unit`` (minutes per unit), the alive test and the
    available charge of the given scenario rows, the serve and idle
    advances (in place on those rows), and the result fields.  Batteries
    observed empty stay frozen, exactly like the scalar adapter's sticky
    ``_MarkedState``.
    """

    time_unit = 1.0

    def __init__(self, kp: KernelParams, scenarios: ScenarioSet) -> None:
        self.kp = kp
        self.currents = scenarios.currents
        self.spans = scenarios.durations
        self.state = initial_state_array(kp, scenarios.n_scenarios)
        self.sticky = np.zeros(self.state.shape[:2], dtype=bool)

    def alive(self, rows: np.ndarray) -> np.ndarray:
        margin = empty_margin_array(self.kp.take(rows), self.state[rows])
        return (~self.sticky[rows]) & (margin > _EMPTY_TOLERANCE)

    def available(self, rows: np.ndarray) -> np.ndarray:
        # The scalar battery view's available charge is
        # ``max(0, c * margin)`` in exactly this operation order.
        kp = self.kp.take(rows)
        return np.maximum(0.0, kp.c * empty_margin_array(kp, self.state[rows]))

    def serve(self, rows, epochs, choice, remaining):
        """Serve each row's job on ``choice`` up to its crossing, idle the rest.

        Returns ``(crossed, span)``; a crossed battery is marked empty.
        """
        current = self.currents[rows, epochs]
        c_chosen, k_chosen = self.kp.take(rows).battery(choice)
        crossing, crossed = time_to_empty_array(
            c_chosen,
            k_chosen,
            self.state[rows, choice, GAMMA],
            self.state[rows, choice, DELTA],
            current,
            remaining,
        )
        span = np.where(crossed, crossing, remaining)
        battery_currents = np.zeros((rows.size, self.state.shape[1]))
        battery_currents[np.arange(rows.size), choice] = current
        self._advance(rows, battery_currents, span)
        self.sticky[rows[crossed], choice[crossed]] = True
        return crossed, span

    def idle(self, rows, span) -> None:
        """Rest every battery of ``rows`` for ``span`` minutes."""
        self._advance(rows, np.zeros((rows.size, self.state.shape[1])), span)

    def _advance(self, rows, battery_currents, span) -> None:
        old = self.state[rows]
        new = step_constant_current_array(
            self.kp.take(rows), old, battery_currents, span[:, None]
        )
        self.state[rows] = np.where(self.sticky[rows][:, :, None], old, new)

    def fields(self, lifetime: np.ndarray) -> dict:
        return dict(
            lifetimes=np.where(lifetime < 0, np.nan, lifetime),
            residual_charge=np.sum(total_charge_array(self.state), axis=1),
            final_states=self.state,
        )


class _DiscreteLanes:
    """dKiBaM lanes: ``(S, 6, B)`` int64 counters, time in ticks.

    Rows :data:`~repro.engine.kernels.N_ROW` ..
    :data:`~repro.engine.kernels.RCT_ROW` hold each battery's dKiBaM
    counters, in the layout of the batched search's node states, and every
    advance is the search's exact integer event jump,
    :func:`serve_and_rest_array` with per-scenario parameter rows, so the
    batch agrees with the scalar tick loop unit for unit.  See
    :class:`_AnalyticalLanes` for the kernel interface.
    """

    def __init__(self, dkp: DiscreteKernelParams, scenarios: ScenarioSet) -> None:
        n_scen = scenarios.n_scenarios
        self.dp = dkp.expanded(n_scen)
        self.q = 1000 - self.dp.c_permille
        self.time_unit = dkp.time_step
        darr = scenarios.discretized(dkp.time_step, dkp.charge_unit)
        self.cur, self.cur_times, self.spans = darr.cur, darr.cur_times, darr.ticks
        self.state = np.zeros((n_scen, 6, dkp.n_batteries), dtype=np.int64)
        self.state[:, N_ROW] = self.dp.total_units
        self.state[:, RCT_ROW] = 1
        self.empty = np.zeros((n_scen, dkp.n_batteries), dtype=bool)
        self._step = functools.partial(
            serve_and_rest_array,
            self.dp.tables,
            self.dp.table_id,
            self.dp.c_permille,
            self.state,
        )

    def alive(self, rows: np.ndarray) -> np.ndarray:
        n, m = self.state[rows, N_ROW], self.state[rows, M_ROW]
        crit = self.q[rows] * m >= self.dp.c_permille[rows] * n
        return ~self.empty[rows] & ~crit

    def available(self, rows: np.ndarray) -> np.ndarray:
        # The scalar battery view computes
        # ``max(0, c * (n * Gamma - (1 - c) * (m * Delta)))`` in exactly
        # this operation order.
        gamma = self.state[rows, N_ROW] * self.dp.charge_unit
        delta = self.state[rows, M_ROW] * self.dp.height_unit[rows]
        c = self.dp.c[rows]
        return np.maximum(0.0, c * (gamma - (1.0 - c) * delta))

    def serve(self, rows, epochs, choice, remaining):
        """Serve each row's job on ``choice`` up to its empty tick, idle the rest.

        Returns ``(crossed, span)``; a crossed battery is marked empty.
        """
        crossed, span = self._step(
            rows,
            ~self.empty[rows],
            remaining,
            choice,
            self.cur[rows, epochs],
            self.cur_times[rows, epochs],
        )
        self.empty[rows[crossed], choice[crossed]] = True
        return crossed, span

    def idle(self, rows, span) -> None:
        """Rest every live battery of ``rows`` for ``span`` ticks."""
        self._step(rows, ~self.empty[rows], span)

    def fields(self, lifetime: np.ndarray) -> dict:
        n, m = self.state[:, N_ROW], self.state[:, M_ROW]
        gamma = n * self.dp.charge_unit
        delta = m * self.dp.height_unit
        return dict(
            lifetimes=np.where(lifetime < 0, np.nan, lifetime * self.time_unit),
            residual_charge=np.sum(gamma, axis=1),
            final_states=np.stack([gamma, delta], axis=-1),
            lifetime_ticks=lifetime,
            charge_units=np.stack([n, m], axis=-1),
        )


class BatchSimulator:
    """Simulates one battery set serving many scenario loads in lock-step.

    Args:
        params: either one battery parameter set per battery (a flat
            sequence of :class:`BatteryParameters`, shared by every scenario
            in a batch) or one *row* of parameter sets per scenario (a
            sequence of sequences, all of the same width) -- the
            parameter-sweep form, where every scenario lane carries its own
            battery triples and batches must have exactly one scenario per
            row.
        model: battery model: ``"analytical"`` (closed-form KiBaM) and
            ``"discrete"`` (the dKiBaM, exact integer parity with the
            scalar tick loop) both run vectorized; any other registered
            model (``"linear"``) runs through the scalar fallback.
        backend: legacy alias of ``model`` (kept for existing call sites;
            passing both with different values is an error).
        time_step / charge_unit: dKiBaM discretization (``"discrete"``
            model only).
    """

    def __init__(
        self,
        params: Union[
            Sequence[BatteryParameters], Sequence[Sequence[BatteryParameters]]
        ],
        backend: Optional[str] = None,
        time_step: float = 0.01,
        charge_unit: float = 0.01,
        model: Optional[str] = None,
    ) -> None:
        params = tuple(params)
        if not params:
            raise ValueError("at least one battery parameter set is required")
        if isinstance(params[0], BatteryParameters):
            self.params: Tuple = params
            self.param_rows: Optional[Tuple[Tuple[BatteryParameters, ...], ...]] = None
            self._kernel_params = KernelParams.from_parameters(params)
        else:
            rows = tuple(tuple(row) for row in params)
            self._kernel_params = KernelParams.from_parameter_rows(rows)
            self.params = rows
            self.param_rows = rows
        self.backend = resolve_model(model, backend)
        self.time_step = time_step
        self.charge_unit = charge_unit
        self._discrete_kernel_params: Optional[DiscreteKernelParams] = None

    @property
    def model(self) -> str:
        """The battery model this simulator advances (alias of ``backend``)."""
        return self.backend

    @property
    def n_batteries(self) -> int:
        return self._kernel_params.n_batteries

    def _discrete_params(self) -> DiscreteKernelParams:
        if self._discrete_kernel_params is None:
            self._discrete_kernel_params = self._kernel_params.discretize(
                self.time_step, self.charge_unit
            )
        return self._discrete_kernel_params

    def _check_scenario_count(self, scenarios: ScenarioSet) -> None:
        if self.param_rows is not None and len(self.param_rows) != scenarios.n_scenarios:
            raise ValueError(
                f"per-scenario parameters cover {len(self.param_rows)} "
                f"scenarios, but the batch has {scenarios.n_scenarios}"
            )

    def run(
        self,
        scenarios: Union[ScenarioSet, Load, Sequence[Load]],
        policy: Union[str, VectorPolicy, SchedulingPolicy],
    ) -> BatchResult:
        """Simulate ``policy`` on every scenario and return the batch result."""
        if not isinstance(scenarios, ScenarioSet):
            scenarios = ScenarioSet.from_loads(scenarios)
        self._check_scenario_count(scenarios)
        vector_policy = self._resolve_vector_policy(policy)
        if vector_policy is None or self.backend not in VECTOR_MODELS:
            return self._run_fallback(scenarios, policy)
        return self._run_vectorized(scenarios, vector_policy)

    def run_many(
        self,
        scenarios: Union[ScenarioSet, Load, Sequence[Load]],
        policies: Sequence[Union[str, VectorPolicy, SchedulingPolicy]],
    ) -> Dict[str, BatchResult]:
        """Simulate several policies over the same scenarios in one batch.

        All vectorizable policies are swept together as one stacked
        lock-step batch (policy ``p`` owning lane block ``p``), which
        amortizes the per-iteration NumPy overhead across policies; the
        rest run one by one through :meth:`run`.  Returns one
        :class:`BatchResult` per policy, keyed by policy name.
        """
        if not policies:
            raise ValueError("at least one policy is required")
        names = [
            policy if isinstance(policy, str) else policy.name for policy in policies
        ]
        if len(set(names)) != len(names):
            raise ValueError(
                f"policy names must be unique (results are keyed by name), got {names}"
            )
        if not isinstance(scenarios, ScenarioSet):
            scenarios = ScenarioSet.from_loads(scenarios)
        self._check_scenario_count(scenarios)
        resolved = [(policy, self._resolve_vector_policy(policy)) for policy in policies]
        results: Dict[str, BatchResult] = {}

        vector = [v for _, v in resolved if v is not None]
        if self.backend in VECTOR_MODELS and len(vector) > 1:
            stack = VectorPolicyStack(vector, scenarios.n_scenarios)
            stacked = self._run_vectorized(scenarios, stack, times=len(vector))
            n = scenarios.n_scenarios
            for index, policy in enumerate(vector):
                lanes = slice(index * n, (index + 1) * n)
                results[policy.name] = stacked.take(lanes, policy_name=policy.name)
            remaining = [p for p, v in resolved if v is None]
        else:
            remaining = list(policies)
        for policy in remaining:
            result = self.run(scenarios, policy)
            results[result.policy_name] = result
        return results

    # ------------------------------------------------------------------ #
    # vectorized path
    # ------------------------------------------------------------------ #
    def _resolve_vector_policy(
        self, policy: Union[str, VectorPolicy, SchedulingPolicy]
    ) -> Optional[VectorPolicy]:
        if isinstance(policy, VectorPolicy):
            return policy
        if isinstance(policy, str) and has_vector_policy(policy):
            return make_vector_policy(policy)
        return None

    def _run_vectorized(
        self, scenarios: ScenarioSet, policy: VectorPolicy, times: int = 1
    ) -> BatchResult:
        """The lock-step event loop over one lane kernel.

        The batch and its parameters run as ``times`` stacked copies (one
        per policy of a :class:`VectorPolicyStack`).  Time, spans and
        remaining epoch lengths count in the kernel's time unit: minutes for
        the analytical model, whole ticks for the dKiBaM.
        """
        scenarios = scenarios.tiled(times)
        if self.backend == "discrete":
            lanes = _DiscreteLanes(self._discrete_params().tiled(times), scenarios)
        else:
            lanes = _AnalyticalLanes(self._kernel_params.tiled(times), scenarios)
        n_scen = scenarios.n_scenarios
        n_bat = self.n_batteries
        currents = scenarios.currents
        spans = lanes.spans
        n_epochs = scenarios.n_epochs

        epoch_idx = np.full(n_scen, -1, dtype=np.int64)
        cur_current = np.zeros(n_scen)
        remaining = np.zeros(n_scen, dtype=spans.dtype)
        time = np.zeros(n_scen, dtype=spans.dtype)
        job_index = np.full(n_scen, -1, dtype=np.int64)
        prev_choice = np.full(n_scen, -1, dtype=np.int64)
        decisions = np.zeros(n_scen, dtype=np.int64)
        # Time of death; -1 while the scenario lives (or if it survives).
        lifetime = np.full(n_scen, -1, dtype=spans.dtype)
        switchover = np.zeros(n_scen, dtype=bool)
        active = np.ones(n_scen, dtype=bool)

        policy.reset(n_scen, n_bat)

        act = np.flatnonzero(active)
        while act.size:
            # ---- advance scenarios whose current epoch is finished.  A job
            # epoch is finished when less than the span epsilon remains (the
            # scalar simulator's ``while remaining > eps``; zero ticks for
            # the dKiBaM); an idle epoch is consumed whole in one span, so it
            # is finished when remaining hits zero exactly.
            while True:
                cur_a = cur_current[act]
                rem_a = remaining[act]
                finished = np.where(cur_a > 0.0, rem_a <= _TIME_EPSILON, rem_a == 0)
                adv = act[finished]
                if adv.size == 0:
                    break
                epoch_idx[adv] += 1
                exhausted = epoch_idx[adv] >= n_epochs[adv]
                # Load ran out with batteries still usable: the scenario
                # survived; its lifetime stays -1.
                active[adv[exhausted]] = False
                live = adv[~exhausted]
                if live.size:
                    cur_current[live] = currents[live, epoch_idx[live]]
                    remaining[live] = spans[live, epoch_idx[live]]
                    entered_job = cur_current[live] > 0.0
                    job_index[live[entered_job]] += 1
                    switchover[live] = False
                if exhausted.any():
                    act = act[active[act]]
            if act.size == 0:
                break

            is_idle = cur_current[act] == 0.0
            idle_lanes = act[is_idle]
            job_lanes = act[~is_idle]

            # ---- idle epochs rest every live battery for the whole epoch.
            if idle_lanes.size:
                lanes.idle(idle_lanes, remaining[idle_lanes])
                time[idle_lanes] += remaining[idle_lanes]
                remaining[idle_lanes] = 0

            if job_lanes.size == 0:
                continue
            # ---- scheduling decisions for the job lanes.
            alive = lanes.alive(job_lanes)
            any_alive = np.any(alive, axis=1)
            dead = job_lanes[~any_alive]
            if dead.size:
                # A job arrived and no battery can serve it: the system
                # died the moment the previous span ended.
                lifetime[dead] = time[dead]
                active[dead] = False
                act = act[active[act]]
            deciding = job_lanes[any_alive]
            if deciding.size == 0:
                continue
            alive = alive[any_alive]
            context = BatchDecisionContext(
                lanes=deciding,
                available_charge=lanes.available(deciding),
                alive=alive,
                current=cur_current[deciding],
                time=time[deciding] * lanes.time_unit,
                job_index=job_index[deciding],
                is_switchover=switchover[deciding],
                previous_choice=prev_choice[deciding],
            )
            choice = np.asarray(policy.choose(context), dtype=np.int64)
            if choice.shape != (deciding.size,):
                raise ValueError(
                    f"policy {policy.name!r} returned shape {choice.shape}, "
                    f"expected ({deciding.size},)"
                )
            if np.any((choice < 0) | (choice >= n_bat)):
                raise ValueError(
                    f"policy {policy.name!r} chose a battery that does not exist"
                )
            if not np.all(alive[np.arange(deciding.size), choice]):
                raise ValueError(
                    f"policy {policy.name!r} chose a battery that is already empty"
                )
            decisions[deciding] += 1
            prev_choice[deciding] = choice

            # ---- serve each job up to the chosen battery's empty crossing
            # or the end of its epoch; the other live batteries rest.
            crossed, span = lanes.serve(
                deciding, epoch_idx[deciding], choice, remaining[deciding]
            )
            time[deciding] += span
            remaining[deciding] -= span
            hit = deciding[crossed]
            if hit.size:
                died = ~np.any(lanes.alive(hit), axis=1)
                dead = hit[died]
                if dead.size:
                    lifetime[dead] = time[dead]
                    active[dead] = False
                    act = act[active[act]]
                # Mid-job handover (Section 4.3): the survivors decide again
                # if their job has time left.
                switchover[hit[~died]] = True

        return BatchResult(
            policy_name=policy.name, decisions=decisions, **lanes.fields(lifetime)
        )

    # ------------------------------------------------------------------ #
    # scalar fallback
    # ------------------------------------------------------------------ #
    def _run_fallback(
        self,
        scenarios: ScenarioSet,
        policy: Union[str, VectorPolicy, SchedulingPolicy],
    ) -> BatchResult:
        """One scalar simulation per scenario, packed into a batch result."""
        from repro.core.policies import make_policy

        if isinstance(policy, VectorPolicy):
            policy = policy.name
        if isinstance(policy, str):
            policy = make_policy(policy)

        def make_simulator(row_params: Sequence[BatteryParameters]) -> MultiBatterySimulator:
            return MultiBatterySimulator(
                make_battery_models(
                    row_params,
                    backend=self.backend,
                    time_step=self.time_step,
                    charge_unit=self.charge_unit,
                )
            )

        shared_simulator = (
            make_simulator(self.params) if self.param_rows is None else None
        )
        lifetimes = np.full(scenarios.n_scenarios, np.nan)
        decisions = np.zeros(scenarios.n_scenarios, dtype=np.int64)
        residual = np.zeros(scenarios.n_scenarios)
        for index, load in enumerate(scenarios.loads):
            simulator = (
                shared_simulator
                if shared_simulator is not None
                else make_simulator(self.param_rows[index])
            )
            result = simulator.run(load, policy)
            if result.lifetime is not None:
                lifetimes[index] = result.lifetime
            decisions[index] = result.decisions
            residual[index] = result.residual_charge
        return BatchResult(
            policy_name=policy.name,
            lifetimes=lifetimes,
            decisions=decisions,
            residual_charge=residual,
            final_states=None,
        )
