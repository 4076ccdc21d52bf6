"""Running the TA-KiBaM: validation runs, policy runs and optimal schedules.

Three entry points mirror how the paper uses its model:

* :func:`takibam_single_battery_lifetime` -- the Section 5 validation runs:
  a single battery, no real scheduling choice, executed deterministically.
* :func:`run_policy_on_takibam` -- drive the network with one of the
  deterministic scheduling policies of :mod:`repro.core.policies`; the only
  nondeterminism of the network (the scheduler's ``go_on`` choice) is
  resolved by the policy.
* :func:`takibam_optimal_schedule` -- the Cora query: minimum-cost
  reachability of the ``maximum_finder.done`` location, which yields the
  schedule with the least residual charge and hence the longest lifetime.

The explicit-state engine is exponential in the number of scheduling
decisions (Section 4.4 of the paper makes the same observation for Cora),
so the optimal query is only meant for coarse discretizations and short
loads; the production path for Table 5 is :mod:`repro.core.optimal`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional, Sequence, Tuple

from repro.core.battery import BatteryView
from repro.core.policies import DecisionContext, SchedulingPolicy
from repro.kibam.parameters import BatteryParameters
from repro.pta.mcr import MCRResult, minimum_cost_reachability, run_deterministic
from repro.pta.semantics import NetworkSemantics, Transition
from repro.pta.state import NetworkState
from repro.takibam.builder import TakibamModel, build_takibam
from repro.workloads.load import Load

_CHOICE_PATTERN = re.compile(r"scheduler\.choose_(\d+)")


def _goal_all_empty(model: TakibamModel):
    """Goal predicate: the maximum finder has reached its ``done`` location."""
    finder_index = model.network.automaton_index("maximum_finder")

    def goal(state: NetworkState) -> bool:
        return state.locations[finder_index] == "done"

    return goal


def _run_until_all_empty(model: TakibamModel, chooser) -> MCRResult:
    """Run the network eagerly until every battery is empty.

    Once the ``load`` automaton is ``exhausted`` and no action is enabled,
    only recovery can follow, and recovery never empties a battery: the run
    stops at that state instead of idling on to the step cap.  A battery
    that empties on the last tick fires its empty actions before that, so
    it still reports its lifetime.

    Raises:
        RuntimeError: the load ended before every battery was empty.
    """
    semantics = NetworkSemantics(model.network)
    all_empty = _goal_all_empty(model)
    load_index = model.network.automaton_index("load")

    def stop(state: NetworkState) -> bool:
        if all_empty(state):
            return True
        return (
            state.locations[load_index] == "exhausted"
            and next(semantics.action_successors(state), None) is None
        )

    result = run_deterministic(semantics, stop, chooser=chooser)
    if not all_empty(result.goal_state):
        raise RuntimeError(
            "the TA-KiBaM did not reach the all-empty state; the load is too short"
        )
    return result


def _chosen_battery(transition: Transition) -> Optional[int]:
    """The battery index chosen by a scheduler transition, if it is one."""
    match = _CHOICE_PATTERN.search(transition.label)
    return int(match.group(1)) if match else None


def _eager_priority(transition: Transition) -> int:
    """Priority of non-scheduler actions for deterministic runs.

    When a charge draw and an epoch end are due at the same tick, the
    dKiBaM performs the draw first; preferring ``draw`` (and the empty
    observation and recovery that may follow it) keeps the deterministic TA
    runs aligned with :class:`repro.kibam.discrete.DiscreteKibam`.
    """
    label = transition.label
    if "draw" in label or "observe_empty" in label:
        return 0
    if "recover" in label:
        return 1
    return 2


def _default_chooser(_state: NetworkState, actions: List[Transition]) -> int:
    """Resolve benign interleavings by the dKiBaM-aligned priority order."""
    return min(range(len(actions)), key=lambda index: _eager_priority(actions[index]))


def takibam_single_battery_lifetime(
    params: BatteryParameters,
    load: Load,
    time_step: float = 0.01,
    charge_unit: float = 0.01,
) -> float:
    """Lifetime (minutes) of a single battery computed on the TA-KiBaM.

    This is the TA-KiBaM column of Tables 3 and 4.  With one battery the
    network is deterministic (up to interleavings of independent events), so
    an eager run suffices.
    """
    model = build_takibam([params], load, time_step=time_step, charge_unit=charge_unit)
    result = _run_until_all_empty(model, _default_chooser)
    return result.goal_state.time * time_step


@dataclasses.dataclass(frozen=True)
class TakibamRunResult:
    """Outcome of a policy run or an optimal query on the TA-KiBaM."""

    lifetime: float
    assignment: Tuple[int, ...]
    residual_charge_units: float
    states_explored: int


def run_policy_on_takibam(
    model: TakibamModel,
    policy: SchedulingPolicy,
) -> TakibamRunResult:
    """Drive the TA-KiBaM with a deterministic scheduling policy."""
    policy.reset(model.n_batteries)
    decisions: List[int] = []
    previous_choice: Optional[int] = None

    def chooser(state: NetworkState, actions: List[Transition]) -> int:
        nonlocal previous_choice
        options = [(index, _chosen_battery(action)) for index, action in enumerate(actions)]
        battery_options = [(index, battery) for index, battery in options if battery is not None]
        if not battery_options:
            # Interleaving of independent events (recoveries, draws, epoch
            # ends): resolve with the dKiBaM-aligned priority order.
            return _default_chooser(state, actions)
        variables = state.variable_valuation()
        views = [
            BatteryView(
                index=battery,
                available_charge=model.available_charge(variables, battery),
                total_charge=model.total_charge(variables, battery),
                is_empty=model.is_battery_empty(variables, battery),
            )
            for battery in range(model.n_batteries)
        ]
        epoch_index = min(variables["j"], model.arrays.n_epochs - 1)
        context = DecisionContext(
            time=state.time * model.time_step,
            epoch_index=epoch_index,
            job_index=len(decisions),
            current=model.arrays.epoch_current(epoch_index, model.charge_unit, model.time_step),
            remaining_duration=max(
                0.0, (model.arrays.load_time[epoch_index] - state.time) * model.time_step
            ),
            views=views,
            is_switchover=any(view.is_empty for view in views),
            previous_choice=previous_choice,
        )
        wanted = policy.choose(context)
        for index, battery in battery_options:
            if battery == wanted:
                decisions.append(battery)
                previous_choice = battery
                return index
        # The policy asked for a battery whose go_on edge is not enabled
        # (e.g. it is empty); fall back to the first enabled choice.
        index, battery = battery_options[0]
        decisions.append(battery)
        previous_choice = battery
        return index

    result = _run_until_all_empty(model, chooser)
    return TakibamRunResult(
        lifetime=result.goal_state.time * model.time_step,
        assignment=tuple(decisions),
        residual_charge_units=result.goal_state.cost,
        states_explored=result.states_explored,
    )


@dataclasses.dataclass(frozen=True)
class TakibamOptimalResult:
    """Result of the Cora-style optimal query on the TA-KiBaM."""

    lifetime: float
    assignment: Tuple[int, ...]
    residual_charge_units: float
    states_explored: int
    mcr: MCRResult


def takibam_optimal_schedule(
    model: TakibamModel,
    max_states: Optional[int] = None,
) -> TakibamOptimalResult:
    """Find the cost-optimal (maximum lifetime) schedule on the TA-KiBaM.

    The query minimizes the residual charge left in the batteries when they
    are all empty, which is the paper's encoding of lifetime maximization
    (Section 4.3).
    """
    semantics = NetworkSemantics(model.network)
    result = minimum_cost_reachability(semantics, _goal_all_empty(model), max_states=max_states)
    if not result.found:
        raise RuntimeError(
            "the optimal query did not reach the all-empty state "
            "(load too short or max_states too small)"
        )
    assert result.goal_state is not None
    assignment = tuple(
        battery
        for battery in (_chosen_battery(t) for t in result.trace if not t.is_delay)
        if battery is not None
    )
    return TakibamOptimalResult(
        lifetime=result.goal_state.time * model.time_step,
        assignment=assignment,
        residual_charge_units=result.cost,
        states_explored=result.states_explored,
        mcr=result,
    )
