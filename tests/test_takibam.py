"""Tests for the TA-KiBaM: arrays, network construction, validation and optimality."""

import pytest

from repro.core.optimal import find_optimal_schedule
from repro.core.policies import BestOfTwoPolicy, RoundRobinPolicy, SequentialPolicy
from repro.kibam.discrete import DiscreteKibam
from repro.kibam.parameters import B1, BatteryParameters
from repro.takibam.arrays import load_arrays
from repro.takibam.builder import build_takibam
from repro.takibam.runner import (
    run_policy_on_takibam,
    takibam_optimal_schedule,
    takibam_single_battery_lifetime,
)
from repro.workloads.load import Epoch, Load


@pytest.fixture(scope="module")
def small_pair():
    """Two reduced-capacity batteries and a coarse discretization."""
    params = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122, name="small")
    return [params, params]


@pytest.fixture(scope="module")
def coarse_kwargs():
    return {"time_step": 0.1, "charge_unit": 0.1}


class TestLoadArrays:
    def test_paper_discretization_of_the_currents(self, b1, loads):
        arrays = load_arrays(loads["ILs alt"], DiscreteKibam(b1))
        # Job epochs alternate 500 mA (1 unit / 2 ticks) and 250 mA
        # (1 unit / 4 ticks); idle epochs have cur == 0.
        assert arrays.cur[0] == 1 and arrays.cur_times[0] == 2
        assert arrays.cur[1] == 0
        assert arrays.cur[2] == 1 and arrays.cur_times[2] == 4

    def test_load_time_is_cumulative_in_ticks(self, b1, loads):
        arrays = load_arrays(loads["ILs 500"], DiscreteKibam(b1))
        assert arrays.load_time[0] == 100
        assert arrays.load_time[1] == 200

    def test_epoch_current_round_trip(self, b1, loads):
        model = DiscreteKibam(b1)
        arrays = load_arrays(loads["CL alt"], model)
        for index in range(4):
            assert arrays.epoch_current(index, model.charge_unit, model.time_step) == pytest.approx(
                loads["CL alt"].epochs[index].current
            )

    def test_mismatched_array_lengths_rejected(self):
        from repro.takibam.arrays import LoadArrays

        with pytest.raises(ValueError):
            LoadArrays(load_time=(1, 2), cur=(1,), cur_times=(1, 1), currents=(0.1, 0.1))


class TestNetworkConstruction:
    def test_network_has_two_automata_per_battery_plus_three(self, small_pair, tiny_load, coarse_kwargs):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        names = {automaton.name for automaton in model.network.automata}
        assert names == {
            "total_charge_0",
            "height_difference_0",
            "total_charge_1",
            "height_difference_1",
            "load",
            "scheduler",
            "maximum_finder",
        }

    def test_initial_variables(self, small_pair, tiny_load, coarse_kwargs):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        variables = model.network.initial_variables
        assert variables["n_gamma_0"] == 10  # 1.0 Amin / 0.1 Amin
        assert variables["m_delta_0"] == 0
        assert variables["empty_count"] == 0

    def test_channel_table_matches_table_2(self, small_pair, tiny_load, coarse_kwargs):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        channels = model.network.channels()
        assert "new_job" in channels and "emptied" in channels and "all_empty" in channels
        assert "go_on_0" in channels and "use_charge_1" in channels
        assert "all_empty" in model.network.broadcast_channels

    def test_requires_at_least_one_battery(self, tiny_load):
        with pytest.raises(ValueError):
            build_takibam([], tiny_load)


class TestSingleBatteryValidation:
    @pytest.mark.parametrize("load_name", ["CL 500", "ILs 500", "ILs alt"])
    def test_ta_matches_dkibam_exactly(self, b1, loads, load_name):
        # The TA-KiBaM and the direct dKiBaM simulation implement the same
        # discretized model and must agree to within one time step.
        ta = takibam_single_battery_lifetime(b1, loads[load_name])
        dk = DiscreteKibam(b1).lifetime_under_segments(loads[load_name].segments())
        assert ta == pytest.approx(dk, abs=0.011)

    def test_ta_close_to_analytical_kibam(self, b1, loads):
        # Table 3 reports at most ~1 % difference between the two.
        from repro.kibam.lifetime import lifetime_under_segments

        ta = takibam_single_battery_lifetime(b1, loads["CL alt"])
        analytical = lifetime_under_segments(b1, loads["CL alt"].segments())
        assert abs(ta - analytical) / analytical < 0.015

    def test_too_short_load_is_reported(self, b1):
        light = Load(name="short", epochs=(Epoch(current=0.25, duration=1.0),))
        with pytest.raises(RuntimeError, match="too short"):
            takibam_single_battery_lifetime(b1, light)

    def test_battery_emptying_on_the_last_tick_reports_its_lifetime(self):
        cell = BatteryParameters(capacity=0.5, c=0.166, k_prime=0.122)
        grid = {"time_step": 0.05, "charge_unit": 0.05}
        long = Load(name="long", epochs=(Epoch(current=0.5, duration=10.0),))
        lifetime = takibam_single_battery_lifetime(cell, long, **grid)
        exact = Load(name="exact", epochs=(Epoch(current=0.5, duration=lifetime),))
        assert takibam_single_battery_lifetime(cell, exact, **grid) == lifetime
        shorter = Load(
            name="shorter",
            epochs=(Epoch(current=0.5, duration=lifetime - grid["time_step"]),),
        )
        with pytest.raises(RuntimeError, match="too short"):
            takibam_single_battery_lifetime(cell, shorter, **grid)


class TestPolicyRuns:
    def test_policy_ordering_on_the_network(self, small_pair, short_alternating_load, coarse_kwargs):
        model = build_takibam(small_pair, short_alternating_load, **coarse_kwargs)
        sequential = run_policy_on_takibam(model, SequentialPolicy()).lifetime
        round_robin = run_policy_on_takibam(model, RoundRobinPolicy()).lifetime
        best = run_policy_on_takibam(model, BestOfTwoPolicy()).lifetime
        assert sequential <= round_robin + 1e-9
        assert round_robin <= best + 1e-9

    def test_policy_run_matches_discrete_simulator(self, small_pair, short_alternating_load, coarse_kwargs):
        from repro.core.simulator import simulate_policy

        model = build_takibam(small_pair, short_alternating_load, **coarse_kwargs)
        ta = run_policy_on_takibam(model, SequentialPolicy()).lifetime
        sim = simulate_policy(
            small_pair, short_alternating_load, "sequential", backend="discrete", **coarse_kwargs
        ).lifetime_or_raise()
        assert ta == pytest.approx(sim, abs=2 * coarse_kwargs["time_step"] + 1e-9)


class TestOptimalQuery:
    def test_optimal_is_at_least_as_good_as_policies(self, small_pair, tiny_load, coarse_kwargs):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        optimal = takibam_optimal_schedule(model)
        best = run_policy_on_takibam(model, BestOfTwoPolicy()).lifetime
        assert optimal.lifetime >= best - 1e-9

    def test_optimal_agrees_with_branch_and_bound_on_discrete_backend(
        self, small_pair, tiny_load, coarse_kwargs
    ):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        ta_optimal = takibam_optimal_schedule(model)
        search_optimal = find_optimal_schedule(
            small_pair, tiny_load, backend="discrete", **coarse_kwargs
        )
        assert ta_optimal.lifetime == pytest.approx(search_optimal.lifetime, abs=0.2 + 1e-9)

    def test_residual_cost_is_reported_in_charge_units(self, small_pair, tiny_load, coarse_kwargs):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        optimal = takibam_optimal_schedule(model)
        assert 0.0 <= optimal.residual_charge_units <= 2 * model.discretizers[0].total_units

    def test_state_budget_is_enforced(self, small_pair, tiny_load, coarse_kwargs):
        model = build_takibam(small_pair, tiny_load, **coarse_kwargs)
        with pytest.raises(RuntimeError):
            takibam_optimal_schedule(model, max_states=5)
