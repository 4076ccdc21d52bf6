"""Tests for the batched branch-and-bound optimal search.

The contract under test (see ``repro.engine.optimal_batch``):

* **parity** -- on certified searches (``dominance_tolerance=0``, no node
  cap) the batched search returns the same lifetime as the scalar
  :class:`repro.core.optimal.OptimalScheduler` (within 1e-9 minutes for the
  analytical model, in *exact ticks* for the discrete model) and the same
  ``complete`` flag, on all ten paper loads;
* **bounded node inflation** -- best-first expansion against a per-batch
  incumbent may expand more nodes than the depth-first scalar search, but
  only by a small factor (documented bound: 3x + one batch);
* **shared pruning semantics** -- the vectorized dominance archive takes
  exactly the same admit/reject decisions as the scalar reference archive;
* **exact dKiBaM stepping** -- the lane-parallel segment kernel reproduces
  ``DiscreteKibam.run_segment`` unit for unit, tick for tick.

Searches use reduced-capacity batteries (0.75x B1) and, for the discrete
backend, a coarser ``T = Gamma = 0.05`` grid so the scalar reference stays
fast; the parity contract is discretization-independent (the bound slack
scales with the coarseness on both sides, see ``discrete_bound_slack_for``).
"""

import math

import numpy as np
import pytest

from repro.core.battery import make_battery_models
from repro.core.optimal import (
    DominanceArchive,
    OptimalScheduler,
    find_optimal_schedule,
    group_permutations,
    model_symmetry_groups,
    parameter_symmetry_groups,
)
from repro.core.policies import FixedAssignmentPolicy
from repro.core.simulator import simulate_policy
from repro.engine.optimal_batch import (
    BatchOptimalScheduler,
    DecisionTrace,
    FrontierArrays,
    VectorDominanceArchive,
    discrete_segment_array,
    find_optimal_schedule_batched,
    optimal_schedules_batch,
)
from repro.kibam.discrete import DiscreteBatteryState, DiscreteKibam
from repro.kibam.parameters import B1, BatteryParameters
from repro.workloads.load import Epoch, Load
from repro.workloads.profiles import PAPER_LOAD_NAMES, paper_loads

#: Reduced-capacity pair: same dynamics as 2xB1, much smaller searches.
SCALED = B1.scaled(0.75)

#: Coarse dKiBaM grid for the discrete parity runs (scalar reference cost).
COARSE = dict(time_step=0.05, charge_unit=0.05)

#: Documented node-inflation bound of the batched best-first expansion:
#: a batch is popped against one incumbent while the scalar depth-first
#: search re-checks an (often improved) incumbent at every node.
NODE_FACTOR = 3
NODE_SLACK = 64

#: Small-fleet building blocks: two distinct parameter groups sharing the
#: B1 chemistry, sized so N-battery fleets die within a short heavy load
#: and certified scalar searches stay fast at every fleet width.
FLEET_A = BatteryParameters(capacity=0.5, c=0.166, k_prime=0.122)
FLEET_B = BatteryParameters(capacity=0.35, c=0.166, k_prime=0.122)

#: The fleet parity matrix: identical subgroups at every width, so the
#: group-wise symmetry reduction is exercised (not just tolerated).
FLEETS = {
    3: (FLEET_A, FLEET_A, FLEET_B),
    4: (FLEET_A, FLEET_A, FLEET_B, FLEET_B),
    8: (FLEET_A,) * 4 + (FLEET_B,) * 4,
}


def fleet_load(n_epochs=12):
    """A heavy job/idle alternation that exhausts every FLEETS fleet."""
    epochs = []
    for index in range(n_epochs):
        epochs.append(Epoch(current=1.0 if index % 2 == 0 else 0.5, duration=1.0))
        epochs.append(Epoch(current=0.0, duration=0.5))
    return Load(name="fleet-alt", epochs=tuple(epochs))


@pytest.fixture(scope="module")
def all_loads():
    return paper_loads()


class TestAnalyticalParity:
    @pytest.mark.parametrize("load_name", PAPER_LOAD_NAMES)
    def test_lifetime_complete_and_nodes_match_scalar(self, all_loads, load_name):
        load = all_loads[load_name]
        scalar = find_optimal_schedule([SCALED, SCALED], load)
        batched = find_optimal_schedule_batched([SCALED, SCALED], load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete
        assert batched.complete
        assert batched.backend == "analytical"
        assert (
            batched.nodes_expanded
            <= NODE_FACTOR * scalar.nodes_expanded + NODE_SLACK
        )

    def test_batched_assignment_replays_to_the_reported_lifetime(self, all_loads):
        load = all_loads["ILs alt"]
        batched = find_optimal_schedule_batched([SCALED, SCALED], load)
        replay = simulate_policy(
            [SCALED, SCALED], load, FixedAssignmentPolicy(batched.assignment)
        )
        assert replay.lifetime_or_raise() == pytest.approx(batched.lifetime)

    def test_batch_size_does_not_change_the_result(self, all_loads):
        load = all_loads["CL 250"]
        results = [
            BatchOptimalScheduler(
                [SCALED, SCALED], load, batch_size=batch_size
            ).search()
            for batch_size in (1, 4, 64)
        ]
        lifetimes = {round(result.lifetime, 12) for result in results}
        assert len(lifetimes) == 1

    def test_heterogeneous_capacities_share_the_pooling_bound(self, all_loads):
        small = BatteryParameters(capacity=2.0, c=0.166, k_prime=0.122)
        large = BatteryParameters(capacity=4.0, c=0.166, k_prime=0.122)
        load = all_loads["ILs 500"]
        scalar = find_optimal_schedule([small, large], load)
        batched = find_optimal_schedule_batched([small, large], load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete

    def test_heterogeneous_chemistry_uses_the_total_charge_bound(self):
        # Different c/k' pairs cannot pool; both searches must fall back to
        # the total-charge bound and still agree.
        a = BatteryParameters(capacity=1.5, c=0.166, k_prime=0.122)
        b = BatteryParameters(capacity=1.5, c=0.25, k_prime=0.2)
        epochs = tuple(
            Epoch(current=0.5 if i % 2 == 0 else 0.0, duration=1.0)
            for i in range(24)
        )
        load = Load(name="hetero", epochs=epochs)
        scalar = find_optimal_schedule([a, b], load)
        batched = find_optimal_schedule_batched([a, b], load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)

    def test_single_battery_degenerates_to_sequential(self, all_loads):
        load = all_loads["ILs 500"]
        batched = find_optimal_schedule_batched([SCALED], load)
        sequential = simulate_policy([SCALED], load, "sequential").lifetime_or_raise()
        assert batched.lifetime == pytest.approx(sequential)

    def test_linear_model_falls_back_to_the_scalar_search(self, all_loads):
        load = all_loads["CL 500"]
        scalar = find_optimal_schedule([SCALED, SCALED], load, backend="linear")
        batched = find_optimal_schedule_batched([SCALED, SCALED], load, model="linear")
        assert batched.backend == "linear"
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)


class TestDiscreteParity:
    @pytest.mark.parametrize("load_name", PAPER_LOAD_NAMES)
    def test_exact_tick_parity_with_the_scalar_search(self, all_loads, load_name):
        load = all_loads[load_name]
        scalar = find_optimal_schedule(
            [SCALED, SCALED], load, backend="discrete", **COARSE
        )
        batched = find_optimal_schedule_batched(
            [SCALED, SCALED], load, model="discrete", **COARSE
        )
        # Both lifetimes come from a scalar replay of the winning
        # assignment, so the exact contract is equal *tick counts* (two
        # co-optimal assignments may split the same ticks into different
        # float spans).
        time_step = COARSE["time_step"]
        assert round(batched.lifetime / time_step) == round(
            scalar.lifetime / time_step
        )
        assert batched.complete == scalar.complete
        assert batched.complete
        assert batched.backend == "discrete"
        assert (
            batched.nodes_expanded
            <= NODE_FACTOR * scalar.nodes_expanded + NODE_SLACK
        )

    def test_discrete_result_replays_exactly(self, all_loads):
        load = all_loads["ILs alt"]
        batched = find_optimal_schedule_batched(
            [SCALED, SCALED], load, model="discrete", **COARSE
        )
        replay = simulate_policy(
            [SCALED, SCALED],
            load,
            FixedAssignmentPolicy(batched.assignment),
            backend="discrete",
            **COARSE,
        )
        assert replay.lifetime_or_raise() == batched.lifetime


class TestGroupSymmetry:
    """Group-wise symmetry reduction on fleets with identical subgroups.

    The contract: permuted-duplicate schedules are pruned (node counts
    drop) while the reported result stays *bitwise* unchanged -- permuting
    identical batteries produces the same float trajectory, so the pruned
    search's incumbent sequence is a subsequence of the unpruned one.
    """

    def fleet(self):
        # Two identical batteries plus one distinct: neither the legacy
        # all-identical fast path nor the no-symmetry path covers this.
        return [FLEET_A, FLEET_A, FLEET_B]

    def test_scalar_search_prunes_permutations_bitwise_unchanged(self):
        load = fleet_load(8)
        pruned = find_optimal_schedule(self.fleet(), load)
        full = find_optimal_schedule(self.fleet(), load, use_symmetry=False)
        assert pruned.complete and full.complete
        assert pruned.lifetime == full.lifetime
        assert pruned.residual_charge == pytest.approx(full.residual_charge)
        assert pruned.nodes_expanded < full.nodes_expanded

    def test_batched_search_prunes_permutations_bitwise_unchanged(self):
        load = fleet_load(8)
        pruned = find_optimal_schedule_batched(self.fleet(), load)
        full = find_optimal_schedule_batched(self.fleet(), load, use_symmetry=False)
        assert pruned.complete and full.complete
        assert pruned.lifetime == full.lifetime
        assert pruned.nodes_expanded < full.nodes_expanded

    def test_pruned_fleet_result_replays(self):
        load = fleet_load(8)
        result = find_optimal_schedule_batched(self.fleet(), load)
        replay = simulate_policy(
            self.fleet(), load, FixedAssignmentPolicy(result.assignment)
        )
        assert replay.lifetime_or_raise() == pytest.approx(result.lifetime)

    def test_symmetry_never_changes_an_all_distinct_fleet(self):
        distinct = [
            BatteryParameters(capacity=0.5, c=0.166, k_prime=0.122),
            BatteryParameters(capacity=0.4, c=0.166, k_prime=0.122),
            BatteryParameters(capacity=0.3, c=0.166, k_prime=0.122),
        ]
        load = fleet_load(8)
        on = find_optimal_schedule_batched(distinct, load)
        off = find_optimal_schedule_batched(distinct, load, use_symmetry=False)
        assert on.lifetime == off.lifetime
        assert on.nodes_expanded == off.nodes_expanded

    def test_group_resolution_helpers(self):
        assert parameter_symmetry_groups([FLEET_A, FLEET_A, FLEET_B]) == (0, 0, 1)
        assert parameter_symmetry_groups([FLEET_A, FLEET_B, FLEET_A]) == (0, 1, 0)
        models = make_battery_models([FLEET_A, FLEET_B, FLEET_A])
        assert model_symmetry_groups(models) == (0, 1, 0)
        # Mixed groups multiply out; oversized products fall back to the
        # identity rather than enumerating thousands of permutations.
        assert len(group_permutations((0, 0, 1))) == 2
        assert len(group_permutations((0, 0, 1, 1))) == 4
        assert group_permutations((0,) * 8) == [tuple(range(8))]


class TestFleetParity:
    """Satellite matrix: scalar/batched agreement at N in {3, 4, 8}."""

    @pytest.mark.parametrize("n_batteries", sorted(FLEETS))
    def test_analytical_fleet_parity(self, n_batteries):
        fleet = list(FLEETS[n_batteries])
        load = fleet_load()
        scalar = find_optimal_schedule(fleet, load)
        batched = find_optimal_schedule_batched(fleet, load)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete
        assert batched.complete
        assert (
            batched.nodes_expanded
            <= NODE_FACTOR * scalar.nodes_expanded + NODE_SLACK
        )

    @pytest.mark.parametrize("n_batteries", sorted(FLEETS))
    def test_discrete_fleet_parity_in_exact_ticks(self, n_batteries):
        fleet = list(FLEETS[n_batteries])
        load = fleet_load(8)
        scalar = find_optimal_schedule(fleet, load, backend="discrete", **COARSE)
        batched = find_optimal_schedule_batched(
            fleet, load, model="discrete", **COARSE
        )
        time_step = COARSE["time_step"]
        assert round(batched.lifetime / time_step) == round(
            scalar.lifetime / time_step
        )
        assert batched.complete == scalar.complete
        assert batched.complete

    @pytest.mark.parametrize("n_batteries", sorted(FLEETS))
    def test_fleet_optimal_dominates_heuristics(self, n_batteries):
        fleet = list(FLEETS[n_batteries])
        load = fleet_load()
        optimal = find_optimal_schedule_batched(fleet, load)
        for policy in ("sequential", "round-robin", "best-of-two"):
            heuristic = simulate_policy(fleet, load, policy).lifetime_or_raise()
            assert optimal.lifetime >= heuristic - 1e-9, policy


class TestDominanceAblation:
    def small_load(self):
        epochs = tuple(
            Epoch(current=0.5 if i % 2 == 0 else 0.25, duration=1.0)
            for i in range(10)
        )
        return Load(name="small-alt", epochs=epochs)

    def small_pair(self):
        small = BatteryParameters(capacity=1.5, c=0.166, k_prime=0.122)
        return [small, small]

    def test_batched_search_without_dominance_matches_with(self):
        load, pair = self.small_load(), self.small_pair()
        with_dominance = find_optimal_schedule_batched(pair, load)
        without = find_optimal_schedule_batched(pair, load, use_dominance=False)
        assert without.lifetime == pytest.approx(with_dominance.lifetime, abs=1e-9)
        assert without.nodes_expanded >= with_dominance.nodes_expanded

    def test_undominated_batched_search_matches_undominated_scalar(self):
        load, pair = self.small_load(), self.small_pair()
        scalar = find_optimal_schedule(pair, load, use_dominance=False)
        batched = find_optimal_schedule_batched(pair, load, use_dominance=False)
        assert batched.lifetime == pytest.approx(scalar.lifetime, abs=1e-9)
        assert batched.complete == scalar.complete

    def test_undominated_discrete_parity(self):
        load, pair = self.small_load(), self.small_pair()
        scalar = find_optimal_schedule(
            pair, load, backend="discrete", use_dominance=False, **COARSE
        )
        batched = find_optimal_schedule_batched(
            pair, load, model="discrete", use_dominance=False, **COARSE
        )
        time_step = COARSE["time_step"]
        assert round(batched.lifetime / time_step) == round(
            scalar.lifetime / time_step
        )


class TestSearchControls:
    def test_max_nodes_marks_the_result_incomplete(self, all_loads):
        load = all_loads["ILs alt"]
        capped = find_optimal_schedule_batched([SCALED, SCALED], load, max_nodes=2)
        full = find_optimal_schedule_batched([SCALED, SCALED], load)
        assert not capped.complete
        assert capped.lifetime <= full.lifetime + 1e-9
        best = simulate_policy([SCALED, SCALED], load, "best-of-two").lifetime_or_raise()
        assert capped.lifetime >= best - 1e-9  # never worse than the incumbent

    def test_dominance_tolerance_stays_near_the_certified_result(self, all_loads):
        load = all_loads["ILs alt"]
        exact = find_optimal_schedule_batched([SCALED, SCALED], load)
        relaxed = find_optimal_schedule_batched(
            [SCALED, SCALED], load, dominance_tolerance=0.005
        )
        assert relaxed.lifetime == pytest.approx(exact.lifetime, rel=0.005)

    def test_parameter_validation(self, all_loads):
        load = all_loads["CL 500"]
        with pytest.raises(ValueError):
            BatchOptimalScheduler([], load)
        with pytest.raises(ValueError):
            BatchOptimalScheduler([SCALED], load, dominance_tolerance=-1.0)
        with pytest.raises(ValueError):
            BatchOptimalScheduler([SCALED], load, batch_size=0)
        with pytest.raises(ValueError):
            BatchOptimalScheduler([SCALED], load, model="linear")

    def test_batch_helper_runs_one_search_per_load(self, all_loads):
        loads = [all_loads["CL 500"], all_loads["ILs 500"]]
        results = optimal_schedules_batch(loads, [SCALED, SCALED])
        assert len(results) == 2
        singles = [
            find_optimal_schedule_batched(
                [SCALED, SCALED], load, max_nodes=20_000, dominance_tolerance=0.005
            )
            for load in loads
        ]
        for got, expected in zip(results, singles):
            assert got.lifetime == pytest.approx(expected.lifetime, abs=1e-9)

    def test_capped_searches_fall_back_to_the_scalar_dfs(self, all_loads):
        """A capped best-first frontier certifies a shallow lower bound; the
        helper must re-drive it through the depth-first scalar search and
        keep the better *whole* result (lifetime, decisions and residual
        from one schedule, not a mix)."""
        load = all_loads["ILs alt"]
        capped_raw = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0,
            scalar_fallback=False,
        )[0]
        assert not capped_raw.complete
        with_fallback = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        scalar = find_optimal_schedule(
            [SCALED, SCALED], load, max_nodes=2, dominance_tolerance=0.0
        )
        assert with_fallback.lifetime >= max(capped_raw.lifetime, scalar.lifetime) - 1e-9
        # Internal consistency: the reported metadata belongs to the
        # reported schedule.
        replay = simulate_policy(
            [SCALED, SCALED], load, FixedAssignmentPolicy(with_fallback.assignment)
        )
        assert replay.lifetime_or_raise() == pytest.approx(with_fallback.lifetime)
        assert with_fallback.residual_charge == pytest.approx(replay.residual_charge)
        assert len(with_fallback.assignment) == replay.decisions

    def test_fallback_upgrades_to_certified_when_the_scalar_completes(
        self, all_loads, monkeypatch
    ):
        """If the depth-first fallback *finishes* inside the node budget its
        result is the certified optimum and replaces the capped one, even
        when the lifetimes tie."""
        import repro.engine.parallel as parallel

        load = all_loads["ILs alt"]
        certified = find_optimal_schedule([SCALED, SCALED], load)
        assert certified.complete
        monkeypatch.setattr(
            parallel, "optimal_schedules_chunk", lambda *args, **kwargs: [certified]
        )
        result = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        assert result is certified

    def test_fallback_never_discards_a_longer_batched_schedule(
        self, all_loads, monkeypatch
    ):
        """A 'complete' DFS under tolerance merging can still return a worse
        schedule than the capped batched search found; the lifetime
        comparison must win over the completeness flag."""
        import dataclasses

        import repro.engine.parallel as parallel

        load = all_loads["ILs alt"]
        capped = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0,
            scalar_fallback=False,
        )[0]
        worse_but_certified = dataclasses.replace(
            find_optimal_schedule([SCALED, SCALED], load),
            lifetime=capped.lifetime - 0.5,
            complete=True,
        )
        monkeypatch.setattr(
            parallel,
            "optimal_schedules_chunk",
            lambda *args, **kwargs: [worse_but_certified],
        )
        result = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        assert result.lifetime == capped.lifetime
        assert not result.complete


class TestResultMetadata:
    def test_as_simulation_result_carries_the_winning_leaf(self, all_loads):
        """Regression: optimal rows used to report nan residual charge and
        empty final states, forcing downstream tables to special-case them."""
        load = all_loads["ILs alt"]
        for result in (
            find_optimal_schedule([SCALED, SCALED], load),
            find_optimal_schedule_batched([SCALED, SCALED], load),
        ):
            simulation = result.as_simulation_result()
            assert np.isfinite(simulation.residual_charge)
            assert len(simulation.final_states) == 2
            assert simulation.decisions == len(result.assignment)
            replay = simulate_policy(
                [SCALED, SCALED], load, FixedAssignmentPolicy(result.assignment)
            )
            assert simulation.residual_charge == pytest.approx(replay.residual_charge)

    def test_incumbent_policy_is_reported(self, all_loads):
        result = find_optimal_schedule_batched([SCALED, SCALED], all_loads["ILs 500"])
        assert result.incumbent_policy in {"sequential", "round-robin", "best-of-two"}
        assert result.nodes_expanded >= 0


class TestFrontierArrays:
    """The structure-of-arrays frontier pool behind both search backends."""

    def _pool(self, capacity=4):
        return FrontierArrays(
            {"state": ((2, 2), np.float64), "epoch": ((), np.int64)},
            capacity=capacity,
        )

    def test_allocate_zero_is_a_noop(self):
        pool = self._pool(capacity=4)
        assert pool.allocate(0).shape == (0,)
        # The free-list must be untouched: all four slots still available.
        assert sorted(pool.allocate(4).tolist()) == [0, 1, 2, 3]

    def test_allocate_release_recycles_slots(self):
        pool = self._pool(capacity=4)
        first = pool.allocate(3)
        assert sorted(first.tolist()) == [0, 1, 2]
        pool.release(first[:2])
        second = pool.allocate(2)
        # Recycled slots come back before any growth happens.
        assert set(second.tolist()) <= {0, 1, 2}
        assert pool.capacity == 4

    def test_grow_by_doubling_preserves_data(self):
        pool = self._pool(capacity=2)
        slots = pool.allocate(2)
        pool.state[slots] = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        pool.epoch[slots] = [7, 9]
        more = pool.allocate(5)  # forces two doublings
        assert pool.capacity == 8
        assert more.shape[0] == 5
        np.testing.assert_array_equal(
            pool.state[slots], np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        )
        np.testing.assert_array_equal(pool.epoch[slots], [7, 9])
        # No slot handed out twice.
        assert len(set(slots.tolist()) | set(more.tolist())) == 7

    def test_decision_trace_reconstructs_assignments(self):
        trace = DecisionTrace(capacity=2)
        roots = trace.append(np.array([-1, -1]), np.array([0, 1]))
        kids = trace.append(np.asarray(roots), np.array([1, 0]))
        grand = trace.append(np.array([kids[0]]), np.array([1]))
        assert trace.assignment(-1) == ()
        assert trace.assignment(roots[0]) == (0,)
        assert trace.assignment(kids[1]) == (1, 0)
        assert trace.assignment(grand[0]) == (0, 1, 1)


class TestSeededSearch:
    """Cross-grid-point incumbent seeding: prunes work, never results."""

    def test_seeded_certified_search_matches_fresh_exactly(self, all_loads):
        smaller = B1.scaled(0.7)
        for load_name in ("ILs alt", "CL alt", "CL 250"):
            load = all_loads[load_name]
            prev = find_optimal_schedule_batched([smaller, smaller], load)
            fresh = find_optimal_schedule_batched([SCALED, SCALED], load)
            seeded = find_optimal_schedule_batched(
                [SCALED, SCALED], load, seed_assignment=prev.assignment
            )
            # Bitwise equality, not approx: seeding must not change the
            # reported schedule's lifetime at all.
            assert seeded.lifetime == fresh.lifetime
            assert seeded.complete == fresh.complete
            assert seeded.residual_charge == fresh.residual_charge
            assert len(seeded.assignment) == len(fresh.assignment)
            assert seeded.nodes_expanded <= fresh.nodes_expanded

    def test_unreplayable_seed_is_ignored(self, all_loads):
        load = all_loads["ILs alt"]
        fresh = find_optimal_schedule_batched([SCALED, SCALED], load)
        # A nonsense seed that immediately picks an out-of-range... rather:
        # a seed that always picks battery 0 eventually hits it empty; the
        # truncation loop must degrade gracefully to (at worst) no seed.
        seeded = find_optimal_schedule_batched(
            [SCALED, SCALED], load, seed_assignment=(0,) * 40
        )
        assert seeded.lifetime == fresh.lifetime
        assert seeded.complete == fresh.complete

    def test_capped_seeded_search_rerenders_the_fresh_result(self, all_loads):
        """A capped search's outcome depends on which nodes fit the budget,
        so `optimal_schedules_batch` re-runs seeded-and-capped searches
        without the seed: seeded sweeps stay bitwise-identical to fresh
        sweeps even where the node cap bites."""
        load = all_loads["ILs alt"]
        prev = find_optimal_schedule_batched([B1.scaled(0.7)] * 2, load)
        fresh = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0
        )[0]
        seeded = optimal_schedules_batch(
            [load], [SCALED, SCALED], max_nodes=2, dominance_tolerance=0.0,
            seed_assignment=prev.assignment,
        )[0]
        assert seeded.lifetime == fresh.lifetime
        assert seeded.complete == fresh.complete
        assert seeded.assignment == fresh.assignment
        # The seeded attempt's work is still accounted for.
        assert seeded.nodes_expanded >= fresh.nodes_expanded


class TestVectorDominanceArchive:
    def _random_matrices(self, rng, n, n_batteries=2, n_components=3):
        matrices = rng.integers(-3, 4, size=(n, n_batteries, n_components)) * 0.5
        # Sprinkle the scalar archive's empty-battery sentinel rows.
        for index in range(0, n, 7):
            matrices[index, rng.integers(n_batteries)] = [0.0, -np.inf, -np.inf][
                :n_components
            ]
        return matrices

    @pytest.mark.parametrize(
        "groups",
        [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 1, 2), (0, 0), (0, 1)],
    )
    @pytest.mark.parametrize("tolerance", [0.0, 0.25])
    def test_group_decisions_match_the_scalar_archive(self, groups, tolerance):
        """Pinned decision-for-decision at every group structure a 2- or
        3-battery fleet can have, not just all-identical vs all-distinct."""
        rng = np.random.default_rng(17)
        scalar = DominanceArchive(
            groups, dominance_tolerance=tolerance, archive_limit=8
        )
        vector = VectorDominanceArchive(
            groups, dominance_tolerance=tolerance, archive_limit=8
        )
        matrices = self._random_matrices(rng, 300, n_batteries=len(groups))
        keys = rng.integers(0, 4, size=300)
        for key, matrix in zip(keys, matrices):
            expected = scalar.admit(
                (int(key),), tuple(tuple(row) for row in matrix)
            )
            got = vector.admit((int(key),), matrix)
            assert got == expected

    def test_archive_limit_is_respected(self):
        vector = VectorDominanceArchive((0,), archive_limit=2)
        # Mutually non-dominating vectors: only the first two are archived,
        # later ones are still admitted (the scalar semantics).
        for value in range(5):
            matrix = np.array([[float(value), float(-value)]])
            assert vector.admit("k", matrix)
        stored = vector._entries["k"][1]
        assert stored.shape[0] == 2


class TestDiscreteSegmentKernel:
    def _scalar_reference(self, model, state, current, ticks):
        spec = model.discharge_spec(current) if current > 0.0 else None
        empty_tick = None
        for tick in range(1, ticks + 1):
            state = model.tick(state, spec)
            if state.empty:
                empty_tick = tick
                break
        return state, empty_tick

    def test_matches_run_segment_over_random_histories(self):
        params = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122)
        model = DiscreteKibam(params, time_step=0.05, charge_unit=0.05)
        rng = np.random.default_rng(5)
        spec_by_current = {c: model.discharge_spec(c) for c in (0.25, 0.5)}
        n_lanes = 16
        states = [model.initial_state() for _ in range(n_lanes)]
        done = [False] * n_lanes
        tables = np.array([model.recovery_steps], dtype=np.int64)
        for _ in range(12):
            currents = rng.choice([0.0, 0.25, 0.5], size=n_lanes)
            ticks = rng.integers(1, 40, size=n_lanes)
            live = [i for i in range(n_lanes) if not done[i]]
            if not live:
                break
            cur = np.array(
                [spec_by_current[currents[i]].cur if currents[i] else 0 for i in live],
                dtype=np.int64,
            )
            ct = np.array(
                [
                    spec_by_current[currents[i]].cur_times if currents[i] else 1
                    for i in live
                ],
                dtype=np.int64,
            )
            lane_ticks = np.array([ticks[i] for i in live], dtype=np.int64)
            n = np.array([states[i].n for i in live], dtype=np.int64)
            m = np.array([states[i].m for i in live], dtype=np.int64)
            rec = np.array([states[i].recov_ticks for i in live], dtype=np.int64)
            acc = np.array([states[i].disch_ticks for i in live], dtype=np.int64)
            rcur = np.array([states[i].disch_rate[0] for i in live], dtype=np.int64)
            rct = np.array([states[i].disch_rate[1] for i in live], dtype=np.int64)
            out = discrete_segment_array(
                tables,
                np.zeros(len(live), dtype=np.int64),
                np.full(len(live), model.c_permille, dtype=np.int64),
                n, m, rec, acc, rcur, rct, cur, ct, lane_ticks,
            )
            n2, m2, rec2, acc2, rcur2, rct2, empty_tick = out
            for row, i in enumerate(live):
                ref_state, ref_empty = self._scalar_reference(
                    model, states[i], float(currents[i]), int(ticks[i])
                )
                assert (n2[row], m2[row]) == (ref_state.n, ref_state.m), (row, i)
                assert rec2[row] == ref_state.recov_ticks
                assert acc2[row] == ref_state.disch_ticks
                assert (rcur2[row], rct2[row]) == ref_state.disch_rate
                expected_tick = -1 if ref_empty is None else ref_empty
                assert empty_tick[row] == expected_tick
                if ref_empty is not None:
                    done[i] = True
                else:
                    states[i] = DiscreteBatteryState(
                        n=int(n2[row]),
                        m=int(m2[row]),
                        disch_ticks=int(acc2[row]),
                        disch_rate=(int(rcur2[row]), int(rct2[row])),
                        recov_ticks=int(rec2[row]),
                    )

    def test_draw_can_outpace_the_recovery_counter(self):
        # The clamp regression from the batch engine: a draw raises m into a
        # shorter recovery step than the accumulated counter; the next
        # recovery event must fire one tick later, not steps[m]-rec later.
        params = BatteryParameters(capacity=0.5, c=0.5, k_prime=1.8)
        model = DiscreteKibam(params, time_step=0.05, charge_unit=0.05)
        state = model.initial_state()
        ref_state, ref_empty = self._scalar_reference(model, state, 0.5, 120)
        out = discrete_segment_array(
            np.array([model.recovery_steps], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.array([model.c_permille], dtype=np.int64),
            np.array([state.n], dtype=np.int64),
            np.array([state.m], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([model.discharge_spec(0.5).cur], dtype=np.int64),
            np.array([model.discharge_spec(0.5).cur_times], dtype=np.int64),
            np.array([120], dtype=np.int64),
        )
        assert (out[0][0], out[1][0]) == (ref_state.n, ref_state.m)
        assert out[6][0] == (-1 if ref_empty is None else ref_empty)


class TestPoolingBoundParity:
    def test_batched_root_bound_matches_the_scalar_bound(self, all_loads):
        load = all_loads["ILs 250"]
        models = make_battery_models([SCALED, SCALED])
        scalar = OptimalScheduler(models, load)
        states = tuple(model.initial_state() for model in models)
        scalar_bound = scalar._remaining_lifetime_bound(states, 0, 0.0)

        batched = BatchOptimalScheduler([SCALED, SCALED], load)
        ops = batched._ops
        root = ops.root_batch()
        gamma = np.array([root["state"][0, :, 0].sum()])
        delta = np.array([root["state"][0, :, 1].sum()])
        bound = ops.bounds.pooled_bounds(
            gamma, delta, np.array([0]), np.array([0.0])
        )[0]
        assert bound == pytest.approx(scalar_bound, abs=1e-9)


class TestBoundCacheCaps:
    """The bound memo dicts are size-capped (clear-on-overflow): long sweep
    chains must not grow them without limit, and a tiny cap may cost repeat
    work but never changes any result."""

    CAP = 8

    def test_batched_caches_honor_the_cap_with_unchanged_results(
        self, all_loads, monkeypatch
    ):
        import repro.engine.optimal_batch as ob
        import repro.kibam.bounds as kb

        load = all_loads["ILs alt"]
        baseline = find_optimal_schedule_batched([SCALED, SCALED], load)
        monkeypatch.setattr(ob, "_BOUND_CACHE_LIMIT", self.CAP)
        monkeypatch.setattr(kb, "_TAIL_CACHE_LIMIT", self.CAP)
        scheduler = BatchOptimalScheduler([SCALED, SCALED], load)
        capped = scheduler.search()
        assert capped.lifetime == pytest.approx(baseline.lifetime, abs=1e-9)
        assert capped.assignment == baseline.assignment
        assert capped.nodes_expanded == baseline.nodes_expanded
        evaluator = scheduler._ops.bounds
        assert 0 < len(evaluator._cache) <= self.CAP
        assert len(evaluator._job_tables) <= self.CAP
        for table in evaluator._job_tables.values():
            assert len(table.tail_cache) <= self.CAP

    def test_scalar_caches_honor_the_cap_with_unchanged_results(
        self, all_loads, monkeypatch
    ):
        import repro.core.optimal as co

        load = all_loads["ILs alt"]
        baseline = find_optimal_schedule([SCALED, SCALED], load)
        monkeypatch.setattr(co, "_BOUND_CACHE_LIMIT", self.CAP)
        scheduler = OptimalScheduler(make_battery_models([SCALED, SCALED]), load)
        capped = scheduler.search()
        assert capped.lifetime == pytest.approx(baseline.lifetime, abs=1e-9)
        assert capped.assignment == baseline.assignment
        assert capped.nodes_expanded == baseline.nodes_expanded
        assert 0 < len(scheduler._bound_cache) <= self.CAP
        assert len(scheduler._rl_cache) <= self.CAP
        assert len(scheduler._job_table_cache) <= self.CAP


#: Fleets and search options of the golden records below.
GOLDEN_FLEETS = {
    "2xB1": (B1, B1),
    "mixed": (B1, B1.scaled(0.8)),
    "chem": (SCALED, BatteryParameters(capacity=4.0, c=0.3, k_prime=0.2)),
    "fleet4": (B1.scaled(0.4),) * 2 + (B1.scaled(0.3),) * 2,
    "fleet8": (B1.scaled(0.2),) * 4 + (B1.scaled(0.15),) * 4,
    "scaled": (SCALED, SCALED),
}
GOLDEN_MODELS = {
    "AN": dict(model="analytical"),
    "D01": dict(model="discrete", time_step=0.01, charge_unit=0.01),
    "D05": dict(model="discrete", time_step=0.05, charge_unit=0.05),
    "D1": dict(model="discrete", time_step=0.1, charge_unit=0.1),
}
GOLDEN_OPTIONS = {
    "CERT": dict(max_nodes=600),
    "TOL": dict(max_nodes=1500, dominance_tolerance=0.01),
    "UNCAPPED": dict(),
}

#: ``(fleet, load, model, options, lifetime.hex(), assignment, nodes_expanded,
#: complete)``, the assignment as one digit per decision.
GOLDEN_RECORDS = [
    ("2xB1", "ILs 250", "AN", "CERT", "0x1.376deae927f9fp+5", "010101010101010101011", 600, False),
    ("2xB1", "IL` 250", "AN", "TOL", "0x1.2ff89b22c99efp+6", "000010001011101010110101011", 1500, False),
    ("2xB1", "ILs alt", "AN", "CERT", "0x1.0db57b40f96e2p+4", "0101110101", 54, True),
    ("2xB1", "ILs 250", "D01", "CERT", "0x1.375c28f5c28f6p+5", "010101010101010101011", 600, False),
    ("2xB1", "IL` 250", "D01", "TOL", "0x1.3000000000000p+6", "01010101010101010101010101", 1500, False),
    ("2xB1", "CL 250", "D01", "CERT", "0x1.8000000000000p+3", "0100011101010", 320, True),
    ("2xB1", "ILs r2", "D01", "TOL", "0x1.4f0a3d70a3d70p+4", "001100101010", 60, True),
    ("2xB1", "ILs alt", "D1", "CERT", "0x1.4666666666666p+4", "011000110111", 83, True),
    ("2xB1", "ILs r2", "D1", "TOL", "0x1.6cccccccccccdp+4", "000100101101", 126, True),
    ("2xB1", "ILs r1", "D1", "CERT", "0x1.d99999999999ap+3", "010110011", 42, True),
    ("mixed", "ILs 250", "AN", "CERT", "0x1.ee9539725f774p+4", "01010010101010100", 600, False),
    ("mixed", "CL alt", "D01", "CERT", "0x1.599999999999ap+2", "1000100", 23, True),
    ("mixed", "CL alt", "D1", "CERT", "0x1.8cccccccccccdp+2", "00101000", 28, True),
    ("chem", "ILs alt", "AN", "CERT", "0x1.43d7d8744625fp+4", "001011110111", 235, True),
    ("chem", "ILs r1", "D05", "CERT", "0x1.0cccccccccccdp+4", "1011101011", 135, True),
    ("chem", "CL alt", "D1", "CERT", "0x1.f333333333333p+2", "01101010", 82, True),
    ("fleet4", "ILs r1", "AN", "CERT", "0x1.17d0baadea6a2p+3", "23011231", 117, True),
    ("fleet4", "ILs r1", "AN", "TOL", "0x1.17d0baadea6a2p+3", "23011231", 115, True),
    ("fleet4", "ILs alt", "D1", "CERT", "0x1.1333333333333p+3", "20130110", 57, True),
    ("fleet4", "ILs r1", "D05", "TOL", "0x1.2000000000001p+3", "23201310", 125, True),
    ("fleet8", "ILs r1", "AN", "CERT", "0x1.0dc662dc2bafcp+3", "405162371031", 499, True),
    ("fleet8", "ILs alt", "D05", "CERT", "0x1.c000000000000p+2", "40152617323", 181, True),
    ("scaled", "IL` 250", "AN", "UNCAPPED", "0x1.84cd40b5de5e0p+5", "000101010110101011", 890, True),
    ("scaled", "IL` 250", "D05", "UNCAPPED", "0x1.7000000000000p+5", "0101010101010101", 533, True),
]


class TestGoldenRecords:
    """Bit-for-bit, node-for-node records of the batched search.

    The parity tests above allow 1e-9 minutes and loose node contracts;
    these pin the exact lifetime bits, the winning assignment, the node
    count and the completeness flag of capped and certified searches on
    both models (including the coarse 0.1 grid), a mixed-capacity pair, a
    mixed-chemistry pair (total-charge bound) and 4- and 8-battery fleets.
    A change to the search that alters any pruning decision fails here.
    Recorded with NumPy 2 float64 on x86-64.  Discrete lifetimes are tick
    multiples and are compared bit for bit; analytical lifetimes come from
    ``np.exp``/``np.log`` closed forms, whose last bit may differ between
    NumPy builds and CPUs, so they are compared to within a few ULP.
    """

    @pytest.mark.parametrize(
        "fleet, load_name, model, options, lifetime, assignment, nodes, complete",
        GOLDEN_RECORDS,
        ids=["|".join(record[:4]) for record in GOLDEN_RECORDS],
    )
    def test_search_matches_its_golden_record(
        self, all_loads, fleet, load_name, model, options,
        lifetime, assignment, nodes, complete,
    ):
        result = find_optimal_schedule_batched(
            list(GOLDEN_FLEETS[fleet]),
            all_loads[load_name],
            **GOLDEN_MODELS[model],
            **GOLDEN_OPTIONS[options],
        )
        if GOLDEN_MODELS[model]["model"] == "discrete":
            assert result.lifetime.hex() == lifetime
        else:
            assert math.isclose(
                result.lifetime, float.fromhex(lifetime), rel_tol=1e-14
            )
        assert "".join(map(str, result.assignment)) == assignment
        assert result.nodes_expanded == nodes
        assert result.complete is complete
