"""Tests for the Monte-Carlo random-load analysis."""

import pytest

from repro.analysis.montecarlo import (
    LifetimeDistribution,
    lifetime_distribution,
    render_distributions,
    run_montecarlo,
)
from repro.engine import BatchSimulator, ScenarioSet, make_vector_policy
from repro.kibam.parameters import BatteryParameters
from repro.sweep import ResultStore, SweepRunner
from repro.sweep.spec import DEFAULT_CHUNK_SIZE
from repro.workloads.generator import RandomLoadConfig

SMALL = BatteryParameters(capacity=1.0, c=0.166, k_prime=0.122, name="small")

#: A compact configuration so every sampled load exhausts the small batteries
#: quickly and the whole sweep stays fast.
FAST_CONFIG = RandomLoadConfig(
    levels=(0.25, 0.5),
    job_duration_range=(0.5, 1.0),
    idle_duration_range=(0.0, 1.0),
    total_duration=40.0,
    duration_step=0.25,
)


class TestLifetimeDistribution:
    def test_summary_statistics(self):
        dist = LifetimeDistribution.from_samples("demo", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert dist.samples == 5
        assert dist.mean == pytest.approx(3.0)
        assert dist.minimum == 1.0 and dist.maximum == 5.0
        assert dist.median == pytest.approx(3.0)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            LifetimeDistribution.from_samples("demo", [])


class TestMonteCarloSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return lifetime_distribution(
            [SMALL, SMALL], n_samples=8, config=FAST_CONFIG, seed=11
        )

    def test_every_policy_gets_one_lifetime_per_sample(self, result):
        for lifetimes in result.per_sample.values():
            assert len(lifetimes) == result.n_samples

    def test_policy_ordering_holds_in_distribution(self, result):
        sequential = result.distributions["sequential"]
        best = result.distributions["best-of-two"]
        assert sequential.mean <= best.mean + 1e-9

    def test_gain_metric(self, result):
        gain = result.mean_gain_percent("best-of-two", "sequential")
        assert gain >= -1e-9

    def test_reproducibility(self):
        first = lifetime_distribution([SMALL, SMALL], n_samples=3, config=FAST_CONFIG, seed=5)
        second = lifetime_distribution([SMALL, SMALL], n_samples=3, config=FAST_CONFIG, seed=5)
        assert first.per_sample == second.per_sample

    def test_optional_optimal_column(self):
        result = lifetime_distribution(
            [SMALL, SMALL],
            n_samples=2,
            config=FAST_CONFIG,
            seed=3,
            include_optimal=True,
            optimal_max_nodes=500,
        )
        assert "optimal" in result.distributions
        for optimal, best in zip(result.per_sample["optimal"], result.per_sample["best-of-two"]):
            assert optimal >= best - 1e-6

    def test_rendering(self, result):
        text = render_distributions(result)
        assert "best-of-two" in text and "median" in text

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            lifetime_distribution([SMALL], n_samples=0)


POLICIES = ("sequential", "round-robin", "best-of-two")


class TestRunnerPath:
    """``run_montecarlo`` runs through the sweep runner: in memory as one
    chunk (a single vectorized batch), with a store in
    ``DEFAULT_CHUNK_SIZE`` chunks, which are the store's resume unit."""

    @pytest.mark.parametrize("model", ["analytical", "discrete"])
    def test_in_memory_run_is_one_batch(self, model, tmp_path, monkeypatch):
        n_samples = 300
        assert n_samples > DEFAULT_CHUNK_SIZE
        chunk_sizes = []
        run_chunk = SweepRunner._run_chunk

        def counting_run_chunk(runner, spec, points):
            chunk_sizes.append(len(points))
            return run_chunk(runner, spec, points)

        monkeypatch.setattr(SweepRunner, "_run_chunk", counting_run_chunk)
        kwargs = dict(
            n_samples=n_samples, policies=POLICIES, config=FAST_CONFIG,
            seed=17, model=model,
        )
        direct = BatchSimulator([SMALL, SMALL], model=model).run_many(
            ScenarioSet.random(n_samples, FAST_CONFIG, seed=17), POLICIES
        )
        result = run_montecarlo([SMALL, SMALL], **kwargs)
        assert chunk_sizes == [n_samples]
        assert result.engine == "batch"
        for policy in POLICIES:
            assert result.per_sample[policy] == direct[policy].lifetimes.tolist()

        cache = tmp_path / "store"
        stored = run_montecarlo([SMALL, SMALL], cache_dir=str(cache), **kwargs)
        assert chunk_sizes == [
            n_samples, DEFAULT_CHUNK_SIZE, n_samples - DEFAULT_CHUNK_SIZE
        ]
        [entry] = ResultStore(cache).entries()
        assert entry.complete and entry.n_chunks == 2
        for policy in POLICIES:
            assert stored.per_sample[policy] == pytest.approx(
                result.per_sample[policy], abs=1e-9
            )

    @pytest.mark.parametrize(
        "kwargs, spec_hash",
        [
            (dict(n_samples=25, seed=13), "928400bb3b3dee30"),
            (
                dict(n_samples=3, seed=5, policies=("sequential", "optimal")),
                "ffe231407b914dca",
            ),
            (dict(n_samples=300, seed=13, model="discrete"), "14015c2474738888"),
        ],
    )
    def test_existing_store_entries_stay_addressable(self, kwargs, spec_hash, tmp_path):
        """Store entries written by earlier releases must keep their hash."""
        cache = tmp_path / "store"
        run_montecarlo(
            [SMALL, SMALL], config=FAST_CONFIG, engine="batch",
            cache_dir=str(cache), **kwargs,
        )
        assert [entry.spec_hash for entry in ResultStore(cache).entries()] == [
            spec_hash
        ]

    def test_linear_model_runs_through_the_runner(self, tmp_path):
        kwargs = dict(
            n_samples=3, policies=("sequential", "best-of-two", "optimal"),
            config=FAST_CONFIG, seed=4, model="linear", optimal_max_nodes=500,
        )
        runner = run_montecarlo([SMALL, SMALL], engine="auto", **kwargs)
        scalar = run_montecarlo([SMALL, SMALL], engine="scalar", **kwargs)
        assert runner.engine == scalar.engine == "scalar"
        assert runner.per_sample == scalar.per_sample

        cache = tmp_path / "store"
        run_montecarlo([SMALL, SMALL], engine="auto", cache_dir=str(cache), **kwargs)
        [entry] = ResultStore(cache).entries()
        assert entry.complete

    @pytest.mark.parametrize("knob", ["n_workers", "time_step", "charge_unit"])
    def test_removed_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError, match=knob):
            run_montecarlo([SMALL, SMALL], n_samples=2, config=FAST_CONFIG, **{knob: 2})

    def test_vector_policy_objects_are_rejected(self):
        with pytest.raises(TypeError, match="vector policy"):
            run_montecarlo(
                [SMALL, SMALL], n_samples=2, config=FAST_CONFIG,
                policies=(make_vector_policy("sequential"),),
            )
