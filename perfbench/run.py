"""The repository benchmark: one sweep workload, timed end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-optimal --seed 1 --seconds 18 --trace 0

A run, all in this one process except the set-up probes:

1. Set-up probes: ``SETUP_PROBES`` fresh interpreters each import ``repro``,
   build the workload's specs and open a store under a speed probe
   (``speed.py``), and report when their runner is ready; ``setup_s`` is
   the median.
2. Cold runs: the workload's specs go through ``SweepRunner.run`` into an
   empty store, ``--seconds // Workload.nominal_cold_s`` times and at
   least ``suite.MIN_COLD_RUNS`` times, each sampled by a speed probe
   (``speed.py``).  The count does not depend on how fast the machine is at
   the moment, so the median always mixes the same runs: the first cold run
   of a process is often the slowest.
3. Warm runs: immediate re-runs served from the last cold run's store, for
   the rest of ``--seconds`` (``WARM_MIN`` to ``WARM_MAX`` of them);
   ``store.warm_s`` is the median.
4. With ``--trace 1``: one more cold run and one warm run with spans
   installed at every layer boundary (``tracing.py``), then the fixed
   search matrix.  Only these print per-layer metrics.
5. The correctness gate (``gate.py``) on the first cold run, and the
   determinism check: every run of this process must give the same
   lifetimes, node counts, completeness flags and fallback wins.

End-to-end metrics, all from untraced runs:

* ``setup_s``, ``cold_s``: the medians above, in seconds at the speed
  probe's fixed reference speed (``speed.scaled``): the wall time less the
  probes' own time, times the reference probe time over the mean probe
  time of that interval.  On a shared host this removes most of the
  machine's drift; the median cold-run wall time is the per-layer
  ``cold_wall_s``.  A set-up probe's interval starts at the spawn, before
  its speed probe can, so its first ~0.1 s (interpreter start, NumPy
  import) is scaled by the speed measured after it.
* ``peak_rss_mb``: peak resident memory of this process after its first
  cold run, before a second one can allocate next to the first's results.
* ``certified_frac``: share of optimal cells whose search finished within
  its node cap (1.0 on a workload without an optimal column).
* ``lifetime_vs_ideal``: mean over scenarios of the longest lifetime any
  column found (the optimal one where there is one), divided by the ideal
  sum-capacity lifetime.  Deterministic; it drops when a change finds
  worse schedules.

``failed_frac`` and ``optimal_lifetime_mean_min`` are printed in the report
but are not metrics of ``BENCHMARK.json``: the first is 0 on a good run and
travels as ``failed`` / ``attempted``, the second does not exist on
``mc-heuristic``.  The warm re-run time is a per-layer metric,
``store.warm_s``, without a bound: a warm re-run of a one-chunk sweep takes
1-2 ms, and on a shared two-core machine its median moved by 25-55% from
one run to the next.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (scenario x policy cells and those that failed
the gate) and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The
lines above it are a human-readable report and the recorded environment.

Every cell runs in-process; there are no worker processes, and BLAS and
OpenMP are pinned to one thread before NumPy is imported.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse
import hashlib
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"

SETUP_PROBES = 5
WARM_MIN = 30
WARM_MAX = 300


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def setup_probe(args) -> None:
    """Child side: get a runner ready for the workload, print the clock and probes."""
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        import repro  # noqa: F401  (the import is part of what is timed)
        import suite
        from repro.sweep import ResultStore, SweepRunner

        workload = suite.build(args.workload, args.seed)
        runner = SweepRunner(ResultStore(args.setup_probe))
        for spec in workload.specs:
            runner.store.ensure_entry(spec)
        ready = time.monotonic()
    print(json.dumps({"ready": ready, "probes": probe.samples}))


def measure_setup(args, workdir: pathlib.Path) -> List[float]:
    """Seconds at the reference speed from spawning a fresh interpreter to a ready runner."""
    from speed import scaled

    times = []
    for index in range(SETUP_PROBES):
        store = workdir / f"setup{index}"
        started = time.monotonic()
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--setup-probe", str(store),
            ],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        child = json.loads(done.stdout.splitlines()[-1])
        times.append(scaled(child["ready"] - started, child["probes"]))
        shutil.rmtree(store, ignore_errors=True)
    return times


# --------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------- #
def sweep(workload, store_dir: pathlib.Path):
    """One run of every spec of the workload; returns (seconds, results, capture)."""
    from repro.sweep import ResultStore, SweepRunner
    from tracing import Capture

    runner = SweepRunner(ResultStore(store_dir))
    capture = Capture().install()
    try:
        started = time.perf_counter()
        results = [runner.run(spec) for spec in workload.specs]
        elapsed = time.perf_counter() - started
    finally:
        capture.restore()
    return elapsed, results, capture


def probed_sweep(workload, store_dir: pathlib.Path):
    """:func:`sweep` under a speed probe; returns (wall, scaled, results, capture)."""
    from speed import SpeedProbe, scaled

    with SpeedProbe() as probe:
        elapsed, results, capture = sweep(workload, store_dir)
    return elapsed, scaled(elapsed, probe.samples), results, capture


def digest(results) -> str:
    """Hash of every deterministic output of a sweep."""
    import numpy as np

    h = hashlib.sha256()
    for result in results:
        h.update(result.spec.spec_hash().encode())
        mappings = (
            result.lifetimes, result.decisions, result.residual_charge,
            result.complete, result.nodes, result.seeded,
        )
        for mapping in mappings:
            for key in sorted(mapping):
                h.update(key.encode())
                h.update(np.ascontiguousarray(mapping[key]).tobytes())
    return h.hexdigest()[:16]


def store_bytes(store_dir: pathlib.Path) -> int:
    return sum(path.stat().st_size for path in store_dir.rglob("*") if path.is_file())


def quality(results) -> Dict[str, float]:
    """Certified share, optimal mean and best-lifetime-to-ideal ratio."""
    import numpy as np
    from gate import ideal_lifetime
    from repro.sweep.spec import OPTIMAL_POLICY

    complete = [r.complete[OPTIMAL_POLICY] for r in results if r.spec.has_optimal]
    optimal = [r.lifetimes[OPTIMAL_POLICY] for r in results if r.spec.has_optimal]
    ratios = []
    for result in results:
        best = np.max([result.lifetimes[p] for p in result.spec.policies], axis=0)
        for point, lifetime in zip(result.points, best):
            ideal = ideal_lifetime(point.battery_params, point.load, "analytical")
            ratios.append(lifetime / ideal)
    out = {
        "certified_frac": float(np.concatenate(complete).mean()) if complete else 1.0,
        "lifetime_vs_ideal": float(np.mean(ratios)),
    }
    if optimal:
        out["optimal_lifetime_mean_min"] = float(np.concatenate(optimal).mean())
    return out


def layer_metrics(tracer, capture, traced_cold, untraced_cold, written: int):
    """Per-layer metrics from one traced cold run plus one traced warm run.

    ``*.busy_s``, ``store.write_s`` and ``store.read_s`` are self times, so
    they add up to the traced runs with ``runner.self_s``; ``*_per_s`` rates
    divide a work count by the layer's inclusive time.  ``bounds.*.rows``
    count bound rows evaluated; ``search.batched.*`` cover every batched
    search call, seeded re-runs included.  ``store.bytes_written`` is the
    store's size after the traced cold run.  ``trace.overhead_frac`` is the
    traced cold run against the untraced median, and ``trace.accounted_frac``
    the share of the traced runs spent inside a traced layer.  Both
    ``untraced_cold`` (``cold_wall_s``) and the traced run are wall times.
    """
    times = tracer.layer_times()
    counts = tracer.counts

    def busy(layer: str) -> float:
        return times.get(layer, (0.0, 0.0))[1]

    def rate(count: float, layer: str) -> float:
        inclusive = times.get(layer, (0.0, 0.0))[0]
        return count / inclusive if inclusive > 0.0 else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, Tuple[float, str]] = {}
    m["workloads.loads"] = (counts["workloads.loads"], "count")
    m["workloads.busy_s"] = (busy("workloads"), "s")
    m["workloads.loads_per_s"] = (rate(counts["workloads.loads"], "workloads"), "1/s")
    m["scenarios.epochs"] = (counts["scenarios.epochs"], "count")
    m["scenarios.busy_s"] = (busy("scenarios"), "s")
    m["scenarios.epochs_per_s"] = (rate(counts["scenarios.epochs"], "scenarios"), "1/s")
    for model in ("analytical", "discrete"):
        layer = f"batch.{model}"
        m[f"{layer}.cells"] = (counts[f"{layer}.cells"], "count")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
        m[f"{layer}.cells_per_s"] = (rate(counts[f"{layer}.cells"], layer), "1/s")
    for what in ("calls", "nodes", "capped", "reruns"):
        m[f"search.batched.{what}"] = (counts[f"search.batched.{what}"], "count")
    m["search.batched.nodes_per_s"] = (
        rate(counts["search.batched.nodes"], "search.batched"), "1/s"
    )
    m["search.batched.busy_s"] = (busy("search.batched"), "s")
    for layer in ("archive.vector", "archive.scalar"):
        admits = counts[f"{layer}.admits"]
        m[f"{layer}.admits"] = (admits, "count")
        m[f"{layer}.admits_per_s"] = (rate(admits, layer), "1/s")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    m["archive.vector.admit_ratio"] = (
        ratio(counts["archive.vector.admitted"], counts["archive.vector.admits"]),
        "frac",
    )
    for layer in ("bounds.pooled", "bounds.recovery", "bounds.total"):
        m[f"{layer}.rows"] = (counts[f"{layer}.rows"], "count")
        m[f"{layer}.rows_per_s"] = (rate(counts[f"{layer}.rows"], layer), "1/s")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    m["bounds.job_tables.count"] = (counts["bounds.job_tables.count"], "count")
    m["bounds.job_tables.busy_s"] = (busy("bounds.job_tables"), "s")
    m["fallback.calls"] = (counts["fallback.calls"], "count")
    m["fallback.busy_s"] = (busy("fallback"), "s")
    m["fallback.nodes"] = (counts["fallback.nodes"], "count")
    m["fallback.wins"] = (capture.wins, "count")
    m["fallback.win_ratio"] = (ratio(capture.wins, counts["fallback.calls"]), "frac")
    m["store.writes"] = (counts["store.writes"], "count")
    m["store.write_s"] = (busy("store.write"), "s")
    m["store.bytes_written"] = (written, "bytes")
    m["store.reads"] = (counts["store.reads"], "count")
    m["store.read_s"] = (busy("store.read"), "s")
    runner_inclusive, runner_self = times.get("runner", (0.0, 0.0))
    m["runner.self_s"] = (runner_self, "s")
    m["cold_wall_s"] = (untraced_cold, "s")
    m["trace.cold_s"] = (traced_cold, "s")
    m["trace.overhead_frac"] = (traced_cold / untraced_cold - 1.0, "frac")
    m["trace.accounted_frac"] = (
        ratio(runner_inclusive - runner_self, runner_inclusive), "frac"
    )
    return m


def search_matrix() -> Dict[str, Tuple[float, str]]:
    """Node rate of the batched search at one node budget, per width and load."""
    import suite
    from repro.engine.optimal_batch import find_optimal_schedule_batched

    out = {}
    for prefix, params, load in suite.matrix_cases():
        started = time.perf_counter()
        result = find_optimal_schedule_batched(
            params, load,
            max_nodes=suite.MATRIX_MAX_NODES,
            dominance_tolerance=suite.MATRIX_TOLERANCE,
        )
        elapsed = time.perf_counter() - started
        out[f"{prefix}.nodes_per_s"] = (result.nodes_expanded / elapsed, "1/s")
    return out


def traced_run(workload, workdir: pathlib.Path, untraced_cold: float):
    """One traced cold run and one traced warm run; returns (digest, wins, metrics)."""
    from repro.sweep import ResultStore, SweepRunner
    from tracing import Capture, Tracer, install_layers

    tracer, capture = Tracer(), Capture()
    store_dir = workdir / "traced"
    runner = SweepRunner(ResultStore(store_dir))
    try:
        capture.install()
        install_layers(tracer)
        started = time.perf_counter()
        results = [runner.run(spec) for spec in workload.specs]
        cold = time.perf_counter() - started
        written = store_bytes(store_dir)
        for spec in workload.specs:
            runner.run(spec)
    finally:
        tracer.restore()
        capture.restore()
    metrics = layer_metrics(tracer, capture, cold, untraced_cold, written)
    return digest(results), capture.wins, metrics


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def declared_metrics() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as handle:
        return json.load(handle)


def select(metrics: Dict[str, Tuple[float, str]], declared: List[dict]) -> dict:
    """The declared metrics in declared order; raises if one is missing or off-unit."""
    out = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(
                f"{entry['name']} is in {unit}, declared in {entry['unit']}"
            )
        out[entry["name"]] = {"value": float(value), "unit": unit}
    return out


def run(args) -> int:
    declared = declared_metrics()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workdir: pathlib.Path, declared) -> int:
    import numpy as np
    import repro  # noqa: F401  (imported before any run is timed)
    import gate
    import suite

    if args.workload not in suite.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {sorted(suite.WORKLOADS)}"
        )
    setup_times = measure_setup(args, workdir)
    workload = suite.build(args.workload, args.seed)

    started = time.perf_counter()
    colds: List[float] = []
    walls: List[float] = []
    digests: List[Tuple[str, int]] = []
    first = None
    n_cold = max(suite.MIN_COLD_RUNS, int(args.seconds // workload.nominal_cold_s))
    for index in range(n_cold):
        store_dir = workdir / f"cold{index}"
        elapsed, scaled, results, capture = probed_sweep(workload, store_dir)
        walls.append(elapsed)
        colds.append(scaled)
        digests.append((digest(results), capture.wins))
        if first is None:
            first = (results, capture)
            # Read before a second run allocates next to the first's results.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            shutil.rmtree(workdir / f"cold{index - 1}", ignore_errors=True)

    # Warm re-runs from the last cold run's store, for the rest of the budget.
    warms: List[float] = []
    while len(warms) < WARM_MAX and (
        len(warms) < WARM_MIN or time.perf_counter() - started < args.seconds
    ):
        elapsed, results, _ = sweep(workload, store_dir)
        warms.append(elapsed)
        if len(warms) == 1:
            warm_digest = digest(results)

    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cold_s": (statistics.median(colds), "s"),
        "store.warm_s": (statistics.median(warms), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if args.trace:
        traced_digest, traced_wins, layers = traced_run(
            workload, workdir, statistics.median(walls)
        )
        digests.append((traced_digest, traced_wins))
        metrics.update(layers)
        metrics.update(search_matrix())

    results, capture = first
    attempted, failed, notes = gate.check(
        args.workload, results, capture.results, args.seed
    )
    scores = quality(results)
    metrics["certified_frac"] = (scores["certified_frac"], "frac")
    metrics["lifetime_vs_ideal"] = (scores["lifetime_vs_ideal"], "frac")
    deterministic = len(set(digests)) == 1 and warm_digest == digests[0][0]
    correct = not failed and deterministic

    # Human-readable report and recorded environment.
    print(f"workload {workload.name}: {len(colds)} cold, {len(warms)} warm runs, "
          f"{SETUP_PROBES} set-up probes, trace={args.trace}")
    why = next(w["why"] for w in declared["workloads"] if w["name"] == workload.name)
    print(f"  why, and layer -> end-to-end metric: {why}")
    if "optimal_lifetime_mean_min" in scores:
        mean = scores["optimal_lifetime_mean_min"]
        print(f"  optimal_lifetime_mean_min {mean:.4f} min")
    print(
        f"  failed_frac {len(failed) / attempted:.6f} "
        f"({len(failed)} of {attempted} cells)"
    )
    for note in notes[:20]:
        print(f"  gate: {note}")
    if not deterministic:
        print(f"  determinism: runs disagree: {digests} (warm {warm_digest})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    env = {
        "seed": args.seed,
        "workload": workload.name,
        "spec_hashes": [spec.spec_hash() for spec in workload.specs],
        "node_cap": workload.node_cap,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "digest": digests[0][0],
        "fallback_wins": digests[0][1],
        "cold_s": colds,
        "cold_wall_s": walls,
        "setup_s": setup_times,
    }
    print("env " + json.dumps(env))

    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": len(failed),
        "metrics": select(metrics, declared[kind]),
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        setup_probe(args)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
