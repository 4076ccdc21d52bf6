"""Spans and counters recorded around ``repro``'s layer boundaries.

Nothing in ``src/`` is changed: :class:`Tracer` replaces callables on their
classes, or in the namespace of the module that makes the call, with timing
wrappers, and :meth:`Patches.restore` puts the originals back.  All are
public except the batched search's bound evaluator (``_BoundEvaluator``),
whose three bound methods are the bound layer.
Modules import names directly, so a function is wrapped where it is looked
up: ``build_pooled_job_table`` in ``repro.engine.optimal_batch``, which
imported it from ``repro.kibam.bounds``; ``optimal_schedules_chunk`` in
``repro.engine.parallel``, because ``optimal_schedules_batch`` imports it
inside the function body at every call.

Spans are kept in memory as flat arrays (layer id, parent span id, start,
end).  A layer's *self* time is its spans' durations minus the time their
child spans cover, so the self times of all layers add up to the traced
runs' wall time; rates divide a work count by the layer's *inclusive* time,
the time a caller waits for it.

:class:`Capture` is not a timer.  It records which result each
``optimal_schedules_batch`` call returned and which of them came from the
scalar fallback, which the correctness gate and the determinism digest
need; it costs one list append per optimal search and is installed in every
run, traced or not.
"""

from __future__ import annotations

import array
import collections
import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``."""
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        wrapped = functools.wraps(raw.__func__ if is_static else raw)(
            make(raw.__func__ if is_static else raw)
        )
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class Capture(Patches):
    """Optimal-column results per ``(load, battery params)``, and fallback wins.

    ``results`` maps ``(id(load), params)`` to the result the sweep stored
    for that scenario; the loads stay referenced by the sweep result, so the
    ids are stable while it lives.  ``wins`` counts scenarios whose returned
    result is the object the scalar fallback produced.
    """

    def __init__(self) -> None:
        super().__init__()
        self.results: Dict[tuple, object] = {}
        self.wins = 0
        self._fallback: List[object] = []

    def install(self) -> "Capture":
        import repro.engine.optimal_batch as optimal_batch
        import repro.engine.parallel as parallel

        def batch(original):
            def wrapper(loads, params, *args, **kwargs):
                results = original(loads, params, *args, **kwargs)
                for load, result in zip(loads, results):
                    self.results[(id(load), tuple(params))] = result
                    if any(result is scalar for scalar in self._fallback):
                        self.wins += 1
                self._fallback.clear()
                return results

            return wrapper

        def chunk(original):
            def wrapper(*args, **kwargs):
                results = original(*args, **kwargs)
                self._fallback.extend(results)
                return results

            return wrapper

        self.replace(optimal_batch, "optimal_schedules_batch", batch)
        self.replace(parallel, "optimal_schedules_chunk", chunk)
        return self


#: Counter callback: ``(counts, args, kwargs, result)``.
Counter = Callable[[Dict[str, float], tuple, dict, object], None]


class Tracer(Patches):
    """In-memory spans with parent ids, plus per-layer work counters."""

    def __init__(self) -> None:
        super().__init__()
        self.layer_names: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = collections.defaultdict(float)

    def _layer_id(self, name: str) -> int:
        layer = self._layer_ids.get(name)
        if layer is None:
            layer = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return layer

    def timed(
        self,
        owner,
        attr: str,
        layer,
        count: Optional[Counter] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``layer`` is the layer name, or a function of the call's positional
        arguments that returns it.
        """
        layer_of = layer if callable(layer) else None
        fixed = None if callable(layer) else self._layer_id(layer)
        stack = self._stack
        spans = (self.span_layer, self.span_parent, self.span_start, self.span_end)
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                layer_id = fixed if layer_of is None else self._layer_id(layer_of(args))
                span = len(spans[2])
                spans[0].append(layer_id)
                spans[1].append(stack[-1] if stack else -1)
                spans[3].append(0.0)
                stack.append(span)
                spans[2].append(perf_counter())
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans[3][span] = perf_counter()
                    stack.pop()
                if count is not None:
                    count(counts, args, kwargs, result)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def layer_times(self) -> Dict[str, Tuple[float, float]]:
        """``layer -> (inclusive seconds, self seconds)``."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += durations[i]
        out = {name: [0.0, 0.0] for name in self.layer_names}
        for i in range(n):
            entry = out[self.layer_names[self.span_layer[i]]]
            entry[0] += durations[i]
            entry[1] += durations[i] - covered[i]
        return {name: (inclusive, own) for name, (inclusive, own) in out.items()}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    import repro.core.optimal as core_optimal
    import repro.engine.optimal_batch as optimal_batch
    import repro.engine.parallel as parallel
    from repro.engine.batch import BatchSimulator
    from repro.engine.scenarios import ScenarioSet
    from repro.sweep.runner import SweepRunner
    from repro.sweep.spec import LoadAxis
    from repro.sweep.store import ResultStore

    def add(name, amount=lambda args, result: 1) -> Counter:
        """Add ``amount(args, result)`` to ``name`` (or ``name(args)``)."""

        def counter(counts, args, kwargs, result):
            counts[name(args) if callable(name) else name] += amount(args, result)

        return counter

    def admits(prefix: str) -> Counter:
        def counter(counts, args, kwargs, result):
            counts[prefix + ".admits"] += 1
            counts[prefix + ".admitted"] += bool(result)

        return counter

    rerun_state: Dict[str, object] = {"pending": None}

    def searches(counts, args, kwargs, result):
        # A seeded search that hits its cap is repeated without the seed
        # on the same load and batteries (``optimal_schedules_batch``).
        counts["search.batched.calls"] += 1
        counts["search.batched.nodes"] += result.nodes_expanded
        counts["search.batched.capped"] += not result.complete
        key = (id(args[1]), tuple(args[0]))
        seeded = kwargs.get("seed_assignment") is not None
        if not seeded and rerun_state["pending"] == key:
            counts["search.batched.reruns"] += 1
        rerun_state["pending"] = key if seeded and not result.complete else None

    def fallback(counts, args, kwargs, result):
        counts["fallback.calls"] += 1
        counts["fallback.nodes"] += sum(r.nodes_expanded for r in result)

    def length(args, result) -> int:
        return len(result)

    bounds = optimal_batch._BoundEvaluator
    vector_archive = optimal_batch.VectorDominanceArchive
    scalar_archive = core_optimal.DominanceArchive
    timed = tracer.timed
    timed(SweepRunner, "run", "runner")
    timed(LoadAxis, "resolve", "workloads", add("workloads.loads", length))
    timed(
        ScenarioSet, "from_loads", "scenarios",
        add("scenarios.epochs", lambda args, result: int(result.n_epochs.sum())),
    )
    # ``discretized`` converts epochs ``from_loads`` already counted.
    timed(ScenarioSet, "discretized", "scenarios")
    timed(
        BatchSimulator, "run_many", lambda args: f"batch.{args[0].backend}",
        add(
            lambda args: f"batch.{args[0].backend}.cells",
            lambda args, result: sum(len(r.lifetimes) for r in result.values()),
        ),
    )
    timed(optimal_batch, "find_optimal_schedule_batched", "search.batched", searches)
    timed(vector_archive, "admit", "archive.vector", admits("archive.vector"))
    timed(bounds, "pooled_bounds", "bounds.pooled", add("bounds.pooled.rows", length))
    timed(
        bounds, "recovery_limited_bounds", "bounds.recovery",
        add("bounds.recovery.rows", length),
    )
    timed(
        bounds, "total_charge_bounds", "bounds.total",
        add("bounds.total.rows", length),
    )
    timed(
        optimal_batch, "build_pooled_job_table", "bounds.job_tables",
        add("bounds.job_tables.count"),
    )
    timed(parallel, "optimal_schedules_chunk", "fallback", fallback)
    timed(scalar_archive, "admit", "archive.scalar", admits("archive.scalar"))
    timed(ResultStore, "save_chunk", "store.write", add("store.writes"))
    timed(ResultStore, "load_chunk", "store.read", add("store.reads"))
