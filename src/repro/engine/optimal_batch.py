"""Batched branch-and-bound search for optimal schedules.

:class:`BatchOptimalScheduler` is the array-native counterpart of
:class:`repro.core.optimal.OptimalScheduler`.  The scalar search walks one
decision node at a time, advancing each battery through Python calls; this
search keeps a *frontier* of unexpanded decision nodes ordered by their
admissible lifetime bound (best-first) and processes them in batches.

The search is one driver over two node kernels:

* the driver (:class:`_SearchOps`) implements the search once -- branching
  a popped batch into children in the scalar search's branch order,
  advancing them through idle epochs to their next decision point,
  bounding and parking them in the frontier pools, and the greedy
  lower-bound probes;
* a node kernel holds what differs between the battery models: the state
  layout and the between-decision battery advance (serve the chosen
  battery up to its empty crossing, idle the others).
  :class:`_AnalyticalNodes` keeps ``(B, 2)`` float wells and steps them
  with the closed-form ``(n_nodes, n_batteries, 2)`` kernels of
  :mod:`repro.engine.kernels`, in minutes; :class:`_DiscreteNodes` keeps
  ``(6, B)`` int64 dKiBaM counters and advances them with the exact
  event-jumping :func:`repro.engine.kernels.discrete_segment_array` (the
  lane-parallel form of :meth:`repro.kibam.discrete.DiscreteKibam.run_segment`,
  shared with the batch simulator), in ticks.

What the driver adds on top of the kernels:

* the admissible remaining-lifetime upper bound (the perfect-pooling bound
  of the scalar search refined by the recovery-limited bound of
  :mod:`repro.kibam.bounds` on the analytical model, or the total-charge
  fallback for batteries that do not share ``c``/``k'``) is evaluated for a
  whole frontier batch in one vectorized epoch walk, memoized on the same
  quantized keys as the scalar search (:class:`_BoundEvaluator`);
* the search also carries a cheap per-node *lower* bound -- the lifetime
  of the node's state under the fixed greedy completion, rolled out on the
  same kernels -- probed periodically on popped batches; an improving
  lower bound raises the incumbent (it is an achievable schedule) and
  retroactively evicts every live frontier slot whose upper bound it
  covers (free-listed immediately, heap entries invalidated lazily via
  slot stamps);
* dominance and symmetry pruning go through
  :class:`VectorDominanceArchive`, the array-backed port of the scalar
  search's :class:`repro.core.optimal.DominanceArchive`.  Each round's
  children are admitted per decision point in one batch: one broadcast
  comparison per chunk of children, then the sequential decisions
  replayed in child order, so a test pins the two archives to identical
  admit/reject decisions and the frontier sees the children in the same
  order as one-at-a-time admission.

The frontier itself is stored structure-of-arrays (:class:`FrontierArrays`):
preallocated, grow-by-doubling state/bookkeeping column pools with a
free-list of recycled rows, plus an append-only :class:`DecisionTrace`
encoding each node's assignment as ``(parent, choice)`` integers.  The heap
orders integer *slots*, expansion gathers and scatters index slices of the
column arrays, and no per-node Python state objects or per-child
assignment tuples are built.

Searches can also be *seeded* with a neighboring problem's winning
assignment (``seed_assignment``): the seed is replayed on the search's own
batteries, so its lifetime is genuinely achievable and only raises the
incumbent cutoff -- :class:`repro.sweep.runner.SweepRunner` chains grid
points of monotone battery sweeps this way (spec-level dominance pruning:
less work, identical results).

Parity contract with the scalar search: identical ``lifetime`` (to 1e-9
minutes for the analytical model; *exactly*, tick for tick, for the
discrete model, whose search state is all-integer) and identical
``complete`` flags.  The winning ``assignment`` may differ when several
schedules are co-optimal -- best-first and depth-first tie-break
differently -- and ``nodes_expanded`` may differ by a small factor, because
a batch of nodes is popped against one incumbent while the scalar search
re-checks the (possibly improved) incumbent at every node.

The search result is replayed through the scalar simulator (exactly like
the scalar search replays it), so the reported lifetime, schedule and
final battery states are golden-reference values either way.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.battery import make_battery_models
from repro.core.optimal import (
    _BOUND_CACHE_LIMIT,
    OptimalScheduleResult,
    OptimalScheduler,
    discrete_bound_slack_for,
    group_permutations,
    parameter_symmetry_groups,
)
from repro.core.policies import FixedAssignmentPolicy, make_policy
from repro.core.simulator import MultiBatterySimulator
from repro.engine.batch import resolve_model
from repro.engine.kernels import (
    ACC_ROW,
    DELTA,
    GAMMA,
    M_ROW,
    N_ROW,
    RCT_ROW,
    REC_ROW,
    VECTOR_MODELS,
    KernelParams,
    serve_and_rest_array,
    step_constant_current_array,
    time_to_empty_array,
)
from repro.kibam.bounds import build_pooled_job_table, recovery_limited_refinements
from repro.kibam.discrete import discharge_spec_for, duration_ticks
from repro.kibam.parameters import BatteryParameters
from repro.workloads.load import Load

#: Same span epsilon as the scalar search and simulator.
_TIME_EPSILON = 1e-9
#: Same emptiness tolerance as ``AnalyticalBattery.is_empty``.
_EMPTY_TOLERANCE = 1e-12
#: Default number of frontier nodes expanded per vectorized round.
DEFAULT_BATCH_SIZE = 64
#: Expansion rounds between greedy-completion lower-bound probes.  Each
#: probe rolls one popped batch to system death (about the cost of one
#: expansion round), so probing every round would roughly double the
#: search; every 16th round keeps the cost under ~7% while the incumbent
#: still tightens long before the frontier drains.
_LB_PROBE_PERIOD = 16

#: Tolerance-adaptive dominance-archive depths (see
#: :class:`BatchOptimalScheduler`): certified searches merge few signatures,
#: so deep archives are pure overhead; tolerant searches merge aggressively
#: and a deep archive roughly halves the certification-floor node counts.
_CERTIFIED_ARCHIVE_LIMIT = 64
_TOLERANT_ARCHIVE_LIMIT = 1024

#: Same dominance-comparison slack as the scalar archive.
_DOMINANCE_EPSILON = 1e-9


def _group_representatives(
    ordered: Sequence[int], groups: Sequence[int]
) -> List[int]:
    """First battery of each symmetry group, in ``ordered`` order.

    Mirrors the scalar search's root-decision prune: the stable
    most-available-first sort puts the first-listed battery of each group
    first, so both searches pick identical representatives.
    """
    seen = set()
    representatives: List[int] = []
    for index in ordered:
        group = groups[index]
        if group in seen:
            continue
        seen.add(group)
        representatives.append(index)
    return representatives


#: Children compared per broadcast in :meth:`VectorDominanceArchive.admit_many`.
#: The all-pairs tables cost ``(archive + chunk) x chunk`` comparisons
#: against the ``archive x chunk`` of sequential admission, so unbounded
#: batches lose on deep 8-battery archives; 64 keeps them at parity or
#: better.
_ADMIT_CHUNK = 64


class VectorDominanceArchive:
    """Array-backed port of :class:`repro.core.optimal.DominanceArchive`.

    Same pruning semantics -- quantized-signature deduplication, a Pareto
    archive per decision point with permutation pairing for identical
    batteries, the ``archive_limit`` cap -- but the archive is held as one
    ``(n_entries, n_batteries, n_components)`` array per decision point and
    a decision point's children are admitted as one batch
    (:meth:`admit_many`).  Each chunk of up to :data:`_ADMIT_CHUNK`
    children is compared against the archive *and* against itself in one
    broadcast, giving two boolean tables (which rows dominate each child,
    which rows each child dominates); the sequential decisions are then
    replayed in child order on a Python-int bitset of the live archive
    rows.  The scalar search keeps the transparent reference
    implementation; this is its hot-path counterpart (dominance checks
    dominate the scalar search's profile), and a test pins the two to
    identical decisions.
    """

    def __init__(
        self,
        groups: Sequence[int],
        dominance_tolerance: float = 0.0,
        archive_limit: int = 64,
    ) -> None:
        self.archive_limit = archive_limit
        self._slack = _DOMINANCE_EPSILON + dominance_tolerance
        self._scale = max(dominance_tolerance, 1e-9)
        #: Per-battery symmetry-group ids (see
        #: :func:`repro.core.optimal.parameter_symmetry_groups`):
        #: signatures sort rows per group, dominance pairs via the
        #: within-group permutation products -- identical semantics to the
        #: scalar archive.
        self.groups: Tuple[int, ...] = tuple(groups)
        members: dict = {}
        for index, group in enumerate(self.groups):
            members.setdefault(group, []).append(index)
        self._group_members = tuple(
            tuple(indices) for indices in members.values() if len(indices) > 1
        )
        self._perms = np.array(group_permutations(self.groups), dtype=np.int64)
        self._entries: dict = {}

    def admit(self, key, matrix: np.ndarray) -> bool:
        """Record a ``(n_batteries, n_components)`` state matrix; False when dominated."""
        return bool(self.admit_many([key], matrix[None])[0])

    def admit_many(self, keys: Sequence, matrices: np.ndarray) -> np.ndarray:
        """Admit an ``(m, n_batteries, n_components)`` stack; ``keys[j]`` is
        the decision point of ``matrices[j]``.

        Returns the boolean mask that ``m`` sequential :meth:`admit` calls
        would return, and leaves the archive exactly as they would.
        Archives are per decision point, so each key's children are
        admitted as one batch in their given order.
        """
        # Python floats keep the scalar archive's tuple equality (under
        # which -0.0 == 0.0); byte keys would split them.
        quantized = np.where(
            np.isinf(matrices), matrices, np.round(matrices / self._scale)
        ).tolist()
        signatures = []
        for matrix in quantized:
            rows = [tuple(row) for row in matrix]
            for members in self._group_members:
                for slot, row in zip(members, sorted(rows[index] for index in members)):
                    rows[slot] = row
            signatures.append(tuple(rows))
        by_key: dict = {}
        for row, key in enumerate(keys):
            by_key.setdefault(key, []).append(row)
        admitted = np.zeros(len(signatures), dtype=bool)
        for key, rows in by_key.items():
            entry = self._entries.get(key)
            if entry is None:
                entry = [set(), np.empty((0,) + matrices.shape[1:])]
                self._entries[key] = entry
            seen, archive = entry
            for start in range(0, len(rows), _ADMIT_CHUNK):
                chunk = rows[start : start + _ADMIT_CHUNK]
                batch = matrices[chunk]
                pool = np.concatenate([archive, batch])
                dominators, dominated = self._dominance_bitsets(pool, batch)
                # Replay the sequential decisions; bit ``r`` of ``live``
                # marks pool row ``r`` as archived.
                offset = archive.shape[0]
                live = (1 << offset) - 1
                for j, row in enumerate(chunk):
                    if signatures[row] in seen or live & dominators[j]:
                        continue
                    live &= ~dominated[j]
                    if live.bit_count() < self.archive_limit:
                        live |= 1 << (offset + j)
                    seen.add(signatures[row])
                    admitted[row] = True
                bits = np.frombuffer(
                    live.to_bytes((pool.shape[0] + 7) // 8, "little"), dtype=np.uint8
                )
                archive = pool[
                    np.unpackbits(bits, bitorder="little")[: pool.shape[0]] == 1
                ]
            entry[1] = archive
        return admitted

    def _dominance_bitsets(self, pool: np.ndarray, batch: np.ndarray):
        """Per-child ``(dominators, dominated)`` bitsets over the pool rows.

        Bit ``r`` of ``dominators[j]`` is set when pool row ``r`` dominates
        ``batch[j]``; bit ``r`` of ``dominated[j]`` when ``batch[j]``
        dominates pool row ``r``.  ``a`` dominating ``b`` under any battery
        pairing is the same relation whether the permutations act on ``a``
        or on ``b`` (they form a group), so both directions permute the
        batch.  Each permutation builds one ``(rows, m)`` plane, AND-ed one
        flattened component at a time; a 5-D ``(rows, m, P, B, V)``
        temporary would multiply the peak memory.
        """
        rows, m = pool.shape[0], batch.shape[0]
        flat = pool.reshape(rows, -1).T  # (components, rows)
        lowered = flat - self._slack
        dominators = np.zeros((rows, m), dtype=bool)
        dominated = np.zeros((rows, m), dtype=bool)
        for perm in self._perms:
            child = batch[:, perm].reshape(m, -1).T  # (components, m)
            child_lowered = child - self._slack
            above = np.ones((rows, m), dtype=bool)
            below = np.ones((rows, m), dtype=bool)
            for component in range(flat.shape[0]):
                above &= flat[component, :, None] >= child_lowered[component]
                below &= child[component] >= lowered[component, :, None]
            dominators |= above
            dominated |= below
        return self._bitsets(dominators), self._bitsets(dominated)

    @staticmethod
    def _bitsets(table: np.ndarray) -> List[int]:
        """One little-endian Python int per column of a ``(rows, m)`` table."""
        packed = np.packbits(table.T, axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        return [
            int.from_bytes(data[j * width : (j + 1) * width], "little")
            for j in range(packed.shape[0])
        ]


# --------------------------------------------------------------------- #
# frontier storage: structure-of-arrays pools
# --------------------------------------------------------------------- #
#: Initial row capacity of the frontier pools; grown by doubling.
_POOL_CAPACITY = 256


class FrontierArrays:
    """Preallocated, grow-by-doubling structure-of-arrays node storage.

    Columns are declared once as ``name -> (trailing_shape, dtype)``;
    frontier nodes are *rows*, addressed by the integer slots handed out by
    :meth:`allocate` and recycled through a free-list by :meth:`release`.
    When the free-list runs dry every column doubles in place (amortized
    O(1) per node), so the search's expansion, bound evaluation and
    dominance checks all operate on index slices of a handful of stable
    flat arrays instead of stacking and re-copying per-node state objects
    every round (the former hot spot of the batched search).
    """

    def __init__(self, columns, capacity: int = _POOL_CAPACITY) -> None:
        self._names = tuple(columns)
        self.capacity = int(capacity)
        for name, (shape, dtype) in columns.items():
            setattr(
                self, name, np.zeros((self.capacity, *shape), dtype=dtype)
            )
        self._free = list(range(self.capacity - 1, -1, -1))

    def allocate(self, count: int) -> np.ndarray:
        """Hand out ``count`` free slots, growing the pool as needed."""
        if count <= 0:
            # Guard the slice arithmetic: ``self._free[-0:]`` would hand
            # out (and drop) the whole free-list.
            return np.empty(0, dtype=np.int64)
        while len(self._free) < count:
            self._grow()
        slots = self._free[-count:][::-1]
        del self._free[-count:]
        return np.asarray(slots, dtype=np.int64)

    def release(self, slots) -> None:
        """Return slots to the free-list (their rows become reusable)."""
        self._free.extend(int(slot) for slot in np.atleast_1d(slots))

    def _grow(self) -> None:
        doubled = self.capacity * 2
        for name in self._names:
            old = getattr(self, name)
            grown = np.zeros((doubled,) + old.shape[1:], dtype=old.dtype)
            grown[: self.capacity] = old
            setattr(self, name, grown)
        self._free.extend(range(doubled - 1, self.capacity - 1, -1))
        self.capacity = doubled


class DecisionTrace:
    """Append-only ``(parent, choice)`` arrays encoding node assignments.

    Every decision node references one trace entry; the entry's parent is
    the trace id of the node it was branched from (``-1`` for the root), so
    recording a child costs two int64 appends instead of copying the whole
    assignment tuple per node.  Entries are never freed -- they are two
    integers each, and candidate recording needs ancestors of pruned slots
    -- and the full assignment is only reconstructed (by walking parents
    backwards) for the rare candidate that improves the incumbent.
    """

    def __init__(self, capacity: int = _POOL_CAPACITY) -> None:
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.choice = np.full(capacity, -1, dtype=np.int64)
        self.size = 0

    def append(self, parents: np.ndarray, choices: np.ndarray) -> np.ndarray:
        count = parents.shape[0]
        while self.size + count > self.parent.shape[0]:
            self.parent = np.concatenate([self.parent, np.full_like(self.parent, -1)])
            self.choice = np.concatenate([self.choice, np.full_like(self.choice, -1)])
        ids = np.arange(self.size, self.size + count, dtype=np.int64)
        self.parent[ids] = parents
        self.choice[ids] = choices
        self.size += count
        return ids

    def assignment(self, trace_id: int) -> Tuple[int, ...]:
        """The battery-choice tuple encoded by one trace entry's ancestry."""
        choices = []
        node = int(trace_id)
        while node >= 0:
            choices.append(int(self.choice[node]))
            node = int(self.parent[node])
        return tuple(reversed(choices))


def _pooling_parameters(
    params: Sequence[BatteryParameters],
) -> Optional[Tuple[float, float, float]]:
    """``(capacity, c, k')`` of the pooled bound battery, or ``None``.

    Mirrors :meth:`repro.core.optimal.OptimalScheduler._pooling_parameters`:
    KiBaM batteries sharing ``c`` and ``k'`` pool into one battery whose
    lifetime upper-bounds every schedule.
    """
    first = params[0]
    if not all(p.c == first.c and p.k_prime == first.k_prime for p in params):
        return None
    total_capacity = sum(p.capacity for p in params)
    return (total_capacity, first.c, first.k_prime)


class _BoundEvaluator:
    """Vectorized, memoized admissible remaining-lifetime bounds.

    One instance per search; bounds are the scalar search's perfect-pooling
    bound (or the total-charge fallback when the batteries do not share
    ``c``/``k'``), evaluated for a whole batch of ``(gamma, delta)`` pooled
    states in one epoch walk and cached on the scalar search's quantized
    ``(epoch, offset, gamma, delta)`` keys.
    """

    def __init__(
        self,
        params: Sequence[BatteryParameters],
        currents: np.ndarray,
        durations: np.ndarray,
        bound_slack: float,
    ) -> None:
        self.pooled = _pooling_parameters(params)
        self.pooled_params = (
            BatteryParameters(
                capacity=self.pooled[0],
                c=self.pooled[1],
                k_prime=self.pooled[2],
                name="pooled-bound",
            )
            if self.pooled is not None
            else None
        )
        self.currents = currents
        self.durations = durations
        self.n_epochs = currents.shape[0]
        self.bound_slack = bound_slack
        self._cache: dict = {}
        self._job_tables: dict = {}

    def pooled_bounds(
        self,
        gamma: np.ndarray,
        delta: np.ndarray,
        epoch: np.ndarray,
        offset: np.ndarray,
    ) -> np.ndarray:
        """Remaining-lifetime bounds for pooled states, cache-first."""
        assert self.pooled is not None
        keys = [
            (int(e), round(float(o), 9), round(float(g), 9), round(float(d), 9))
            for e, o, g, d in zip(epoch, offset, gamma, delta)
        ]
        out = np.empty(len(keys))
        miss = []
        for i, key in enumerate(keys):
            value = self._cache.get(key)
            if value is None:
                miss.append(i)
            else:
                out[i] = value
        if miss:
            idx = np.asarray(miss)
            fresh = self._pooled_walk(
                gamma[idx].astype(np.float64),
                delta[idx].astype(np.float64),
                epoch[idx].astype(np.int64),
                offset[idx].astype(np.float64),
            )
            for i, value in zip(miss, fresh):
                out[i] = float(value)
                if len(self._cache) >= _BOUND_CACHE_LIMIT:
                    self._cache.clear()
                self._cache[keys[i]] = float(value)
        return out

    def _pooled_walk(
        self,
        gamma: np.ndarray,
        delta: np.ndarray,
        epoch: np.ndarray,
        offset: np.ndarray,
    ) -> np.ndarray:
        """Walk the remaining epochs for every pooled state at once."""
        _, c, k_prime = self.pooled
        e = epoch.copy()
        off = offset.copy()
        g = gamma.copy()
        d = delta.copy()
        elapsed = np.zeros(g.shape[0])
        bound = np.zeros(g.shape[0])
        done = np.zeros(g.shape[0], dtype=bool)
        scale = 1.0 + self.bound_slack
        while True:
            act = np.flatnonzero(~done)
            if act.size == 0:
                break
            past = e[act] >= self.n_epochs
            ended = act[past]
            if ended.size:
                bound[ended] = elapsed[ended] * scale
                done[ended] = True
                act = act[~past]
                if act.size == 0:
                    continue
            cur = self.currents[e[act]]
            dur = self.durations[e[act]] - off[act]
            crossing, crossed = time_to_empty_array(
                c, k_prime, g[act], d[act], cur, dur
            )
            hit = act[crossed]
            if hit.size:
                bound[hit] = (elapsed[hit] + crossing[crossed]) * scale
                done[hit] = True
            go = act[~crossed]
            if go.size:
                cur_go = cur[~crossed]
                dur_go = dur[~crossed]
                decay = np.exp(-k_prime * dur_go)
                delta_inf = cur_go / (c * k_prime)
                d[go] = delta_inf + (d[go] - delta_inf) * decay
                g[go] = g[go] - cur_go * dur_go
                elapsed[go] += dur_go
                e[go] += 1
                off[go] = 0.0
        return bound

    def recovery_limited_bounds(
        self,
        pooled_bounds: np.ndarray,
        gamma: np.ndarray,
        delta: np.ndarray,
        epoch: np.ndarray,
        offset: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        alive: np.ndarray,
    ) -> np.ndarray:
        """Recovery-limited refinement of already-computed pooled bounds.

        Mirrors :meth:`repro.core.optimal.OptimalScheduler.
        _recovery_limited_bound` for a whole frontier batch: nodes sharing a
        decision point and pooled state share one
        :func:`repro.kibam.bounds.build_pooled_job_table` (cached like the
        pooled bounds), and the per-node feasibility scan runs vectorized
        over the group.  ``y1``/``y2`` are ``(n_nodes, n_batteries)``
        per-battery wells (Amin), ``alive`` the matching non-empty mask.
        Returns bounds no larger than ``pooled_bounds``; rows the
        refinement does not apply to (fewer than two alive batteries) pass
        through unchanged.
        """
        params = self.pooled_params
        assert params is not None
        out = np.asarray(pooled_bounds, dtype=np.float64).copy()
        eligible = np.asarray(alive, dtype=bool).sum(axis=1) >= 2
        if not eligible.any():
            return out
        scale = 1.0 + self.bound_slack
        groups: dict = {}
        for i in np.flatnonzero(eligible):
            key = (
                int(epoch[i]),
                round(float(offset[i]), 9),
                round(float(gamma[i]), 9),
                round(float(delta[i]), 9),
            )
            groups.setdefault(key, []).append(int(i))
        for key, rows in groups.items():
            table = self._job_tables.get(key)
            if table is None:
                e, o, g, d = key
                table = build_pooled_job_table(
                    params,
                    self.currents,
                    self.durations,
                    e,
                    float(offset[rows[0]]),
                    float(gamma[rows[0]]),
                    float(delta[rows[0]]),
                    self._segment_crossing,
                )
                if len(self._job_tables) >= _BOUND_CACHE_LIMIT:
                    self._job_tables.clear()
                self._job_tables[key] = table
            idx = np.asarray(rows, dtype=np.int64)
            refined = recovery_limited_refinements(
                table, params, y1[idx], y2[idx], alive[idx]
            )
            out[idx] = np.minimum(out[idx], refined * scale)
        return out

    @staticmethod
    def _segment_crossing(params, gamma, delta, current, horizon):
        """Single-state segment crossing via the vectorized solver."""
        crossing, crossed = time_to_empty_array(
            params.c,
            params.k_prime,
            np.asarray([gamma]),
            np.asarray([delta]),
            np.asarray([current]),
            np.asarray([horizon]),
        )
        return float(crossing[0]) if bool(crossed[0]) else None

    def total_charge_bounds(
        self, total_charge: np.ndarray, epoch: np.ndarray, offset: np.ndarray
    ) -> np.ndarray:
        """Fallback bound: batteries cannot deliver more charge than held."""
        e = epoch.astype(np.int64).copy()
        off = offset.astype(np.float64).copy()
        total = total_charge.astype(np.float64).copy()
        elapsed = np.zeros(total.shape[0])
        bound = np.zeros(total.shape[0])
        done = np.zeros(total.shape[0], dtype=bool)
        while True:
            act = np.flatnonzero(~done)
            if act.size == 0:
                break
            past = e[act] >= self.n_epochs
            ended = act[past]
            if ended.size:
                bound[ended] = elapsed[ended]
                done[ended] = True
                act = act[~past]
                if act.size == 0:
                    continue
            cur = self.currents[e[act]]
            dur = self.durations[e[act]] - off[act]
            demand = cur * dur
            exhausts = (cur > 0.0) & (demand >= total[act])
            hit = act[exhausts]
            if hit.size:
                bound[hit] = elapsed[hit] + total[hit] / cur[exhausts]
                done[hit] = True
            go = act[~exhausts]
            if go.size:
                total[go] -= demand[~exhausts]
                elapsed[go] += dur[~exhausts]
                e[go] += 1
                off[go] = 0.0
        return bound


# --------------------------------------------------------------------- #
# node kernels: the per-model battery advance
# --------------------------------------------------------------------- #
def _epoch_arrays(load: Load) -> Tuple[np.ndarray, np.ndarray]:
    """Per-epoch ``(currents, durations)`` of a load, in A and minutes."""
    currents = np.array([e.current for e in load.epochs], dtype=np.float64)
    durations = np.array([e.duration for e in load.epochs], dtype=np.float64)
    return currents, durations


class _AnalyticalNodes:
    """Analytical-KiBaM node states: ``(B, 2)`` float wells, time in minutes.

    Each battery's row holds its total charge (``GAMMA``) and height
    difference (``DELTA``); advances are the closed-form
    :mod:`repro.engine.kernels` steps, and a served battery stops exactly
    at its empty crossing.

    A node kernel is everything the search driver (:class:`_SearchOps`)
    needs to know about a battery model: the root state, the per-battery
    ``(gamma, delta)`` charge, the alive test, the serve and idle advances
    (in place on the given rows), the dominance matrices, the epoch span
    table ``spans`` in the kernel's time unit, ``time_unit`` (minutes per
    unit), the bound slack, and whether the recovery-limited bound applies.
    """

    time_unit = 1.0
    bound_slack = 0.0
    recovery_limited = True

    def __init__(self, params: Sequence[BatteryParameters], load: Load) -> None:
        self.kp = KernelParams.from_parameters(params)
        self.c = self.kp.c
        self.n_batteries = len(params)
        self.currents, self.spans = _epoch_arrays(load)

    def root_state(self) -> np.ndarray:
        state = np.zeros((1, self.n_batteries, 2), dtype=np.float64)
        state[:, :, GAMMA] = self.kp.capacity
        return state

    def charge(self, state: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return state[:, :, GAMMA], state[:, :, DELTA]

    def alive(self, state: np.ndarray, dead: np.ndarray) -> np.ndarray:
        margin = state[:, :, GAMMA] - (1.0 - self.c) * state[:, :, DELTA]
        return (~dead) & (margin > _EMPTY_TOLERANCE)

    def serve(self, state, dead, rows, choice, epoch, remaining):
        """Serve each row's job on ``choice`` up to its crossing, idle the rest.

        Updates ``state[rows]`` in place and returns ``(crossed, span)``.
        """
        cur = self.currents[epoch]
        crossing, crossed = time_to_empty_array(
            self.c[choice],
            self.kp.k_prime[choice],
            state[rows, choice, GAMMA],
            state[rows, choice, DELTA],
            cur,
            remaining,
        )
        span = np.where(crossed, crossing, remaining)
        battery_currents = np.zeros((rows.size, self.n_batteries))
        battery_currents[np.arange(rows.size), choice] = cur
        self._advance(state, dead, rows, battery_currents, span)
        return crossed, span

    def idle(self, state, dead, rows, span) -> None:
        """Rest every battery of ``state[rows]`` for ``span``, in place."""
        self._advance(
            state, dead, rows, np.zeros((rows.size, self.n_batteries)), span
        )

    def _advance(self, state, dead, rows, battery_currents, span) -> None:
        old = state[rows]
        new = step_constant_current_array(
            self.kp, old, battery_currents, span[:, None]
        )
        state[rows] = np.where(dead[rows][:, :, None], old, new)

    def matrices(self, state: np.ndarray, dead: np.ndarray) -> np.ndarray:
        """The scalar search's dominance matrices, one ``(B, 3)`` per node."""
        mat = np.empty((state.shape[0], self.n_batteries, 3))
        mat[:, :, 0] = 1.0
        mat[:, :, 1] = state[:, :, GAMMA]
        mat[:, :, 2] = -state[:, :, DELTA]
        empty_row = np.array([0.0, -np.inf, -np.inf])
        return np.where(dead[:, :, None], empty_row, mat)


class _DiscreteNodes:
    """dKiBaM node states: ``(6, B)`` int64 counters, time in ticks.

    Rows ``N_ROW`` .. ``RCT_ROW`` hold each battery's available and
    height units, recovery counter, draw accumulator and last discharge
    rate; every advance is an exact integer event jump of
    :func:`serve_and_rest_array`, shared with the batch simulator.  See
    :class:`_AnalyticalNodes` for the kernel interface.
    """

    #: No recovery-limited refinement here: the chain-feasibility argument
    #: holds for the continuous dynamics only, and dKiBaM tick rounding can
    #: keep a marginal burst alive that the continuous threshold rules out
    #: (see ``OptimalScheduler._recovery_limited_bound``).  The discrete
    #: search keeps the slack-inflated pooling bound.
    recovery_limited = False

    def __init__(
        self,
        params: Sequence[BatteryParameters],
        load: Load,
        time_step: float,
        charge_unit: float,
    ) -> None:
        self.n_batteries = len(params)
        self.time_unit = time_step
        self.charge_unit = charge_unit
        # The analytical pooling bound gets the scalar search's
        # discretization-aware safety margin when pruning dKiBaM searches.
        self.bound_slack = discrete_bound_slack_for(time_step, charge_unit)
        dp = KernelParams.from_parameters(params).discretize(time_step, charge_unit)
        self.total_units = dp.total_units
        self.cp = dp.c_permille
        self.q = 1000 - self.cp
        self.tables = dp.tables
        self.trow = dp.table_id
        self.c = dp.c
        self.height_unit = dp.height_unit
        self._step = functools.partial(
            serve_and_rest_array, self.tables, self.trow, self.cp
        )
        specs = [
            discharge_spec_for(e.current, time_step, charge_unit) for e in load.epochs
        ]
        self.e_cur = np.array([spec.cur for spec in specs], dtype=np.int64)
        self.e_ct = np.array([spec.cur_times for spec in specs], dtype=np.int64)
        self.spans = np.array(
            [duration_ticks(e.duration, time_step) for e in load.epochs],
            dtype=np.int64,
        )

    def root_state(self) -> np.ndarray:
        state = np.zeros((1, 6, self.n_batteries), dtype=np.int64)
        state[:, N_ROW] = self.total_units
        state[:, RCT_ROW] = 1
        return state

    def charge(self, state: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return (
            state[:, N_ROW, :] * self.charge_unit,
            state[:, M_ROW, :] * self.height_unit,
        )

    def alive(self, state: np.ndarray, dead: np.ndarray) -> np.ndarray:
        crit = self.q * state[:, M_ROW, :] >= self.cp * state[:, N_ROW, :]
        return (~dead) & (~crit)

    def serve(self, state, dead, rows, choice, epoch, remaining):
        """Serve each row's job on ``choice`` up to its crossing, idle the rest.

        Updates ``state[rows]`` in place and returns ``(crossed, span)``.
        """
        return self._step(
            state,
            rows,
            ~dead[rows],
            remaining,
            choice,
            self.e_cur[epoch],
            self.e_ct[epoch],
        )

    def idle(self, state, dead, rows, span) -> None:
        """Rest every battery of ``state[rows]`` for ``span`` ticks, in place."""
        self._step(state, rows, ~dead[rows], span)

    def matrices(self, state: np.ndarray, dead: np.ndarray) -> np.ndarray:
        """The scalar search's dominance matrices, one ``(B, 5)`` per node."""
        mat = np.empty((state.shape[0], self.n_batteries, 5))
        mat[:, :, 0] = 1.0
        mat[:, :, 1] = state[:, N_ROW, :]
        mat[:, :, 2] = -state[:, M_ROW, :]
        mat[:, :, 3] = -state[:, ACC_ROW, :]
        mat[:, :, 4] = state[:, REC_ROW, :]
        empty_row = np.full(5, -np.inf)
        empty_row[0] = 0.0
        return np.where(dead[:, :, None], empty_row, mat)


# --------------------------------------------------------------------- #
# the search driver over one node kernel
# --------------------------------------------------------------------- #
#: Frontier pool columns; in-flight node batches are dicts of the same
#: columns.  ``dead`` marks batteries observed empty (they never recover),
#: ``offset`` and ``time`` count in the node kernel's time unit.
_COLUMNS = ("state", "dead", "epoch", "offset", "time", "trace")


class _SearchOps:
    """Batched expansion, preparation and greedy probes over a node kernel.

    Frontier nodes live in a :class:`FrontierArrays` pool and are addressed
    by slot; children in flight between :meth:`branch` and :meth:`prepare`
    travel as column dicts and only claim a pool slot once they survive
    the bound prune.
    """

    def __init__(
        self,
        nodes,
        params: Sequence[BatteryParameters],
        load: Load,
        groups: Sequence[int],
    ) -> None:
        self.nodes = nodes
        self.groups = tuple(groups)
        currents, durations = _epoch_arrays(load)
        self.is_job = currents > 0.0
        self.n_epochs = currents.shape[0]
        self.bounds = _BoundEvaluator(
            params, currents, durations, bound_slack=nodes.bound_slack
        )
        self.pool = FrontierArrays(
            {
                name: (column.shape[1:], column.dtype)
                for name, column in self.root_batch().items()
            }
        )
        self.trace = DecisionTrace()

    def root_batch(self):
        """The root decision node as a one-row in-flight column batch."""
        state = self.nodes.root_state()
        return {
            "state": state,
            "dead": np.zeros((1, self.nodes.n_batteries), dtype=bool),
            "epoch": np.zeros(1, dtype=np.int64),
            "offset": np.zeros(1, dtype=self.nodes.spans.dtype),
            "time": np.zeros(1, dtype=self.nodes.spans.dtype),
            "trace": np.full(1, -1, dtype=np.int64),
        }

    def _gather(self, slots: np.ndarray):
        return {name: getattr(self.pool, name)[slots] for name in _COLUMNS}

    def _candidates(self, cols, rows) -> List[Tuple[float, int]]:
        """``(lifetime, trace_id)`` pairs of finished rows."""
        unit = self.nodes.time_unit
        return [
            (float(cols["time"][p]) * unit, int(cols["trace"][p])) for p in rows
        ]

    def _available(self, state: np.ndarray) -> np.ndarray:
        """Per-battery available charge, the branch-ordering key."""
        gamma, delta = self.nodes.charge(state)
        c = self.nodes.c
        return np.maximum(0.0, c * (gamma - (1.0 - c) * delta))

    def _serve(self, cols, rows: np.ndarray, choice: np.ndarray) -> np.ndarray:
        """Serve the current job of ``rows`` on ``choice``; True where it emptied."""
        epoch, offset = cols["epoch"], cols["offset"]
        remaining = self.nodes.spans[epoch[rows]] - offset[rows]
        crossed, span = self.nodes.serve(
            cols["state"], cols["dead"], rows, choice, epoch[rows], remaining
        )
        cols["dead"][rows, choice] |= crossed
        cols["time"][rows] += span
        mid = crossed & (remaining - span > _TIME_EPSILON)
        epoch[rows] = np.where(mid, epoch[rows], epoch[rows] + 1)
        offset[rows] = np.where(mid, offset[rows] + span, 0)
        return crossed

    def _idle(self, cols, rows: np.ndarray) -> None:
        """Rest ``rows`` through the rest of their (idle) epoch."""
        epoch, offset = cols["epoch"], cols["offset"]
        span = self.nodes.spans[epoch[rows]] - offset[rows]
        self.nodes.idle(cols["state"], cols["dead"], rows, span)
        cols["time"][rows] += span
        epoch[rows] += 1
        offset[rows] = 0

    # -- expansion ------------------------------------------------------ #
    def branch(self, slots: np.ndarray):
        """Expand a batch of frontier slots into raw children.

        Returns ``(candidates, children)`` where candidates are
        ``(lifetime, trace_id)`` pairs for children whose last battery
        died, and children is an in-flight column batch that still needs
        :meth:`prepare` (idle-epoch advance, bound, dominance).  The
        caller releases the parent slots afterwards.
        """
        cols = self._gather(slots)
        alive = self.nodes.alive(cols["state"], cols["dead"])
        avail = self._available(cols["state"])
        offset, time = cols["offset"], cols["time"]

        parents: List[int] = []
        choices: List[int] = []
        for i in range(slots.shape[0]):
            usable = np.flatnonzero(alive[i]).tolist()
            # Most available charge first; ``sorted`` is stable, so ties
            # keep index order -- identical to the scalar ordering.
            ordered = sorted(usable, key=lambda j: -avail[i, j])
            if offset[i] == 0 and time[i] == 0:
                # All batteries are full at the very first decision: one
                # representative per symmetry group suffices (a no-op for
                # all-singleton groups), exactly like the scalar search.
                ordered = _group_representatives(ordered, self.groups)
            for j in ordered:
                parents.append(i)
                choices.append(j)
        if not parents:
            return [], None
        par = np.asarray(parents, dtype=np.int64)
        cho = np.asarray(choices, dtype=np.int64)

        children = {name: column[par] for name, column in cols.items()}
        crossed = self._serve(children, np.arange(par.size), cho)
        children["trace"] = self.trace.append(children["trace"], cho)
        alive_after = self.nodes.alive(children["state"], children["dead"])
        dead = crossed & ~alive_after.any(axis=1)

        candidates = self._candidates(children, np.flatnonzero(dead))
        live = np.flatnonzero(~dead)
        if live.size == 0:
            return candidates, None
        return candidates, {name: column[live] for name, column in children.items()}

    # -- decision-point preparation ------------------------------------- #
    def prepare(self, children, best_lifetime: float):
        """Advance raw children to their next decision point and bound them.

        Returns ``(candidates, ready)``: candidates for children that
        survived the load or died at a job arrival, and for the rest
        (bound-pruned already, states parked in pool slots) ``ready =
        (slots, totals, keys, matrices)`` -- their pool slots, node time
        plus remaining bound in minutes, decision-point keys for the
        dominance archive and ``(n, n_batteries, n_components)`` dominance
        matrices -- or ``None`` when no child is left.
        """
        if children is None:
            return [], None
        epoch, offset = children["epoch"], children["offset"]

        candidates = []
        decided: List[int] = []
        pending = np.arange(epoch.shape[0])
        while pending.size:
            exhausted = epoch[pending] >= self.n_epochs
            # The batteries survived the load; the load end is the
            # observed lifetime (scalar semantics).
            candidates += self._candidates(children, pending[exhausted])
            rest = pending[~exhausted]
            if rest.size == 0:
                break
            job = self.is_job[epoch[rest]]
            decided.extend(rest[job].tolist())
            idle = rest[~job]
            if idle.size == 0:
                break
            self._idle(children, idle)
            pending = idle

        if not decided:
            return candidates, None
        d = np.asarray(decided, dtype=np.int64)
        state, dead = children["state"], children["dead"]
        alive = self.nodes.alive(state[d], dead[d])
        any_alive = alive.any(axis=1)
        # A job arrived and no battery can serve it: the system died the
        # moment the previous span ended.
        candidates += self._candidates(children, d[~any_alive])
        live = d[any_alive]
        if live.size == 0:
            return candidates, None

        unit = self.nodes.time_unit
        remaining = self._remaining_bounds(
            state[live], alive[any_alive], epoch[live], offset[live] * unit
        )
        totals = children["time"][live] * unit + remaining

        keep = np.flatnonzero(totals > best_lifetime + _TIME_EPSILON)
        if keep.size == 0:
            return candidates, None
        kept = live[keep]
        slots = self.pool.allocate(kept.size)
        for name in _COLUMNS:
            getattr(self.pool, name)[slots] = children[name][kept]
        keys = [
            (e, round(o, 9))
            for e, o in zip(
                epoch[kept].tolist(), offset[kept].astype(np.float64).tolist()
            )
        ]
        matrices = self.nodes.matrices(state[kept], dead[kept])
        return candidates, (slots, totals[keep], keys, matrices)

    def _remaining_bounds(self, state, alive, epoch, offset) -> np.ndarray:
        """Admissible remaining-lifetime bounds (minutes) of decided nodes."""
        gamma, delta = self.nodes.charge(state)
        if self.bounds.pooled is None:
            total = np.where(alive, np.maximum(0.0, gamma), 0.0).sum(axis=1)
            return self.bounds.total_charge_bounds(total, epoch, offset)
        pooled_gamma = np.where(alive, gamma, 0.0).sum(axis=1)
        pooled_delta = np.where(alive, delta, 0.0).sum(axis=1)
        remaining = self.bounds.pooled_bounds(
            pooled_gamma, pooled_delta, epoch, offset
        )
        if self.nodes.recovery_limited:
            c = self.nodes.c
            y1 = c * (gamma - (1.0 - c) * delta)
            remaining = self.bounds.recovery_limited_bounds(
                remaining, pooled_gamma, pooled_delta, epoch, offset,
                y1, gamma - y1, alive,
            )
        return remaining

    # -- greedy lower bounds -------------------------------------------- #
    def greedy_lifetimes(self, slots: np.ndarray):
        """Achieved lifetime of each slot under the fixed greedy completion.

        Rolls every node forward with the most-available-charge-first rule
        (the search's own branch ordering) until system death, entirely on
        the batch kernels.  Returns ``(lifetimes, choices)`` -- the
        lifetime in minutes per node and the battery-choice list each
        rollout appended, so an improving node's full assignment can be
        reconstructed from its decision trace plus its greedy tail.  The
        rollouts are real schedules of these batteries, so each lifetime
        is an achievable *lower* bound on the node's optimum.
        """
        cols = self._gather(slots)
        state, dead, epoch, time = (
            cols["state"], cols["dead"], cols["epoch"], cols["time"]
        )
        unit = self.nodes.time_unit
        K = slots.shape[0]
        lifetimes = np.zeros(K)
        choices: List[List[int]] = [[] for _ in range(K)]
        active = np.arange(K)
        while active.size:
            ended = epoch[active] >= self.n_epochs
            fin = active[ended]
            lifetimes[fin] = time[fin] * unit
            active = active[~ended]
            if active.size == 0:
                break
            job = self.is_job[epoch[active]]
            idle = active[~job]
            if idle.size:
                self._idle(cols, idle)
            serving = active[job]
            if serving.size:
                alive = self.nodes.alive(state[serving], dead[serving])
                out = ~alive.any(axis=1)
                fin = serving[out]
                lifetimes[fin] = time[fin] * unit
                serving = serving[~out]
                if serving.size:
                    avail = np.where(
                        alive[~out], self._available(state[serving]), -1.0
                    )
                    cho = avail.argmax(axis=1)
                    self._serve(cols, serving, cho)
                    for k, j in zip(serving, cho):
                        choices[int(k)].append(int(j))
            active = np.concatenate([idle, serving])
        return lifetimes, choices

# --------------------------------------------------------------------- #
# the batched scheduler
# --------------------------------------------------------------------- #
class BatchOptimalScheduler:
    """Best-first branch-and-bound with batched frontier evaluation.

    Args:
        params: battery parameter sets, one per battery.
        load: the load to schedule.
        model: ``"analytical"`` or ``"discrete"`` (the two vectorized
            battery models; anything else needs the scalar search).
        time_step / charge_unit: dKiBaM discretization (discrete only).
        max_nodes: optional cap on the number of expanded decision nodes;
            when the frontier still holds unexpanded, unpruned nodes at the
            cap the result carries ``complete=False``.
        use_dominance: enable dominance pruning (off only for ablations).
        archive_limit: maximum archived states per decision point; ``None``
            picks a tolerance-adaptive default.  Pruning more states never
            changes certified results -- dominance pruning is sound at any
            archive depth, the limit only caps how many admitted states
            later admissions are checked against.  Measured on the
            certification-floor loads: at ``dominance_tolerance=0``
            quantized signatures rarely merge, so a deep (1024) archive
            prunes *zero* extra nodes while costing ~2.5x the wall time --
            the certified default stays at the scalar search's 64.  With a
            positive tolerance the merged signatures keep archives small
            and effective, and the deep cap roughly halves the expanded
            nodes at no wall-time cost, so the tolerant default is 1024.
        dominance_tolerance: state-merge tolerance (Amin); zero certifies
            optimality, exactly like the scalar search.
        batch_size: frontier nodes expanded per vectorized round.  Larger
            batches amortize the NumPy call overhead further but expand
            against a staler incumbent; the default balances the two.
        use_symmetry: enable group-wise symmetry reduction between
            batteries with identical parameters (off only for ablation
            measurements -- symmetry never changes the result, only the
            node count).
    """

    def __init__(
        self,
        params: Sequence[BatteryParameters],
        load: Load,
        model: str = "analytical",
        time_step: float = 0.01,
        charge_unit: float = 0.01,
        max_nodes: Optional[int] = None,
        use_dominance: bool = True,
        archive_limit: Optional[int] = None,
        dominance_tolerance: float = 0.0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        use_symmetry: bool = True,
    ) -> None:
        if not params:
            raise ValueError("at least one battery parameter set is required")
        if dominance_tolerance < 0.0:
            raise ValueError("dominance_tolerance must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if model not in VECTOR_MODELS:
            raise ValueError(
                f"the batched search supports models {VECTOR_MODELS}, "
                f"got {model!r}; use repro.core.optimal.OptimalScheduler for "
                "other battery models"
            )
        self.params = tuple(params)
        self.load = load
        self.model = model
        self.time_step = time_step
        self.charge_unit = charge_unit
        self.max_nodes = max_nodes
        self.use_dominance = use_dominance
        if archive_limit is None:
            archive_limit = (
                _CERTIFIED_ARCHIVE_LIMIT
                if dominance_tolerance == 0.0
                else _TOLERANT_ARCHIVE_LIMIT
            )
        self.archive_limit = archive_limit
        self.dominance_tolerance = dominance_tolerance
        self.batch_size = batch_size
        self.use_symmetry = use_symmetry
        # Same grouping rule as the scalar search's model_symmetry_groups:
        # batteries with equal parameter sets are interchangeable (all
        # batteries of one search share the model and discretization, so
        # parameter equality is the whole key here).
        groups = (
            parameter_symmetry_groups(self.params)
            if use_symmetry
            else tuple(range(len(self.params)))
        )
        nodes = (
            _DiscreteNodes(self.params, load, time_step, charge_unit)
            if model == "discrete"
            else _AnalyticalNodes(self.params, load)
        )
        self._ops = _SearchOps(nodes, self.params, load, groups)
        self._archive = VectorDominanceArchive(
            groups,
            dominance_tolerance=dominance_tolerance,
            archive_limit=archive_limit,
        )
        self._best_lifetime = float("-inf")
        self._best_assignment: Tuple[int, ...] = ()
        self._nodes_expanded = 0
        self._complete = True

    # ------------------------------------------------------------------ #
    def search(
        self,
        incumbent_policies: Sequence[str] = ("sequential", "round-robin", "best-of-two"),
        seed_assignment: Optional[Sequence[int]] = None,
    ) -> OptimalScheduleResult:
        """Run the batched search and return the optimal schedule.

        Args:
            incumbent_policies: heuristic policies simulated up front to
                provide the initial incumbent (and pruning cutoff).
            seed_assignment: optional battery-choice sequence from a
                neighboring search (e.g. the previous grid point of a
                capacity sweep).  It is *replayed on this search's own
                batteries* through the scalar simulator, so the resulting
                lifetime is genuinely achievable here and seeding is an
                admissible incumbent regardless of where the assignment
                came from: it can only raise the pruning cutoff, never
                change which schedules are reachable.  A seed that is not
                replayable on these batteries (its decision points do not
                line up) is silently ignored.
        """
        models = make_battery_models(
            self.params,
            backend=self.model,
            time_step=self.time_step,
            charge_unit=self.charge_unit,
        )
        simulator = MultiBatterySimulator(models)
        incumbent_name = "none"
        for policy_name in incumbent_policies:
            result = simulator.run(self.load, make_policy(policy_name))
            lifetime = (
                result.lifetime
                if result.lifetime is not None
                else self.load.total_duration
            )
            if lifetime > self._best_lifetime:
                self._best_lifetime = lifetime
                incumbent_name = policy_name
                self._best_assignment = tuple(
                    entry.battery
                    for entry in result.schedule.entries
                    if entry.battery is not None
                )
        if seed_assignment is not None:
            # The seed's decision points shift with the battery parameters,
            # so the raw assignment is not always its own best translation:
            # a few tail truncations are tried as well (the replay's
            # best-available fallback covers the dropped tail), and a seed
            # whose tail points at an already-empty battery truncates until
            # it replays.  Every variant is an actual schedule of *these*
            # batteries, so taking the best replay is always admissible.
            seed = tuple(seed_assignment)
            variants = [seed[: len(seed) - cut] for cut in range(3) if len(seed) > cut]
            best_replay = None
            while variants:
                candidate = variants.pop(0)
                try:
                    result = simulator.run(
                        self.load, FixedAssignmentPolicy(candidate)
                    )
                except ValueError as error:
                    # Cut at the failing decision (not one-by-one from the
                    # tail): the exception names where the foreign schedule
                    # stopped replaying, so one retry per failure point.
                    failed_at = getattr(error, "decision_index", len(candidate) - 1)
                    truncated = candidate[:failed_at]
                    if truncated and truncated not in variants:
                        variants.append(truncated)
                    continue
                lifetime = (
                    result.lifetime
                    if result.lifetime is not None
                    else self.load.total_duration
                )
                if best_replay is None or lifetime > best_replay[0]:
                    best_replay = (lifetime, result)
            if best_replay is not None:
                lifetime, result = best_replay
                # Strictly better only: on ties the heuristic incumbent is
                # kept, exactly as an unseeded search would report it.
                if lifetime > self._best_lifetime:
                    self._best_lifetime = lifetime
                    incumbent_name = "seed"
                    self._best_assignment = tuple(
                        entry.battery
                        for entry in result.schedule.entries
                        if entry.battery is not None
                    )

        counter = itertools.count()
        heap: List = []
        pool = self._ops.pool
        # Slot re-use stamps for lazy heap invalidation: a heap entry is
        # stale (its slot was retroactively evicted and possibly re-used)
        # when its recorded stamp no longer matches the slot's.
        stamps = np.zeros(pool.capacity, dtype=np.int64)

        def admit(ready) -> None:
            nonlocal stamps
            if ready is None:
                return
            slots, totals, keys, matrices = ready
            admitted = totals > self._best_lifetime + _TIME_EPSILON
            if self.use_dominance:
                survivors = np.flatnonzero(admitted)
                admitted[survivors] = self._archive.admit_many(
                    [keys[row] for row in survivors.tolist()], matrices[survivors]
                )
            pool.release(slots[~admitted])
            if stamps.shape[0] < pool.capacity:
                grown = np.zeros(pool.capacity, dtype=np.int64)
                grown[: stamps.shape[0]] = stamps
                stamps = grown
            # Push in child order: the heap breaks bound ties by counter.
            kept = slots[admitted]
            for slot, total, stamp in zip(
                kept.tolist(), totals[admitted].tolist(), stamps[kept].tolist()
            ):
                heapq.heappush(heap, (-total, next(counter), total, slot, stamp))

        def evict_frontier() -> None:
            """Retroactively drop frontier entries the incumbent now covers.

            The UB/LB dual cut of the ``fcn_BB`` exemplar: whenever the
            incumbent (a certified *lower* bound) improves, every live
            frontier slot whose upper bound can no longer beat it is
            free-listed immediately instead of waiting to be popped.  The
            pop loop would never expand those entries anyway -- the heap
            is bound-ordered and clears at the first sub-incumbent top --
            so this is frontier hygiene: the pool rows recycle sooner and
            the heap shrinks, which keeps memory flat on long searches.
            Entries are invalidated lazily via slot stamps.
            """
            nonlocal heap
            cutoff = self._best_lifetime + _TIME_EPSILON
            keep: List = []
            for entry in heap:
                _, _, bound_total, slot, stamp = entry
                if stamps[slot] != stamp:
                    continue  # already evicted and possibly re-used
                if bound_total <= cutoff:
                    stamps[slot] += 1
                    pool.release(slot)
                else:
                    keep.append(entry)
            if len(keep) != len(heap):
                heapq.heapify(keep)
                heap = keep

        candidates, ready = self._ops.prepare(
            self._ops.root_batch(), self._best_lifetime
        )
        self._record(candidates)
        admit(ready)

        rounds = 0
        while heap:
            batch: List[int] = []
            while heap and len(batch) < self.batch_size:
                _, _, bound_total, slot, stamp = heapq.heappop(heap)
                if stamps[slot] != stamp:
                    continue  # stale entry: slot was evicted
                if bound_total <= self._best_lifetime + _TIME_EPSILON:
                    # The frontier is bound-ordered: once the best bound
                    # cannot beat the incumbent, nothing on the heap can.
                    heap.clear()
                    break
                batch.append(slot)
            if not batch:
                break
            if self.max_nodes is not None:
                allowed = self.max_nodes - self._nodes_expanded
                if allowed < len(batch):
                    # Unexpanded, unpruned nodes remain: the result is only
                    # a certified lower bound from here on.
                    self._complete = False
                    batch = batch[:allowed]
                    if not batch:
                        break
            self._nodes_expanded += len(batch)
            slots = np.asarray(batch, dtype=np.int64)
            best_before = self._best_lifetime
            if rounds % _LB_PROBE_PERIOD == 0:
                # Dual-bound probe: greedy-complete the popped nodes (an
                # achievable schedule each, so a sound incumbent) before
                # branching them.  Periodic, not per-round: the rollout
                # costs about one extra expansion round, and the frontier's
                # bound order means the same strong nodes would surface
                # again next probe if skipped.
                lower, tails = self._ops.greedy_lifetimes(slots)
                best = int(np.argmax(lower))
                if lower[best] > self._best_lifetime + _TIME_EPSILON:
                    self._best_lifetime = float(lower[best])
                    self._best_assignment = self._ops.trace.assignment(
                        int(pool.trace[slots[best]])
                    ) + tuple(tails[best])
            rounds += 1
            candidates, children = self._ops.branch(slots)
            pool.release(slots)
            self._record(candidates)
            candidates, ready = self._ops.prepare(children, self._best_lifetime)
            self._record(candidates)
            admit(ready)
            if self._best_lifetime > best_before + _TIME_EPSILON:
                evict_frontier()

        replay = simulator.run(
            self.load, FixedAssignmentPolicy(self._best_assignment)
        )
        lifetime = (
            replay.lifetime
            if replay.lifetime is not None
            else self.load.total_duration
        )
        return OptimalScheduleResult(
            lifetime=lifetime,
            schedule=replay.schedule,
            assignment=self._best_assignment,
            nodes_expanded=self._nodes_expanded,
            complete=self._complete,
            backend=self.model,
            incumbent_policy=incumbent_name,
            final_states=replay.final_states,
            residual_charge=replay.residual_charge,
        )

    def _record(self, candidates) -> None:
        for lifetime, trace_id in candidates:
            if lifetime > self._best_lifetime + _TIME_EPSILON:
                self._best_lifetime = lifetime
                # Reconstructing the assignment walks the decision trace
                # backwards; it only happens for improving candidates, so
                # the cost is O(depth) a handful of times per search.
                self._best_assignment = self._ops.trace.assignment(trace_id)


# --------------------------------------------------------------------- #
# convenience entry points
# --------------------------------------------------------------------- #
def find_optimal_schedule_batched(
    params: Sequence[BatteryParameters],
    load: Load,
    model: Optional[str] = None,
    backend: Optional[str] = None,
    time_step: float = 0.01,
    charge_unit: float = 0.01,
    max_nodes: Optional[int] = None,
    use_dominance: bool = True,
    dominance_tolerance: float = 0.0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed_assignment: Optional[Sequence[int]] = None,
    archive_limit: Optional[int] = None,
    use_symmetry: bool = True,
) -> OptimalScheduleResult:
    """Batched counterpart of :func:`repro.core.optimal.find_optimal_schedule`.

    Same semantics and result type; models without a vectorized kernel
    (``"linear"``) transparently fall back to the scalar search (which
    ignores ``seed_assignment`` -- seeding is a pure pruning optimization;
    see :meth:`BatchOptimalScheduler.search`).  ``archive_limit=None``
    picks the tolerance-adaptive archive depth documented on
    :class:`BatchOptimalScheduler`.
    """
    resolved = resolve_model(model, backend)
    if resolved not in VECTOR_MODELS:
        scheduler = OptimalScheduler(
            make_battery_models(
                params,
                backend=resolved,
                time_step=time_step,
                charge_unit=charge_unit,
            ),
            load,
            max_nodes=max_nodes,
            use_dominance=use_dominance,
            dominance_tolerance=dominance_tolerance,
            use_symmetry=use_symmetry,
        )
        return scheduler.search()
    scheduler = BatchOptimalScheduler(
        params,
        load,
        model=resolved,
        time_step=time_step,
        charge_unit=charge_unit,
        max_nodes=max_nodes,
        use_dominance=use_dominance,
        archive_limit=archive_limit,
        dominance_tolerance=dominance_tolerance,
        batch_size=batch_size,
        use_symmetry=use_symmetry,
    )
    return scheduler.search(seed_assignment=seed_assignment)


def optimal_schedules_batch(
    loads: Sequence[Load],
    params: Sequence[BatteryParameters],
    model: str = "analytical",
    time_step: float = 0.01,
    charge_unit: float = 0.01,
    max_nodes: Optional[int] = 20_000,
    dominance_tolerance: float = 0.005,
    scalar_fallback: bool = True,
    seed_assignment: Optional[Sequence[int]] = None,
) -> List[OptimalScheduleResult]:
    """One batched optimal search per load, with the sweep-friendly defaults.

    The node cap and state-merge tolerance default to the Monte-Carlo
    sweep's long-standing bounds (20k nodes, half a charge unit), so a
    sweep's ``optimal`` column stays tractable on arbitrary random loads;
    pass ``max_nodes=None`` / ``dominance_tolerance=0.0`` for certified
    searches.

    A capped best-first search only certifies a (sometimes shallow) lower
    bound, while the scalar depth-first search drives its incumbent much
    deeper under the same budget.  With ``scalar_fallback`` (the default,
    used by the sweep runner and the Monte-Carlo column alike so both
    report identical numbers), every search that hits ``max_nodes`` is
    re-driven through :func:`repro.engine.parallel.optimal_schedules_chunk`
    and the better *whole result* -- lifetime, schedule, decision count and
    residual charge together -- is kept.  The scalar result never replaces
    a longer-lived batched schedule; on (1e-9) lifetime ties a scalar
    search that completed within the budget wins, upgrading the column to
    a certified optimum.  (With ``dominance_tolerance > 0`` a "complete"
    DFS can still miss a better schedule the batched frontier found --
    tolerance merging is order-dependent -- which is why the lifetime
    comparison comes first.)

    ``seed_assignment`` (see :meth:`BatchOptimalScheduler.search`) seeds
    every search in the list with a neighboring schedule; the sweep runner
    passes one load per call, chaining each grid point's winner into the
    next.  A *seeded search that hits its node cap is re-run without the
    seed*: a capped search's outcome depends on which nodes fit in the
    budget, so the fresh re-run (whose node work is still accounted in
    ``nodes_expanded``) is what keeps the documented invariant that
    seeding prunes work but never changes reported results, capped or not.
    """
    import dataclasses

    from repro.engine.parallel import optimal_schedules_chunk

    results = []
    for load in loads:
        result = find_optimal_schedule_batched(
            params,
            load,
            model=model,
            time_step=time_step,
            charge_unit=charge_unit,
            max_nodes=max_nodes,
            dominance_tolerance=dominance_tolerance,
            seed_assignment=seed_assignment,
        )
        if seed_assignment is not None and not result.complete:
            seeded_nodes = result.nodes_expanded
            fresh = find_optimal_schedule_batched(
                params,
                load,
                model=model,
                time_step=time_step,
                charge_unit=charge_unit,
                max_nodes=max_nodes,
                dominance_tolerance=dominance_tolerance,
            )
            result = dataclasses.replace(
                fresh, nodes_expanded=fresh.nodes_expanded + seeded_nodes
            )
        if scalar_fallback and not result.complete:
            scalar = optimal_schedules_chunk(
                [load],
                params,
                backend=model,
                max_nodes=max_nodes,
                dominance_tolerance=dominance_tolerance,
                time_step=time_step,
                charge_unit=charge_unit,
            )[0]
            if scalar.lifetime > result.lifetime + _TIME_EPSILON or (
                scalar.complete
                and scalar.lifetime >= result.lifetime - _TIME_EPSILON
            ):
                result = scalar
        results.append(result)
    return results
