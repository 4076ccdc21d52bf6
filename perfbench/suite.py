"""The benchmark's workloads: sweep specs built from public ``repro`` calls.

Each workload is a tuple of :class:`repro.sweep.SweepSpec` objects that one
cold run pushes through ``SweepRunner.run`` into an empty store.  They are
derived from the builtin campaigns (``table5``, ``table5-optimal`` and
``fleet``) with the benchmark's own grids, chunking and node caps; every
run records the spec hashes, so a change to a builtin campaign shows up as
a new hash next to the numbers.  Why each workload was chosen, and which
end-to-end metric each traced layer should move on it, is the workload's
``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.kibam.parameters import B1
from repro.sweep import BatteryConfig, LoadAxis, SweepSpec
from repro.sweep.builtin import PAPER_POLICIES, builtin_specs
from repro.workloads.generator import ILS_LIKE_RANDOM_CONFIG

#: Random loads per model in ``mc-heuristic`` and scenarios per stored chunk:
#: 20 chunks per model, 40 in all, so the store's read path is timed over
#: many files.  The discrete engine's cost grows with the chunk count (its
#: tick loop runs once per chunk), which is why the load count is modest.
MC_LOADS = 2000
MC_CHUNK = 100

#: Capacity grid of ``paper-optimal``: ascending, so that 40 of the 50
#: searches are seeded by their neighbouring grid point.
PAPER_GRID = (0.8, 0.85, 0.9, 0.95, 1.0)

#: Node cap of the ``paper-dkibam`` optimal column.  At the spec default
#: (20,000) one run takes about 54 s, mostly IL` 250's capped search and
#: its fallback; at 700 ILs 250 and IL` 250 still hit the cap, so the
#: capped-search fallback through the scalar dKiBaM runs, and a cold run
#: takes about 5 s on a two-core machine.
DKIBAM_MAX_NODES = 700

#: Node cap of the ``fleet-optimal`` optimal column.  At the builtin
#: spec's 3,000 one cold run takes 17-25 s on a two-core machine, too long
#: to take the median of several in one run; at 1,000 it takes about 5.5 s
#: and has the same shape: the two DCS 500 searches hit the cap and the
#: scalar fallback replaces both results.
FLEET_MAX_NODES = 1000

#: The fixed search matrix of the traced run: one node budget, widths
#: 2/4/8, and the two loads whose node rates the older records quoted.
MATRIX_MAX_NODES = 1500
MATRIX_TOLERANCE = 0.01
MATRIX_WIDTHS = (2, 4, 8)

#: Fewest cold runs whose median a run reports as ``cold_s``.
MIN_COLD_RUNS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        specs: the sweeps one cold run executes, in order.
        node_cap: the optimal column's node cap (``None`` without one).
        nominal_cold_s: about how long one cold run takes on a two-core
            machine; a run makes ``--seconds`` divided by this many cold
            runs, and never fewer than ``MIN_COLD_RUNS``.
    """

    name: str
    specs: Tuple[SweepSpec, ...]
    node_cap: Optional[int]
    nominal_cold_s: float


def _mc_heuristic(seed: int) -> Workload:
    base = SweepSpec(
        name="mc-heuristic",
        batteries=(BatteryConfig(label="2xB1", params=(B1, B1)),),
        loads=(LoadAxis.random(MC_LOADS, seed=seed, config=ILS_LIKE_RANDOM_CONFIG),),
        policies=PAPER_POLICIES,
        chunk_size=MC_CHUNK,
    )
    return Workload(
        name="mc-heuristic",
        specs=(base, base.with_model("discrete")),
        node_cap=None,
        nominal_cold_s=6.5,
    )


def _paper_optimal(seed: int) -> Workload:
    table5 = builtin_specs()["table5-optimal"]
    spec = dataclasses.replace(
        table5,
        name="paper-optimal",
        batteries=tuple(
            BatteryConfig(
                label=f"2xB1 x{scale:g}", params=(B1.scaled(scale), B1.scaled(scale))
            )
            for scale in PAPER_GRID
        ),
    )
    return Workload(
        name="paper-optimal",
        specs=(spec,),
        node_cap=spec.optimal_max_nodes,
        nominal_cold_s=6.0,
    )


def _fleet_optimal(seed: int) -> Workload:
    fleet = builtin_specs()["fleet"]
    spec = dataclasses.replace(
        fleet.with_optimal(
            max_nodes=FLEET_MAX_NODES,
            dominance_tolerance=fleet.optimal_dominance_tolerance,
        ),
        name="fleet-optimal",
    )
    return Workload(
        name="fleet-optimal",
        specs=(spec,),
        node_cap=FLEET_MAX_NODES,
        nominal_cold_s=6.0,
    )


def _paper_dkibam(seed: int) -> Workload:
    spec = dataclasses.replace(
        builtin_specs()["table5"]
        .with_model("discrete")
        .with_optimal(max_nodes=DKIBAM_MAX_NODES),
        name="paper-dkibam",
    )
    return Workload(
        name="paper-dkibam",
        specs=(spec,),
        node_cap=DKIBAM_MAX_NODES,
        nominal_cold_s=3.6,
    )


WORKLOADS = {
    "mc-heuristic": _mc_heuristic,
    "paper-optimal": _paper_optimal,
    "fleet-optimal": _fleet_optimal,
    "paper-dkibam": _paper_dkibam,
}


def build(name: str, seed: int) -> Workload:
    """The named workload; only ``mc-heuristic`` draws its loads from ``seed``."""
    return WORKLOADS[name](seed)


def matrix_cases() -> List[Tuple[str, tuple, object]]:
    """``(metric prefix, battery params, load)`` for the fixed search matrix.

    Width 2 is two B1 cells; widths 4 and 8 are the builtin fleets' two
    identical subgroups (half- and 0.375-scale B1), so every width keeps
    group-wise symmetry.  Both loads hit the node budget at every width.
    """
    from repro.workloads.profiles import paper_loads

    (dcs_label, dcs_load), = builtin_specs()["fleet"].loads[1].resolve()
    if dcs_label != "DCS 500":
        raise RuntimeError(f"fleet's second load is {dcs_label!r}, not DCS 500")
    loads = {"ils250": paper_loads()["ILs 250"], "dcs500": dcs_load}
    half, small = B1.scaled(0.5), B1.scaled(0.375)
    widths = {
        2: (B1, B1),
        4: (half,) * 2 + (small,) * 2,
        8: (half,) * 4 + (small,) * 4,
    }
    return [
        (f"search.matrix.w{width}.{load_name}", widths[width], load)
        for width in MATRIX_WIDTHS
        for load_name, load in loads.items()
    ]
