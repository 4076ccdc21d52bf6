"""Machine-speed probe for the timed set-up and cold runs.

On a shared host the speed of a core changes by a third or more within
seconds, with the load of other tenants, and a cold run's wall time changes
with it.  While a run is timed, :class:`SpeedProbe` interrupts it every
``INTERVAL_S`` (``SIGALRM``) and times a small fixed piece of pure-Python and
NumPy work that uses nothing of ``repro``.  The mean probe time is the
machine's speed over the run, and :func:`scaled` turns the run's wall time
into seconds at a fixed reference speed, at which one probe takes
``REFERENCE_S``.

On a shared two-core VM, 100-150 s of back-to-back cold runs of one workload
read 3.3-5.5 s of wall time (interquartile spread 10-26% of the median);
scaled, their spread was 2.5-3.8%.  The probes take about 1% of a run and
are taken out of it before scaling.
"""

from __future__ import annotations

import signal
import time
from typing import List

import numpy as np

#: Seconds between the end of one probe and the start of the next.
INTERVAL_S = 0.025
#: Probe time that defines the reference speed (about the probe's time on
#: an idle two-core VM, so scaled times read close to wall times there).
REFERENCE_S = 250e-6

_VECTOR = np.arange(256, dtype=float)


def _probe_work() -> float:
    total = 0
    for i in range(2000):
        total += i * i % 7
    for _ in range(20):
        total += float(np.sqrt(_VECTOR * _VECTOR + 1.0).sum())
    return total


def scaled(wall: float, samples: List[float]) -> float:
    """``wall`` seconds, less the probes' own time, at the reference speed."""
    if not samples:
        raise RuntimeError("the timed run was too short for a speed probe")
    probed = sum(samples)
    return (wall - probed) * REFERENCE_S * len(samples) / probed


class SpeedProbe:
    """Context manager that samples the machine's speed while it is open."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._active = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        started = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - started)
        # Re-armed only after the probe, so two probes never overlap.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
