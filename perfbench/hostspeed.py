"""Host-speed correction for the benchmark's timings.

The 2-CPU development host switches between a fast and a slow speed
state, about 1.4x apart, every few seconds, and at times stays slow for
minutes.  A plain timing then says more about the host than about
`gdyn`.  So every timing is taken together with a fixed pure-Python
probe loop run just before and just after it, and scaled by
`PROBE_S / (mean of the two probe times)`.  A corrected time reads as
seconds on a host where the probe takes `PROBE_S`; the probe does not
touch `gdyn`, so a change to `gdyn` moves the corrected time as it moves
the raw one.

The measuring process is pinned to one CPU (its children inherit the
pin), so that the probe and the timed work run on the same core.
"""

from __future__ import annotations

import os
from time import perf_counter

PROBE_S = 0.0016   # probe time on the fast state of the development host
INTERVAL = 0.05    # at most one probe per this many seconds of work


def pin() -> None:
    """Run this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return perf_counter() - t0


class Corrector:
    """Collects `(key, seconds)` timings and corrects each one by the
    probes taken on either side of it.  Short timings share probes: a
    new probe is taken once `INTERVAL` has passed since the last."""

    def __init__(self):
        self.last = probe()
        self.at = perf_counter()
        self.pending: list[tuple[object, float]] = []
        self.out: list[tuple[object, float]] = []
        self.probes = [self.last]

    def add(self, key, seconds: float) -> None:
        self.pending.append((key, seconds))
        if perf_counter() - self.at >= INTERVAL:
            self._probe()

    def _probe(self) -> None:
        new = probe()
        scale = 2.0 * PROBE_S / (self.last + new)
        self.out += [(key, dt * scale) for key, dt in self.pending]
        self.pending = []
        self.last = new
        self.at = perf_counter()
        self.probes.append(new)

    def finish(self) -> list[tuple[object, float]]:
        if self.pending:
            self._probe()
        return self.out
