"""The host probe: a fixed kernel of the suite's own, timed between operations.

This box slows every instruction stream by a factor that wanders between 1.0
and 1.6 within seconds and is rarely at 1.0 (``results/README.md`` has the
time series), so neither a wall time nor its minimum over a run repeats.  What
repeats is an operation's CPU time *relative to* a fixed kernel run right
before and after it: both see the same host.  Every timing of the suite is
therefore normalised::

    cpu / probe * PROBE_REFERENCE_S + (wall - cpu)

CPU seconds are rescaled to a host on which the kernel takes its reference
time; seconds spent waiting (a coalescing window, a wake-up) are not CPU work
and stay as they are.

The kernel does what the planning stack does — builds, hashes and sorts small
Python objects, then pushes a small batch through a few dense layers with
numpy — and calls nothing of ``src/``, so it moves only with the host.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
from estimators import typical

#: The kernel's wall time on this class of host when undisturbed (the floor
#: of its time series next to a beam search).  A constant: it only fixes the
#: unit, so that normalised timings read as seconds on that host.
PROBE_REFERENCE_S = 0.0025

#: A probe is due once this much time has passed since the last one:
#: operations longer than this are bracketed one by one, shorter ones share a
#: bracket.
PROBE_EVERY_S = 0.020

_WEIGHTS = [np.random.RandomState(layer).randn(128, 128) for layer in range(4)]
_BATCH = np.random.RandomState(4).randn(32, 128)


def kernel() -> float:
    """The fixed work: object churn as in beam search, then dense layers."""
    memo = {}
    items = []
    for index in range(1500):
        key = frozenset((index % 13, (index * 7) % 17, (index * 3) % 11))
        item = (index, key, (index * 31) % 101)
        memo[(key, index % 50)] = item
        items.append(item)
    items.sort(key=lambda item: item[2])
    total = float(len(memo))
    for _ in range(12):
        hidden = _BATCH
        for weights in _WEIGHTS:
            hidden = np.maximum(hidden @ weights, 0.0)
        total += float(hidden[0, 0])
    return total


def normalise(wall: float, cpu: float, scale: float) -> float:
    """``wall`` seconds, ``cpu`` of them on the CPU, on the reference host.

    ``scale`` is the probe's wall time next to the operation.
    """
    cpu = min(cpu, wall)
    return cpu / scale * PROBE_REFERENCE_S + (wall - cpu)


class HostProbe:
    """Times the kernel between operations and hands each operation its scale.

    A sample is taken whenever ``PROBE_EVERY_S`` have passed since the last
    one, looked at before a pass and after each operation.  ``after_operation``
    returns the operation's *mark*; once a later sample exists (``sample()``
    after the last pass), ``scale(mark)`` is the lesser of the sample before
    the operation and the first one after it, in seconds — a disturbed sample
    reads high, never low.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last_end = float("-inf")

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        self._last_end = time.perf_counter()
        self.samples.append(self._last_end - started)

    def begin_pass(self) -> None:
        if time.perf_counter() - self._last_end >= PROBE_EVERY_S:
            self.sample()

    def after_operation(self) -> int:
        """Call right after an operation's end was read off the clock."""
        mark = len(self.samples)
        self.begin_pass()
        return mark

    def scale(self, mark: int) -> float:
        return min(self.samples[mark - 1], self.samples[mark])

    def measure(self, function: Callable[[], object], repeats: int = 7) -> float:
        """Normalised seconds of ``function()``, the typical of ``repeats``."""
        values = []
        for _ in range(repeats):
            self.sample()
            cpu_started = time.process_time()
            started = time.perf_counter()
            function()
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            values.append((wall, cpu, len(self.samples)))
        self.sample()
        return typical([normalise(wall, cpu, self.scale(mark)) for wall, cpu, mark in values])
