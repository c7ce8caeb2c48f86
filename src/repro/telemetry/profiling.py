"""Continuous low-overhead sampling profiler (the watchtower's CPU eyes).

A daemon thread wakes :data:`SAMPLING_HZ` times per second, walks every live thread's
stack via :func:`sys._current_frames`, and folds each stack into a
``frame;frame;frame -> count`` table (Brendan Gregg's folded-stack format,
root first).  Sampling is wall-clock: a thread parked in a lock or a
``select`` shows up exactly as often as one spinning in a hot loop, which
is what a serving system wants — the profile answers "where is time
spent", not "where are instructions retired".

Every gateway worker and every scorer process runs one profiler.  Profiles
are plain JSON dicts, so they cross process boundaries through the
existing telemetry push frames (sharded fleet) or atomic spool-dir files
(scorer pool), merge with :func:`merge_profiles`, and render as a
flamegraph-ready tree with :func:`flamegraph_from_profile`.

The profiler is process-global and refcounted: each subsystem that wants
profiling calls :func:`start_profiler` and pairs it with
:func:`stop_profiler`; the sampling thread starts with the first acquire
and stops with the last release, so co-resident gateways (tests) share one
thread instead of stacking them.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Callable

__all__ = [
    "SamplingProfiler",
    "flamegraph_from_profile",
    "get_profiler",
    "merge_profiles",
    "start_profiler",
    "stop_profiler",
    "write_profile_atomic",
]

SAMPLING_HZ = 67.0
"""Sampling rate, in passes over all threads per second.

Deliberately off the round 50/100 marks so the sampler does not beat
against timers that fire on decimal boundaries (the classic lockstep-bias
failure mode of fixed-rate profilers).
"""

MAX_DISTINCT_STACKS = 4096
"""Bound on the folded-stack table; overflow folds into ``<overflow>``."""

MAX_DEPTH = 48
"""Frames kept per stack; the innermost beyond it are dropped."""

_ENV_DISABLE = "REPRO_PROFILE"


def profiling_disabled_by_env() -> bool:
    """True when ``REPRO_PROFILE=0`` asks for no sampling threads at all."""
    return os.environ.get(_ENV_DISABLE, "1") in {"0", "false", "no"}


class SamplingProfiler:
    """Folded-stack wall-clock sampler over ``sys._current_frames``.

    Args:
        process: Label recorded in snapshots (e.g. ``"gateway-w0"``,
            ``"scorer-2"``) so merged fleet profiles stay attributable.
        clock: Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        *,
        process: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.process = process or f"pid-{os.getpid()}"
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._samples = 0
        self._threads_seen = 0
        self._started_at: float | None = None
        self._active_seconds = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the sampling thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._started_at = self._clock()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the sampling thread; the aggregated profile is retained."""
        with self._lock:
            thread = self._thread
            self._thread = None
            if self._started_at is not None:
                self._active_seconds += max(self._clock() - self._started_at, 0.0)
                self._started_at = None
        self._stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    # -- sampling ----------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / SAMPLING_HZ
        next_tick = self._clock() + interval
        while not self._stop.wait(max(next_tick - self._clock(), 0.0)):
            next_tick += interval
            # A long GC pause or suspend can leave next_tick far in the
            # past; resync instead of burst-sampling to catch up.
            now = self._clock()
            if next_tick < now:
                next_tick = now + interval
            self.sample_once()

    def sample_once(self) -> int:
        """Take one pass over all live threads; returns threads sampled."""
        own = threading.get_ident()
        frames = sys._current_frames()
        folded: list[str] = []
        for ident, frame in frames.items():
            if ident == own:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < MAX_DEPTH:
                code = frame.f_code
                stack.append(
                    f"{os.path.basename(code.co_filename)}:{code.co_name}"
                )
                frame = frame.f_back
                depth += 1
            if stack:
                folded.append(";".join(reversed(stack)))
        del frames
        with self._lock:
            self._samples += 1
            self._threads_seen += len(folded)
            for key in folded:
                if key in self._stacks:
                    self._stacks[key] += 1
                elif len(self._stacks) < MAX_DISTINCT_STACKS:
                    self._stacks[key] = 1
                else:
                    self._stacks["<overflow>"] = (
                        self._stacks.get("<overflow>", 0) + 1
                    )
        return len(folded)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe profile: folded stacks plus sampling bookkeeping."""
        with self._lock:
            active = self._active_seconds
            if self._started_at is not None:
                active += max(self._clock() - self._started_at, 0.0)
            return {
                "process": self.process,
                "hz": SAMPLING_HZ,
                "samples": self._samples,
                "threads_sampled": self._threads_seen,
                "duration_seconds": active,
                "stacks": dict(self._stacks),
            }


def merge_profiles(profiles: list[dict]) -> dict:
    """Merge per-process profiles into one fleet-wide folded-stack table.

    Counts sum per folded stack; ``samples``/``threads_sampled``/
    ``duration_seconds`` sum; contributing process labels are listed.
    Entries that are not profile-shaped dicts are skipped rather than
    poisoning the merge (a worker mid-restart may push a partial frame).
    """
    merged_stacks: dict[str, int] = {}
    samples = 0
    threads = 0
    duration = 0.0
    processes: list[str] = []
    for profile in profiles:
        if not isinstance(profile, dict):
            continue
        stacks = profile.get("stacks")
        if not isinstance(stacks, dict):
            continue
        for key, count in stacks.items():
            if isinstance(count, (int, float)):
                merged_stacks[key] = merged_stacks.get(key, 0) + int(count)
        samples += int(profile.get("samples", 0) or 0)
        threads += int(profile.get("threads_sampled", 0) or 0)
        duration += float(profile.get("duration_seconds", 0.0) or 0.0)
        process = profile.get("process")
        if isinstance(process, str) and process not in processes:
            processes.append(process)
    return {
        "processes": processes,
        "samples": samples,
        "threads_sampled": threads,
        "duration_seconds": duration,
        "stacks": merged_stacks,
    }


def flamegraph_from_profile(profile: dict) -> dict:
    """Fold a profile into the nested ``{name, value, children}`` tree that
    d3-flame-graph / speedscope-style renderers consume directly."""
    root: dict = {"name": "all", "value": 0, "children": {}}
    stacks = profile.get("stacks", {})
    if isinstance(stacks, dict):
        for stack, count in stacks.items():
            if not isinstance(count, (int, float)) or count <= 0:
                continue
            count = int(count)
            root["value"] += count
            node = root
            for frame in str(stack).split(";"):
                children: dict = node["children"]
                child = children.get(frame)
                if child is None:
                    child = {"name": frame, "value": 0, "children": {}}
                    children[frame] = child
                child["value"] += count
                node = child

    def _listify(node: dict) -> dict:
        children = [
            _listify(child)
            for child in sorted(
                node["children"].values(),
                key=lambda c: (-c["value"], c["name"]),
            )
        ]
        out = {"name": node["name"], "value": node["value"]}
        if children:
            out["children"] = children
        return out

    return _listify(root)


def write_profile_atomic(profile: dict, path: str) -> None:
    """Write a profile JSON file atomically (tmp + rename) so concurrent
    readers never observe a torn file — the scorer spool-dir transport."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(profile, handle)
    os.replace(tmp, path)


# -- process-global refcounted profiler -----------------------------------

_global_lock = threading.Lock()
_global_profiler: SamplingProfiler | None = None
_global_refs = 0


def start_profiler(*, process: str | None = None) -> SamplingProfiler | None:
    """Acquire the process-global profiler (starting it on first acquire).

    Returns ``None`` when ``REPRO_PROFILE=0`` disables sampling.
    ``process`` only takes effect for the acquire that creates the
    profiler; later acquires share the running instance.
    """
    global _global_profiler, _global_refs
    if profiling_disabled_by_env():
        return None
    with _global_lock:
        if _global_profiler is None:
            _global_profiler = SamplingProfiler(process=process)
        _global_refs += 1
        _global_profiler.start()
        return _global_profiler


def stop_profiler() -> None:
    """Release one acquire; the sampling thread stops at refcount zero."""
    global _global_profiler, _global_refs
    with _global_lock:
        if _global_refs > 0:
            _global_refs -= 1
        if _global_refs == 0 and _global_profiler is not None:
            _global_profiler.stop()
            _global_profiler = None


def get_profiler() -> SamplingProfiler | None:
    """The process-global profiler, if one is currently acquired."""
    return _global_profiler
