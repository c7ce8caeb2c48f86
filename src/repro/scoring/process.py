"""Process-based scoring: a fixed pool of scorer processes, snapshots on disk.

:class:`ProcessPoolBackend` runs the forward passes in separate scorer
processes.  Since scoring in process became incremental (one new row per
layer for a new join) this is the slower path at every worker count measured
— a submit still featurises and packs whole trees under the submitter's GIL
and the scorer runs the full ``predict_examples`` forward — so it is not a
way around the GIL; it is the cross-process consumer of version-pinned
snapshots, and the place a scorer crash is contained:

- **Weights travel as files, never as live objects.**  Each network a
  request pins is *published* once per weight version — captured as a
  :class:`~repro.lifecycle.snapshot.ModelSnapshot` and written to this
  pool's own spool directory with :meth:`ModelSnapshot.save` — and scorer
  processes restore it with
  :meth:`~repro.model.value_network.ValueNetwork.from_state_dict` (a
  signature-derived featuriser stand-in; no schema needed).  A task carries
  the token of the file it is scored with, so a request is scored by the
  weights it pinned no matter when a promotion landed, and two versions are
  never mixed in one batch.
- **Featurisation happens in the submitting worker.**  Only the pickle-free
  :mod:`~repro.scoring.wire` payloads (raw numeric buffers) cross the
  process boundary.
- **One transport.**  Each scorer has a task queue of its own and replies
  on a pipe of its own, so a dead scorer's channel reads as end-of-file.
  The pool's size is fixed at construction, and each scorer runs its BLAS
  single-threaded: the pool's parallelism is its process count.
- **Failures are typed, not hung.**  A scorer process that dies mid-batch
  fails its in-flight requests with
  :class:`~repro.scoring.protocol.ScoringBackendError`; the collector thread
  notices the death, counts it, and routes subsequent requests to the
  surviving workers (the serving layer falls back to in-process scoring when
  failures persist).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from multiprocessing.connection import wait as wait_for_connections
from typing import Callable, Hashable

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.core import ScoringCore, pinned_network
from repro.scoring.protocol import ScoringBackendError, ScoringBridgeStats
from repro.scoring.wire import (
    attach_span,
    attach_trace,
    detach_span,
    detach_trace,
    pack_examples,
    pack_predictions,
    unpack_examples,
    unpack_predictions,
)
from repro.sql.query import Query
from repro.telemetry.events import emit_event
from repro.telemetry.trace import add_span, current_trace_id

#: Test hook: a task carrying this token makes the scorer process hard-exit
#: mid-batch, simulating a crash.  No pin resolves to it: the next submit
#: sends it only when the backend's ``_crash_next_submit`` flag is set (the
#: failure-mode tests set it), and the flag clears as that task is queued.
_CRASH_TOKEN = -0xDEAD

#: Published snapshot files retained per backend.  Tokens are monotone and a
#: pin only outlives its publication by one in-flight search, so a small
#: window bounds spool-directory growth for promote-every-iteration loops.
_SPOOL_RETENTION = 8

#: What sizes a BLAS thread pool when numpy loads; see ``_spawn_worker``.
_BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: ``os.environ`` belongs to the process, not to one backend: every pool in
#: the process sets and restores those variables under this one lock.
_SPAWN_ENV_LOCK = threading.Lock()


def _snapshot_filename(token: int) -> str:
    return f"model-v{token}.npz"


def _scorer_main(
    worker_id: int,
    spool_dir: str,
    task_queue,
    results,
    max_batch_size: int,
) -> None:
    """One scorer process: load published snapshots, serve forward passes.

    Tasks are ``(request_id, token, payload)`` tuples, ``payload`` the packed
    examples (trace-wrapped when the submitter is traced).  Replies are
    ``(request_id, ok, data, chunk_sizes)`` — packed predictions, or the
    error text — sent on ``results``, this worker's own pipe, by the task
    loop itself, so a reply is either not begun or complete when the next
    task (or a crash inside it) starts.  ``None`` shuts the worker down.
    """
    from repro.lifecycle.snapshot import ModelSnapshot
    from repro.telemetry.logging import maybe_configure_from_env, set_log_context
    from repro.telemetry.profiling import (
        SamplingProfiler,
        profiling_disabled_by_env,
        write_profile_atomic,
    )

    set_log_context(process=f"scorer-{worker_id}")
    maybe_configure_from_env()

    # Continuous profiling: sample this scorer's stacks and publish them as
    # an atomic spool-dir file the parent merges into ``GET /v1/profile``.
    # The filename carries the pid so a respawned worker in the same slot
    # does not fight its predecessor's final write.
    profiler: SamplingProfiler | None = None
    profile_stop = threading.Event()
    if not profiling_disabled_by_env():
        profiler = SamplingProfiler(process=f"scorer-{worker_id}")
        profiler.start()
        profile_path = os.path.join(
            spool_dir, f"profile-scorer-{worker_id}-{os.getpid()}.json"
        )

        def _publish_profile() -> None:
            try:
                write_profile_atomic(profiler.snapshot(), profile_path)
            except OSError:
                pass  # spool dir mid-teardown

        def _profile_pump() -> None:
            while not profile_stop.wait(0.5):
                _publish_profile()
            _publish_profile()

        threading.Thread(
            target=_profile_pump, name="scorer-profile-pump", daemon=True
        ).start()
    networks: dict[int, ValueNetwork] = {}

    # Readiness handshake (request id 0 is never allocated to real requests):
    # imports are done and the task loop is about to block on the queue.
    results.send((0, True, b"ready", (worker_id,)))
    while True:
        task = task_queue.get()
        if task is None:
            break
        request_id, token, payload = task
        try:
            if token == _CRASH_TOKEN:
                os._exit(3)
            trace_id, raw = detach_trace(payload)
            started = time.perf_counter()
            network = networks.get(token)
            if network is None:
                path = os.path.join(spool_dir, _snapshot_filename(token))
                snapshot = ModelSnapshot.load(path)
                network = ValueNetwork.from_state_dict(snapshot.state)
                if len(networks) > 4:
                    # Tokens are monotone; old versions stop being pinned
                    # once their swap window closes.
                    networks.clear()
                networks[token] = network
            examples = unpack_examples(raw)
            outputs: list[np.ndarray] = []
            chunk_sizes: list[int] = []
            for start in range(0, len(examples), max_batch_size):
                chunk = examples[start : start + max_batch_size]
                outputs.append(network.predict_examples(chunk))
                chunk_sizes.append(len(chunk))
            predictions = (
                np.concatenate(outputs) if outputs else np.zeros(0, dtype=np.float64)
            )
            seconds = time.perf_counter() - started
            reply = pack_predictions(predictions)
            if trace_id is not None:
                # The scorer measures its own duration; the submitting
                # side grafts it into the live trace.
                reply = attach_span(reply, worker_id, seconds)
            results.send((request_id, True, reply, tuple(chunk_sizes)))
        except BaseException as error:  # noqa: BLE001 - shipped to the caller
            results.send((request_id, False, f"{type(error).__name__}: {error}", ()))
    profile_stop.set()
    if profiler is not None:
        profiler.stop()
    results.close()


class _PendingRequest:
    """Parent-side state of one dispatched task."""

    __slots__ = ("worker_index", "done", "ok", "data", "chunk_sizes")

    def __init__(self, worker_index: int):
        self.worker_index = worker_index
        self.done = threading.Event()
        self.ok = False
        self.data: "bytes | str" = b""
        self.chunk_sizes: tuple[int, ...] = ()


class ProcessPoolBackend:
    """Scoring server over N scorer processes restoring published snapshots.

    Args:
        featurizer: Featuriser used by the submitting side.  Optional: the
            scored network's own featuriser is used when omitted.
        num_workers: Scorer processes in the pool (fixed).
        network_provider: Source of the network unpinned requests score with
            (published on first use).
        spool_dir: Directory snapshots are published into (shared with the
            workers).  A private temporary directory is created — and removed
            on :meth:`close` — when omitted.
        max_batch_size: Forward-pass size cap inside each scorer.
        submit_timeout_seconds: How long one submit waits for its reply
            before failing with :class:`ScoringBackendError`.
        start_method: ``multiprocessing`` start method (default ``"spawn"``:
            safe with the serving layer's threads; pass ``"fork"`` to trade
            that safety for faster startup).
        max_respawns: Crashed scorer processes the collector may replace
            with fresh ones (pool-wide budget; 0 keeps the historical
            survive-on-the-remaining-pool behaviour).  A respawned worker
            restores snapshots from the spool on demand, so no state is
            lost; the requests in flight on the crashed worker still fail
            with their typed error.
    """

    def __init__(
        self,
        featurizer=None,
        *,
        num_workers: int = 2,
        network_provider: Callable[[], "ValueNetwork | None"] | None = None,
        spool_dir: str | None = None,
        max_batch_size: int = 512,
        submit_timeout_seconds: float = 120.0,
        start_method: str = "spawn",
        max_respawns: int = 0,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self._featurizer = featurizer
        self.network_provider = network_provider
        self.submit_timeout_seconds = submit_timeout_seconds
        self._core = ScoringCore(max_batch_size)
        self._owns_spool = spool_dir is None
        self._spool_dir = spool_dir or tempfile.mkdtemp(prefix="repro-scoring-")
        os.makedirs(self._spool_dir, exist_ok=True)

        self._published: dict[Hashable, int] = {}
        self._tokens = itertools.count(1)
        self._publish_lock = threading.Lock()
        self._crash_next_submit = False  # failure-mode tests only

        self._lock = threading.Lock()
        self._pending: dict[int, _PendingRequest] = {}
        self._request_ids = itertools.count(1)
        self._next_worker = 0
        self._closed = False

        self.max_respawns = max_respawns
        self._respawns_used = 0
        self._context = multiprocessing.get_context(start_method)
        self._task_queues = []
        self._result_readers = []
        self._processes = []
        for worker_id in range(num_workers):
            task_queue, reader, process = self._spawn_worker(worker_id)
            self._task_queues.append(task_queue)
            self._result_readers.append(reader)
            self._processes.append(process)
        self._dead = [False] * num_workers
        self._ready = [threading.Event() for _ in range(num_workers)]
        self._collector = threading.Thread(
            target=self._collect, name="scoring-collector", daemon=True
        )
        self._collector.start()

    def _spawn_worker(self, worker_id: int):
        """Start one scorer process; returns ``(task_queue, result_reader, process)``.

        Each worker replies on a pipe of its own.  On one queue shared by
        the pool, a scorer that died while writing kept the queue's write
        lock — or left half a message — and the *surviving* workers' replies
        never arrived.  The parent keeps no copy of the write end, so a dead
        worker's channel reads as end-of-file, never as a message nobody
        will finish.

        The scorer starts with its BLAS pools at one thread — a pool of N
        scorers each running the default pool is N x cores threads on the
        same cores — unless this process's environment sets a value, which
        then passes through.
        """
        task_queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_scorer_main,
            args=(
                worker_id,
                self._spool_dir,
                task_queue,
                writer,
                self._core.max_batch_size,
            ),
            name=f"repro-scorer-{worker_id}",
            daemon=True,
        )
        # A child takes ``os.environ`` as it is at ``start()``, and the BLAS
        # pool is sized when numpy loads: set, start, restore.
        with _SPAWN_ENV_LOCK:
            unset = [name for name in _BLAS_THREAD_VARIABLES if name not in os.environ]
            os.environ.update(dict.fromkeys(unset, "1"))
            try:
                process.start()
            except BaseException:
                reader.close()
                raise
            finally:
                for name in unset:
                    del os.environ[name]
                writer.close()
        return task_queue, reader, process

    # ------------------------------------------------------------------ #
    # Version publication
    # ------------------------------------------------------------------ #
    def publish(self, network: ValueNetwork) -> int:
        """Publish ``network``'s current weights; returns their token.

        Idempotent per :meth:`ValueNetwork.version_key`: the snapshot is
        captured and written once, then reused for every request pinned to
        the same weights.
        """
        from repro.lifecycle.snapshot import ModelSnapshot

        key = network.version_key()
        with self._publish_lock:
            token = self._published.get(key)
            if token is not None:
                return token
            token = next(self._tokens)
            snapshot = ModelSnapshot.capture(network, token, source="published")
            snapshot.save(os.path.join(self._spool_dir, _snapshot_filename(token)))
            self._published[key] = token
            self._core.count_published()
            self._evict_spool_locked(token)
            return token

    def _evict_spool_locked(self, newest_token: int) -> None:
        """Bound the spool: drop snapshot files older than the retention
        window.  A network whose file was dropped is published afresh the
        next time a request pins it; a task already queued against a dropped
        file fails with a typed error — never silent mis-scoring."""
        horizon = newest_token - _SPOOL_RETENTION
        if horizon <= 0:
            return
        self._published = {
            key: token for key, token in self._published.items() if token > horizon
        }
        for token in range(max(horizon - _SPOOL_RETENTION, 1), horizon + 1):
            try:
                os.unlink(os.path.join(self._spool_dir, _snapshot_filename(token)))
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Search-facing API
    # ------------------------------------------------------------------ #
    def submit(
        self, query: Query, plans: list[PlanNode], version: ValueNetwork | None = None
    ) -> np.ndarray:
        """Featurise here, score in a scorer process, block for the reply."""
        if self._closed:
            raise RuntimeError("scoring backend is closed")
        if not plans:
            return np.zeros(0, dtype=np.float64)
        network = pinned_network(version, self.network_provider)
        token = self.publish(network)
        featurizer = self._featurizer or network.featurizer
        examples = [featurizer.featurize(query, plan) for plan in plans]
        payload = pack_examples(examples)
        trace_id = current_trace_id()
        if trace_id is not None:
            payload = attach_trace(payload, trace_id)

        # Closed-check, worker choice, pending registration and enqueue
        # share one lock with close()/reap, so no task can slip in behind a
        # shutdown sentinel (or onto a dead worker) and leave its submitter
        # waiting out the full timeout.
        with self._lock:
            if self._closed:
                raise RuntimeError("scoring backend is closed")
            worker_index = self._pick_worker_locked()
            if self._crash_next_submit:
                self._crash_next_submit, token = False, _CRASH_TOKEN
            request_id = next(self._request_ids)
            pending = _PendingRequest(worker_index)
            self._pending[request_id] = pending
            self._task_queues[worker_index].put((request_id, token, payload))

        if not pending.done.wait(timeout=self.submit_timeout_seconds):
            with self._lock:
                self._pending.pop(request_id, None)
            raise ScoringBackendError(
                f"scoring request timed out after "
                f"{self.submit_timeout_seconds}s (worker {worker_index})"
            )
        if not pending.ok:
            raise ScoringBackendError(str(pending.data))
        # Graft the span here, in the submitting thread, where the trace
        # context is live — the collector thread that filled ``pending``
        # has none.
        remote, data = detach_span(pending.data)
        if remote is not None:
            scorer_id, seconds = remote
            add_span(
                "scoring.forward", seconds,
                process=f"scorer-{scorer_id}", examples=len(examples),
            )
        predictions = unpack_predictions(data)
        self._core.record(len(examples), pending.chunk_sizes)
        return predictions

    def _pick_worker_locked(self) -> int:
        for _ in range(len(self._processes)):
            index = self._next_worker
            self._next_worker = (self._next_worker + 1) % len(self._processes)
            if not self._dead[index]:
                return index
        raise ScoringBackendError("all scorer processes are dead")

    # ------------------------------------------------------------------ #
    # Collector thread: replies and crash detection
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        while True:
            if self._closed and not self._pending:
                return
            with self._lock:
                readers = [reader for reader in self._result_readers if reader is not None]
            try:
                ready = wait_for_connections(readers, timeout=0.1)
            except (OSError, ValueError):
                return  # readers closed during close()
            writer_gone = False
            for reader in ready:
                try:
                    reply = reader.recv()
                except (EOFError, OSError):
                    # Crash or shutdown: nothing more will come.
                    self._drop_reader(reader)
                    writer_gone = True
                    continue
                self._deliver(*reply)
            if writer_gone or not ready:
                try:
                    self._reap_dead_workers()
                except Exception:  # noqa: BLE001 - collector must survive
                    # A failed reap/respawn (fd pressure, spawn errors) must
                    # not kill the collector: pending replies would otherwise
                    # wait out their full timeout with nobody listening.
                    pass

    def _drop_reader(self, reader) -> None:
        """Stop polling a result pipe whose writer is gone."""
        with self._lock:
            for index, current in enumerate(self._result_readers):
                if current is reader:
                    self._result_readers[index] = None
        reader.close()

    def _deliver(self, request_id, ok, data, chunk_sizes) -> None:
        """Hand one scorer reply to the submitter waiting for it."""
        if request_id == 0:  # readiness handshake
            self._ready[chunk_sizes[0]].set()
            return
        with self._lock:
            pending = self._pending.pop(request_id, None)
        if pending is None:
            return  # submitter gave up (timeout) or was failed by close/reap
        pending.ok = ok
        pending.data = data
        pending.chunk_sizes = tuple(chunk_sizes)
        pending.done.set()

    def _reap_dead_workers(self) -> None:
        """Fail the in-flight requests of workers that died mid-batch.

        With a ``max_respawns`` budget remaining, a crashed worker is then
        replaced with a fresh process on the same slot (restoring snapshots
        from the spool on demand), so a transient crash costs one batch
        instead of permanently shrinking the pool.
        """
        for index, process in enumerate(list(self._processes)):
            if self._dead[index] or process.is_alive():
                continue
            with self._lock:
                self._dead[index] = True
                orphaned = [
                    (request_id, pending)
                    for request_id, pending in self._pending.items()
                    if pending.worker_index == index
                ]
                for request_id, _ in orphaned:
                    del self._pending[request_id]
            for _, pending in orphaned:
                pending.ok = False
                pending.data = (
                    f"scorer process {index} (pid {process.pid}) died mid-batch "
                    f"with exit code {process.exitcode}"
                )
                pending.done.set()
            self._core.count_crash()
            self._respawn_worker(index, process)

    def _respawn_worker(self, index: int, crashed) -> None:
        """Replace the crashed worker on slot ``index`` if budget remains."""
        with self._lock:
            if self._closed or self._respawns_used >= self.max_respawns:
                return
            self._respawns_used += 1
        crashed.join(timeout=1.0)  # reap the corpse; it already exited
        try:
            self._task_queues[index].close()  # release the dead slot's pipe
        except (OSError, ValueError):
            pass
        # Fresh ready event *before* the spawn, so the replacement's
        # readiness handshake can never set a stale event.
        self._ready[index] = threading.Event()
        task_queue, reader, process = self._spawn_worker(index)
        with self._lock:
            if self._closed:
                # close() raced the respawn: tear the replacement down too.
                try:
                    task_queue.put(None)
                except (ValueError, OSError):
                    pass
                process.join(timeout=1.0)
                if process.is_alive():
                    process.terminate()
                reader.close()
                return
            self._task_queues[index] = task_queue
            self._result_readers[index] = reader
            self._processes[index] = process
            self._dead[index] = False
        self._core.count_respawn()
        emit_event("scorer_respawn", worker_id=index)

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #
    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until every scorer process has finished starting up.

        Spawned workers pay an interpreter + import cost before their task
        loop runs; the pool is usable before then (submits just queue), but
        latency-sensitive callers — and fair benchmarks — can wait it out.

        Returns:
            True when all workers signalled ready within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for event in list(self._ready):
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.0)
            )
            if not event.wait(timeout=remaining):
                return False
        return True

    def alive_workers(self) -> int:
        """Scorer processes still serving."""
        return sum(
            0 if dead else int(process.is_alive())
            for dead, process in zip(self._dead, self._processes)
        )

    def profiles(self) -> list[dict]:
        """Sampling profiles published by live (and recent) scorer processes.

        Scorers atomically rewrite ``profile-scorer-<id>-<pid>.json`` in the
        spool directory every half second; this just reads whatever is
        there.  Unreadable or torn files (a scorer mid-crash) are skipped.
        """
        import json

        profiles: list[dict] = []
        try:
            names = sorted(os.listdir(self._spool_dir))
        except OSError:
            return profiles
        for name in names:
            if not (name.startswith("profile-") and name.endswith(".json")):
                continue
            try:
                with open(
                    os.path.join(self._spool_dir, name), encoding="utf-8"
                ) as handle:
                    profile = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(profile, dict):
                profiles.append(profile)
        return profiles

    def stats(self) -> ScoringBridgeStats:
        """Counters plus point-in-time pool gauges.

        On top of the cumulative :class:`ScoringCore` counters, the
        snapshot carries live gauges: routable worker count, pool and
        per-worker queue depths, and per-worker in-flight batch counts
        (``min(depth, 1)``: a scorer's single task loop scores at most one
        batch at a time).
        """
        snapshot = self._core.snapshot()
        with self._lock:
            depths = [0] * len(self._processes)
            for pending in self._pending.values():
                depths[pending.worker_index] += 1
            snapshot.queue_depth = len(self._pending)
            snapshot.workers_current = self._dead.count(False)
            snapshot.worker_queue_depths = tuple(depths)
            snapshot.worker_inflight = tuple(
                0 if dead else min(depth, 1)
                for dead, depth in zip(self._dead, depths)
            )
        return snapshot

    def close(self) -> None:
        """Stop the scorer processes and release the spool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for index, task_queue in enumerate(self._task_queues):
            if not self._dead[index]:
                try:
                    task_queue.put(None)
                except (ValueError, OSError):
                    pass
        deadline = time.monotonic() + 5.0
        for process in self._processes:
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._collector.join(timeout=2.0)
        for task_queue in self._task_queues:
            task_queue.close()
        for reader in self._result_readers:
            if reader is not None:
                reader.close()
        # Wake any stragglers still waiting on a reply.
        with self._lock:
            orphaned = list(self._pending.values())
            self._pending.clear()
        for pending in orphaned:
            pending.ok = False
            pending.data = "scoring backend closed"
            pending.done.set()
        if self._owns_spool:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
