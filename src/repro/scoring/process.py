"""Process-based scoring: N scorer processes, snapshots on disk, no GIL.

In-process scoring is bound by the GIL: concurrent beam searches
serialise on the numpy forward pass no matter how many worker threads plan.
:class:`ProcessPoolBackend` breaks that bound by running the forward passes
in separate scorer processes:

- **Weights travel as files, never as live objects.**  Each model version is
  *published* once — captured as a :class:`~repro.lifecycle.snapshot.ModelSnapshot`
  and written to a spool directory with :meth:`ModelSnapshot.save` — and
  scorer processes restore it with
  :meth:`~repro.model.value_network.ValueNetwork.from_state_dict` (a
  signature-derived featuriser stand-in; no schema needed).  Hot swaps
  propagate by version token: a request pinned to version N is scored by
  version N's file no matter when the promotion landed, and two versions are
  never mixed in one batch because every task carries exactly one token.
- **Featurisation happens in the submitting worker.**  Only the pickle-free
  :mod:`~repro.scoring.wire` payloads (raw numeric buffers) cross the
  process boundary.
- **Payloads can skip the queue entirely.**  With ``use_shm=True`` each
  worker gets a pair of :class:`~repro.scoring.shm.ShmRingBuffer` rings:
  submitters pack the feature block *in place* into a request-ring slot and
  the scorer decodes it with zero-copy views; predictions return through
  the result ring the same way.  Only a control tuple (request id, slot,
  length) crosses the queue.  Oversize payloads and full rings fall back to
  the copying queue path transparently; a scorer that dies holding a slot
  has its lease reclaimed by the supervisor, never handed to two owners.
- **The pool can be elastic.**  An optional
  :class:`~repro.scoring.autoscale.PoolAutoscaler` adds workers under
  sustained queue depth and retires them (graceful drain, not a kill) when
  traffic ebbs, composing with — not fighting — the ``max_respawns`` crash
  budget: retirement is never counted or respawned as a crash.
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
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro.model.value_network import ValueNetwork
from repro.plans.nodes import PlanNode
from repro.scoring.core import ScoringCore
from repro.scoring.protocol import ScoringBackendError, ScoringBridgeStats, VersionPin
from repro.scoring.shm import (
    SLOT_FREE,
    SLOT_PROCESSING,
    SLOT_READY,
    SLOT_WRITING,
    ShmRingBuffer,
)
from repro.scoring.wire import (
    attach_span,
    attach_trace,
    detach_span,
    detach_trace,
    pack_examples,
    pack_examples_into,
    pack_predictions,
    pack_predictions_into,
    packed_size,
    unpack_examples,
    unpack_predictions,
)
from repro.sql.query import Query
from repro.telemetry.events import emit_event
from repro.telemetry.trace import add_span, current_trace_id

if TYPE_CHECKING:
    from repro.lifecycle.registry import ModelRegistry
    from repro.lifecycle.snapshot import ModelSnapshot
    from repro.scoring.autoscale import AutoscalerConfig

#: Test hook: a task pinned to this token makes the scorer process hard-exit
#: mid-batch, simulating a crash.  Only reachable when the backend's
#: ``_allow_crash_token`` flag is set (the failure-mode tests set it);
#: ordinary submits reject every negative pin with a typed error.
_CRASH_TOKEN = -0xDEAD

#: Test hook: a task pinned to this token makes the scorer stall (sleep)
#: *after* taking its ring-slot lease, so a test can SIGKILL it while the
#: lease is held.  Gated by the same ``_allow_crash_token`` flag.
_STALL_TOKEN = -0xBEEF
_STALL_SECONDS = 60.0

#: Published snapshot files retained per backend.  Tokens are monotone and a
#: pin only outlives its publication by one in-flight search, so a small
#: window bounds spool-directory growth for promote-every-iteration loops.
_SPOOL_RETENTION = 8


def _snapshot_filename(token: int) -> str:
    return f"model-v{token}.npz"


def _scorer_main(
    worker_id: int,
    spool_dir: str,
    task_queue,
    results,
    max_batch_size: int,
    request_ring_name: str | None,
    result_ring_name: str | None,
) -> None:
    """One scorer process: load published snapshots, serve forward passes.

    Tasks are ``(request_id, token, kind, payload, trace_id)``
    tuples — ``kind == "q"`` carries the packed bytes in ``payload``
    (possibly trace-wrapped), ``kind == "s"`` carries a request-ring slot
    index read zero-copy.  Replies are ``(request_id, ok, kind, data,
    chunk_sizes)``: queue replies ship packed predictions in ``data``,
    ring replies ship ``(slot, nbytes, worker_id, seconds)`` pointing into
    the result ring, and are sent on ``results`` — this worker's own pipe —
    by the task loop itself, so a reply is either not begun or complete when
    the next task (or a crash inside it) starts.  ``None`` shuts the worker
    down.
    """
    from repro.lifecycle.snapshot import ModelSnapshot
    from repro.telemetry.logging import maybe_configure_from_env, set_log_context
    from repro.telemetry.profiling import (
        SamplingProfiler,
        hz_from_env,
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
        profiler = SamplingProfiler(
            hz=hz_from_env(), process=f"scorer-{worker_id}"
        )
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
    request_ring = (
        ShmRingBuffer(request_ring_name) if request_ring_name is not None else None
    )
    result_ring = (
        ShmRingBuffer(result_ring_name) if result_ring_name is not None else None
    )
    networks: dict[int, ValueNetwork] = {}

    def serve(task) -> None:
        # One task per call: the zero-copy views built here must die with
        # this frame, so the ring close below never unmaps under them.
        request_id, token, kind, payload, trace_id = task
        request_slot: int | None = None
        try:
            if kind == "s":
                # Take the lease first: the crash/stall hooks below must die
                # *holding* it, which is exactly what the reclaim tests need.
                request_slot = payload
                length = request_ring.begin(request_slot)
                if token == _CRASH_TOKEN:
                    os._exit(3)
                if token == _STALL_TOKEN:
                    time.sleep(_STALL_SECONDS)
                    os._exit(3)
                if length is None:
                    raise RuntimeError(
                        f"request slot {request_slot} was reclaimed before scoring"
                    )
                started = time.perf_counter()
                raw = request_ring.payload_view(request_slot)[:length]
                inner_trace = trace_id
            else:
                if token == _CRASH_TOKEN:
                    os._exit(3)
                if token == _STALL_TOKEN:
                    time.sleep(_STALL_SECONDS)
                    os._exit(3)
                inner_trace, raw = detach_trace(payload)
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
            # The examples above were zero-copy views into the slot; the
            # forward pass is done with them, so the lease can go back now.
            if request_slot is not None:
                request_ring.release(request_slot)
                request_slot = None
            seconds = time.perf_counter() - started
            result_slot = None
            if kind == "s" and result_ring is not None:
                if predictions.nbytes <= result_ring.slot_bytes:
                    result_slot = result_ring.acquire()
            if result_slot is not None:
                nbytes = pack_predictions_into(
                    result_ring.payload_view(result_slot), predictions
                )
                result_ring.commit(result_slot, nbytes)
                data = (
                    result_slot,
                    nbytes,
                    worker_id,
                    seconds if inner_trace is not None else None,
                )
                results.send((request_id, True, "s", data, tuple(chunk_sizes)))
            else:
                reply = pack_predictions(predictions)
                if inner_trace is not None:
                    # The scorer measures its own duration; the submitting
                    # side grafts it into the live trace.
                    reply = attach_span(reply, worker_id, seconds)
                results.send((request_id, True, "q", reply, tuple(chunk_sizes)))
        except BaseException as error:  # noqa: BLE001 - shipped to the caller
            if request_slot is not None:
                request_ring.release(request_slot)
            results.send((request_id, False, "q", f"{type(error).__name__}: {error}", ()))

    # Readiness handshake (request id 0 is never allocated to real requests):
    # imports are done and the task loop is about to block on the queue.
    results.send((0, True, "q", b"ready", (worker_id,)))
    while True:
        task = task_queue.get()
        if task is None:
            break
        serve(task)
    profile_stop.set()
    if profiler is not None:
        profiler.stop()
    if request_ring is not None:
        request_ring.close()
    if result_ring is not None:
        result_ring.close()
    results.close()


class _PendingRequest:
    """Parent-side state of one dispatched task."""

    __slots__ = ("worker_index", "done", "ok", "kind", "data", "chunk_sizes")

    def __init__(self, worker_index: int):
        self.worker_index = worker_index
        self.done = threading.Event()
        self.ok = False
        self.kind = "q"
        self.data: object = b""
        self.chunk_sizes: tuple[int, ...] = ()


class ProcessPoolBackend:
    """Scoring server over N scorer processes following published snapshots.

    Args:
        featurizer: Featuriser used by the submitting side.  Optional when
            every request is pinned to a live :class:`ValueNetwork` (its own
            featuriser is used); required to score registry-version pins.
        num_workers: Scorer processes to spawn initially.
        network_provider: Source for unpinned requests when no registry is
            followed (the provided network is published on first use).
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
        use_shm: Give each worker a request/result
            :class:`~repro.scoring.shm.ShmRingBuffer` pair and ship payloads
            zero-copy through them; oversize payloads and full rings fall
            back to the queue path.
        shm_slots_per_worker: Slots per ring.
        shm_slot_bytes: Request-slot capacity (payloads above this take the
            queue path).
        shm_result_slot_bytes: Result-slot capacity (8 bytes per scored
            plan; larger prediction vectors return via the queue).
        autoscaler: Optional :class:`~repro.scoring.autoscale.AutoscalerConfig`;
            when given, a :class:`~repro.scoring.autoscale.PoolAutoscaler`
            thread scales the pool between its ``min_workers`` and
            ``max_workers`` on observed queue depth and arrival rate.
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
        use_shm: bool = False,
        shm_slots_per_worker: int = 8,
        shm_slot_bytes: int = 1 << 20,
        shm_result_slot_bytes: int = 1 << 16,
        autoscaler: "AutoscalerConfig | None" = None,
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

        self._registry: "ModelRegistry | None" = None
        self._published: dict[Hashable, int] = {}
        self._registry_tokens: dict[int, int] = {}
        self._current_token: int | None = None
        self._tokens = itertools.count(1)
        self._publish_lock = threading.Lock()
        self._allow_crash_token = False  # failure-mode tests only

        self._lock = threading.Lock()
        self._pending: dict[int, _PendingRequest] = {}
        self._request_ids = itertools.count(1)
        self._next_worker = 0
        self._submitted = 0
        self._closed = False

        self.max_respawns = max_respawns
        self._respawns_used = 0
        self._use_shm = use_shm
        self._shm_slots = shm_slots_per_worker
        self._shm_slot_bytes = shm_slot_bytes
        self._shm_result_slot_bytes = shm_result_slot_bytes
        context = multiprocessing.get_context(start_method)
        self._context = context
        self._task_queues = []
        self._result_readers = []
        self._processes = []
        self._request_rings: list[ShmRingBuffer | None] = []
        self._result_rings: list[ShmRingBuffer | None] = []
        for worker_id in range(num_workers):
            self._append_ring_pair()
            task_queue, reader, process = self._spawn_worker(worker_id)
            self._task_queues.append(task_queue)
            self._result_readers.append(reader)
            self._processes.append(process)
        self._dead = [False] * num_workers
        self._retired = [False] * num_workers
        self._ready = [threading.Event() for _ in range(num_workers)]
        self._collector = threading.Thread(
            target=self._collect, name="scoring-collector", daemon=True
        )
        self._collector.start()
        self._autoscaler = None
        if autoscaler is not None:
            from repro.scoring.autoscale import PoolAutoscaler

            self._autoscaler = PoolAutoscaler(self, autoscaler)
            self._autoscaler.start()

    def _append_ring_pair(self) -> None:
        """Create (or skip) the shm ring pair for the next worker slot."""
        if not self._use_shm:
            self._request_rings.append(None)
            self._result_rings.append(None)
            return
        self._request_rings.append(
            ShmRingBuffer(
                create=True,
                num_slots=self._shm_slots,
                slot_bytes=self._shm_slot_bytes,
            )
        )
        self._result_rings.append(
            ShmRingBuffer(
                create=True,
                num_slots=self._shm_slots,
                slot_bytes=self._shm_result_slot_bytes,
            )
        )

    def _spawn_worker(self, worker_id: int):
        """Start one scorer process; returns ``(task_queue, result_reader, process)``.

        Each worker replies on a pipe of its own.  On one queue shared by
        the pool, a scorer that died while writing kept the queue's write
        lock — or left half a message — and the *surviving* workers' replies
        never arrived.  The parent keeps no copy of the write end, so a dead
        worker's channel reads as end-of-file, never as a message nobody
        will finish.
        """
        task_queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        request_ring = self._request_rings[worker_id]
        result_ring = self._result_rings[worker_id]
        process = self._context.Process(
            target=_scorer_main,
            args=(
                worker_id,
                self._spool_dir,
                task_queue,
                writer,
                self._core.max_batch_size,
                request_ring.name if request_ring is not None else None,
                result_ring.name if result_ring is not None else None,
            ),
            name=f"repro-scorer-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            reader.close()
            raise
        finally:
            writer.close()
        return task_queue, reader, process

    @property
    def num_workers(self) -> int:
        return len(self._processes)

    @property
    def max_batch_size(self) -> int:
        return self._core.max_batch_size

    @property
    def uses_shm(self) -> bool:
        """Whether payloads take the shared-memory fast path."""
        return self._use_shm

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

    def _publish_snapshot(self, snapshot: "ModelSnapshot") -> int:
        """Publish a registry snapshot under a backend token."""
        with self._publish_lock:
            token = self._registry_tokens.get(snapshot.version)
            if token is not None:
                return token
            token = next(self._tokens)
            snapshot.save(os.path.join(self._spool_dir, _snapshot_filename(token)))
            self._registry_tokens[snapshot.version] = token
            self._core.count_published()
            self._evict_spool_locked(token)
            return token

    def _evict_spool_locked(self, newest_token: int) -> None:
        """Bound the spool: drop snapshot files older than the retention
        window.  The currently serving token is always exempt (unpinned
        traffic resolves to it between promotions); an *expired pin* to an
        evicted token degrades to a typed error, the same path as any
        unknown version — never silent mis-scoring."""
        horizon = newest_token - _SPOOL_RETENTION
        if horizon <= 0:
            return
        keep = {self._current_token}
        self._published = {
            key: token
            for key, token in self._published.items()
            if token > horizon or token in keep
        }
        self._registry_tokens = {
            version: token
            for version, token in self._registry_tokens.items()
            if token > horizon or token in keep
        }
        for token in range(max(horizon - _SPOOL_RETENTION, 1), horizon + 1):
            if token in keep:
                continue
            try:
                os.unlink(os.path.join(self._spool_dir, _snapshot_filename(token)))
            except OSError:
                pass

    def follow(self, registry: "ModelRegistry") -> None:
        """Track ``registry``: promotions repoint unpinned requests.

        Subscribes to the registry's serving-pointer changes; each newly
        serving snapshot is published to the spool directory and becomes the
        target of unpinned submits, keyed strictly by version — a promotion
        never ships a live object into the scorer processes.  :meth:`close`
        detaches the subscription.
        """
        self._registry = registry
        registry.subscribe(self._on_serving_change)
        if registry.serving_version is not None:
            self._on_serving_change(registry.serving())

    def _on_serving_change(self, snapshot: "ModelSnapshot") -> None:
        if self._closed:
            return
        self._current_token = self._publish_snapshot(snapshot)

    def _resolve_token(self, version: VersionPin) -> int:
        if isinstance(version, ValueNetwork):
            return self.publish(version)
        if version is None:
            if self._current_token is not None:
                return self._current_token
            if self.network_provider is not None:
                network = self.network_provider()
                if network is not None:
                    return self.publish(network)
            raise ScoringBackendError(
                "no model to score with: nothing published, no provider, and "
                "no followed registry with a serving version"
            )
        token = int(version)
        if token < 0:
            # Backend-internal tokens are positive; the only negative ones
            # are the crash/stall hooks, armed explicitly by tests.
            if token in (_CRASH_TOKEN, _STALL_TOKEN) and self._allow_crash_token:
                return token
            raise ScoringBackendError(f"cannot resolve model version {token}")
        if self._registry is None:
            raise ScoringBackendError(
                f"cannot resolve registry version {token}: backend is not "
                "following a ModelRegistry (call follow() first)"
            )
        from repro.lifecycle.snapshot import LifecycleError

        try:
            return self._publish_snapshot(self._registry.get(token))
        except LifecycleError as error:
            raise ScoringBackendError(str(error)) from error

    # ------------------------------------------------------------------ #
    # Search-facing API
    # ------------------------------------------------------------------ #
    def submit(
        self, query: Query, plans: list[PlanNode], version: VersionPin = None
    ) -> np.ndarray:
        """Featurise here, score in a scorer process, block for the reply."""
        if self._closed:
            raise RuntimeError("scoring backend is closed")
        if not plans:
            return np.zeros(0, dtype=np.float64)
        token = self._resolve_token(version)
        featurizer = self._featurizer
        if featurizer is None and isinstance(version, ValueNetwork):
            featurizer = version.featurizer
        if featurizer is None:
            raise ScoringBackendError(
                "backend has no featurizer: construct ProcessPoolBackend with "
                "one, or pin requests to a live network"
            )
        examples = [featurizer.featurize(query, plan) for plan in plans]
        trace_id = current_trace_id()

        # Closed-check, worker choice, pending registration and slot
        # allocation share one lock with close()/reap, so no task can slip
        # in behind a shutdown sentinel (or onto a dead worker) and leave
        # its submitter waiting out the full timeout.
        ring = None
        slot = None
        with self._lock:
            if self._closed:
                raise RuntimeError("scoring backend is closed")
            worker_index = self._pick_worker_locked()
            request_id = next(self._request_ids)
            pending = _PendingRequest(worker_index)
            self._pending[request_id] = pending
            self._submitted += 1
            if self._use_shm:
                ring = self._request_rings[worker_index]
                if packed_size(examples) <= ring.slot_bytes:
                    slot = ring.acquire()
                if slot is None:
                    self._core.count_shm_fallback()

        if slot is not None:
            # The in-place pack (the one memcpy of the fast path) runs
            # outside the lock; only commit+enqueue re-enter it.
            try:
                length = pack_examples_into(ring.payload_view(slot), examples)
            except BaseException:
                ring.release(slot)
                with self._lock:
                    self._pending.pop(request_id, None)
                raise
            with self._lock:
                if self._closed or self._dead[worker_index]:
                    # close()/reap already failed our pending; hand the
                    # lease back and fall through to the (set) event.
                    ring.release(slot)
                else:
                    ring.commit(slot, length)
                    self._task_queues[worker_index].put(
                        (request_id, token, "s", slot, trace_id)
                    )
                    self._core.count_shm_batch()
        else:
            payload = pack_examples(examples)
            if trace_id is not None:
                payload = attach_trace(payload, trace_id)
            with self._lock:
                if not (self._closed or self._dead[worker_index]):
                    self._task_queues[worker_index].put(
                        (request_id, token, "q", payload, None)
                    )

        if not pending.done.wait(timeout=self.submit_timeout_seconds):
            with self._lock:
                claimed = self._pending.pop(request_id, None) is not None
            if not claimed:
                # The collector popped it just as we timed out; its reply
                # (possibly holding a result-ring lease) lands momentarily.
                pending.done.wait(timeout=1.0)
            if claimed or not pending.done.is_set():
                raise ScoringBackendError(
                    f"scoring request timed out after "
                    f"{self.submit_timeout_seconds}s (worker {worker_index})"
                )
        if not pending.ok:
            raise ScoringBackendError(str(pending.data))
        # Graft spans here, in the submitting thread, where the trace
        # context is live — the collector thread that filled ``pending``
        # has none.
        if pending.kind == "s":
            result_slot, nbytes, scorer_id, seconds = pending.data
            result_ring = self._result_rings[scorer_id]
            predictions = unpack_predictions(
                result_ring.payload_view(result_slot)[:nbytes]
            )
            result_ring.release(result_slot)
            if seconds is not None:
                add_span(
                    "scoring.forward", seconds,
                    process=f"scorer-{scorer_id}", examples=len(examples),
                )
        else:
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
            if not self._dead[index] and not self._retired[index]:
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
                    # Crash, retirement or shutdown: nothing more will come.
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

    def _deliver(self, request_id, ok, kind, data, chunk_sizes) -> None:
        """Hand one scorer reply to the submitter waiting for it."""
        if request_id == 0:  # readiness handshake
            self._ready[chunk_sizes[0]].set()
            return
        if ok and kind == "s":
            # Take the reader lease *before* delivery: a reap between
            # delivery and the submitter's read must not reclaim (and
            # hand out) the slot mid-read.  Single-threaded with reap,
            # so the check-then-begin cannot race it.
            result_slot, _, scorer_id, _ = data
            result_ring = self._result_rings[scorer_id]
            if result_ring.begin(result_slot) is None:
                ok, kind = False, "q"
                data = f"result slot {result_slot} was reclaimed in flight"
        with self._lock:
            pending = self._pending.pop(request_id, None)
        if pending is None:
            # Submitter gave up (timeout) or was failed by close/reap;
            # a ring reply still holds its lease — hand it back.
            if ok and kind == "s":
                result_slot, _, scorer_id, _ = data
                self._result_rings[scorer_id].release(result_slot)
            return
        pending.ok = ok
        pending.kind = kind
        pending.data = data
        pending.chunk_sizes = tuple(chunk_sizes)
        pending.done.set()

    def _reap_dead_workers(self) -> None:
        """Fail the in-flight requests of workers that died mid-batch.

        Ring-slot leases the dead worker held are reclaimed (request ring:
        READY/PROCESSING; result ring: WRITING/READY — the states only the
        scorer side can hold once the queue has drained).  A *retired*
        worker exiting after its drain is bookkept the same way minus the
        crash count and the respawn: scale-downs are not crashes.

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
                retired = self._retired[index]
                orphaned = [
                    (request_id, pending)
                    for request_id, pending in self._pending.items()
                    if pending.worker_index == index
                ]
                for request_id, _ in orphaned:
                    del self._pending[request_id]
            reclaimed = 0
            request_ring = self._request_rings[index]
            result_ring = self._result_rings[index]
            if request_ring is not None:
                reclaimed += request_ring.reclaim(
                    states=(SLOT_READY, SLOT_PROCESSING)
                )
            if result_ring is not None:
                reclaimed += result_ring.reclaim(
                    states=(SLOT_WRITING, SLOT_READY)
                )
            if reclaimed:
                self._core.count_reclaimed(reclaimed)
            for _, pending in orphaned:
                pending.ok = False
                pending.data = (
                    f"scorer process {index} (pid {process.pid}) died mid-batch "
                    f"with exit code {process.exitcode}"
                )
                pending.done.set()
            if retired:
                continue
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
    # Elastic pool: the autoscaler's levers
    # ------------------------------------------------------------------ #
    def scale_up(self) -> bool:
        """Add one scorer process (reusing a retired slot when possible).

        Called by the autoscaler thread (never concurrently with itself);
        returns False when the pool is closed or the spawn failed.
        """
        with self._lock:
            if self._closed:
                return False
            reuse = next(
                (
                    index
                    for index in range(len(self._processes))
                    if self._dead[index] and self._retired[index]
                ),
                None,
            )
            if reuse is not None:
                old = self._processes[reuse]
                old.join(timeout=0.5)
                try:
                    self._task_queues[reuse].close()
                except (OSError, ValueError):
                    pass
                # Fresh ready event *before* the spawn: the handshake must
                # never race the bookkeeping it sets.
                self._ready[reuse] = threading.Event()
                task_queue, reader, process = self._spawn_worker(reuse)
                self._task_queues[reuse] = task_queue
                self._result_readers[reuse] = reader
                self._processes[reuse] = process
                self._dead[reuse] = False
                self._retired[reuse] = False
                worker_id = reuse
            else:
                worker_id = len(self._processes)
                self._append_ring_pair()
                self._ready.append(threading.Event())
                task_queue, reader, process = self._spawn_worker(worker_id)
                self._task_queues.append(task_queue)
                self._result_readers.append(reader)
                self._processes.append(process)
                self._dead.append(False)
                self._retired.append(False)
            workers = sum(
                1
                for index in range(len(self._processes))
                if not self._dead[index] and not self._retired[index]
            )
        self._core.count_scale(up=True)
        emit_event("scorer_scale_up", worker_id=worker_id, workers=workers)
        return True

    def scale_down(self) -> bool:
        """Retire one scorer process with a graceful drain (not a kill).

        The retired worker finishes its queued tasks, exits on the
        sentinel, and is reaped as a retirement — no crash count, no
        respawn, ring leases reclaimed.  Returns False when no worker can
        be spared.
        """
        with self._lock:
            if self._closed:
                return False
            candidates = [
                index
                for index in range(len(self._processes))
                if not self._dead[index] and not self._retired[index]
            ]
            if len(candidates) <= 1:
                return False
            index = candidates[-1]
            try:
                self._task_queues[index].put(None)
            except (OSError, ValueError):
                return False
            self._retired[index] = True
            workers = len(candidates) - 1
        self._core.count_scale(up=False)
        emit_event("scorer_scale_down", worker_id=index, workers=workers)
        return True

    def active_workers(self) -> int:
        """Workers currently routable (not dead, not retired)."""
        with self._lock:
            return sum(
                1
                for index in range(len(self._processes))
                if not self._dead[index] and not self._retired[index]
            )

    def queue_depth(self) -> int:
        """Requests in flight across the pool right now."""
        with self._lock:
            return len(self._pending)

    def submitted_count(self) -> int:
        """Monotone count of submits accepted (the autoscaler's rate tap)."""
        with self._lock:
            return self._submitted

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
        per-worker queue depths, per-worker in-flight batch counts (ring
        ``PROCESSING`` leases on the shm path; approximated as
        ``min(depth, 1)`` on the queue path, whose single task loop scores
        at most one batch at a time), and mean request-ring occupancy.
        """
        snapshot = self._core.snapshot()
        with self._lock:
            count = len(self._processes)
            depths = [0] * count
            for pending in self._pending.values():
                if pending.worker_index < count:
                    depths[pending.worker_index] += 1
            snapshot.queue_depth = len(self._pending)
            snapshot.workers_current = sum(
                1
                for index in range(count)
                if not self._dead[index] and not self._retired[index]
            )
            snapshot.worker_queue_depths = tuple(depths)
            inflight = []
            occupancies = []
            for index in range(count):
                if self._dead[index]:
                    inflight.append(0)
                    continue
                ring = self._request_rings[index]
                if ring is None:
                    inflight.append(min(depths[index], 1))
                    continue
                states = [ring.state(slot) for slot in range(ring.num_slots)]
                inflight.append(
                    sum(1 for state in states if state == SLOT_PROCESSING)
                )
                occupancies.append(
                    sum(1 for state in states if state != SLOT_FREE)
                    / ring.num_slots
                )
            snapshot.worker_inflight = tuple(inflight)
            snapshot.ring_occupancy = (
                sum(occupancies) / len(occupancies) if occupancies else 0.0
            )
        return snapshot

    def close(self) -> None:
        """Stop the autoscaler and scorer processes, release spool and rings."""
        if self._autoscaler is not None:
            self._autoscaler.stop()
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._registry is not None:
            self._registry.unsubscribe(self._on_serving_change)
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
        for ring in itertools.chain(self._request_rings, self._result_rings):
            if ring is not None:
                ring.unlink()
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
