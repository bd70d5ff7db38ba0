"""``ServePool``: the shared-nothing multi-process serving front-end.

PR 4's ``Session.infer_many`` micro-batches inside one process — thread
drains under the GIL, so the compiled-kernel wins of PRs 2-5 never
scale past one core at serve time.  A :class:`ServePool` converts those
per-core wins into multi-core throughput:

* **N worker processes, shared-nothing** — each worker owns one warm
  :class:`repro.api.Session` (plan cache, FFT/rfft plan caches,
  executor pool) and shares only its request queue and two ring
  segments with the parent;
* **geometry-hash sharding** — requests route by the stable hash of
  ``(ndim, spatial_shape, modes, dtype)`` (:mod:`repro.api.serve.router`),
  so a given geometry always lands on the same worker and that worker's
  caches stay hot for the life of the pool;
* **zero-copy tensors** — request/response arrays move through
  ``multiprocessing.shared_memory`` rings (:mod:`repro.api.serve.shm`):
  workers read input slabs and write outputs in place, only a small
  *checksummed* pickled header crosses the queue;
* **backpressure** — bounded per-worker queues and ring arenas;
  ``submit`` blocks (default) or raises :class:`PoolSaturated`
  (``saturation="raise"``);
* **bursts ship as groups** — :meth:`ServePool.infer_many` and
  :meth:`ServePool.rollout_many` group a burst by (model, geometry,
  dtype) in arrival order, up to ``max_batch`` requests a group (the
  :meth:`Session.infer_many` rule), and admit each group as *one*
  request: one slab per ring, one ``"req"`` header whose shape carries
  the group's rows, one checksum and one collector message.  Each
  request's rows are copied straight into the request slab and back
  out of the response slab into the request's own array.  The group's
  ``deadline`` counts from its admission, a failure fails each of its
  requests, and every parent-side counter still counts requests.  A
  single :meth:`ServePool.submit` remains one request per header;
* **one stream path** — every request is a stream: ``submit`` sends a
  one-step ``"exact"`` stream and :meth:`ServePool.rollout` /
  :meth:`ServePool.rollout_many` send whole autoregressive streams, each
  as one ``"req"`` header carrying ``(steps, profile)`` to its
  geometry's shard.  The worker's warm session steps the state in place
  (micro-batching concurrent same-geometry streams that share
  ``(steps, profile)``), and only the final state crosses back through
  the ring;
* **failure enforcement** (:mod:`repro.api.serve.health`) — workers
  heartbeat over the control pipe; a monitor thread kills hung-but-
  alive workers (deadlock, ``SIGSTOP``, runaway loop) so they take the
  same warmed-replacement + retry-or-fail path as a crash, sweeps
  per-request **deadlines** (``submit(deadline=)``) into typed
  :class:`DeadlineExceeded` failures, and feeds a per-shard
  :class:`~repro.api.serve.health.CircuitBreaker`;
* **graceful degradation** — after ``breaker_threshold`` consecutive
  crash/hang replacements a shard's breaker opens: its geometries
  reroute to an in-parent fallback :class:`~repro.api.Session`
  (bit-identical results, degraded throughput, visible in
  ``stats()["degraded"]``) until a half-open probe succeeds;
* **graceful lifecycle** — workers recycle after
  ``max_requests_per_worker`` requests or on crash, and every
  replacement is *warmed first*: it pre-builds the geometries its
  predecessor served before taking traffic.  In-flight requests on a crashed worker are retried once on
  the replacement (``on_crash="retry"``) or failed with
  :class:`WorkerCrashed` (``"fail"``) — deterministically either way;
* **chaos testability** (:mod:`repro.api.serve.faults`) — a scripted
  :class:`~repro.api.serve.faults.FaultPlan` (``ServePool(faults=...)``
  or ``REPRO_FAULTS``) injects crash/hang/latency/ring-failure/header-
  corruption faults at exact request indices, so every recovery path
  above is provoked deterministically in tests and the
  ``python -m repro chaos-soak`` harness.

Results are **bit-identical** to a serial one-worker
:class:`~repro.api.Session` on the same request set: workers (and the
degradation fallback) execute through the same session machinery, every
operator is row-independent, and routing only changes *where* a request
runs, never its arithmetic.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import queue as queue_mod
import threading
import time
import weakref

import numpy as np

from repro.api.runner import default_workers
from repro.api.serve.faults import ChaosInjector, FaultPlan
from repro.api.serve.health import (
    Cancelled,
    CircuitBreaker,
    CorruptedHeader,
    DeadlineExceeded,
    HealthMonitor,
    HealthPolicy,
    InfrastructureError,
    ResultTimeout,
    ServeError,
    UnknownModel,
    WorkerCrashed,
)
from repro.api.serve.router import (
    FALLBACK,
    RouteTable,
    format_geometry,
    geometry_key,
    shard_for,
)
from repro.api.serve.shm import (
    DEFAULT_RING_BYTES,
    PoolSaturated,
    RingArena,
    SegmentRegistry,
    header_checksum,
)
from repro.api.serve.worker import worker_main
from repro.api.session import DTYPE_POLICIES, LatencyReservoir, \
    ROLLOUT_PROFILES, Session, SpectralModel, _as_spectral_model, \
    _optional_positive_int
from repro.core.compiled import _integer, _positive_int
from repro.core.dtypes import complex_dtype_for
from repro.fft.compiled import resolve_backend_kernels

__all__ = [
    "ServePool",
    "ServeFuture",
    "ServeError",
    "WorkerCrashed",
    "DeadlineExceeded",
    "ResultTimeout",
    "Cancelled",
    "CorruptedHeader",
]

#: How long the parent waits for a worker to come up / warm / drain.
_LIFECYCLE_TIMEOUT = 120.0


class _HandleDead(Exception):
    """Internal: dispatch raced a worker death; re-route and retry."""


class ServeFuture:
    """Handle to one in-flight request; ``result()`` blocks for it.

    ``result(timeout=)`` expiry raises :class:`ResultTimeout` — the
    request is *still in flight* and keeps holding its ring slabs until
    the worker answers (or dies); call :meth:`cancel` to abandon it and
    let the pool reclaim the slabs at the worker's next answer.
    Resolution is first-wins: whichever of the worker's answer, the
    deadline sweep, a crash, or :meth:`cancel` lands first decides the
    outcome, and everything later is bookkeeping only.
    """

    __slots__ = ("geometry", "worker", "deadline", "_event", "_value",
                 "_exc", "_lock", "_cancel_hook")

    def __init__(self, geometry: str, worker: int,
                 deadline: float | None = None) -> None:
        self.geometry = geometry  #: formatted routing key
        self.worker = worker  #: shard index the geometry maps to
        self.deadline = deadline  #: absolute ``time.monotonic()`` (or None)
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._exc: BaseException | None = None
        self._lock = threading.Lock()
        self._cancel_hook = None

    def done(self) -> bool:
        return self._event.is_set()

    def cancelled(self) -> bool:
        return isinstance(self._exc, Cancelled)

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self._event.wait(timeout):
            raise ResultTimeout(
                f"request on worker {self.worker} ({self.geometry}) still "
                f"in flight after {timeout}s — it keeps holding its ring "
                f"slabs; cancel() abandons it and releases them"
            )
        if self._exc is not None:
            raise self._exc
        return self._value

    def cancel(self) -> bool:
        """Abandon the request; True when this call resolved the future.

        The future fails with :class:`Cancelled` immediately; the ring
        slabs are reclaimed as soon as the owning worker answers for
        the request (or dies) — never while it might still write them.
        Already-resolved futures return False.
        """
        hook = self._cancel_hook
        if hook is None or self.done():
            return False
        return hook()

    # Resolving drops the cancel hook: it closes over the pending
    # record, which holds this future, and the cycle would keep every
    # served result alive until the cyclic GC ran.

    def _set_result(self, value) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._cancel_hook = None
            self._event.set()
            return True

    def _set_exception(self, exc: BaseException) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._exc = exc
            self._cancel_hook = None
            self._event.set()
            return True


class _Pending:
    """Parent-side record of one in-flight header (retry source of truth).

    A header carries the rows of one ``submit`` request, or of a whole
    (model, geometry, dtype) group of an ``infer_many``/``rollout_many``
    burst.  ``parts`` holds the callers' arrays in row order: dispatch
    (and a crash retry) writes them into the request slab, and
    completion copies each one's rows back out of the response slab.
    """

    __slots__ = (
        "rid", "spec", "mid", "parts", "grouped", "shape", "dtype",
        "nbytes", "gkey", "shard", "future", "req_off", "resp_off",
        "resp_cap", "allocated", "t_submit", "t_dispatch", "retries",
        "deadline", "abandoned", "steps", "profile", "stream",
    )

    def __init__(self, rid, spec, mid, parts, grouped, gkey, shard, future,
                 deadline, steps=1, profile="exact", stream=False):
        self.rid = rid
        self.spec = spec
        self.mid = mid
        self.parts = parts
        #: The future resolves to one array per part (a burst group)
        #: rather than to the single request's array.
        self.grouped = grouped
        first = parts[0]
        rows = sum(len(p) for p in parts)
        self.shape = (rows, *first.shape[1:])
        self.dtype = first.dtype
        self.nbytes = rows * first.itemsize * math.prod(first.shape[1:])
        self.gkey = gkey
        self.shard = shard
        self.future = future
        self.req_off = self.resp_off = self.resp_cap = 0
        self.allocated = False  # slab offsets valid (crash path frees them)
        self.t_submit = time.perf_counter()
        self.t_dispatch = time.monotonic()
        self.retries = 0
        self.deadline = deadline  # absolute time.monotonic() or None
        #: Future already resolved (deadline sweep / cancel); the worker
        #: answer only frees slabs, never delivers.
        self.abandoned = False
        #: Step count + profile; plain inference is a one-step exact
        #: stream, and ``stream`` marks a ``submit_rollout`` stream.
        self.steps = steps
        self.profile = profile
        self.stream = stream

    def expired(self, now: float | None = None) -> bool:
        return (
            self.deadline is not None
            and (now if now is not None else time.monotonic())
            >= self.deadline
        )

    def write_rows(self, slab: np.ndarray) -> None:
        """Copy every part's rows into ``slab`` (the header's input)."""
        row = 0
        for part in self.parts:
            slab[row:row + len(part)] = part
            row += len(part)

    def split(self, out: np.ndarray):
        """The future's value from the header's output rows: a copy per
        request, since ``out`` may be a slab about to be freed."""
        outs, row = [], 0
        for part in self.parts:
            outs.append(np.array(out[row:row + len(part)]))
            row += len(part)
        return outs if self.grouped else outs[0]


class _Group:
    """One (model, geometry, dtype) group of a burst being assembled."""

    __slots__ = ("spec", "idxs", "parts", "rows", "row_bytes")

    def __init__(self, pool: "ServePool", spec: SpectralModel,
                 x: np.ndarray) -> None:
        self.spec = spec
        self.idxs: list[int] = []
        self.parts: list[np.ndarray] = []
        self.rows = 0
        #: Slab bytes per row, request or response side, whichever is
        #: larger: a group never outgrows one ring.
        self.row_bytes = max(
            x.itemsize * math.prod(x.shape[1:]),
            pool._response_capacity(spec, (1, *x.shape[1:]), x.dtype),
        )


class _GeoStats:
    """Parent-side per-geometry admission/latency counters."""

    __slots__ = ("worker", "requests", "seconds", "retried", "failed",
                 "expired", "degraded", "latency")

    def __init__(self, worker: int) -> None:
        self.worker = worker
        self.requests = 0
        self.seconds = 0.0
        self.retried = 0
        self.failed = 0
        self.expired = 0
        self.degraded = 0
        #: End-to-end (submit -> result) latency reservoir.
        self.latency = LatencyReservoir()

    def as_dict(self) -> dict:
        out = {
            "requests": self.requests,
            "seconds": self.seconds,
            "requests_per_s": (
                self.requests / self.seconds if self.seconds > 0 else None
            ),
            "worker": self.worker,
            "retried": self.retried,
            "failed": self.failed,
            "expired": self.expired,
            "degraded": self.degraded,
            "latency": self.latency.percentiles(),
        }
        return out


class _WorkerHandle:
    """Everything the parent holds for one worker process."""

    def __init__(self, shard, process, queue, conn, rings):
        self.shard = shard
        self.process = process
        self.queue = queue
        self.conn = conn
        self.req_shm, self.req_arena, self.resp_shm, self.resp_arena = rings
        self.lock = threading.Lock()
        #: Signalled whenever in-flight count drops (admission waits here).
        self.depth = threading.Condition(self.lock)
        self.pending: dict[int, _Pending] = {}
        self.pushed: set[int] = set()
        #: Requests answered (the recycle budget) and answered with a
        #: result; a grouped header counts each request it carries.
        self.completed = 0
        self.served = 0
        self.dead = False
        self.closing = False
        self.ready = threading.Event()
        self.warmed = threading.Event()
        #: The response pipe closed: the process is gone.
        self.exited = False
        self.pid: int | None = None
        self.backend: str | None = None  #: actual substrate ("ready" reports)
        #: Health bookkeeping (collector writes, monitor reads).
        self.last_progress = time.monotonic()
        self.last_heartbeat: float | None = None
        self.hb_served = -1
        self.hang_killed = False
        #: What this worker has served — the warmup-handoff inventory
        #: its replacement is primed with before taking traffic.
        self.warm_models: dict[int, tuple] = {}
        #: ``(mid, per-row shape, dtype)``: batch size is not a geometry.
        self.warm_geoms: set[tuple] = set()
        self.stats_waiters: dict[int, tuple[threading.Event, list]] = {}
        self.collector: threading.Thread | None = None

    def rings(self) -> tuple:
        return (self.req_shm, self.req_arena, self.resp_shm, self.resp_arena)


class ServePool:
    """A pool of shared-nothing serving workers sharded by geometry.

    Parameters
    ----------
    workers:
        Worker-process count; ``None`` resolves through
        :func:`repro.api.runner.default_workers` (the single
        ``REPRO_WORKERS`` parser — serve does not re-implement it).
    backend, dtype_policy:
        Forwarded to each worker's :class:`~repro.api.Session`
        (validated up front in the parent).  A worker whose C-kernel
        self-check fails at startup falls back to the NumPy substrate
        (identical bits) instead of crash-looping; ``stats()`` reports
        each worker's actual backend.
    max_batch:
        Micro-batch budget per worker drain (the same deterministic
        grouping :meth:`Session.infer_many` applies in-process).
    queue_depth:
        Bound of each worker's request queue — with the ring arenas,
        the backpressure surface.
    saturation:
        ``"block"`` (default): ``submit`` waits for queue/ring capacity;
        ``"raise"``: a saturated shard raises :class:`PoolSaturated`
        immediately.
    max_requests_per_worker:
        Recycle budget: after this many completed requests a worker is
        replaced (between requests) by a freshly warmed successor.
        ``None`` disables recycling.
    on_crash:
        ``"retry"`` (default): in-flight requests of a crashed (or
        hang-killed) worker are re-executed on its warmed replacement
        (at most ``max_retries`` times each, then failed); ``"fail"``:
        they fail immediately with :class:`WorkerCrashed`.  The same
        policy governs checksum-rejected (corrupted) responses.
    ring_bytes:
        Per-ring shared-memory capacity (two rings per worker).
    health:
        :class:`~repro.api.serve.health.HealthPolicy` — heartbeat
        cadence, ``hang_timeout`` (a busy worker with no progress for
        this long is killed and replaced) and the deadline-sweep tick.
    faults:
        A :class:`~repro.api.serve.faults.FaultPlan` (or its string
        spec) scripting injected faults; ``None`` reads
        ``REPRO_FAULTS``.  Production pools run with no plan and pay
        one ``None`` check per request.
    breaker_threshold, breaker_cooldown:
        Per-shard circuit breaker: after ``threshold`` *consecutive*
        crash/hang replacements the shard's traffic reroutes to the
        in-parent fallback session until a half-open probe (after
        ``cooldown`` seconds) succeeds.
    start_method:
        ``multiprocessing`` start method; default prefers ``"fork"``
        and falls back to ``"spawn"`` where fork is unavailable.
    """

    def __init__(
        self,
        workers: int | None = None,
        backend: str = "auto",
        dtype_policy: str = "preserve",
        max_batch: int = 32,
        queue_depth: int = 8,
        saturation: str = "block",
        max_requests_per_worker: int | None = None,
        on_crash: str = "retry",
        max_retries: int = 1,
        ring_bytes: int = DEFAULT_RING_BYTES,
        health: HealthPolicy | None = None,
        faults: FaultPlan | str | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        start_method: str | None = None,
    ) -> None:
        resolve_backend_kernels(backend)  # fail in the parent, not N times
        if dtype_policy not in DTYPE_POLICIES:
            raise ValueError(
                f"unknown dtype_policy {dtype_policy!r}; expected one of "
                f"{DTYPE_POLICIES}"
            )
        if saturation not in ("block", "raise"):
            raise ValueError(
                f"unknown saturation policy {saturation!r}; expected "
                f"'block' or 'raise'"
            )
        if on_crash not in ("retry", "fail"):
            raise ValueError(
                f"unknown on_crash policy {on_crash!r}; expected 'retry' "
                f"or 'fail'"
            )
        self.max_batch = _positive_int("max_batch", max_batch)
        self.queue_depth = _positive_int("queue_depth", queue_depth)
        self.workers = (default_workers() if workers is None
                        else _positive_int("workers", workers))
        self.max_requests_per_worker = _optional_positive_int(
            "max_requests_per_worker", max_requests_per_worker)
        self.max_retries = _integer("max_retries", max_retries)
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        self.ring_bytes = _positive_int("ring_bytes", ring_bytes)
        self.backend = backend
        self.dtype_policy = dtype_policy
        self.saturation = saturation
        self.on_crash = on_crash
        self.health = health if health is not None else HealthPolicy()
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        if faults is None:
            faults = FaultPlan.from_env()
        self._fault_plan = faults
        self._injector = ChaosInjector(faults)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self._registry = SegmentRegistry()
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._rid = itertools.count()
        self._stats_token = itertools.count()
        self._models: dict[tuple, tuple[int, SpectralModel]] = {}
        self._geo_stats: dict[tuple, _GeoStats] = {}
        self._latency = LatencyReservoir()
        self._rollout_streams = 0
        self._rollout_steps = 0
        self._admission = {
            "submitted": 0, "completed": 0, "failed": 0, "rejected": 0,
            "retried": 0, "crashes": 0, "recycles": 0, "hangs": 0,
            "expired": 0, "corrupted": 0, "cancelled": 0, "degraded": 0,
            "breaker_opens": 0,
        }
        self._handles: dict[int, _WorkerHandle] = {}
        self._routes = RouteTable(self.workers)
        self._breakers = {
            i: CircuitBreaker(breaker_threshold, breaker_cooldown)
            for i in range(self.workers)
        }
        self._monitor: HealthMonitor | None = None
        #: The graceful-degradation path: one in-parent session + drain
        #: thread, created lazily the first time a breaker opens.
        self._fallback_session: Session | None = None
        self._fallback_thread: threading.Thread | None = None
        self._fallback_queue: "queue_mod.Queue[_Pending | None]" = \
            queue_mod.Queue()
        # Fork every worker before any collector thread exists, then
        # start the collectors: forking a thread-free parent sidesteps
        # the usual fork-with-threads hazards for the initial fleet.
        try:
            handles = [self._spawn_handle(i) for i in range(self.workers)]
            for handle in handles:
                self._start_collector(handle)
                self._handles[handle.shard] = handle
            for handle in handles:
                self._await(handle, handle.ready,
                            f"worker {handle.shard} startup")
        except BaseException:
            self._closed = True
            self._teardown(list(self._handles.values()))
            raise
        self._monitor = HealthMonitor(self.health, self._health_tick)
        self._monitor.start()
        self._finalizer = weakref.finalize(
            self, SegmentRegistry.close_all, self._registry
        )

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "ServePool":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"ServePool(workers={self.workers}, backend={self.backend!r}, "
            f"{state})"
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("serve pool is closed")

    @staticmethod
    def _await(handle: _WorkerHandle, event: threading.Event,
               what: str) -> None:
        if not event.wait(_LIFECYCLE_TIMEOUT):
            raise RuntimeError(f"timed out waiting for {what}")
        if handle.exited:
            raise RuntimeError(f"worker exited before {what}")

    def _spawn_handle(self, shard: int, rings=None) -> _WorkerHandle:
        if rings is None:
            req_shm = self._registry.create(self.ring_bytes)
            resp_shm = self._registry.create(self.ring_bytes)
            rings = (req_shm, RingArena(req_shm), resp_shm, RingArena(resp_shm))
        # Unbounded: the admission bound is the parent-side in-flight
        # count (queue_depth), so control messages (model push, warmup,
        # stats, drain sentinel) never contend with request backpressure.
        queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                shard, queue, send_conn, rings[0].name, rings[2].name,
                self.backend, self.dtype_policy,
                self.max_batch, self.health.heartbeat_interval,
                self._fault_plan,
            ),
            name=f"repro-serve-{shard}",
            daemon=True,
        )
        process.start()
        send_conn.close()  # child's end; closing ours makes EOF observable
        return _WorkerHandle(shard, process, queue, recv_conn, rings)

    def _start_collector(self, handle: _WorkerHandle) -> None:
        thread = threading.Thread(
            target=self._collect, args=(handle,),
            name=f"repro-serve-collect-{handle.shard}", daemon=True,
        )
        handle.collector = thread
        thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker and unlink every shared-memory segment.

        Idempotent.  ``timeout`` is the *total* shutdown budget: every
        internal wait (drain-sentinel puts, process joins, fallback
        drain) is derived from the remaining budget rather than a fixed
        per-step constant, so close-under-saturation completes within
        ``timeout`` plus a small per-worker floor — deterministically.
        In-flight requests are failed with :class:`ServeError`; further
        calls raise ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
        self._teardown(handles, timeout)

    def _teardown(self, handles, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + max(0.1, timeout)

        def remaining(floor: float = 0.05) -> float:
            return max(floor, deadline - time.monotonic())

        if self._monitor is not None:
            self._monitor.stop(remaining(0.1))
        for handle in handles:
            handle.closing = True
            try:
                # Derived from the close budget (split across workers),
                # not a hardcoded constant: a saturated pool's feeder
                # can't eat the whole budget on the first worker.
                handle.queue.put(
                    None, block=True,
                    timeout=min(1.0, remaining() / max(1, len(handles))),
                )
            except (queue_mod.Full, ValueError, OSError):
                pass
        for handle in handles:
            handle.process.join(remaining())
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(remaining(0.5))
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(1.0)
        for handle in handles:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            handle.queue.close()
            handle.queue.cancel_join_thread()
            with handle.depth:
                drained = list(handle.pending.values())
                handle.pending.clear()
                handle.depth.notify_all()  # wake blocked admitters: closing
            for pending in drained:
                pending.future._set_exception(ServeError("pool closed"))
        # The degradation path: stop the drain thread, fail anything
        # still queued behind the sentinel, release the session.
        if self._fallback_thread is not None:
            self._fallback_queue.put(None)
            self._fallback_thread.join(remaining())
        while True:
            try:
                pending = self._fallback_queue.get_nowait()
            except queue_mod.Empty:
                break
            if pending is not None:
                pending.future._set_exception(ServeError("pool closed"))
        if self._fallback_session is not None:
            try:
                self._fallback_session.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self._registry.close_all()

    # -- routing / model registry --------------------------------------

    def shard_of(self, model, x: np.ndarray) -> int:
        """The worker index ``(model, x)`` routes to (pure function)."""
        spec = self._spec_of(model)
        return shard_for(geometry_key(spec, np.asarray(x)), self.workers)

    @staticmethod
    def _spec_of(model) -> SpectralModel:
        spec = _as_spectral_model(model)
        if spec is None:
            raise TypeError(
                f"cannot serve model of type {type(model).__name__}; the "
                "pool serves SpectralModel (or (weight, modes[, symmetric]) "
                "tuple) requests — arbitrary callables cannot cross a "
                "process boundary"
            )
        return spec

    def _model_id(self, spec: SpectralModel) -> tuple[int, SpectralModel]:
        key = (id(spec.weight), spec.weight.shape, spec.modes, spec.symmetric)
        entry = self._models.get(key)
        if entry is None:
            entry = (len(self._models), spec)
            self._models[key] = entry
        return entry

    def _response_capacity(self, spec: SpectralModel, shape: tuple,
                           dtype: np.dtype) -> int:
        # Upper bound: batch x C_out x spatial at complex working
        # precision (covers real->complex promotion and dtype policy).
        if self.dtype_policy == "float32":
            target = np.dtype(np.float32)
        elif self.dtype_policy == "float64":
            target = np.dtype(np.float64)
        else:
            target = dtype
        itemsize = np.dtype(complex_dtype_for(target)).itemsize
        return (int(shape[0]) * int(spec.weight.shape[1])
                * math.prod(shape[2:]) * itemsize)

    # -- submission -----------------------------------------------------

    def submit(
        self,
        model,
        x: np.ndarray,
        block: bool | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
        *,
        _rows: tuple | None = None,
    ) -> ServeFuture:
        """Admit one request; returns a :class:`ServeFuture`.

        ``block`` defaults from the pool's ``saturation`` policy.  The
        input array must stay unmodified until the result is collected
        (it is the retry source if the owning worker crashes).

        ``deadline`` is an end-to-end budget in *seconds from now*: a
        request still unfinished when it expires fails with
        :class:`DeadlineExceeded` — parent-side via the health monitor
        sweep, worker-side by skipping expired requests before
        executing them (never served late).  ``deadline=0`` expires
        immediately (useful to test the path).
        """
        # ``_rows`` is :meth:`infer_many`'s group admission: the group's
        # arrays (``x`` is the first), carried by one header, and the
        # future resolves to their outputs as a list.
        return self._admit(model, x, block, timeout, deadline, rows=_rows)

    def submit_rollout(
        self,
        model,
        x0: np.ndarray,
        steps: int,
        profile: str = "exact",
        block: bool | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
        *,
        _rows: tuple | None = None,
    ) -> ServeFuture:
        """Admit one autoregressive rollout stream; resolves to the
        final state (``keep="last"``).

        The whole stream routes to its geometry's shard — state stays
        resident on one warm worker for all ``steps`` — and concurrent
        streams sharing ``(steps, profile)`` micro-batch there through
        :meth:`repro.api.Session.rollout`.  ``deadline`` covers the
        entire stream.
        """
        steps = _positive_int("steps", steps)
        if profile not in ROLLOUT_PROFILES:
            raise ValueError(
                f"unknown rollout profile {profile!r}; expected one of "
                f"{ROLLOUT_PROFILES}"
            )
        return self._admit(model, x0, block, timeout, deadline,
                           steps=steps, profile=profile, stream=True,
                           rows=_rows)

    @staticmethod
    def _request_tensor(x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim < 3:
            raise ValueError(
                f"request tensors are (batch, channels, *spatial); got "
                f"shape {x.shape}"
            )
        return x

    def _admit(self, model, x, block, timeout, deadline, steps=1,
               profile="exact", stream=False, rows=None) -> ServeFuture:
        self._check_open()
        spec = self._spec_of(model)
        x = self._request_tensor(x)
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
        if block is None:
            block = self.saturation == "block"
        gkey = geometry_key(spec, x)
        shard = shard_for(gkey, self.workers)
        parts = (x,) if rows is None else tuple(rows)
        with self._lock:
            self._check_open()
            mid, spec = self._model_id(spec)
        with self._stats_lock:
            self._admission["submitted"] += len(parts)
        abs_deadline = (
            None if deadline is None else time.monotonic() + deadline
        )
        future = ServeFuture(format_geometry(gkey), shard, abs_deadline)
        pending = _Pending(next(self._rid), spec, mid, parts,
                           rows is not None, gkey, shard, future,
                           abs_deadline, steps=steps, profile=profile,
                           stream=stream)
        future._cancel_hook = lambda: self._cancel_pending(pending)
        try:
            self._submit_pending(pending, block, timeout)
        except PoolSaturated:
            with self._stats_lock:
                self._admission["rejected"] += len(parts)
            raise
        return future

    def _cancel_pending(self, pending: _Pending) -> bool:
        """``ServeFuture.cancel()`` body: abandon one in-flight header."""
        pending.abandoned = True
        won = pending.future._set_exception(Cancelled(
            f"request {pending.rid} ({format_geometry(pending.gkey)}) "
            f"abandoned by cancel()"
        ))
        if won:
            with self._stats_lock:
                self._admission["cancelled"] += len(pending.parts)
        return won

    def _fail_expired(self, pending: _Pending, exc: DeadlineExceeded) -> None:
        pending.abandoned = True
        won = pending.future._set_exception(exc)
        if won:
            n = len(pending.parts)
            with self._stats_lock:
                self._admission["expired"] += n
                self._geo(pending).expired += n

    def _fail(self, pending: _Pending, exc: BaseException) -> None:
        """Resolve ``pending`` with a terminal failure, counted once per
        request it carries."""
        if pending.future._set_exception(exc):
            n = len(pending.parts)
            with self._stats_lock:
                self._admission["failed"] += n
                self._geo(pending).failed += n

    def _deliver(self, pending: _Pending, value,
                 degraded: bool = False) -> None:
        """Resolve ``pending`` with ``value`` (:meth:`_Pending.split`);
        one latency sample per request."""
        if not pending.future._set_result(value):
            return
        n = len(pending.parts)
        latency = time.perf_counter() - pending.t_submit
        with self._stats_lock:
            stats = self._geo(pending)
            stats.requests += n
            stats.seconds += latency * n
            for _ in range(n):
                stats.latency.record(latency)
                self._latency.record(latency)
            self._admission["completed"] += n
            if degraded:
                self._admission["degraded"] += n
                stats.degraded += n
            if pending.stream:
                self._rollout_streams += n
                self._rollout_steps += pending.steps * n

    def _geo(self, pending: _Pending) -> _GeoStats:
        """Per-geometry counters (call with ``_stats_lock`` held)."""
        stats = self._geo_stats.get(pending.gkey)
        if stats is None:
            stats = self._geo_stats[pending.gkey] = _GeoStats(pending.shard)
        return stats

    def _submit_pending(self, pending: _Pending, block, timeout) -> None:
        while True:
            with self._lock:
                self._check_open()
                # Degradation reroute: an open breaker sends the shard's
                # traffic to the in-parent fallback session — except the
                # single half-open probe the breaker lets through.
                if self._routes.route(pending.gkey) == FALLBACK:
                    if not self._breakers[pending.shard].allow_worker():
                        self._submit_degraded(pending)
                        return
                handle = self._handles[pending.shard]
                if (
                    self.max_requests_per_worker is not None
                    and handle.completed >= self.max_requests_per_worker
                    and not handle.pending
                ):
                    handle = self._recycle(pending.shard)
            try:
                self._dispatch(handle, pending, block, timeout)
                return
            except _HandleDead:
                continue  # the crash handler swapped the shard's worker
            except DeadlineExceeded as exc:
                self._fail_expired(pending, exc)
                return

    def _dispatch(self, handle, pending: _Pending, block, timeout) -> None:
        spec = pending.spec
        now = time.monotonic()
        if pending.expired(now):
            raise DeadlineExceeded(
                f"request {pending.rid} expired before dispatch"
            )
        pending.t_dispatch = now
        t_limit = None if timeout is None else now + timeout
        # 1. Admission: take an in-flight slot (the queue_depth bound).
        with handle.depth:
            while len(handle.pending) >= self.queue_depth:
                if handle.dead or handle.closing:
                    raise _HandleDead
                now = time.monotonic()
                if pending.expired(now):
                    raise DeadlineExceeded(
                        f"request {pending.rid} expired waiting for an "
                        f"admission slot on worker {handle.shard}"
                    )
                if not block:
                    raise PoolSaturated(
                        f"worker {handle.shard} at queue depth "
                        f"{self.queue_depth}"
                    )
                if t_limit is not None and now >= t_limit:
                    raise PoolSaturated(
                        f"worker {handle.shard} still at queue depth "
                        f"{self.queue_depth} after {timeout:.1f}s"
                    )
                bounds = [b for b in (t_limit, pending.deadline)
                          if b is not None]
                handle.depth.wait(
                    None if not bounds else max(0.0, min(bounds) - now)
                )
            if handle.dead or handle.closing:
                raise _HandleDead
            pending.allocated = False
            handle.pending[pending.rid] = pending
            handle.warm_models[pending.mid] = (
                pending.mid, spec.weight, spec.modes, spec.symmetric
            )
            handle.warm_geoms.add(
                (pending.mid, pending.shape[1:], str(pending.dtype))
            )

        def _abort(exc: BaseException | None):
            with handle.depth:
                owned = handle.pending.pop(pending.rid, None)
                handle.depth.notify_all()
            if owned is None:
                return False  # a crash handler owns the retry now
            if exc is not None:
                raise exc
            return True

        def _alloc_timeout() -> float | None:
            bounds = [b for b in (t_limit, pending.deadline)
                      if b is not None]
            if not bounds:
                return None
            return max(0.001, min(bounds) - time.monotonic())

        def _saturation(exc: PoolSaturated) -> BaseException:
            # A deadline that lapsed while blocked on ring capacity is a
            # deadline failure, not a saturation rejection.
            if pending.expired():
                return DeadlineExceeded(
                    f"request {pending.rid} expired waiting for ring "
                    f"capacity on worker {handle.shard}"
                )
            return exc

        # 2. Slabs: ring capacity is the second backpressure gate (and
        # the ring_fail chaos hook: an injected allocation failure).
        if self._injector.fire("ring_fail", pending.rid,
                               pending.retries) is not None:
            _abort(PoolSaturated(
                f"injected ring allocation failure for request "
                f"{pending.rid}"
            ))
            return
        try:
            req_off = handle.req_arena.alloc(pending.nbytes, block,
                                             _alloc_timeout())
        except PoolSaturated as exc:
            _abort(_saturation(exc))
            return
        resp_cap = self._response_capacity(spec, pending.shape,
                                           pending.dtype)
        try:
            resp_off = handle.resp_arena.alloc(resp_cap, block,
                                               _alloc_timeout())
        except PoolSaturated as exc:
            handle.req_arena.free(req_off)
            _abort(_saturation(exc))
            return
        view = np.ndarray(
            pending.shape, pending.dtype, buffer=handle.req_shm.buf,
            offset=req_off,
        )
        pending.write_rows(view)  # the only parent-side copy: user -> ring
        del view
        # The header (checksummed: the worker refuses to dereference ring
        # offsets from a header that does not verify).
        fields = (pending.rid, pending.mid, pending.shape, str(pending.dtype),
                  req_off, resp_off, resp_cap, pending.steps,
                  pending.profile, pending.deadline, pending.retries)
        # 3. Publish offsets; a crash between admission and here retries
        # through the pending entry, which never frees unallocated slabs.
        # 4. Enqueue, under the same lock: a model counts as pushed only
        # once its message is queued, and no other dispatcher's header
        # for it can overtake that message (the queue is unbounded: puts
        # cannot block).
        with handle.lock:
            if pending.rid not in handle.pending:
                # Crash handler took ownership while we staged: it
                # re-dispatches with fresh slabs; release ours.
                handle.req_arena.free(req_off)
                handle.resp_arena.free(resp_off)
                return
            if handle.dead or handle.closing:
                del handle.pending[pending.rid]
                handle.depth.notify_all()
                handle.req_arena.free(req_off)
                handle.resp_arena.free(resp_off)
                raise _HandleDead
            pending.req_off = req_off
            pending.resp_off = resp_off
            pending.resp_cap = resp_cap
            pending.allocated = True
            try:
                if pending.mid not in handle.pushed:
                    handle.queue.put(
                        ("model", pending.mid, spec.weight, spec.modes,
                         spec.symmetric)
                    )
                    handle.pushed.add(pending.mid)
                handle.queue.put(("req", *fields, header_checksum(fields)))
                queued = True
            except (ValueError, OSError):  # queue closed: worker is gone
                queued = False
        if not queued and _abort(None):
            handle.req_arena.free(req_off)
            handle.resp_arena.free(resp_off)
            raise _HandleDead

    # -- graceful degradation -------------------------------------------

    def _submit_degraded(self, pending: _Pending) -> None:
        """Reroute one request to the in-parent fallback session.

        Called with the pool lock held.  Same machinery, same bits —
        only throughput degrades (one parent thread instead of a warm
        worker process).
        """
        self._ensure_fallback()
        self._fallback_queue.put(pending)

    def _ensure_fallback(self) -> None:
        if self._fallback_thread is not None:
            return
        self._fallback_session = Session(
            backend=self.backend, dtype_policy=self.dtype_policy,
        )
        self._fallback_thread = threading.Thread(
            target=self._fallback_loop, name="repro-serve-fallback",
            daemon=True,
        )
        self._fallback_thread.start()

    def _fallback_loop(self) -> None:
        while True:
            pending = self._fallback_queue.get()
            if pending is None:
                return
            if self._closed:
                pending.future._set_exception(ServeError("pool closed"))
                continue
            if pending.future.done():
                continue  # cancelled while queued
            if pending.expired():
                self._fail_expired(pending, DeadlineExceeded(
                    f"request {pending.rid} expired in the degraded queue"
                ))
                continue
            try:
                out = self._fallback_session.rollout(
                    pending.spec, np.concatenate(pending.parts),
                    pending.steps, profile=pending.profile,
                )
            except Exception as exc:  # noqa: BLE001 - typed per-request
                self._fail(pending, ServeError(f"{type(exc).__name__}: {exc}"))
                continue
            self._deliver(pending, pending.split(out), degraded=True)

    # -- health enforcement ---------------------------------------------

    def _health_tick(self) -> None:
        """One monitor sweep: expire deadlines, escalate hung workers."""
        now = time.monotonic()
        with self._lock:
            if self._closed:
                return
            handles = list(self._handles.values())
        for handle in handles:
            if handle.dead or handle.closing:
                continue
            with handle.depth:
                pendings = list(handle.pending.values())
            expired = []
            for p in pendings:
                if p.expired(now) and not p.abandoned:
                    expired.append(p)
            for p in expired:
                # Fail the future now; the slabs stay reserved until the
                # worker answers (or dies) — it may still write them.
                self._fail_expired(p, DeadlineExceeded(
                    f"request {p.rid} ({format_geometry(p.gkey)}) "
                    f"exceeded its deadline in flight on worker "
                    f"{handle.shard}"
                ))
            # Hung-but-alive detection: in-flight work, no progress.
            # Progress = completions, or heartbeats while idle / with a
            # moving served count; a SIGSTOP silences beats entirely and
            # a runaway loop beats without progress — both stall
            # last_progress and get the worker killed, which routes the
            # requests through the ordinary crash machinery.
            if not pendings:
                continue
            oldest = min(p.t_dispatch for p in pendings)
            if (
                now - handle.last_progress > self.health.hang_timeout
                and now - oldest > self.health.hang_timeout
            ):
                handle.hang_killed = True
                with self._stats_lock:
                    self._admission["hangs"] += 1
                try:
                    handle.process.kill()  # EOF -> _on_worker_death
                except Exception:  # pragma: no cover - already gone
                    pass

    # -- results --------------------------------------------------------

    def _collect(self, handle: _WorkerHandle) -> None:
        """Per-worker collector thread: drain the response pipe."""
        while True:
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "ready":
                handle.pid = msg[1]
                handle.backend = msg[2]
                handle.last_progress = time.monotonic()
                handle.ready.set()
            elif kind == "hb":
                served, busy_since = msg[1], msg[2]
                now = time.monotonic()
                handle.last_heartbeat = now
                # A beat is progress only while idle or moving: a worker
                # stuck inside one batch keeps beating but never moves
                # its served count, and must still trip the monitor.
                if busy_since is None or served != handle.hb_served:
                    handle.last_progress = now
                handle.hb_served = served
            elif kind == "warmed":
                handle.last_progress = time.monotonic()
                handle.warmed.set()
            elif kind in ("res", "err", "exp"):
                handle.last_progress = time.monotonic()
                self._complete(handle, msg)
            elif kind == "stats":
                waiter = handle.stats_waiters.pop(msg[1], None)
                if waiter is not None:
                    waiter[1].append(msg[2])
                    waiter[0].set()
        # Wake a startup or warmup-handoff wait on this worker: it fails
        # at once instead of sitting out the lifecycle timeout.
        handle.exited = True
        handle.ready.set()
        handle.warmed.set()
        if not (handle.closing or self._closed):
            self._on_worker_death(handle)

    def _complete(self, handle: _WorkerHandle, msg: tuple) -> None:
        rid, kind = msg[1], msg[0]
        with handle.depth:
            pending = handle.pending.pop(rid, None)
            if pending is not None:
                handle.completed += len(pending.parts)
                if kind == "res":
                    handle.served += len(pending.parts)
                handle.depth.notify_all()  # an admission slot opened
        if pending is None:
            return  # raced a crash handover; the retry path owns it
        out = error = None
        corrupt = False
        if kind == "res":
            _, _, shape, dtype, nbytes, csum = msg
            if csum != header_checksum((rid, shape, dtype, nbytes)):
                corrupt = True  # never dereference a bad header
            elif not pending.abandoned:
                # Copy each request's rows out before the slab is freed.
                out = pending.split(np.ndarray(
                    shape, np.dtype(dtype), buffer=handle.resp_shm.buf,
                    offset=pending.resp_off,
                ))
        elif kind == "exp":
            error = DeadlineExceeded(
                f"request {rid} ({format_geometry(pending.gkey)}) expired "
                f"before execution on worker {handle.shard}"
            )
        else:  # "err"
            _, _, name, message = msg
            if name == "CorruptedHeader":
                error = CorruptedHeader(message)
            elif name == "InfrastructureError":
                # Substrate fault on the worker: keep it typed so the
                # caller can tell retry-worthy failures from model ones.
                error = InfrastructureError(message)
            elif name == "UnknownModel":
                error = UnknownModel(message)
            elif name == "ServeError":
                error = ServeError(message)
            else:
                error = ServeError(f"{name}: {message}")
        handle.req_arena.free(pending.req_off)
        handle.resp_arena.free(pending.resp_off)
        pending.allocated = False
        if corrupt:
            self._reject_corrupt(pending)
            return
        if error is None:
            if out is not None:
                self._deliver(pending, out)
            # A worker answer is proof of life: feed the breaker.
            self._breakers[pending.shard].record_success()
            self._routes.restore(pending.shard)
        elif isinstance(error, DeadlineExceeded):
            self._fail_expired(pending, error)
        else:
            self._fail(pending, error)

    def _reject_corrupt(self, pending: _Pending) -> None:
        """A response header failed its checksum: retry-or-fail.

        Governed by the same ``on_crash``/``max_retries`` budget as a
        worker death — a corrupted control message means the transport
        (or a fault injector) is lying, and re-execution is the only
        safe recovery; results stay bit-identical because retries
        re-execute from the untouched parent-side input.
        """
        with self._stats_lock:
            self._admission["corrupted"] += 1
        if pending.abandoned:
            return
        if self.on_crash == "retry" and pending.retries < self.max_retries:
            self._retry(pending)
            return
        self._fail(pending, CorruptedHeader(
            f"response header for request {pending.rid} failed its "
            f"checksum (policy {self.on_crash!r}, retries "
            f"{pending.retries}/{self.max_retries})"
        ))

    def _retry(self, pending: _Pending) -> None:
        """Re-dispatch ``pending``: its slab is rewritten from the
        callers' arrays, so the retry is bit-identical."""
        pending.retries += 1
        n = len(pending.parts)
        with self._stats_lock:
            self._admission["retried"] += n
            self._geo(pending).retried += n
        try:
            self._submit_pending(pending, True, _LIFECYCLE_TIMEOUT)
        except (PoolSaturated, RuntimeError) as exc:
            pending.future._set_exception(exc)

    # -- worker lifecycle -----------------------------------------------

    def _warm_handoff(self, old: _WorkerHandle, new: _WorkerHandle) -> None:
        """Prime ``new`` with everything ``old`` served, before traffic."""
        self._await(new, new.ready, f"worker {new.shard} startup")
        with old.lock:
            models = list(old.warm_models.values())
            geoms = sorted(old.warm_geoms)
        new.warm_models = dict((m[0], m) for m in models)
        new.warm_geoms = set(geoms)
        if not geoms and not models:
            return
        new.queue.put(("warm", models, geoms), block=True,
                      timeout=_LIFECYCLE_TIMEOUT)
        self._await(new, new.warmed, f"worker {new.shard} warmup handoff")
        new.pushed = {m[0] for m in models}

    def _recycle(self, shard: int) -> _WorkerHandle:
        """Replace an idle worker that hit its request budget.

        Called with the pool lock held and no requests in flight on the
        shard; the replacement is warmed before it is swapped in, so the
        shard never serves cold.
        """
        old = self._handles[shard]
        old.closing = True
        new = self._spawn_handle(shard, rings=old.rings())
        self._start_collector(new)
        try:
            self._warm_handoff(old, new)
        except RuntimeError:
            # The replacement died (or hung) before taking traffic: drop
            # it and keep serving on the old worker; the next admission
            # tries the recycle again.
            new.closing = True
            new.process.kill()
            new.process.join(1.0)
            new.queue.close()
            new.queue.cancel_join_thread()
            old.closing = False
            return old
        new.completed = 0
        self._handles[shard] = new
        self._admission["recycles"] += 1
        try:
            old.queue.put(None, block=True, timeout=1.0)
        except (queue_mod.Full, ValueError, OSError):  # pragma: no cover
            old.process.terminate()
        old.process.join(_LIFECYCLE_TIMEOUT)
        if old.process.is_alive():  # pragma: no cover - stuck drain
            old.process.terminate()
            old.process.join(1.0)
        try:
            old.conn.close()
        except OSError:  # pragma: no cover
            pass
        old.queue.close()
        old.queue.cancel_join_thread()
        return new

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Crash/hang path: spawn + warm a replacement, feed the shard's
        circuit breaker, then retry-or-fail the dead worker's in-flight
        requests (deterministic per policy)."""
        with self._lock:
            if self._closed or handle.closing or handle.dead:
                return
            with handle.depth:
                handle.dead = True
                drained = sorted(handle.pending.items())
                handle.pending.clear()
                handle.depth.notify_all()  # wake blocked admitters: dead
            self._admission["crashes"] += 1
            opened = self._breakers[handle.shard].record_failure()
            if opened:
                # K consecutive replacements: stop crash-looping — the
                # shard's geometries reroute to the in-parent fallback
                # until a half-open probe succeeds.
                self._routes.degrade(handle.shard)
                with self._stats_lock:
                    self._admission["breaker_opens"] += 1
            # Nothing reads these slabs any more: reclaim them.  (Not an
            # arena-wide reset — a submit racing this handler still owns
            # the slab it just allocated and frees it itself, and a
            # drained request whose dispatch never reached the publish
            # step has no slabs to free yet.)
            for _, pending in drained:
                if pending.allocated:
                    handle.req_arena.free(pending.req_off)
                    handle.resp_arena.free(pending.resp_off)
                    pending.allocated = False
            handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            handle.queue.close()
            handle.queue.cancel_join_thread()
            new = self._spawn_handle(handle.shard, rings=handle.rings())
            self._start_collector(new)
            self._handles[handle.shard] = new
        try:
            self._warm_handoff(handle, new)
        except RuntimeError:  # pragma: no cover - replacement also sick
            pass
        for _, pending in drained:
            if pending.abandoned or pending.future.done():
                continue  # deadline sweep / cancel already resolved it
            if pending.expired():
                self._fail_expired(pending, DeadlineExceeded(
                    f"request {pending.rid} expired during worker "
                    f"{handle.shard} replacement"
                ))
                continue
            if self.on_crash == "retry" and pending.retries < self.max_retries:
                self._retry(pending)
            else:
                self._fail(pending, WorkerCrashed(
                    f"worker {handle.shard} died with this request in "
                    f"flight (policy {self.on_crash!r}, "
                    f"retries {pending.retries}/{self.max_retries})"
                ))

    # -- serving --------------------------------------------------------

    def infer(self, model, x: np.ndarray, timeout: float | None = None,
              deadline: float | None = None) -> np.ndarray:
        """Serve one request synchronously (submit + wait)."""
        return self.submit(model, x, deadline=deadline).result(timeout)

    def infer_many(self, requests, timeout: float | None = None,
                   deadline: float | None = None) -> list:
        """Serve a burst of ``(model, x)`` requests.

        The burst ships in groups, not requests: requests sharing
        (model, geometry, dtype) group in arrival order, up to
        ``max_batch`` requests (and one ring's worth of rows) a group —
        the rule :meth:`Session.infer_many` batches by — and each group
        is admitted as one request: one ring slab each way, one
        ``"req"`` header whose shape carries the group's rows, one
        collector message.  Each request's rows are copied straight
        into and out of the group's slabs.  Results return in request
        order, bit-identical to a serial one-worker
        :class:`~repro.api.Session` over the same burst (every operator
        is row-independent).  ``deadline`` (seconds) counts from each
        group's admission, and a failed group fails each of its
        requests; the first failing request's error, in request order,
        is raised.  ``stats()`` counts requests, not groups.
        """
        return self._serve_groups(
            requests, timeout,
            lambda spec, parts: self.submit(spec, parts[0],
                                            deadline=deadline, _rows=parts),
        )

    def rollout(self, model, x0: np.ndarray, steps: int = 1,
                profile: str = "exact", timeout: float | None = None,
                deadline: float | None = None) -> np.ndarray:
        """Serve one autoregressive rollout synchronously.

        Routes the whole stream to its geometry's shard and returns the
        final state — bit-identical (default ``profile="exact"``) to
        ``steps`` chained :meth:`infer` calls on the same pool, because
        the worker's session steps through the exact same pooled
        executor call per step.
        """
        return self.submit_rollout(
            model, x0, steps, profile=profile, deadline=deadline
        ).result(timeout)

    def rollout_many(self, streams, steps: int = 1, profile: str = "exact",
                     timeout: float | None = None,
                     deadline: float | None = None) -> list:
        """Serve concurrent ``(model, x0)`` rollout streams.

        Streams group and ship like :meth:`infer_many`'s requests: each
        (model, geometry, dtype) group of up to ``max_batch`` streams is
        one header, stepped as one state on its geometry's worker;
        ``deadline`` covers each group's whole stream.  Results return
        in stream order.
        """
        steps = _positive_int("steps", steps)
        return self._serve_groups(
            streams, timeout,
            lambda spec, parts: self.submit_rollout(
                spec, parts[0], steps, profile=profile, deadline=deadline,
                _rows=parts),
        )

    def _serve_groups(self, requests, timeout, admit) -> list:
        """Admit a burst as one header per (model, geometry, dtype)
        group via ``admit(spec, parts)``, then gather the per-request
        results in request order.

        A group flushes at ``max_batch`` requests, or before its rows
        would outgrow a ring slab.  Each distinct model object resolves
        once; the per-request work is the grouping key.
        """
        items = list(requests)  # pins every model: ids stay unique
        specs: dict[int, tuple] = {}
        open_groups: dict[tuple, _Group] = {}
        admitted: list[tuple] = []

        def flush(group: _Group) -> None:
            admitted.append((group.idxs, admit(group.spec, group.parts)))
            group.idxs, group.parts, group.rows = [], [], 0

        for i, (model, x) in enumerate(items):
            resolved = specs.get(id(model))
            if resolved is None:
                spec = self._spec_of(model)
                resolved = specs[id(model)] = (spec, (
                    id(spec.weight), spec.weight.shape, spec.modes,
                    spec.symmetric,
                ))
            x = self._request_tensor(x)
            key = (resolved[1], x.shape[1:], x.dtype)
            group = open_groups.get(key)
            if group is None:
                group = open_groups[key] = _Group(self, resolved[0], x)
            elif group.idxs and (
                    (group.rows + len(x)) * group.row_bytes > self.ring_bytes):
                flush(group)
            group.idxs.append(i)
            group.parts.append(x)
            group.rows += len(x)
            if len(group.idxs) >= self.max_batch:
                flush(group)
        for group in open_groups.values():
            if group.idxs:
                flush(group)
        admitted.sort(key=lambda entry: entry[0][0])
        out: list = [None] * len(items)
        for idxs, future in admitted:
            for i, y in zip(idxs, future.result(timeout)):
                out[i] = y
        return out

    # -- observability --------------------------------------------------

    def worker_pids(self) -> list[int | None]:
        """Live worker PIDs by shard (``None`` while a shard restarts)."""
        with self._lock:
            return [
                self._handles[i].process.pid for i in range(self.workers)
            ]

    def segment_names(self) -> list[str]:
        """Every shared-memory segment name this pool ever created
        (closed pools keep the list: the leak-audit surface)."""
        return self._registry.names()

    def live_segment_names(self) -> list[str]:
        """Segment names not yet unlinked."""
        return self._registry.live_names()

    def stats(self, timeout: float = 5.0) -> dict:
        """Pool statistics, shaped like :meth:`Session.stats`.

        ``per_geometry`` carries the parent's admission/latency counters
        per routing key — including ``worker``, the single shard that
        geometry is pinned to, and ``latency``, end-to-end
        submit-to-result p50/p95/p99 seconds from a bounded reservoir
        (``latency`` at the top level aggregates all geometries;
        ``rollout`` counts streams/steps served) — and ``per_worker``
        embeds each live
        worker's own ``Session.stats()`` snapshot (``None`` if the
        worker was too busy to answer within ``timeout``) plus its
        actual ``backend`` and heartbeat age.  Every parent-side
        counter (``admission``, ``per_geometry``, ``per_worker``'s
        ``completed``/``served``) counts requests; a worker's own
        ``session`` snapshot sees each grouped ``infer_many`` header as
        one request, so its rows per batch read about 1 there.
        ``degraded`` reports the graceful-degradation state: open
        shards, per-shard breaker snapshots, and how many requests the
        fallback session served.
        """
        with self._lock:
            handles = (
                [] if self._closed
                else [self._handles[i] for i in range(self.workers)]
            )
            requests_polled = [
                (handle, next(self._stats_token)) for handle in handles
            ]
        deadline = time.monotonic() + timeout
        polls: list[tuple[_WorkerHandle, threading.Event, list]] = []
        for handle, token in requests_polled:
            event: threading.Event = threading.Event()
            box: list = []
            handle.stats_waiters[token] = (event, box)
            try:
                handle.queue.put(("stats", token), block=False)
                polls.append((handle, event, box))
            except (queue_mod.Full, ValueError, OSError):
                handle.stats_waiters.pop(token, None)
                polls.append((handle, event, box))  # reported as stale
        per_worker = []
        batches = 0
        for handle, event, box in polls:
            event.wait(max(0.0, deadline - time.monotonic()))
            payload = box[0] if box else None
            if payload is not None:
                batches += payload["session"].get("batches", 0)
            now = time.monotonic()
            per_worker.append({
                "shard": handle.shard,
                "pid": handle.pid,
                "alive": handle.process.is_alive(),
                "backend": handle.backend,
                "completed": handle.completed,
                "in_flight": len(handle.pending),
                "heartbeat_age": (
                    None if handle.last_heartbeat is None
                    else now - handle.last_heartbeat
                ),
                "served": handle.served,
                "session": payload["session"] if payload else None,
            })
        with self._stats_lock:
            per_geometry = {
                format_geometry(key): stats.as_dict()
                for key, stats in self._geo_stats.items()
            }
            admission = dict(self._admission)
            latency = self._latency.percentiles()
            rollout = {
                "streams": self._rollout_streams,
                "steps": self._rollout_steps,
            }
        return {
            "workers": self.workers,
            "backend": self.backend,
            "dtype_policy": self.dtype_policy,
            "closed": self._closed,
            "requests": admission["completed"],
            "batches": batches,
            "latency": latency,
            "rollout": rollout,
            "admission": admission,
            "health": self.health.as_dict(),
            "faults": (
                self._fault_plan.spec() if self._fault_plan is not None
                else None
            ),
            "degraded": {
                "requests": admission["degraded"],
                "open_shards": list(self._routes.degraded),
                "fallback_active": self._fallback_thread is not None,
                "breakers": {
                    str(i): b.as_dict() for i, b in self._breakers.items()
                },
            },
            "per_geometry": per_geometry,
            "per_worker": per_worker,
        }
