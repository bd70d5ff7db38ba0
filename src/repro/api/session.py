"""``Session``: one stateful execution context for plans and inference.

PR 1's planning facade and the compiled plan/executor layers of PRs 2-3
were stitched together by callers: trainers, examples and the CLI each
hand-managed plan lookups, executor compilation and backend selection
through module-level globals.  A :class:`Session` is the single front
door that owns all of it:

* **its own plan cache** — the LRU behind :meth:`Session.plan`
  (the module-level :func:`repro.api.plan` wraps a process-default
  session, so the PR 1 API is unchanged);
* **its own FFT/rfft plan caches** — one
  :class:`repro.fft.compiled.PlanCaches` set pinned to the session's
  ``backend`` (``"auto"`` | ``"ckernels"`` | ``"numpy"``); two sessions
  with different backends never share plans or workspaces;
* **a compiled-executor pool** — one
  :class:`repro.core.compiled.CompiledSpectralConv1D`/``2D`` per served
  weight matrix, staged against the session's caches and reused across
  requests;
* **the serving path** — :meth:`Session.infer` for one request,
  :meth:`Session.infer_many` for a stream: requests are micro-batched
  by (model, geometry, dtype), each micro-batch runs the pooled
  executor once, and an optional thread pool drains a bounded request
  queue.  Results are bit-identical to per-request execution (every
  operator in the stack is row-independent along the batch axis);
* **observability** — :meth:`Session.stats` (cache hit rates,
  per-geometry throughput), :meth:`Session.warmup` (pre-compile plans
  and FFT plans), and one teardown path
  (:meth:`Session.clear_all_caches` / :meth:`Session.close`) that
  empties *every* cache the session owns.

Backend and dtype policy are explicit configuration here, not ambient
process state: ``Session(backend="numpy")`` forces the pure-NumPy
substrate for this session only, where the seed required the
process-global ``REPRO_NO_CKERNELS`` environment variable.
"""

from __future__ import annotations

import queue as queue_mod
import random
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.api.planner import PLAN_CACHE_SIZE, ExecutionPlan, build_plan
from repro.api.problem import Problem
from repro.api.registry import get_device, resolve_stage
from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    _positive_int,
    _split,
    _stacked,
    _synthesise_streams,
    compile_spectral_conv,
)
from repro.core.config import TurboFNOConfig
from repro.core.dtypes import complex_dtype_for
from repro.core.stages import FusionStage
from repro.fft.compiled import (
    FFT_PLAN_CACHE_SIZE,
    PlanCaches,
    default_plan_caches,
    plan_cache_scope,
    resolve_backend_kernels,
)
from repro.fft.stockham import is_power_of_two
from repro.gpu.device import DeviceSpec

__all__ = [
    "DTYPE_POLICIES",
    "LatencyReservoir",
    "PLAN_CACHE_SIZE",
    "ROLLOUT_PROFILES",
    "Session",
    "SpectralModel",
    "default_session",
    "clear_all_caches",
]

#: Working-precision policies.  ``"preserve"`` follows each input's
#: dtype (the package default: float32/complex64 stays single,
#: everything else computes in double); ``"float32"``/``"float64"``
#: cast every request to the named precision on the way in.
DTYPE_POLICIES = ("preserve", "float32", "float64")

#: :meth:`Session.rollout` stepping profiles.  ``"exact"`` (default)
#: runs the pooled executor per step — bit-identical to the eager
#: per-step loop.  ``"fast"`` keeps the state resident in the truncated
#: spectrum between steps, skipping the inverse/forward transform pair
#: where the inter-step path is linear — tolerance-asserted, not
#: bit-identical (the ifft->fft round trip it elides rounds
#: differently), mirroring how ``fft/legacy.py`` froze the seed as the
#: oracle for the compiled paths.
ROLLOUT_PROFILES = ("exact", "fast")

#: Bounded-reservoir size for latency percentiles: large enough for
#: stable p99 estimates, small enough that a month-long serving loop
#: holds a few KiB per geometry.
LATENCY_RESERVOIR_SIZE = 512

_COMPILED_EXECUTORS = (CompiledSpectralConv1D, CompiledSpectralConv2D)

#: Executor-pool capacity: one entry per served weight matrix.  LRU
#: eviction keeps a serving loop that materialises transient weight
#: arrays per request from growing the pool without bound.
EXECUTOR_POOL_SIZE = 256

#: Every live session, so registry mutations that invalidate cached
#: plans (builder overwrite) can drop all plan caches, not just the
#: default session's.
_live_sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()

#: Guards first-time creation of a served object's ``_serve_lock``.
#: Module-level so two *sessions* handed the same executor/model still
#: agree on one lock (a per-session guard would race).
_serve_lock_creation = threading.Lock()


class SpectralModel:
    """One Fourier layer as a serving unit: a complex ``(C_in, C_out)``
    weight shared across the kept ``modes`` (+ the symmetric flag).

    The smallest thing :meth:`Session.infer` accepts that the session
    can pool an executor for.  ``(weight, modes)`` /
    ``(weight, modes, symmetric)`` tuples are accepted as shorthand.
    """

    __slots__ = ("weight", "modes", "symmetric")

    def __init__(self, weight: np.ndarray, modes, symmetric: bool = False):
        self.weight = np.asarray(weight)
        if self.weight.ndim != 2:
            raise ValueError(
                f"weight must be (C_in, C_out), got {self.weight.shape}"
            )
        self.modes = tuple(
            _positive_int("modes", m) for m in
            (modes if isinstance(modes, (tuple, list)) else (modes,))
        )
        self.symmetric = bool(symmetric)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpectralModel(C_in={self.weight.shape[0]}, "
            f"C_out={self.weight.shape[1]}, modes={self.modes}, "
            f"symmetric={self.symmetric})"
        )


def _optional_positive_int(name: str, value) -> int | None:
    """``value`` checked as a positive integer, or None (the default)."""
    return None if value is None else _positive_int(name, value)


def _as_spectral_model(model) -> SpectralModel | None:
    """Coerce a request's model to a poolable spec (None: not poolable)."""
    if isinstance(model, SpectralModel):
        return model
    if isinstance(model, tuple) and len(model) in (2, 3):
        return SpectralModel(*model)
    return None


class LatencyReservoir:
    """Bounded uniform sample of latency observations (Algorithm R)
    with percentile readout.

    A seconds *sum* (what the serving counters kept before) cannot
    answer the tail-latency question serving actually asks; a reservoir
    keeps an unbiased sample of every recorded latency in
    O(``capacity``) memory, so ``percentiles()`` stays meaningful after
    millions of requests.  Seeded: two reservoirs fed the same stream
    hold the same sample.  Not thread-safe — callers serialise behind
    their stats lock.
    """

    __slots__ = ("capacity", "count", "_samples", "_rng")

    def __init__(self, capacity: int = LATENCY_RESERVOIR_SIZE,
                 seed: int = 0x5EED) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def record(self, seconds: float) -> None:
        self.count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(float(seconds))
            return
        j = self._rng.randrange(self.count)
        if j < self.capacity:
            self._samples[j] = float(seconds)

    def percentiles(self) -> dict:
        """``{"p50", "p95", "p99", "samples", "count"}`` (seconds);
        the percentile values are ``None`` until a sample lands."""
        out: dict = {"samples": len(self._samples), "count": self.count}
        if not self._samples:
            out.update({"p50": None, "p95": None, "p99": None})
            return out
        arr = np.sort(np.asarray(self._samples, dtype=np.float64))
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            out[name] = float(np.quantile(arr, q))
        return out


class _GeometryStats:
    """Mutable per-geometry serving counters (requests, batches, time,
    latency reservoir)."""

    __slots__ = ("requests", "batches", "seconds", "latency")

    def __init__(self) -> None:
        self.requests = 0
        self.batches = 0
        self.seconds = 0.0
        self.latency = LatencyReservoir()

    def as_dict(self) -> dict:
        out = {
            "requests": self.requests,
            "batches": self.batches,
            "seconds": self.seconds,
            "latency": self.latency.percentiles(),
        }
        out["requests_per_s"] = (
            self.requests / self.seconds if self.seconds > 0 else None
        )
        return out


class Session:
    """A stateful execution context: caches, executors, serving, stats.

    Parameters
    ----------
    config:
        Kernel/model configuration every plan defaults to; ``None``
        means the default :class:`TurboFNOConfig`.
    device:
        Device spec or registered name; ``None`` means the paper's A100.
    backend:
        Executor substrate for every FFT plan and compiled executor the
        session owns: ``"auto"`` (C kernels when available — the
        default), ``"ckernels"`` (required; raises when the C layer is
        unavailable) or ``"numpy"`` (forced pure-NumPy fallback).
        Outputs are byte-identical across backends.
    dtype_policy:
        ``"preserve"`` (default), ``"float32"`` or ``"float64"`` — see
        :data:`DTYPE_POLICIES`.
    plan_cache_size:
        LRU capacity of this session's plan cache.
    fft_cache_size:
        Capacity of the FFT plan caches when the session owns a private
        set; ``None`` keeps the library default.
    private_caches:
        By default a ``backend="auto"`` session shares the process-wide
        FFT plan-cache set (so the default session and the functional
        API pool plans, exactly like the seed).  ``True`` — or any
        non-auto backend — gives the session its own isolated set.

    Sessions are context managers (``with api.Session() as s:``) and
    :meth:`close` is idempotent.  The plan cache and executor pool are
    thread-safe; micro-batches of :meth:`infer_many` serialise per
    executor, so ``workers > 1`` parallelises across geometries.
    """

    def __init__(
        self,
        config: TurboFNOConfig | None = None,
        device: DeviceSpec | str | None = None,
        backend: str = "auto",
        dtype_policy: str = "preserve",
        plan_cache_size: int = PLAN_CACHE_SIZE,
        fft_cache_size: int | None = None,
        private_caches: bool = False,
    ) -> None:
        resolve_backend_kernels(backend)  # validate spelling/availability
        if dtype_policy not in DTYPE_POLICIES:
            raise ValueError(
                f"unknown dtype_policy {dtype_policy!r}; expected one of "
                f"{DTYPE_POLICIES}"
            )
        self.config = config if config is not None else TurboFNOConfig()
        self.device = get_device(device)
        self.backend = backend
        self.dtype_policy = dtype_policy
        if backend == "auto" and not private_caches and fft_cache_size is None:
            self.plan_caches = default_plan_caches()
            self._owns_plan_caches = False
        else:
            self.plan_caches = PlanCaches(
                backend=backend,
                maxsize=(
                    fft_cache_size
                    if fft_cache_size is not None
                    else FFT_PLAN_CACHE_SIZE
                ),
            )
            self._owns_plan_caches = True
        self._plan_cache = lru_cache(maxsize=plan_cache_size)(self._build_plan)
        self._pool_lock = threading.Lock()
        self._executors: "OrderedDict[tuple, object]" = OrderedDict()
        self._stats_lock = threading.Lock()
        self._geometry_stats: dict[tuple, _GeometryStats] = {}
        self._latency = LatencyReservoir()
        self._rollout_streams = 0
        self._rollout_steps = 0
        self._closed = False
        _live_sessions.add(self)

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session(device={self.device.name!r}, backend={self.backend!r}, "
            f"dtype_policy={self.dtype_policy!r}, {state})"
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def clear_plan_cache(self) -> None:
        """Drop every cached :class:`ExecutionPlan` (plan cache only)."""
        self._plan_cache.cache_clear()

    def clear_all_caches(self) -> None:
        """Empty *every* cache this session owns, through one path: the
        plan cache, the FFT/pruned/rfft plan caches (and their
        workspaces), and the compiled-executor pool.

        A session that *shares* the process-wide FFT plan-cache set (the
        ``backend="auto"`` default) leaves that set alone — clearing it
        would cold-start every other session sharing it; use
        :func:`repro.api.clear_all_caches` to flush the shared set too.
        """
        self._plan_cache.cache_clear()
        if self._owns_plan_caches:
            self.plan_caches.clear()
        with self._pool_lock:
            self._executors.clear()

    def close(self) -> None:
        """Release every cache and mark the session closed (idempotent).
        Further ``plan``/``infer`` calls raise :class:`RuntimeError`."""
        if self._closed:
            return
        self.clear_all_caches()
        self._closed = True

    @contextmanager
    def activate(self):
        """Make this session's plan caches (and backend) ambient for the
        current thread.

        Everything that resolves FFT plans through the module-level
        getters — the functional FFT API, :mod:`repro.nn` layers,
        throwaway executors — lands in this session's caches while the
        scope is active.  This is how training loops and examples inject
        a session without threading it through every call.
        """
        self._check_open()
        with plan_cache_scope(self.plan_caches):
            yield self

    # -- planning -------------------------------------------------------

    def _build_plan(self, problem, stage, config, device) -> ExecutionPlan:
        return build_plan(
            self._plan_cache, problem, stage, config, device, session=self
        )

    def plan(
        self,
        problem: Problem,
        stage: FusionStage | str = FusionStage.BEST,
        config: TurboFNOConfig | None = None,
        device: DeviceSpec | str | None = None,
    ) -> ExecutionPlan:
        """Compile (or fetch from this session's cache) one plan.

        Same contract as :func:`repro.api.plan`; ``config``/``device``
        default to the session's.
        """
        self._check_open()
        return self._plan_cache(
            problem,
            resolve_stage(stage),
            config if config is not None else self.config,
            get_device(device) if device is not None else self.device,
        )

    def plan_cache_info(self):
        """``functools.lru_cache`` statistics of this session's plan
        cache."""
        return self._plan_cache.cache_info()

    def warmup(self, problems, stages=(FusionStage.BEST,),
               dtypes=(np.float32,)) -> dict:
        """Pre-compile plans and FFT/rfft plans for ``problems``.

        For every problem, every requested stage is planned, and the
        FFT-plan family each geometry's executors will need — forward
        and inverse transforms of the kept modes, the pruned splits, and
        (where the half-spectrum convention applies) the packed-real
        R2C/C2R plans plus their pruned variants (truncation fused into
        the half-length decomposition) — is built in this session's
        caches for each working precision in ``dtypes``.  Returns
        ``{"problems": ..., "plans": ..., "fft_plans": ...}`` counts.
        """
        self._check_open()
        problems = list(problems)
        fft_before = sum(i.currsize for i in self.plan_caches.cache_info())
        plans = 0
        for problem in problems:
            for stage in stages:
                self.plan(problem, stage)
                plans += 1
            spatial = tuple(problem.spatial_shape)
            modes = tuple(problem.modes_shape)
            for dt in dtypes:
                cdt = complex_dtype_for(dt)
                self._warm_geometry(spatial, modes, cdt)
        fft_after = sum(i.currsize for i in self.plan_caches.cache_info())
        return {
            "problems": len(problems),
            "plans": plans,
            "fft_plans": fft_after - fft_before,
        }

    def _warm_geometry(self, spatial: tuple, modes: tuple, cdt) -> None:
        caches = self.plan_caches
        n_last, m_last = spatial[-1], modes[-1]
        # The fused family along the innermost axis: the pruned pair a
        # fused stage takes (also at m == n), which builds the kept-mode
        # FFT plans in both directions.
        if m_last <= n_last and is_power_of_two(m_last):
            caches.pruned(n_last, m_last, cdt, "trunc")
            caches.pruned(n_last, m_last, cdt, "itrunc")
        # The symmetric (half-spectrum) family — the pruned-R2C plans
        # the staged executors run, plus the full packed-real plans
        # their degenerate/fallback strategies and legacy callers use.
        if m_last <= n_last // 2:
            caches.rfft(n_last, cdt)
            caches.irfft(n_last, cdt)
            caches.pruned_rfft(n_last, m_last, cdt)
            caches.pruned_irfft(n_last, m_last, cdt)
        # 2-D: the width-axis pruned splits of the outer transform.
        if len(spatial) == 2:
            n_x, m_x = spatial[0], modes[0]
            if m_x < n_x and is_power_of_two(m_x):
                caches.pruned(n_x, m_x, cdt, "trunc")
                caches.pruned(n_x, m_x, cdt, "itrunc")
            elif m_x == n_x:
                caches.fft(n_x, cdt, inverse=False)
                caches.fft(n_x, cdt, inverse=True)

    # -- executor pool --------------------------------------------------

    def executor(self, weight: np.ndarray, modes, symmetric: bool = False):
        """The pooled compiled executor for one weight matrix.

        Keyed on the weight array's identity (plus modes and the
        symmetric flag): serving the same layer again reuses the staged
        executor — the weight cast is paid once per dtype, FFT plans and
        workspaces once per (geometry, dtype).  The executor stages
        against this session's plan caches and backend.  Weights are
        staged at first execution; build a new executor (or
        :meth:`clear_all_caches`) after mutating the array in place.
        """
        self._check_open()
        model = SpectralModel(weight, modes, symmetric)
        return self._pooled_executor(model)

    def _model_key(self, model: SpectralModel) -> tuple:
        return (id(model.weight), model.weight.shape, model.modes,
                model.symmetric)

    def _pooled_executor(self, model: SpectralModel):
        key = self._model_key(model)
        with self._pool_lock:
            executor = self._executors.get(key)
            if executor is None:
                modes = (
                    model.modes[0] if len(model.modes) == 1 else model.modes
                )
                executor = compile_spectral_conv(
                    model.weight, modes, symmetric=model.symmetric,
                    plans=self.plan_caches,
                )
                self._executors[key] = executor
                if len(self._executors) > EXECUTOR_POOL_SIZE:
                    self._executors.popitem(last=False)  # LRU eviction
            else:
                self._executors.move_to_end(key)
            return executor

    @staticmethod
    def _serve_lock_for(obj) -> threading.Lock:
        # The lock lives on the served object itself, so every holder —
        # this session, another session, threaded micro-batches —
        # serialises on the same lock no matter what any pool does
        # (eviction, clear_all_caches) in between.
        lock = getattr(obj, "_serve_lock", None)
        if lock is None:
            with _serve_lock_creation:
                lock = getattr(obj, "_serve_lock", None)
                if lock is None:
                    lock = threading.Lock()
                    try:
                        obj._serve_lock = lock
                    except AttributeError:
                        # Slotted/frozen object: serialise every such
                        # model on the shared creation lock instead of
                        # running it unguarded.
                        return _serve_lock_creation
        return lock

    def executor_pool_size(self) -> int:
        """Number of compiled executors currently pooled."""
        with self._pool_lock:
            return len(self._executors)

    # -- serving --------------------------------------------------------

    def _apply_dtype_policy(self, x: np.ndarray) -> np.ndarray:
        if self.dtype_policy == "preserve":
            return x
        if self.dtype_policy == "float32":
            target = np.complex64 if np.iscomplexobj(x) else np.float32
        else:
            target = np.complex128 if np.iscomplexobj(x) else np.float64
        return x.astype(target, copy=False)

    def _record(self, geometry: tuple, requests: int, seconds: float,
                calls: int = 1) -> None:
        """Account ``calls`` serving calls of ``requests`` requests,
        each taking ``seconds``."""
        with self._stats_lock:
            stats = self._geometry_stats.get(geometry)
            if stats is None:
                stats = self._geometry_stats[geometry] = _GeometryStats()
            stats.requests += requests * calls
            stats.batches += calls
            stats.seconds += seconds * calls
            # One latency sample per serving call: every request in a
            # micro-batch (every stream in a rollout step) experienced
            # this wall time.
            for _ in range(calls):
                stats.latency.record(seconds)
                self._latency.record(seconds)

    def _resolve_executor(self, model):
        """The compiled executor that serves ``model``, or None for an
        arbitrary callable."""
        spec = _as_spectral_model(model)
        if spec is not None:
            return self._pooled_executor(spec)
        if isinstance(model, _COMPILED_EXECUTORS):
            return model
        return None

    def _execute(self, model, x: np.ndarray) -> np.ndarray:
        """Run one batch through ``model``: a single request, or one
        step of a generic group's concatenated state (see
        :meth:`_serve_streams`)."""
        target = self._resolve_executor(model)
        if target is None:
            if not callable(model):
                raise TypeError(
                    f"cannot serve model of type {type(model).__name__}; "
                    "expected a SpectralModel, a (weight, modes[, symmetric]) "
                    "tuple, a compiled executor, or a callable model"
                )
            target = model
        # Under this session's cache scope, so an arbitrary model (e.g. a
        # repro.nn Module) and an executor built without ``plans=``
        # resolve plans from the session's caches and backend.
        # Serialised per served object — executors own workspaces and nn
        # modules cache forward state.
        with self._serve_lock_for(target), self.activate():
            return target(x)

    def infer(self, model, x: np.ndarray) -> np.ndarray:
        """Serve one inference request.

        ``model`` is a :class:`SpectralModel` (or the
        ``(weight, modes[, symmetric])`` tuple shorthand, pooled by
        weight identity), a prebuilt compiled executor, or any callable
        model (a :mod:`repro.nn` network).  Every model runs under
        :meth:`activate`, so it hits this session's caches and backend;
        a prebuilt executor built without ``plans=`` stages each
        geometry against the caches active at its first call there.
        """
        self._check_open()
        x = self._apply_dtype_policy(np.asarray(x))
        t0 = time.perf_counter()
        out = self._execute(model, x)
        self._record(x.shape[1:], 1, time.perf_counter() - t0)
        return out

    def infer_many(
        self,
        requests,
        max_batch: int = 32,
        workers: int | None = None,
        queue_depth: int | None = None,
    ) -> list[np.ndarray]:
        """Serve a stream of ``(model, x)`` requests, micro-batched.

        Requests sharing (model, spatial geometry, dtype) form
        micro-batches of up to ``max_batch`` requests, and each
        micro-batch runs its pooled executor *once*, amortising staging,
        plan lookups and Python dispatch that the per-request path pays
        per call.  A micro-batch of a compiled executor is one executor
        call that returns each result in its own buffer.  On the C
        backend a 1-D C2C micro-batch is one driver call that reads
        every request where it lies and writes each result into its own
        rows of one new buffer, and a symmetric 2-D one on a grid the
        plane drivers cover is analysed and synthesised in place the
        same way; a 2-D C2C micro-batch runs on the concatenated
        requests and a symmetric one off the drivers synthesises each
        request's result on its own.  A callable's micro-batch is
        concatenated along the batch axis and each result copied out.
        Grouping preserves arrival order within a group and results are
        returned in request order, **bit-identical** to serial
        per-request execution on every path: every operator in the
        stack is row-independent along the batch axis, so batching
        changes where rows live, not one floating-point operation (the
        one-row C2R synthesis, whose bits depend on its row count,
        always runs per request).  No result shares memory with a
        request or with another result, though a result held alone may
        keep its micro-batch's buffer alive.

        ``workers > 1`` drains the micro-batch queue (bounded at
        ``queue_depth``, default ``2 * workers``) with a thread pool;
        batches sharing an executor serialise on its lock, so threads
        help when the stream mixes geometries/models.  Results are
        identical regardless of ``workers``.  ``workers`` and
        ``queue_depth`` must be positive integers, or None for the
        default (serial; ``2 * workers``).

        Each request is served as a one-step ``"exact"`` stream through
        the same grouped engine as :meth:`rollout`; a one-step stream
        needs no shape-preserving model, so any ``C_in -> C_out`` layer
        or callable is served.
        """
        self._check_open()
        max_batch = _positive_int("max_batch", max_batch)
        workers = _optional_positive_int("workers", workers)
        queue_depth = _optional_positive_int("queue_depth", queue_depth)
        return self._serve_streams(
            requests, 1, "exact", "last", max_batch, workers, queue_depth,
        )

    def _group_requests(self, items, max_batch: int) -> list[list[int]]:
        """Deterministic micro-batching: group by (model, geometry,
        dtype) in arrival order, flushing a group at ``max_batch``
        requests."""
        jobs: list[list[int]] = []
        open_groups: dict[tuple, list[int]] = {}
        # Each distinct model object is keyed once per call (``items``
        # holds it, so its id is not reused meanwhile).
        mkeys: dict[int, tuple] = {}
        for i, (model, x) in enumerate(items):
            mkey = mkeys.get(id(model))
            if mkey is None:
                spec = _as_spectral_model(model)
                if spec is not None:
                    mkey = self._model_key(spec)
                elif isinstance(model, _COMPILED_EXECUTORS):
                    mkey = ("executor", id(model))
                else:
                    mkey = ("opaque", id(model))
                mkeys[id(model)] = mkey
            key = (mkey, x.shape[1:], x.dtype)
            group = open_groups.setdefault(key, [])
            group.append(i)
            if len(group) >= max_batch:
                jobs.append(group)
                open_groups[key] = []
        jobs.extend(g for g in open_groups.values() if g)
        return jobs

    @staticmethod
    def _drain_jobs(jobs, run_job, workers: int,
                    queue_depth: int | None) -> None:
        """Drain micro-batch jobs through a bounded queue + thread pool."""
        workers = min(workers, len(jobs))
        q: queue_mod.Queue = queue_mod.Queue(
            maxsize=queue_depth if queue_depth is not None else 2 * workers
        )
        errors: list[BaseException] = []

        def worker() -> None:
            while True:
                job = q.get()
                try:
                    if job is None:
                        return
                    if not errors:  # fail fast: skip work after an error
                        run_job(job)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
                finally:
                    q.task_done()

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(workers)
        ]
        for t in threads:
            t.start()
        for job in jobs:
            q.put(job)  # blocks when the queue is full: bounded backlog
        for _ in threads:
            q.put(None)
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    # -- autoregressive rollout -----------------------------------------

    def rollout(
        self,
        model=None,
        x0=None,
        steps: int = 1,
        *,
        streams=None,
        profile: str = "exact",
        keep: str = "last",
        max_batch: int = 32,
        workers: int | None = None,
        check_rtol: float | None = None,
    ):
        """Autoregressive stepping over this session's pooled executors:
        each step's output is the next step's input, and the state stays
        session-resident between model applications.

        Either one stream (``model``, ``x0``, returning the final state
        — or the whole trajectory with ``keep="all"``) or many
        (``streams=[(model, x0), ...]``, returning a list in stream
        order).  Concurrent streams sharing (model, geometry, dtype) are
        micro-batched along the batch axis exactly like
        :meth:`infer_many` — up to ``max_batch`` streams step together
        through one executor call, and ``workers > 1`` drains stream
        groups with a thread pool.

        ``profile="exact"`` (default) applies the model once per step —
        **bit-identical** to the eager per-step loop
        (``for _ in range(steps): x = model(x)``): it is the same
        computation through the same pooled executor, and micro-batched
        streams stay bit-identical because every operator is
        row-independent along the batch axis (and a one-row symmetric
        state is synthesised on its own, see :meth:`infer_many`).  A
        compiled executor's group runs every step in one executor call
        that re-analyses each step's output where it is synthesised.

        ``profile="fast"`` keeps the state resident in the truncated
        spectrum: one forward transform up front, then only the spectral
        CGEMM per step, and one inverse transform per *kept* state —
        the redundant inverse/forward pair between consecutive steps is
        skipped outright.  An executor group runs all of its steps in
        one ``rollout_spectrum`` call (one C call on the C backend),
        and each stream's result is synthesised from its own rows of
        the kept spectra.  Valid where the inter-step path is linear: a
        :class:`SpectralModel` / compiled executor (either filter
        convention; the spectrum of each step's output *is* the stepped
        spectrum) or a symmetric ``SpectralConv1d/2d`` layer.
        Non-symmetric nn layers project onto the real part between
        steps and arbitrary callables are opaque — both must use
        ``"exact"``.  Fast results match exact to rounding error, not
        bit-for-bit; ``check_rtol`` re-runs the exact loop and raises
        ``ValueError`` when the final states disagree beyond the given
        relative tolerance (the same tolerance-asserted pattern
        ``fft/legacy.py`` uses to freeze the seed as oracle).

        ``keep="last"`` returns the final state per stream;
        ``keep="all"`` the whole ``(steps, *state.shape)`` trajectory.
        Per-step latencies land in the stats reservoirs
        (:meth:`stats` ``["latency"]`` / ``["per_geometry"][g]["latency"]``):
        a group of a compiled executor runs every step in one call, under
        either profile, and each step's sample is that call's wall time
        (analysis and synthesis included) divided by ``steps``.
        """
        self._check_open()
        steps = _positive_int("steps", steps)
        if profile not in ROLLOUT_PROFILES:
            raise ValueError(
                f"unknown rollout profile {profile!r}; expected one of "
                f"{ROLLOUT_PROFILES}"
            )
        if keep not in ("last", "all"):
            raise ValueError(
                f"keep must be 'last' or 'all', got {keep!r}"
            )
        max_batch = _positive_int("max_batch", max_batch)
        workers = _optional_positive_int("workers", workers)
        if check_rtol is not None and profile != "fast":
            raise ValueError(
                "check_rtol asserts the fast profile against the exact "
                "loop; it does not apply to profile='exact'"
            )
        single = streams is None
        if single:
            if model is None or x0 is None:
                raise ValueError(
                    "rollout needs (model, x0) or streams=[(model, x0), ...]"
                )
            streams = [(model, x0)]
        elif model is not None or x0 is not None:
            raise ValueError(
                "pass either (model, x0) or streams=, not both"
            )
        streams = list(streams)
        for _, x in streams:
            if np.ndim(x) < 3:
                raise ValueError(
                    f"rollout state must be (batch, C, *spatial), "
                    f"got shape {np.shape(x)}"
                )
        results = self._serve_streams(
            streams, steps, profile, keep, max_batch, workers, None,
            check_rtol,
        )
        with self._stats_lock:
            self._rollout_streams += len(results)
            self._rollout_steps += steps * len(results)
        return results[0] if single else results

    def rollout_many(self, streams, steps: int = 1, **kwargs):
        """Serve many concurrent rollout streams (see :meth:`rollout`);
        returns the per-stream results in stream order."""
        return self.rollout(steps=steps, streams=streams, **kwargs)

    def _serve_streams(self, streams, steps, profile, keep, max_batch,
                       workers, queue_depth, check_rtol=None) -> list:
        """The one serving engine behind :meth:`infer_many` (one-step
        exact streams) and :meth:`rollout`: group the ``(model, x)``
        streams by (model, geometry, dtype) and step each group as one
        state.

        A group of a stock compiled executor (exactly
        :class:`CompiledSpectralConv1D` or ``2D``, pooled or passed as
        the model) is one timed executor call that runs every step and
        returns each stream's result in its own buffer; the executor
        picks the path (in place on the C drivers where they cover the
        group, else staged), and each step records one batch, an equal
        share of the call's wall time.  Every other group (callables,
        nn layers, executor subclasses) steps through the generic
        loops: :meth:`_rollout_exact`, the oracle, concatenates the
        group, calls the model once per step and copies every stream's
        rows back out; :meth:`_rollout_fast` runs the model's public
        spectrum methods."""
        items = [
            (model, self._apply_dtype_policy(np.asarray(x)))
            for model, x in streams
        ]
        results: list = [None] * len(items)
        jobs = self._group_requests(items, max_batch)

        def run_job(idxs: list[int]) -> None:
            model = items[idxs[0]][0]
            xs = [items[i][1] for i in idxs]
            executor = self._resolve_executor(model)
            if type(executor) in _COMPILED_EXECUTORS:
                t0 = time.perf_counter()
                with self._serve_lock_for(executor), self.activate():
                    outs = executor._serve(xs, steps, profile, keep)
                self._record(xs[0].shape[1:], len(xs),
                             (time.perf_counter() - t0) / steps, steps)
            elif profile == "fast":
                outs = self._rollout_fast(model, xs, steps, keep)
            else:
                outs = self._rollout_exact(model, xs, steps, keep)
            if check_rtol is not None:
                refs = self._rollout_exact(model, xs, steps, "last")
                for out, ref in zip(outs, refs):
                    if not np.allclose(out[-1] if keep == "all" else out,
                                       ref, rtol=check_rtol,
                                       atol=check_rtol):
                        raise ValueError(
                            f"fast rollout diverged from the exact loop "
                            f"beyond rtol={check_rtol} after {steps} steps"
                        )
            for i, out in zip(idxs, outs):
                results[i] = out

        if workers is not None and workers > 1 and len(jobs) > 1:
            self._drain_jobs(jobs, run_job, workers, queue_depth)
        else:
            for job in jobs:
                run_job(job)
        return results

    def _rollout_exact(self, model, xs: list, steps: int,
                       keep: str) -> list[np.ndarray]:
        """The generic stepping loop over a group's streams ``xs``: the
        model applied once per step to the concatenated state through
        :meth:`_execute` — the same call the eager loop makes, hence
        bit-identical to it — and each stream's rows copied back out.
        Only an output that feeds a further step must keep the input's
        shape."""
        state = _stacked(xs)
        geometry = state.shape[1:]
        kept: list[np.ndarray] = []
        for step in range(steps):
            t0 = time.perf_counter()
            out = np.asarray(self._execute(model, state))
            self._record(geometry, len(xs), time.perf_counter() - t0)
            if step + 1 < steps and out.shape != state.shape:
                raise ValueError(
                    f"rollout requires a shape-preserving model: step "
                    f"{step + 1} mapped {state.shape} -> {out.shape}"
                )
            state = out
            if keep == "all":
                kept.append(state)
        if len(xs) == 1:
            return [np.stack(kept) if keep == "all" else state]
        sizes = [len(x) for x in xs]
        # Copy each stream's rows out: a view would pin the whole
        # concatenated state alive per surviving result.
        if keep == "last":
            return [np.array(rows) for rows in _split(state, sizes)]
        return [np.stack(frames)
                for frames in zip(*(_split(k, sizes) for k in kept))]

    def _fast_stepper(self, model):
        """Resolve ``model`` to its spectrum-resident stepper: the object
        to serialise on and its ``(forward, step, reanalyze,
        synthesise)`` methods — an executor's public spectrum entry
        points, or a symmetric nn spectral layer's.  Raises
        ``ValueError`` for models whose inter-step path is not linear in
        the spectrum.
        """
        executor = self._resolve_executor(model)
        if executor is not None:
            c_in, c_out = executor.weight.shape
            if c_in != c_out:
                raise ValueError(
                    f"profile='fast' feeds the output spectrum back in, "
                    f"which needs a square (C, C) weight; got "
                    f"({c_in}, {c_out})"
                )
            return executor, (executor.forward_spectrum,
                              executor.step_spectrum,
                              executor.reanalyze_spectrum,
                              executor.inverse_spectrum)
        from repro.nn.modules import SpectralConv1d, SpectralConv2d

        if isinstance(model, (SpectralConv1d, SpectralConv2d)):
            if not model.symmetric:
                # The non-symmetric layer takes Re(ifft(...)) between
                # steps — a genuine projection the spectrum-resident
                # loop cannot reproduce (fft(Re(ifft(pad(yk)))) != pad(yk)).
                raise ValueError(
                    "profile='fast' supports symmetric spectral layers "
                    "only: the non-symmetric convention projects onto "
                    "the real part between steps; use profile='exact'"
                )
            if model.c_in != model.c_out:
                raise ValueError(
                    f"profile='fast' needs a square layer "
                    f"(c_in == c_out), got ({model.c_in}, {model.c_out})"
                )
            return model, (model.spectrum, model.apply_modes,
                           model.reanalyze_spectrum, model.from_spectrum)
        raise ValueError(
            "profile='fast' requires a spectrum-capable model (a "
            "SpectralModel / (weight, modes[, symmetric]) tuple, a "
            "compiled executor, or a symmetric SpectralConv1d/2d "
            "layer); arbitrary callables must use profile='exact'"
        )

    def _rollout_fast(self, model, xs: list, steps: int,
                      keep: str) -> list[np.ndarray]:
        """The generic spectrum-resident loop over a group's streams
        ``xs`` through the model's public spectrum methods: forward
        transform of the concatenated state once, one step per step, and
        each stream's kept states synthesised from its own rows of the
        kept spectra."""
        served, (forward, step_fn, reanalyze, synthesise) = (
            self._fast_stepper(model))
        geometry = xs[0].shape[1:]
        spatial = geometry[1:]
        spatial_arg = spatial if len(spatial) == 2 else spatial[0]
        # Every kept state is synthesised from the *pre-projection*
        # output spectrum yk, and the next step is fed its reanalysis —
        # the spectrum the next step's forward transform would compute
        # from the synthesised field.  The skipped inverse/forward pair
        # is not the identity for the symmetric convention (it projects
        # the DC bin real in 1D and Hermitian-symmetrises the y-DC
        # column in 2D), and projecting *before* synthesis would change
        # the kept output, so the order matters.  The last step's
        # reanalysis would feed no step, so it is skipped.
        with self._serve_lock_for(served), self.activate():
            sk = forward(_stacked(xs))
            kept = []
            for step in range(steps):
                t0 = time.perf_counter()
                yk = step_fn(sk)
                self._record(geometry, len(xs), time.perf_counter() - t0)
                if keep == "all":
                    kept.append(yk)
                if step + 1 < steps:
                    sk = reanalyze(yk, spatial_arg)
            spectra = np.stack(kept) if keep == "all" else yk
            return _synthesise_streams(synthesise, spectra,
                                       [len(x) for x in xs], keep,
                                       spatial_arg)

    # -- observability --------------------------------------------------

    def stats(self) -> dict:
        """Serving and cache statistics (JSON-ready).

        ``plan_cache`` / ``fft_plan_caches`` expose LRU hit/miss
        accounting;
        ``per_geometry`` maps each served spatial geometry to
        request/batch counts (a rollout step counts each of its streams
        as one request), measured throughput and latency
        percentiles (p50/p95/p99 seconds from a bounded reservoir — one
        sample per executed micro-batch or rollout step; a compiled
        executor's group runs every step in one call, and each step
        records an equal share of its wall time); ``latency`` aggregates
        the same across all
        geometries; ``rollout`` counts streams and stream-steps served
        by :meth:`rollout`.
        """
        info = self.plan_cache_info()
        fft_info = self.plan_caches.cache_info()
        with self._stats_lock:
            per_geometry = {
                "x".join(map(str, key)): stats.as_dict()
                for key, stats in self._geometry_stats.items()
            }
            requests = sum(
                s.requests for s in self._geometry_stats.values()
            )
            batches = sum(s.batches for s in self._geometry_stats.values())
            latency = self._latency.percentiles()
            rollout = {
                "streams": self._rollout_streams,
                "steps": self._rollout_steps,
            }
        return {
            "backend": self.backend,
            "dtype_policy": self.dtype_policy,
            "device": self.device.name,
            "closed": self._closed,
            "plan_cache": {
                "hits": info.hits,
                "misses": info.misses,
                "currsize": info.currsize,
                "maxsize": info.maxsize,
            },
            "fft_plan_caches": {
                name: {
                    "hits": i.hits,
                    "misses": i.misses,
                    "currsize": i.currsize,
                }
                for name, i in zip(PlanCaches.CACHE_NAMES, fft_info,
                                   strict=True)
            },
            "executor_pool": self.executor_pool_size(),
            "requests": requests,
            "batches": batches,
            "latency": latency,
            "rollout": rollout,
            "per_geometry": per_geometry,
        }


# ---------------------------------------------------------------------------
# The process-default session (the module-level facade's backing store)
# ---------------------------------------------------------------------------

_default_session: Session | None = None
_default_session_lock = threading.Lock()


def default_session() -> Session:
    """The lazily-created process-default session.

    Backs the module-level :func:`repro.api.plan` /
    :func:`repro.api.plan_cache_info` / :func:`repro.api.clear_plan_cache`
    facade; shares the process-wide FFT plan caches, so the functional
    FFT API and the default session pool plans exactly like the seed.
    """
    global _default_session
    # The check must hold the lock: an unlocked fast-path read of
    # ``_closed`` racing a concurrent close()-and-recreate could hand
    # two callers different "default" sessions (one of them already
    # closed).  Session construction is cheap and happens once, so the
    # double-checked fast path buys nothing worth the race.
    with _default_session_lock:
        if _default_session is None or _default_session._closed:
            _default_session = Session()
        return _default_session


def clear_all_caches() -> None:
    """One call that empties every cache of the default session: plans,
    FFT/pruned/rfft plans (and their workspaces), compiled executors.

    This is the fixed cache-clearing path — the seed's
    ``clear_plan_cache()`` left the FFT plan caches and executor caches
    populated.  The default session shares the process-wide FFT
    plan-cache set, which is flushed here explicitly (per-session
    ``clear_all_caches`` leaves shared sets alone).
    """
    default_session().clear_all_caches()
    default_plan_caches().clear()


def clear_all_plan_caches() -> None:
    """Drop the *plan* cache of every live session (registry mutations
    that invalidate cached pipelines call this)."""
    for session in list(_live_sessions):
        if not session._closed:
            session.clear_plan_cache()
