"""Health enforcement for the serving pool: the failure vocabulary,
the hung-worker monitor, and the per-shard circuit breaker.

PR 6's :class:`~repro.api.serve.pool.ServePool` only survived the one
failure it could *see*: a worker process that dies (EOF on the response
pipe -> replacement + retry-once).  A worker that is alive but stuck —
deadlocked, ``SIGSTOP``-ped, spinning in a runaway loop — left its
shard's requests in flight forever, and a shard that crash-looped kept
burning replacements with no way out.  This module closes both holes:

:class:`HealthPolicy` / :class:`HealthMonitor`
    Workers heartbeat over the existing control pipe
    (``("hb", served, busy_since)`` from a worker-side timer thread).
    The parent-side monitor thread tracks per-worker *progress* — a
    heartbeat only counts as progress while the worker is idle or its
    served count moved — and a worker that holds in-flight requests
    with no progress for ``hang_timeout`` seconds is escalated: killed,
    so the existing crash machinery (warmed replacement, deterministic
    retry-or-fail) takes over.  The same monitor tick sweeps
    **per-request deadlines**: a parent-side future whose deadline
    passed fails with :class:`DeadlineExceeded` immediately, without
    waiting for the worker (its ring slabs are reclaimed when the
    worker answers or dies — never while the worker might still write).

:class:`CircuitBreaker`
    A per-shard closed -> open -> half-open state machine.  After
    ``threshold`` *consecutive* crash/hang replacements the breaker
    opens: the shard stops taking pool traffic (no more crash-looping)
    and its geometries reroute to the in-parent fallback session —
    degraded throughput, identical bits.  After ``cooldown`` seconds
    one probe request is allowed through to the replacement worker;
    success closes the breaker, another death re-opens it.

Every terminal serving failure is **typed** (all subclass
:class:`ServeError`) so callers can tell retry-worthy infrastructure
failures from request-level ones:

=======================  ==================================================
:class:`WorkerCrashed`   worker died with the request in flight, policy
                         (or the retry budget) said fail
:class:`DeadlineExceeded`  the request outlived ``submit(deadline=)``
:class:`ResultTimeout`   ``result(timeout=)`` expired — the request is
                         *still in flight* (see ``ServeFuture.cancel``)
:class:`Cancelled`       ``ServeFuture.cancel()`` abandoned the request
:class:`CorruptedHeader`  a request/response header failed its checksum
                         and the retry budget is spent
:class:`InfrastructureError`  the worker hit a substrate fault (OOM, OS,
                         shared-memory buffer) executing the request —
                         retry-worthy, unlike a model error
=======================  ==================================================
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "ServeError",
    "WorkerCrashed",
    "DeadlineExceeded",
    "ResultTimeout",
    "Cancelled",
    "CorruptedHeader",
    "UnknownModel",
    "InfrastructureError",
    "HealthPolicy",
    "HealthMonitor",
    "CircuitBreaker",
]


class ServeError(RuntimeError):
    """A request failed inside the serving stack; base of every typed
    serving failure."""


class WorkerCrashed(ServeError):
    """The worker died with this request in flight and the pool's
    ``on_crash`` policy (or the retry budget) said fail, not retry."""


class DeadlineExceeded(ServeError):
    """The request outlived its ``submit(deadline=)`` budget.

    Raised on the future whether the deadline expired parent-side (the
    monitor sweep) or worker-side (the worker skips requests whose
    deadline passed before execution) — the request is never executed
    late and then delivered.
    """


class ResultTimeout(ServeError, TimeoutError):
    """``ServeFuture.result(timeout=)`` expired.

    Unlike :class:`DeadlineExceeded` this is a statement about the
    *caller's* patience, not the request: the request is still in
    flight, still holds its ring slabs, and may yet complete.  Call
    ``ServeFuture.cancel()`` to abandon it and release the slabs, or
    ``result()`` again to keep waiting.  (Subclasses ``TimeoutError``
    for backward compatibility with PR 6 callers.)
    """


class Cancelled(ServeError):
    """The caller abandoned this request via ``ServeFuture.cancel()``."""


class CorruptedHeader(ServeError):
    """A request/response header failed its checksum and the retry
    budget is spent (checksummed headers are how a half-written or
    fault-injected control message is rejected instead of trusted)."""


class UnknownModel(ServeError):
    """The worker was asked to serve a model it does not hold.

    The worker answers that one request with this error and serves the
    rest of its batch; it does not die over it."""


class InfrastructureError(ServeError):
    """The worker hit a substrate fault (out-of-memory, OS error,
    shared-memory buffer failure) while executing this request.

    The failure is about the *worker's environment*, not the request:
    the same request may well succeed on another worker or after a
    recycle, where a model/geometry error (which arrives as a plain
    :class:`ServeError`) would fail identically everywhere.  Keeping
    the two distinguishable is the point of the typed taxonomy."""


class HealthPolicy:
    """Tunables of the health monitor (all seconds).

    ``heartbeat_interval``
        Worker-side beat period.  The monitor tolerates several missed
        beats; this mostly bounds detection latency.
    ``hang_timeout``
        A worker holding in-flight requests with no progress for this
        long is killed and replaced.  Must exceed the worst-case
        single-batch execution time — a legitimately slow batch is
        indistinguishable from a hang until it finishes.
    ``sweep_interval``
        Monitor tick period: bounds how late a parent-side
        :class:`DeadlineExceeded` can fire after the deadline.
    """

    __slots__ = ("heartbeat_interval", "hang_timeout", "sweep_interval")

    def __init__(
        self,
        heartbeat_interval: float = 0.25,
        hang_timeout: float = 30.0,
        sweep_interval: float = 0.05,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be > 0, got {hang_timeout}")
        if sweep_interval <= 0:
            raise ValueError(
                f"sweep_interval must be > 0, got {sweep_interval}"
            )
        self.heartbeat_interval = float(heartbeat_interval)
        self.hang_timeout = float(hang_timeout)
        self.sweep_interval = float(sweep_interval)

    def as_dict(self) -> dict:
        return {
            "heartbeat_interval": self.heartbeat_interval,
            "hang_timeout": self.hang_timeout,
            "sweep_interval": self.sweep_interval,
        }


class HealthMonitor:
    """Parent-side monitor thread: deadline sweep + hung-worker kill.

    Deliberately knows nothing about the pool's internals — it calls
    one injected ``tick()`` callback every ``policy.sweep_interval``
    seconds until stopped, and the pool's tick does the actual sweep
    under its own locks.  Keeping the loop here and the policy decisions
    in the pool makes the monitor trivially testable and keeps lock
    ordering in one file.
    """

    def __init__(self, policy: HealthPolicy, tick) -> None:
        self.policy = policy
        self._tick = tick
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:  # pragma: no cover - defensive
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-health", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.policy.sweep_interval):
            try:
                self._tick()
            except Exception:  # pragma: no cover - monitor must survive
                pass

    def stop(self, timeout: float = 1.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)


class CircuitBreaker:
    """Closed -> open -> half-open breaker for one shard.

    ``record_failure()`` is called once per crash/hang *replacement*;
    ``threshold`` consecutive failures open the breaker.  While open,
    ``allow_worker()`` answers ``False`` (route to the fallback) until
    ``cooldown`` seconds elapse, then exactly one call answers ``True``
    — the half-open probe.  ``record_success()`` while half-open closes
    the breaker; ``record_failure()`` re-opens it and restarts the
    cooldown.  Thread-safe; the clock is injectable for tests.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.cooldown
            ):
                return self.HALF_OPEN  # would probe on the next allow
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def allow_worker(self) -> bool:
        """May the next request for this shard go to its worker?"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.cooldown:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                return True  # this caller is the probe
            # HALF_OPEN: one probe at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED
            self._probing = False

    def record_failure(self) -> bool:
        """Record one crash/hang replacement; True when this opened the
        breaker (closed/half-open -> open transition)."""
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failures >= self.threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False
                return True
            if self._state == self.OPEN:
                self._opened_at = self._clock()  # restart the cooldown
            return False

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
            }
