"""``repro.api.serve`` — shared-nothing multi-process serving.

The multi-core counterpart of :class:`repro.api.Session`'s in-process
serving path.  A :class:`ServePool` forks N worker processes, each
owning one warm session; requests route by a stable geometry hash so
every worker's plan and executor caches stay hot, and tensors move
through shared-memory ring segments instead of pipes.

>>> from repro.api.serve import ServePool            # doctest: +SKIP
>>> with ServePool(workers=4, backend="auto") as pool:
...     ys = pool.infer_many(requests)   # bit-identical to one Session
...     pool.stats()["per_geometry"]     # each geometry: one worker

Failure semantics are first-class: per-request deadlines, heartbeat
monitoring with hung-worker escalation, per-shard circuit breakers
with an in-parent degraded fallback, checksummed control headers, and
a deterministic fault-injection layer that provokes every one of those
paths on schedule (``ServePool(faults=...)`` / ``REPRO_FAULTS`` /
``python -m repro chaos-soak``).

Modules
-------
:mod:`~repro.api.serve.router`
    Geometry key/hash and shard assignment (stable across processes),
    plus the degradation route table.
:mod:`~repro.api.serve.shm`
    Ring-segment allocator, backpressure, segment bookkeeping, header
    checksums.
:mod:`~repro.api.serve.worker`
    The worker-process body: one warm session, opportunistic
    micro-batching, warmup-handoff protocol, heartbeats, fault hooks.
:mod:`~repro.api.serve.health`
    Typed failure vocabulary, health monitor, circuit breaker.
:mod:`~repro.api.serve.faults`
    Scripted fault plans, the chaos injector, and the soak harness.
:mod:`~repro.api.serve.pool`
    :class:`ServePool` itself: routing, admission, lifecycle, stats.
"""

from repro.api.serve.faults import ChaosInjector, Fault, FaultPlan, run_soak
from repro.api.serve.health import (
    Cancelled,
    CircuitBreaker,
    CorruptedHeader,
    DeadlineExceeded,
    HealthPolicy,
    InfrastructureError,
    ResultTimeout,
    UnknownModel,
)
from repro.api.serve.pool import (
    ServeError,
    ServeFuture,
    ServePool,
    WorkerCrashed,
)
from repro.api.serve.router import (
    FALLBACK,
    RouteTable,
    format_geometry,
    geometry_hash,
    geometry_key,
    shard_for,
)
from repro.api.serve.shm import (
    DEFAULT_RING_BYTES,
    PoolSaturated,
    header_checksum,
)

__all__ = [
    "ServePool",
    "ServeFuture",
    "ServeError",
    "WorkerCrashed",
    "DeadlineExceeded",
    "ResultTimeout",
    "Cancelled",
    "CorruptedHeader",
    "InfrastructureError",
    "UnknownModel",
    "PoolSaturated",
    "HealthPolicy",
    "CircuitBreaker",
    "Fault",
    "FaultPlan",
    "ChaosInjector",
    "run_soak",
    "DEFAULT_RING_BYTES",
    "geometry_key",
    "geometry_hash",
    "shard_for",
    "format_geometry",
    "FALLBACK",
    "RouteTable",
    "header_checksum",
]
