"""Deterministic fault injection for the serving pool.

Every recovery path in :mod:`repro.api.serve` — crash retry, hung-worker
escalation, deadline expiry, ring backpressure, corrupted-header
rejection, circuit-breaker degradation — exists because serving heavy
traffic *will* hit those states.  Before this module, provoking them
meant ad-hoc signal games (``SIGSTOP``/``SIGKILL`` from tests) that are
racy, unportable, and can't reach worker-internal states at all.  A
:class:`FaultPlan` scripts faults at exact request indices instead, so
every failure scenario is **replayable**: the same plan against the
same request stream exercises the same recovery path, every run.

Fault kinds
-----------
``crash_before``   worker ``os._exit``\\ s before executing request *rid*
``crash_after``    worker executes *rid*, then exits before answering
                   (the retry must re-execute — and still be bit-equal)
``hang``           worker sleeps ``seconds`` (default: effectively
                   forever) before executing *rid* — the health
                   monitor's prey
``latency``        worker sleeps ``seconds`` before executing *rid*
``ring_fail``      the parent's ring allocation for *rid* fails
                   (:class:`~repro.api.serve.shm.PoolSaturated`)
``corrupt_header`` the worker's response header for *rid* is corrupted
                   (the checksum catches it parent-side)
``backend_fail``   the worker for shard ``shard`` fails its C-kernel
                   self-check at startup and must fall back to numpy

*rid* counts request headers in admission order: one per ``submit``,
one per (model, geometry, dtype) group of an ``infer_many`` or
``rollout_many`` burst, so a fault on a group's header hits every
request the group carries.

Faults fire **once** by default and only on first attempts
(``retries == 0``), so a retried request does not re-hit its fault and
recovery converges.  ``always=True`` (spelled ``!`` in the string form)
refires on every attempt — the crash-loop fuel for circuit-breaker
tests.

Activation: ``ServePool(faults=FaultPlan(...))``, or the
``REPRO_FAULTS`` environment variable (string grammar below) so a
deployed pool can be chaos-tested without code changes::

    REPRO_FAULTS="crash_before@3;hang@7;latency@5:0.05;corrupt_header@11!"

:func:`FaultPlan.chaos` builds a *seeded random* plan — random at plan
construction, fully scripted at run time — and :func:`run_soak` is the
harness around it: drive a mixed-geometry stream through a pool under a
chaos plan and verify that **no future is ever lost**, every failure is
typed, all shared-memory segments unlink at close, and every request
that succeeded is bit-identical to a serial one-worker session.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = ["Fault", "FaultPlan", "ChaosInjector", "run_soak"]

#: Fault kinds that fire inside the worker process.
WORKER_KINDS = ("crash_before", "crash_after", "hang", "latency",
                "corrupt_header")
#: Fault kinds that fire in the parent.
PARENT_KINDS = ("ring_fail",)
#: Fault kinds that fire at worker startup (keyed on shard, not rid).
SPAWN_KINDS = ("backend_fail",)
KINDS = WORKER_KINDS + PARENT_KINDS + SPAWN_KINDS

#: Default hang duration: long enough that only the health monitor (or
#: pool teardown) ever ends it.
HANG_FOREVER = 3600.0


class Fault:
    """One scripted fault: ``kind`` at request index ``rid`` (or shard
    ``shard`` for spawn faults), with an optional duration."""

    __slots__ = ("kind", "rid", "shard", "seconds", "always")

    def __init__(self, kind: str, rid: int | None = None, *,
                 shard: int | None = None, seconds: float = 0.0,
                 always: bool = False) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one "
                             f"of {KINDS}")
        if kind in SPAWN_KINDS:
            if shard is None:
                raise ValueError(f"{kind} faults target a shard, not a rid")
        elif rid is None or rid < 0:
            raise ValueError(f"{kind} faults need a request index >= 0, "
                             f"got {rid!r}")
        if kind == "hang" and seconds == 0.0:
            seconds = HANG_FOREVER
        self.kind = kind
        self.rid = rid
        self.shard = shard
        self.seconds = float(seconds)
        self.always = bool(always)

    def __repr__(self) -> str:
        target = f"shard={self.shard}" if self.shard is not None else \
            f"rid={self.rid}"
        extra = f", seconds={self.seconds}" if self.seconds else ""
        extra += ", always=True" if self.always else ""
        return f"Fault({self.kind!r}, {target}{extra})"

    def spec(self) -> str:
        """The ``REPRO_FAULTS`` spelling of this fault."""
        at = self.shard if self.kind in SPAWN_KINDS else self.rid
        s = f"{self.kind}@{at}"
        if self.seconds and not (self.kind == "hang"
                                 and self.seconds == HANG_FOREVER):
            s += f":{self.seconds:g}"
        if self.always:
            s += "!"
        return s


class FaultPlan:
    """An immutable scripted fault schedule (picklable: it crosses the
    process boundary to workers at spawn).

    Lookup is by ``(kind, rid)`` / ``(kind, shard)``; at most one fault
    per pair (later entries win, so a chaos generator can overlay a
    hand-written override).
    """

    def __init__(self, faults=()) -> None:
        self.faults = tuple(faults)
        self._by_rid: dict[tuple[str, int], Fault] = {}
        self._by_shard: dict[tuple[str, int], Fault] = {}
        for f in self.faults:
            if f.kind in SPAWN_KINDS:
                self._by_shard[(f.kind, f.shard)] = f
            else:
                self._by_rid[(f.kind, f.rid)] = f

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r})"

    def lookup(self, kind: str, rid: int) -> Fault | None:
        return self._by_rid.get((kind, rid))

    def lookup_spawn(self, kind: str, shard: int) -> Fault | None:
        return self._by_shard.get((kind, shard))

    def spec(self) -> str:
        """The ``REPRO_FAULTS`` string this plan round-trips through."""
        return ";".join(f.spec() for f in self.faults)

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar.

        Semicolon-separated ``kind@index[:seconds][!]`` entries;
        ``backend_fail@N`` targets shard N, every other kind targets
        request index N.  ``!`` marks the fault ``always`` (refires on
        retries).  Whitespace around entries is ignored; empty entries
        are allowed (trailing semicolons are harmless).
        """
        faults = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            always = entry.endswith("!")
            if always:
                entry = entry[:-1]
            if "@" not in entry:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected kind@index"
                    f"[:seconds][!]"
                )
            kind, _, at = entry.partition("@")
            kind = kind.strip()
            seconds = 0.0
            if ":" in at:
                at, _, secs = at.partition(":")
                seconds = float(secs)
            index = int(at)
            if kind in SPAWN_KINDS:
                faults.append(Fault(kind, shard=index, seconds=seconds,
                                    always=always))
            else:
                faults.append(Fault(kind, index, seconds=seconds,
                                    always=always))
        return cls(faults)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The plan ``REPRO_FAULTS`` names, or None when unset/empty."""
        spec = (environ if environ is not None else os.environ).get(
            "REPRO_FAULTS", ""
        ).strip()
        return cls.parse(spec) if spec else None

    @classmethod
    def chaos(
        cls,
        seed: int,
        requests: int,
        *,
        crash_rate: float = 0.02,
        hang_rate: float = 0.01,
        latency_rate: float = 0.05,
        ring_fail_rate: float = 0.01,
        corrupt_rate: float = 0.02,
        latency_seconds: float = 0.02,
    ) -> "FaultPlan":
        """A seeded random mix of faults over ``requests`` indices.

        Random only at construction: the returned plan is a fixed
        script, so a soak that fails replays exactly from its seed.
        Each index draws at most one fault (kinds are assigned in a
        fixed priority order), keeping the schedule unambiguous.
        """
        rng = np.random.default_rng(seed)
        draws = rng.random(requests)
        flavor = rng.random(requests)  # crash_before vs crash_after
        faults: list[Fault] = []
        edges = np.cumsum([crash_rate, hang_rate, latency_rate,
                           ring_fail_rate, corrupt_rate])
        for rid in range(requests):
            d = draws[rid]
            if d < edges[0]:
                kind = "crash_before" if flavor[rid] < 0.5 else "crash_after"
                faults.append(Fault(kind, rid))
            elif d < edges[1]:
                faults.append(Fault("hang", rid))
            elif d < edges[2]:
                faults.append(Fault("latency", rid,
                                    seconds=latency_seconds))
            elif d < edges[3]:
                faults.append(Fault("ring_fail", rid))
            elif d < edges[4]:
                faults.append(Fault("corrupt_header", rid))
        return cls(faults)


class ChaosInjector:
    """Runtime firing state around one :class:`FaultPlan`.

    One injector per process (parent and each worker build their own
    from the shared plan); ``fire`` marks one-shot faults as spent so a
    fault hits exactly once per process lifetime, and retried requests
    (``retries > 0``) skip non-``always`` faults entirely — recovery
    always converges unless a test explicitly asks for a crash loop.
    """

    def __init__(self, plan: FaultPlan | None) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: set[tuple[str, int]] = set()

    def __bool__(self) -> bool:
        return self.plan is not None and len(self.plan) > 0

    def fire(self, kind: str, rid: int, retries: int = 0) -> Fault | None:
        """The fault to apply now, or None.  Marks one-shots as spent."""
        if self.plan is None:
            return None
        fault = self.plan.lookup(kind, rid)
        if fault is None:
            return None
        if retries > 0 and not fault.always:
            return None
        with self._lock:
            if (kind, rid) in self._fired and not fault.always:
                return None
            self._fired.add((kind, rid))
        return fault

    def spawn_fault(self, kind: str, shard: int) -> Fault | None:
        """Spawn-time faults (every spawn of the shard refires them:
        a replacement worker hits the same broken substrate)."""
        if self.plan is None:
            return None
        return self.plan.lookup_spawn(kind, shard)


# ---------------------------------------------------------------------------
# The chaos-soak harness (shared by the CLI, CI and the test suite)
# ---------------------------------------------------------------------------

def _soak_stream(seed: int, requests: int, hidden: int = 4):
    """A seeded mixed-geometry request stream (1-D x3 sizes + one 2-D)."""
    rng = np.random.default_rng(seed)
    weight = ((rng.standard_normal((hidden, hidden))
               + 1j * rng.standard_normal((hidden, hidden)))
              / hidden).astype(np.complex64)
    geometries = [((2, hidden, 128), 16), ((2, hidden, 256), 32),
                  ((2, hidden, 64), 16), ((2, hidden, 32, 32), (8, 8))]
    stream = []
    for i in range(requests):
        shape, modes = geometries[i % len(geometries)]
        x = (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)).astype(np.complex64)
        stream.append(((weight, modes), x))
    return stream


def run_soak(
    requests: int = 300,
    workers: int = 4,
    seed: int = 0,
    backend: str = "numpy",
    hang_timeout: float = 2.0,
    deadline: float = 60.0,
    expired_every: int = 29,
    result_timeout: float = 180.0,
    plan: FaultPlan | None = None,
) -> dict:
    """Drive a seeded chaos soak through a :class:`ServePool`.

    Mixed-geometry traffic runs under a :func:`FaultPlan.chaos` schedule
    (crash + hang + latency + ring-failure + corrupt-header faults) with
    a short ``hang_timeout`` so hung workers are culled in-test, plus a
    scripted sprinkle of already-expired deadlines (every
    ``expired_every``-th request) to exercise both deadline paths.

    Returns a report dict whose ``violations`` list is empty iff the
    three acceptance invariants hold:

    1. **zero lost futures** — every submitted request resolves, with a
       result or a *typed* :class:`~repro.api.serve.health.ServeError`;
    2. **zero leaked segments** — every shared-memory segment the pool
       ever created is unlinked at close;
    3. **bit-identity** — every request that *succeeded* returned
       exactly the bytes a serial one-worker
       :class:`~repro.api.Session` returns for it.
    """
    from repro.api.serve.health import HealthPolicy, ResultTimeout, ServeError
    from repro.api.serve.pool import ServePool
    from repro.api.serve.shm import PoolSaturated
    from repro.api.session import Session

    if plan is None:
        plan = FaultPlan.chaos(seed, requests)
    stream = _soak_stream(seed, requests)

    serial = Session(backend=backend)
    try:
        refs = serial.infer_many(stream, max_batch=32)
    finally:
        serial.close()

    outcomes: list[tuple[str, object]] = []
    violations: list[str] = []
    pool = ServePool(
        workers=workers, backend=backend, faults=plan,
        health=HealthPolicy(hang_timeout=hang_timeout),
        queue_depth=16, on_crash="retry",
    )
    try:
        futures = []
        for i, (model, x) in enumerate(stream):
            d = 0.0 if (expired_every and i and i % expired_every == 0) \
                else deadline
            try:
                futures.append(pool.submit(model, x, deadline=d))
            except PoolSaturated as exc:  # injected ring_fail / saturation
                futures.append(None)
                outcomes.append(("rejected", exc))
        for i, fut in enumerate(futures):
            if fut is None:
                continue
            try:
                y = fut.result(result_timeout)
            except (ResultTimeout, TimeoutError) as exc:
                # A future still unresolved after the whole soak budget
                # is a LOST future: the hard invariant violation.
                outcomes.append(("LOST", exc))
                violations.append(
                    f"request {i} never resolved within {result_timeout}s"
                )
                continue
            except ServeError as exc:  # typed failure: an allowed outcome
                outcomes.append((type(exc).__name__, exc))
                continue
            outcomes.append(("ok", None))
            if not (y.dtype == refs[i].dtype and np.array_equal(y, refs[i])):
                violations.append(
                    f"request {i} succeeded but differs from the serial "
                    f"session result"
                )
        stats = pool.stats(timeout=10)
    finally:
        pool.close()
    leaked = pool.live_segment_names()
    if leaked:
        violations.append(f"leaked shared-memory segments: {leaked}")

    counts: dict[str, int] = {}
    for name, _ in outcomes:
        counts[name] = counts.get(name, 0) + 1
    counts.setdefault("ok", 0)
    return {
        "requests": requests,
        "workers": workers,
        "seed": seed,
        "backend": backend,
        "faults": {"planned": len(plan), "spec": plan.spec()},
        "outcomes": counts,
        "admission": stats["admission"],
        "degraded": stats["degraded"],
        "segments": {"created": len(pool.segment_names()),
                     "leaked": len(leaked)},
        "violations": violations,
        "ok": not violations,
    }
