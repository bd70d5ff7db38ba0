"""The worker-process body: one warm :class:`~repro.api.Session` per shard.

Shared-nothing by construction — a worker owns its session (plan cache,
FFT/rfft plan caches, compiled-executor pool) and shares
only the two ring segments and its request queue with the parent.  The
geometry-hash router guarantees every geometry this worker ever sees is
one it has served before, so after the first request (or a warmup
directive) every plan lookup is a cache hit for the life of the process.

Protocol (small pickled tuples; tensors stay in shared memory):

Parent -> worker, over the request queue
    ``("model", mid, weight, modes, symmetric)``
        register one served model (weights cross once per worker).
    ``("req", rid, mid, shape, dtype, req_off, resp_off, resp_cap,
    steps, profile, deadline, retries, csum)``
        one stream: the input lives at ``req_off`` in the request ring
        and the *final* state (``keep="last"``) must land at
        ``resp_off``.  A plain inference request is a one-step
        ``"exact"`` stream (``steps=1, profile="exact"``); an
        autoregressive rollout carries its own ``(steps, profile)``.
        ``shape``'s rows may belong to several requests: the parent's
        ``infer_many``/``rollout_many`` ship each (model, geometry,
        dtype) group of a burst as one header and split the answer per
        request themselves, while a single ``submit`` still sends one
        request per header.  Either way the worker serves one header
        as one stream, so its ``session.stats()`` counts a group as one
        request.  ``deadline`` is an absolute ``time.monotonic()``
        instant (or None) — for a group, counted from the group's
        admission; headers already past it are *skipped*, not executed
        late.  ``csum`` is :func:`~repro.api.serve.shm.header_checksum`
        over every preceding field — a mismatched header is rejected,
        never dereferenced into the rings.
    ``("warm", models, geometries)``
        warmup handoff: pre-build executors for the ``(mid, per-row
        shape, dtype)`` geometries the predecessor served, *before*
        taking traffic.
    ``("stats", token)``
        snapshot request.
    ``None``
        drain and exit.

Worker -> parent, over the response pipe
    ``("ready", pid, backend)`` | ``("res", rid, shape, dtype, nbytes,
    csum)`` | ``("err", rid, exc_name, message)`` | ``("exp", rid)`` |
    ``("hb", served, busy_since)`` | ``("warmed", count)`` |
    ``("stats", token, payload)``

Health: a worker-side timer thread heartbeats ``("hb", served,
busy_since)`` every ``hb_interval`` seconds.  ``busy_since`` is the
``time.monotonic()`` instant the in-progress batch started (None when
idle) — the parent's monitor treats a *busy* worker whose served count
stops moving as hung and escalates it through the crash machinery, so a
deadlock, runaway loop or ``SIGSTOP`` (which silences the beats
entirely) is detected the same way.

Degradation: when the configured backend cannot come up (the C-kernel
self-check fails, or the chaos layer injects exactly that), the worker
falls back to the pure-NumPy substrate instead of crash-looping — bits
are identical by the load-time self-check contract, only throughput
changes — and reports its actual backend in ``"ready"``.

Fault injection: a :class:`~repro.api.serve.faults.FaultPlan` shipped
at spawn drives scripted crash/hang/latency/corruption at exact request
indices (see :mod:`repro.api.serve.faults`); a worker with no plan pays
one ``None`` check per request.

Consecutive ``"req"`` headers are drained opportunistically (up to
``max_batch``).  The drain groups them by ``(steps, profile)`` and sends
each group through one :meth:`~repro.api.Session.rollout` call — the
same deterministic geometry micro-batcher the in-process
``Session.infer_many``/``rollout`` use, so pooled results are
bit-identical to a serial one-worker session no matter how requests
interleave; if a group's call fails, each stream is retried alone so
one bad geometry fails by itself.  Because plain requests are one-step
streams, the per-worker ``session.stats()["rollout"]`` counts them too;
the parent's ``ServePool.stats()["rollout"]`` counts only
``submit_rollout`` streams.
"""

from __future__ import annotations

import os
import queue as queue_mod
import signal
import threading
import time

import numpy as np

from repro.api.serve.faults import ChaosInjector
from repro.api.serve.health import InfrastructureError, UnknownModel
from repro.api.serve.shm import header_checksum

__all__ = ["worker_main"]

#: Substrate failures: about the worker's environment, not the request.
#: Mapped to the typed ``InfrastructureError`` so the parent (and the
#: caller's future) can tell a retry-worthy fault from a model error.
_INFRA_ERRORS = (MemoryError, OSError, BufferError)


class _WorkerBody:
    def __init__(self, session, models, req_shm, resp_shm, conn, max_batch,
                 injector: ChaosInjector):
        self.session = session
        self.models = models
        self.req_shm = req_shm
        self.resp_shm = resp_shm
        self.conn = conn
        self.max_batch = max_batch
        self.injector = injector
        self.served = 0
        #: monotonic instant the in-progress batch started (None: idle).
        self.busy_since: float | None = None
        # The response pipe is written from two threads (the serve loop
        # and the heartbeat timer): serialise sends.
        self._conn_lock = threading.Lock()

    def send(self, msg: tuple) -> None:
        with self._conn_lock:
            self.conn.send(msg)

    # -- request execution ---------------------------------------------

    def flush(self, batch: list[tuple]) -> None:
        """Run one drained micro-batch through the session."""
        if not batch:
            return
        self.busy_since = time.monotonic()
        try:
            self._flush(batch)
        finally:
            self.busy_since = None

    def _admit(self, batch: list[tuple]) -> list[tuple]:
        """Checksum/deadline/fault gate: the headers that will execute.

        A header ends in ``(..., deadline, retries, csum)`` with the
        checksum taken over every field between the kind tag and itself.
        """
        live = []
        for msg in batch:
            rid = msg[1]
            deadline, retries, csum = msg[-3], msg[-2], msg[-1]
            if csum != header_checksum(msg[1:-1]):
                # Never dereference offsets from a corrupted header.
                self.send(("err", rid, "CorruptedHeader",
                           "request header failed its checksum"))
                continue
            if deadline is not None and time.monotonic() >= deadline:
                self.send(("exp", rid))  # expired: skip, don't serve late
                continue
            fault = self.injector.fire("crash_before", rid, retries)
            if fault is not None:
                os._exit(70)  # scripted pre-execution crash
            fault = self.injector.fire("hang", rid, retries)
            if fault is not None:
                # A hang the health monitor is expected to end; if it
                # doesn't (long hang_timeout), this degrades to latency.
                time.sleep(fault.seconds)
            fault = self.injector.fire("latency", rid, retries)
            if fault is not None:
                time.sleep(fault.seconds)
            live.append(msg)
        return live

    def _serve_one(self, fn):
        """Execute one request/stream, mapping failures to the typed
        taxonomy: substrate faults become :class:`InfrastructureError`;
        model/geometry errors are returned as-is (they would fail the
        same way on any worker, so they are not worth retrying)."""
        try:
            return fn()
        except _INFRA_ERRORS as exc:
            return InfrastructureError(f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            return exc

    def _flush(self, batch: list[tuple]) -> None:
        batch = self._admit(batch)
        if not batch:
            return
        views: list = []
        outs: list = [None] * len(batch)
        for i, msg in enumerate(batch):
            _, rid, mid, shape, dtype, req_off = msg[:6]
            model = self.models.get(mid)
            if model is None:
                # Answer this request typed; the rest of the batch runs.
                outs[i] = UnknownModel(f"model {mid} is not loaded on "
                                       f"this worker")
                views.append(None)
                continue
            x = np.ndarray(
                shape, np.dtype(dtype), buffer=self.req_shm.buf,
                offset=req_off,
            )
            views.append((model, x))
        # Every header is a stream: live headers sharing (steps,
        # profile) drain into one session.rollout call — the geometry
        # micro-batcher, with state resident across the whole stream.
        groups: dict[tuple, list[int]] = {}
        for i, msg in enumerate(batch):
            if views[i] is not None:
                groups.setdefault((msg[8], msg[9]), []).append(i)
        for (steps, profile), idxs in groups.items():
            streams = [views[i] for i in idxs]
            try:
                results = self.session.rollout(
                    streams=streams, steps=steps, profile=profile,
                    max_batch=self.max_batch,
                )
            except _INFRA_ERRORS as exc:
                # A substrate fault (OOM, OS, shm buffer) poisons the
                # whole group and retrying per stream would just repeat
                # it: fail every stream with the typed error instead of
                # masking it as a per-stream model error.
                err = InfrastructureError(f"{type(exc).__name__}: {exc}")
                results = [err] * len(streams)
            except Exception:  # noqa: BLE001 - per-stream fallback below
                # A poisoned micro-batch: fall back to per-stream
                # execution so one bad geometry fails alone instead of
                # failing its whole group.
                results = [
                    self._serve_one(
                        lambda m=model, a=x: self.session.rollout(
                            m, a, steps, profile=profile
                        )
                    )
                    for model, x in streams
                ]
            for i, out in zip(idxs, results):
                outs[i] = out
        for msg, out in zip(batch, outs):
            rid = msg[1]
            resp_off, resp_cap, retries = msg[6], msg[7], msg[-2]
            if isinstance(out, Exception):
                self.send(("err", rid, type(out).__name__, str(out)))
                continue
            if out.nbytes > resp_cap:
                self.send((
                    "err", rid, "ServeError",
                    f"output of {out.nbytes} bytes overflows the "
                    f"{resp_cap}-byte response slab",
                ))
                continue
            view = np.ndarray(
                out.shape, out.dtype, buffer=self.resp_shm.buf,
                offset=resp_off,
            )
            view[...] = out
            del view
            if self.injector.fire("crash_after", rid, retries) is not None:
                os._exit(71)  # scripted post-execution crash: result lost
            self.served += 1
            fields = (rid, out.shape, str(out.dtype), out.nbytes)
            if self.injector.fire("corrupt_header", rid, retries) is not None:
                # Corrupt the byte count but keep the checksum of the
                # true fields: the parent's verification must catch it.
                self.send(("res", rid, out.shape, str(out.dtype),
                           out.nbytes + 1, header_checksum(fields)))
            else:
                self.send(("res", *fields, header_checksum(fields)))
        del views  # release the request-ring views before the next drain

    # -- control messages ----------------------------------------------

    def warm(self, model_specs: list, geometries: list) -> None:
        """Warmup handoff: stage executors for the predecessor's traffic.

        Each ``(mid, per-row shape, dtype)`` runs a 1-row probe through
        the pooled executor — staging weight panels and building the
        FFT/rfft plan family — without touching serving stats.
        """
        for mid, weight, modes, symmetric in model_specs:
            if mid not in self.models:
                from repro.api.session import SpectralModel

                self.models[mid] = SpectralModel(weight, modes, symmetric)
        count = 0
        for mid, row_shape, dtype in geometries:
            model = self.models.get(mid)
            if model is None:
                continue
            executor = self.session.executor(
                model.weight, model.modes, model.symmetric
            )
            executor(np.zeros((1, *row_shape), np.dtype(dtype)))
            count += 1
        self.send(("warmed", count))

    def stats(self, token) -> None:
        self.send((
            "stats",
            token,
            {
                "pid": os.getpid(),
                "served": self.served,
                "backend": self.session.backend,
                "session": self.session.stats(),
            },
        ))


def _make_session(index: int, backend: str, dtype_policy,
                  injector: ChaosInjector):
    """Build the worker's session, degrading ckernels -> numpy.

    The C kernels are rejected at load when their bit-identity
    self-check fails; a worker whose host can't produce verified
    kernels must not crash-loop its shard over it — the NumPy substrate
    serves the same bits.  The chaos layer's ``backend_fail`` fault
    simulates exactly that self-check failure.
    """
    from repro.api.session import Session

    inject = injector.spawn_fault("backend_fail", index) is not None
    if backend != "numpy":
        try:
            if inject:
                raise RuntimeError(
                    "injected backend_fail: C kernel self-check failed"
                )
            return Session(backend=backend, dtype_policy=dtype_policy)
        except RuntimeError:
            pass  # fall through to the numpy substrate
    return Session(backend="numpy", dtype_policy=dtype_policy)


def worker_main(
    index: int,
    request_queue,
    conn,
    req_segment: str,
    resp_segment: str,
    backend: str,
    dtype_policy: str,
    max_batch: int,
    hb_interval: float = 0.25,
    fault_plan=None,
) -> None:
    """Process entry point (module-level: spawn-picklable)."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    # Imports happen here, not at module import: under the spawn start
    # method the child pays them once, and the parent's import of this
    # module stays light.
    from repro.api.serve.shm import attach_segment
    from repro.api.session import SpectralModel

    injector = ChaosInjector(fault_plan)
    req_shm = attach_segment(req_segment)
    resp_shm = attach_segment(resp_segment)
    session = _make_session(index, backend, dtype_policy, injector)
    body = _WorkerBody(session, {}, req_shm, resp_shm, conn, max_batch,
                       injector)
    body.send(("ready", os.getpid(), session.backend))

    hb_stop = threading.Event()

    def _heartbeat() -> None:
        while not hb_stop.wait(hb_interval):
            try:
                body.send(("hb", body.served, body.busy_since))
            except (OSError, ValueError, BrokenPipeError):
                return  # parent went away; the main loop will notice too

    hb_thread = threading.Thread(
        target=_heartbeat, name=f"repro-serve-hb-{index}", daemon=True
    )
    hb_thread.start()

    batch: list[tuple] = []
    try:
        while True:
            if batch:
                # Opportunistic micro-batching: drain whatever is
                # already queued before executing, up to max_batch.
                try:
                    msg = request_queue.get_nowait()
                except queue_mod.Empty:
                    body.flush(batch)
                    batch = []
                    continue
            else:
                msg = request_queue.get()
            if msg is None:
                body.flush(batch)
                batch = []
                break
            kind = msg[0]
            if kind == "req":
                batch.append(msg)
                if len(batch) >= max_batch:
                    body.flush(batch)
                    batch = []
            else:
                body.flush(batch)  # controls are barriers
                batch = []
                if kind == "model":
                    _, mid, weight, modes, symmetric = msg
                    body.models[mid] = SpectralModel(weight, modes, symmetric)
                elif kind == "warm":
                    body.warm(msg[1], msg[2])
                elif kind == "stats":
                    body.stats(msg[1])
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away: nothing left to serve
    finally:
        hb_stop.set()
        try:
            session.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        time.sleep(0)  # let any exported views drop before unmapping
        for shm in (req_shm, resp_shm):
            try:
                shm.close()
            except BufferError:  # pragma: no cover - straggling view
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
