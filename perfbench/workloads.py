"""The benchmark's workloads: seeded inputs, the oracle, and one call.

Every workload drives the public API (``Session`` or ``ServePool``) on
the C-kernel backend with autotune off, so the tile choice never varies
between runs.  A workload provides

* ``oracle()``       -- reference outputs from serial per-request
  ``Session.infer`` on a separate private-cache session;
* ``open()``/``close(server)`` -- a fresh serving object;
* ``first(server)``  -- the first result set (what ``setup_s`` times up
  to), checked by ``verify_first``;
* ``call(server, i)`` -- one timed unit of service, checked by
  ``verify(outputs, i, tally)`` outside the timed region.

``work_per_call`` is what one call contributes to ``throughput_per_s``
(requests or stream-steps); ``items_per_call`` is what it contributes to
``attempted`` (requests or streams).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.api.serve import ServePool
from repro.api.session import Session, SpectralModel

BACKEND = "ckernels"

#: Fast-profile tolerance against the exact profile: the convention of
#: ``Session.rollout(check_rtol=)`` (rtol = atol), at the value the
#: rollout tests assert.
FAST_RTOL = 1e-3

#: Seconds a pool result may take before it counts as failed.
RESULT_TIMEOUT = 60.0


class Tally:
    """Attempted/failed counters of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def fail(self, items: int) -> None:
        self.attempted += items
        self.failed += items


def exact_match(got, want: np.ndarray) -> bool:
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and np.array_equal(got, want))


def close_match(got, want: np.ndarray) -> bool:
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape
            and bool(np.allclose(got, want, rtol=FAST_RTOL, atol=FAST_RTOL)))


def _complex(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(np.complex64)


class _Bursts:
    """Serving-shaped traffic: complex64 requests of one signal each,
    round-robin over ``GEOMETRIES`` (X, modes), replayed from ``BURSTS``
    distinct bursts of ``BURST`` requests."""

    HIDDEN = 32
    MAX_BATCH = 16
    BURSTS = 4
    GEOMETRIES: tuple = ()
    BURST = 0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        k = self.HIDDEN
        weight = _complex(rng, (k, k)) / k
        models = {m: SpectralModel(weight, m) for _, m in self.GEOMETRIES}
        self.bursts = []
        for _ in range(self.BURSTS):
            burst = []
            for i in range(self.BURST):
                dim_x, modes = self.GEOMETRIES[i % len(self.GEOMETRIES)]
                burst.append((models[modes], _complex(rng, (1, k, dim_x))))
            self.bursts.append(burst)
        self.work_per_call = self.BURST
        self.items_per_call = self.BURST

    def oracle(self) -> None:
        with Session(backend=BACKEND, private_caches=True) as ref:
            self.expected = [[ref.infer(m, x) for m, x in burst]
                             for burst in self.bursts]

    def first(self, server):
        return self.call(server, 0)

    def verify(self, outputs, i: int, tally: Tally) -> None:
        for got, want in zip(outputs, self.expected[i % self.BURSTS]):
            tally.record(exact_match(got, want))

    def verify_first(self, outputs, tally: Tally) -> None:
        self.verify(outputs, 0, tally)


class InferC2C1D(_Bursts):
    """Warm ``Session.infer_many`` over the paper's complex 1-D fused
    FFT -> CGEMM -> iFFT operator, K=32, ``max_batch=16``."""

    GEOMETRIES = ((128, 32), (256, 64), (512, 64))
    BURST = 48  # three micro-batches of 16

    def open(self) -> Session:
        return Session(backend=BACKEND, private_caches=True)

    def close(self, server: Session) -> None:
        server.close()

    def call(self, server: Session, i: int):
        return server.infer_many(self.bursts[i % self.BURSTS],
                                 max_batch=self.MAX_BATCH)


class PoolC2C1D(_Bursts):
    """``ServePool.infer_many`` at ``workers=2``; the four geometries
    hash two onto each shard.  The open loop sends ``OPEN_LOOP_RATE``
    requests per second, a third of the closed-loop capacity of a
    2-vCPU host (at 900/s the parent's generator there falls behind its
    schedule), and is never recalibrated per run."""

    GEOMETRIES = ((128, 32), (256, 64), (512, 64), (256, 32))
    BURST = 64
    WORKERS = 2
    OPEN_LOOP_RATE = 700.0

    def open(self) -> ServePool:
        return ServePool(workers=self.WORKERS, backend=BACKEND,
                         max_batch=self.MAX_BATCH)

    def close(self, server: ServePool) -> None:
        server.close()

    def call(self, server: ServePool, i: int):
        return server.infer_many(self.bursts[i % self.BURSTS],
                                 timeout=RESULT_TIMEOUT)

    def open_loop(self, pool: ServePool, seconds: float, tally: Tally):
        """Send requests on a fixed schedule for ``seconds``.

        Returns ``(latencies, lateness)`` in seconds: each request's
        latency runs from when it was due, so a stall of the generator
        counts against every request behind it; lateness is how far
        behind schedule each send started.  One waiter per shard
        collects results in order and verifies them after timestamping.
        """
        requests = [r for burst in self.bursts for r in burst]
        expected = [e for burst in self.expected for e in burst]
        latencies: list[float] = []
        lateness: list[float] = []
        outcomes: list[bool] = []
        queues: list[list] = [[] for _ in range(self.WORKERS)]
        cond = threading.Condition()
        sent = [False]

        def waiter(shard: int) -> None:
            mine, j = queues[shard], 0
            while True:
                with cond:
                    while j >= len(mine) and not sent[0]:
                        cond.wait()
                    if j >= len(mine):
                        return
                    index, due, future = mine[j]
                    mine[j] = None  # let the result go once checked
                j += 1
                try:
                    got = future.result(RESULT_TIMEOUT)
                except Exception:  # noqa: BLE001 - counted as a failure
                    outcomes.append(False)
                    continue
                latencies.append(time.perf_counter() - due)
                outcomes.append(
                    exact_match(got, expected[index % len(expected)])
                )

        threads = [threading.Thread(target=waiter, args=(s,))
                   for s in range(self.WORKERS)]
        for t in threads:
            t.start()
        try:
            start = time.perf_counter() + 0.005
            for i in range(max(1, int(seconds * self.OPEN_LOOP_RATE))):
                due = start + i / self.OPEN_LOOP_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness.append(time.perf_counter() - due)
                model, x = requests[i % len(requests)]
                try:
                    future = pool.submit(model, x)
                except Exception:  # noqa: BLE001 - counted as a failure
                    outcomes.append(False)
                    continue
                with cond:
                    queues[future.worker].append((i, due, future))
                    cond.notify_all()
        finally:
            with cond:
                sent[0] = True
                cond.notify_all()
            for t in threads:
                t.join()
        for ok in outcomes:
            tally.record(ok)
        return latencies, lateness


class RolloutR2C2D:
    """``Session.rollout`` of 4 streams of a symmetric real 2-D layer:
    state (1, 16, 128, 128) float32, modes (16, 16).

    The weight is 0.98 times a random unitary matrix, so the band-
    limited state neither blows up nor decays to noise over 64 steps.
    """

    STREAMS = 4
    CHANNELS = 16
    GRID = (128, 128)
    MODES = (16, 16)
    #: Steps per call.  The fast profile pays one forward and one
    #: inverse transform per call, so it runs the full 64 steps that
    #: make it CGEMM-bound; an exact step costs the same at any rollout
    #: length, so exact calls take 16 steps and give the fastest-call
    #: statistic four times the samples.
    STEPS = {"exact": 16, "fast": 64}

    def __init__(self, seed: int, profile: str) -> None:
        self.profile = profile
        self.steps = self.STEPS[profile]
        rng = np.random.default_rng(seed)
        c = self.CHANNELS
        q, _ = np.linalg.qr(_complex(rng, (c, c)))
        model = SpectralModel((0.98 * q).astype(np.complex64), self.MODES,
                              symmetric=True)
        self.streams = [
            (model, rng.standard_normal((1, c, *self.GRID)).astype(np.float32))
            for _ in range(self.STREAMS)
        ]
        self.work_per_call = self.STREAMS * self.steps
        self.items_per_call = self.STREAMS
        self._match = exact_match if profile == "exact" else close_match

    def oracle(self) -> None:
        """The eager per-step loop of serial ``Session.infer`` calls;
        the fast profile is checked against it within ``FAST_RTOL``."""
        with Session(backend=BACKEND, private_caches=True) as ref:
            self.expected_first = []
            self.expected = []
            for model, x in self.streams:
                for step in range(self.steps):
                    x = ref.infer(model, x)
                    if step == 0:
                        self.expected_first.append(x)
                self.expected.append(x)

    def open(self) -> Session:
        return Session(backend=BACKEND, private_caches=True)

    def close(self, server: Session) -> None:
        server.close()

    def first(self, server: Session):
        return server.rollout(streams=self.streams, steps=1,
                              profile=self.profile)

    def call(self, server: Session, i: int):
        return server.rollout(streams=self.streams, steps=self.steps,
                              profile=self.profile)

    def verify(self, outputs, i: int, tally: Tally) -> None:
        for got, want in zip(outputs, self.expected):
            tally.record(self._match(got, want))

    def verify_first(self, outputs, tally: Tally) -> None:
        for got, want in zip(outputs, self.expected_first):
            tally.record(self._match(got, want))


WORKLOADS = {
    "infer_c2c_1d": InferC2C1D,
    "rollout_exact_r2c_2d": lambda seed: RolloutR2C2D(seed, "exact"),
    "rollout_fast_r2c_2d": lambda seed: RolloutR2C2D(seed, "fast"),
    "pool_c2c_1d": PoolC2C1D,
}

#: What ``throughput_per_s`` is called in the project's own vocabulary
#: on each workload (printed next to the value).
THROUGHPUT_NAMES = {
    "infer_c2c_1d": "infer_req_per_s",
    "rollout_exact_r2c_2d": "rollout_exact_steps_per_s",
    "rollout_fast_r2c_2d": "rollout_fast_steps_per_s",
    "pool_c2c_1d": "pool_req_per_s",
}
