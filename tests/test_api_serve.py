"""Tests for ``repro.api.serve``: the multi-process serving front-end.

Covers the routing layer (stable geometry hashing, shard assignment),
the pool happy path (bit-identity vs a serial one-worker ``Session`` at
``workers=4`` — the acceptance bar — and per-geometry shard affinity in
``stats()``), backpressure (immediate ``PoolSaturated`` under
``saturation="raise"``, timeout under ``"block"``, oversized requests),
worker lifecycle (recycling after ``max_requests_per_worker`` with
warmup handoff, SIGKILL mid-stream with deterministic retry-or-fail),
and shared-memory hygiene (every segment the pool ever created is
unlinked on ``close()``, asserted by re-attach failure).

Failure *semantics* — fault injection, deadlines, hang detection,
circuit-breaker degradation, ``ResultTimeout``/``cancel()`` — live in
``test_api_serve_faults.py``; the raw-signal crash tests here remain as
the transport-level safety net the scripted faults build on.

Process pools are slow to start; the suite keeps pools small (1-4
workers, numpy backend) and shares none between tests so a crashed
worker cannot poison a neighbour.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import Session
from repro.api.serve import (
    PoolSaturated,
    ServePool,
    WorkerCrashed,
    format_geometry,
    geometry_hash,
    geometry_key,
    shard_for,
)
from repro.api.session import SpectralModel

RNG = np.random.default_rng(20260808)


def _weight(k=4):
    return ((RNG.standard_normal((k, k)) + 1j * RNG.standard_normal((k, k)))
            / k).astype(np.complex64)


def _signal(shape):
    return (RNG.standard_normal(shape)
            + 1j * RNG.standard_normal(shape)).astype(np.complex64)


def _mixed_requests(n=32, hidden=4):
    """A mixed-geometry stream: several FFT sizes and mode counts."""
    w = _weight(hidden)
    models = [(w, m) for m in (16, 32, 64)]
    model_2d = (w, (8, 8))
    reqs = []
    for i in range(n):
        if i % 4 == 3:
            reqs.append((model_2d, _signal((2, hidden, 64, 64))))
        else:
            dim_x = 128 if i % 2 else 256
            reqs.append((models[i % 3], _signal((2, hidden, dim_x))))
    return reqs


def _serial_results(reqs):
    with_session = Session(backend="numpy")
    try:
        return with_session.infer_many(reqs, max_batch=32)
    finally:
        with_session.close()


def _assert_identical(refs, outs):
    assert len(refs) == len(outs)
    for i, (a, b) in enumerate(zip(refs, outs)):
        assert a.dtype == b.dtype, f"request {i}: dtype {b.dtype} != {a.dtype}"
        assert np.array_equal(a, b), f"request {i}: outputs differ"


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

class TestRouter:
    def test_geometry_key_fields(self):
        spec = SpectralModel(_weight(), 32)
        x = _signal((2, 4, 128))
        assert geometry_key(spec, x) == (1, (128,), (32,), "complex64")

    def test_hash_is_stable_across_calls_and_batch_size(self):
        spec = SpectralModel(_weight(), 32)
        k1 = geometry_key(spec, _signal((2, 4, 128)))
        k2 = geometry_key(spec, _signal((64, 4, 128)))
        assert k1 == k2  # batch is not part of the routing key
        assert geometry_hash(k1) == geometry_hash(k2)

    def test_hash_is_stable_across_processes(self):
        # blake2b of the repr, not builtin hash(): PYTHONHASHSEED-proof.
        import subprocess
        import sys

        key = (1, (128,), (64,), "complex64")
        code = (
            "from repro.api.serve import geometry_hash;"
            f"print(geometry_hash({key!r}))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert int(out.stdout.strip()) == geometry_hash(key)

    def test_distinct_geometries_hash_apart(self):
        spec = SpectralModel(_weight(), 32)
        keys = {
            geometry_key(spec, _signal((2, 4, n))) for n in (64, 128, 256)
        }
        assert len({geometry_hash(k) for k in keys}) == 3

    def test_shard_for_range(self):
        key = (1, (128,), (64,), "complex64")
        for w in (1, 2, 3, 8):
            assert 0 <= shard_for(key, w) < w

    def test_format_geometry(self):
        assert format_geometry((1, (128,), (64,), "complex64")) == (
            "1d:128:m64:complex64"
        )
        assert format_geometry((2, (64, 64), (8, 8), "complex64")) == (
            "2d:64x64:m8x8:complex64"
        )


# ---------------------------------------------------------------------------
# pool happy path
# ---------------------------------------------------------------------------

class TestServePoolBitIdentity:
    def test_workers4_bit_identical_to_serial_session(self):
        reqs = _mixed_requests(32)
        refs = _serial_results(reqs)
        with ServePool(workers=4, backend="numpy") as pool:
            outs = pool.infer_many(reqs, timeout=120)
        _assert_identical(refs, outs)

    def test_single_worker_pool_matches_serial(self):
        reqs = _mixed_requests(12)
        refs = _serial_results(reqs)
        with ServePool(workers=1, backend="numpy") as pool:
            outs = pool.infer_many(reqs, timeout=120)
        _assert_identical(refs, outs)

    def test_submit_returns_future_with_routing_metadata(self):
        model = (_weight(), 32)
        x = _signal((2, 4, 128))
        with ServePool(workers=2, backend="numpy") as pool:
            fut = pool.submit(model, x)
            y = fut.result(120)
            assert fut.done()
            assert fut.worker == pool.shard_of(model, x)
            assert fut.geometry == "1d:128:m32:complex64"
        assert np.array_equal(y, _serial_results([(model, x)])[0])

    def test_real_dtype_requests(self):
        model = (_weight(), 16)
        x = RNG.standard_normal((2, 4, 128)).astype(np.float32)
        refs = _serial_results([(model, x)])
        with ServePool(workers=2, backend="numpy") as pool:
            outs = pool.infer_many([(model, x)], timeout=120)
        _assert_identical(refs, outs)


class TestServePoolStats:
    def test_per_geometry_shard_affinity(self):
        reqs = _mixed_requests(24)
        with ServePool(workers=4, backend="numpy") as pool:
            pool.infer_many(reqs, timeout=120)
            st = pool.stats(timeout=30)
        # Every geometry reports exactly the shard the router computes.
        for name, entry in st["per_geometry"].items():
            assert 0 <= entry["worker"] < 4
            assert entry["requests"] > 0
            assert entry["failed"] == 0
        # Shape parity with Session.stats(): requests / batches /
        # per_geometry / admission all present.
        assert st["requests"] == len(reqs)
        assert st["admission"]["submitted"] == len(reqs)
        assert st["admission"]["completed"] == len(reqs)
        assert st["batches"] >= 1
        assert len(st["per_worker"]) == 4
        served = sum(w["served"] or 0 for w in st["per_worker"])
        assert served == len(reqs)

    def test_geometry_pinned_to_router_shard(self):
        model = (_weight(), 64)
        x = _signal((2, 4, 128))
        with ServePool(workers=3, backend="numpy") as pool:
            expect = pool.shard_of(model, x)
            for _ in range(5):
                pool.infer(model, x, timeout=120)
            st = pool.stats(timeout=30)
            entry = st["per_geometry"]["1d:128:m64:complex64"]
            assert entry["worker"] == expect
            assert entry["requests"] == 5


# ---------------------------------------------------------------------------
# configuration and validation
# ---------------------------------------------------------------------------

class TestServePoolConfig:
    def test_workers_default_from_repro_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pool = ServePool(backend="numpy")
        try:
            assert pool.workers == 2
        finally:
            pool.close()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ServePool(workers=0, backend="numpy")
        with pytest.raises(ValueError):
            ServePool(backend="numpy", saturation="maybe")
        with pytest.raises(ValueError):
            ServePool(backend="numpy", on_crash="shrug")
        with pytest.raises(ValueError):
            ServePool(backend="numpy", dtype_policy="float16")
        with pytest.raises((ValueError, RuntimeError)):
            ServePool(backend="not-a-backend")

    def test_non_model_request_rejected(self):
        with ServePool(workers=1, backend="numpy") as pool:
            with pytest.raises(TypeError):
                pool.submit(lambda x: x, _signal((2, 4, 128)))
            with pytest.raises(ValueError):
                pool.submit((_weight(), 32), _signal((4, 128)))

    def test_closed_pool_rejects_work(self):
        pool = ServePool(workers=1, backend="numpy")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.infer((_weight(), 32), _signal((2, 4, 128)))


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------

class TestBackpressure:
    def test_oversized_request_raises_immediately(self):
        with ServePool(workers=1, backend="numpy",
                       ring_bytes=1 << 16) as pool:
            with pytest.raises(PoolSaturated):
                # 4 MiB of complex64 against a 64 KiB ring: never fits.
                pool.submit((_weight(), 32), _signal((32, 4, 4096)))

    def test_saturation_raise_on_stopped_worker(self):
        model = (_weight(), 32)
        with ServePool(workers=1, backend="numpy", queue_depth=1,
                       saturation="raise") as pool:
            x = _signal((2, 4, 128))
            pool.infer(model, x, timeout=120)  # depth bound admits one
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                filler = pool.submit(model, x)
                with pytest.raises(PoolSaturated):
                    pool.submit(model, x)
            finally:
                os.kill(pid, signal.SIGCONT)
            filler.result(120)
            assert pool.stats(timeout=30)["admission"]["rejected"] == 1

    def test_saturation_block_times_out(self):
        model = (_weight(), 32)
        with ServePool(workers=1, backend="numpy",
                       queue_depth=1) as pool:
            x = _signal((2, 4, 128))
            pool.infer(model, x, timeout=120)
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                filler = pool.submit(model, x)
                with pytest.raises(PoolSaturated):
                    pool.submit(model, x, block=True, timeout=0.2)
            finally:
                os.kill(pid, signal.SIGCONT)
            filler.result(120)


# ---------------------------------------------------------------------------
# worker lifecycle: recycle and crash
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_recycle_after_request_budget(self):
        model = (_weight(), 32)
        with ServePool(workers=1, backend="numpy",
                       max_requests_per_worker=3) as pool:
            pid0 = pool.worker_pids()[0]
            xs = [_signal((2, 4, 128)) for _ in range(7)]
            refs = _serial_results([(model, x) for x in xs])
            outs = [pool.infer(model, x, timeout=120) for x in xs]
            _assert_identical(refs, outs)
            st = pool.stats(timeout=30)
            assert st["admission"]["recycles"] >= 1
            assert pool.worker_pids()[0] != pid0

    def test_sigkill_mid_stream_retries_deterministically(self):
        model = (_weight(), 32)
        with ServePool(workers=1, backend="numpy", queue_depth=16,
                       on_crash="retry") as pool:
            x0 = _signal((2, 4, 128))
            pool.infer(model, x0, timeout=120)  # warm; records geometry
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)  # hold requests in flight
            xs = [_signal((2, 4, 128)) for _ in range(5)]
            futs = [pool.submit(model, x) for x in xs]
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
            os.kill(pid, signal.SIGCONT)
            outs = [f.result(120) for f in futs]
            refs = _serial_results([(model, x) for x in xs])
            _assert_identical(refs, outs)
            st = pool.stats(timeout=30)
            assert st["admission"]["crashes"] == 1
            assert st["admission"]["retried"] == len(xs)
            assert st["admission"]["failed"] == 0
            # The replacement took over the shard and still serves.
            assert pool.worker_pids()[0] != pid
            x1 = _signal((2, 4, 128))
            assert np.array_equal(
                pool.infer(model, x1, timeout=120),
                _serial_results([(model, x1)])[0],
            )

    def test_sigkill_mid_stream_fails_deterministically(self):
        model = (_weight(), 32)
        with ServePool(workers=1, backend="numpy", queue_depth=16,
                       on_crash="fail") as pool:
            pool.infer(model, _signal((2, 4, 128)), timeout=120)
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            futs = [pool.submit(model, _signal((2, 4, 128)))
                    for _ in range(3)]
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)
            os.kill(pid, signal.SIGCONT)
            for fut in futs:
                with pytest.raises(WorkerCrashed):
                    fut.result(120)
            st = pool.stats(timeout=30)
            assert st["admission"]["crashes"] == 1
            assert st["admission"]["failed"] == len(futs)
            assert st["admission"]["retried"] == 0
            # Warmed replacement serves on.
            x1 = _signal((2, 4, 128))
            assert np.array_equal(
                pool.infer(model, x1, timeout=120),
                _serial_results([(model, x1)])[0],
            )


# ---------------------------------------------------------------------------
# shared-memory hygiene
# ---------------------------------------------------------------------------

class TestSegmentHygiene:
    def test_every_segment_unlinked_on_close(self):
        pool = ServePool(workers=2, backend="numpy")
        pool.infer_many(_mixed_requests(8), timeout=120)
        names = pool.segment_names()
        assert len(names) == 4  # two rings per worker
        assert pool.live_segment_names() == names
        pool.close()
        assert pool.live_segment_names() == []
        assert pool.segment_names() == names  # audit trail survives close
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_crash_replacement_reuses_rings_no_new_segments(self):
        model = (_weight(), 32)
        with ServePool(workers=1, backend="numpy",
                       on_crash="retry") as pool:
            pool.infer(model, _signal((2, 4, 128)), timeout=120)
            before = pool.segment_names()
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            # Wait for the replacement, then serve through it.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                pids = pool.worker_pids()
                if pids[0] is not None and pids[0] != 0:
                    try:
                        pool.infer(model, _signal((2, 4, 128)), timeout=60)
                        break
                    except WorkerCrashed:  # pragma: no cover - re-race
                        continue
                time.sleep(0.05)
            assert pool.segment_names() == before
        for name in before:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestInfrastructureError:
    """The typed-failure audit: substrate faults in the worker must
    surface as ``InfrastructureError`` (retry-worthy), never as the
    generic ``ServeError`` a model/geometry failure produces."""

    def test_is_a_typed_serve_error(self):
        from repro.api.serve import InfrastructureError, ServeError

        assert issubclass(InfrastructureError, ServeError)

    def test_serve_one_maps_substrate_faults(self):
        from repro.api.serve.health import InfrastructureError
        from repro.api.serve.worker import _WorkerBody

        body = _WorkerBody.__new__(_WorkerBody)  # _serve_one needs no state

        def oom():
            raise MemoryError("allocation of 2 GiB failed")

        out = body._serve_one(oom)
        assert isinstance(out, InfrastructureError)
        assert "MemoryError" in str(out)

    def test_serve_one_returns_model_errors_unwrapped(self):
        from repro.api.serve.health import InfrastructureError
        from repro.api.serve.worker import _WorkerBody

        body = _WorkerBody.__new__(_WorkerBody)

        def bad_geometry():
            raise ValueError("modes exceed n//2")

        out = body._serve_one(bad_geometry)
        assert isinstance(out, ValueError)
        assert not isinstance(out, InfrastructureError)

    def test_pool_reconstructs_the_type_from_the_wire(self):
        """The worker ships ``("err", rid, "InfrastructureError", msg)``;
        the parent's completion path must rebuild the typed error, not
        flatten it into ServeError."""
        import repro.api.serve.pool as pool_mod
        import inspect

        src = inspect.getsource(pool_mod.ServePool._complete)
        assert "InfrastructureError(message)" in src


class TestUnknownModel:
    """A request for a model the worker does not hold fails alone, typed;
    the worker stays alive and serves the rest of its batch."""

    def _body(self, models):
        from repro.api.serve.faults import ChaosInjector
        from repro.api.serve.worker import _WorkerBody

        class Ring:
            buf = bytearray(1 << 16)

        class Conn:
            def __init__(self):
                self.sent = []

            def send(self, msg):
                self.sent.append(msg)

        session = Session(backend="numpy")
        body = _WorkerBody(session, models, Ring(), Ring(), Conn(), 8,
                           ChaosInjector(None))
        return body, session

    def test_flush_answers_unknown_model_and_serves_the_batch(self):
        from repro.api.serve.shm import header_checksum

        w = _weight(4)
        known = SpectralModel(w, 16)
        body, session = self._body({0: known})
        try:
            xs = [_signal((1, 4, 64)) for _ in range(3)]
            batch = []
            for rid, (mid, x) in enumerate(zip((0, 7, 0), xs)):
                off = rid * 4096
                view = np.ndarray(x.shape, x.dtype, buffer=body.req_shm.buf,
                                  offset=off)
                view[...] = x
                fields = (rid, mid, x.shape, str(x.dtype), off, off, 4096,
                          1, "exact", None, 0)
                batch.append(("req", *fields, header_checksum(fields)))
            body.flush(batch)
            sent = {msg[1]: msg for msg in body.conn.sent}
            assert sent[1][0] == "err" and sent[1][2] == "UnknownModel"
            for rid in (0, 2):
                kind, _, shape, dtype, nbytes, _ = sent[rid]
                assert kind == "res"
                got = np.ndarray(shape, dtype, buffer=body.resp_shm.buf,
                                 offset=rid * 4096)
                want = session.infer(known, xs[rid])
                assert np.array_equal(got, want)
        finally:
            session.close()

    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_flush_groups_headers_by_steps_and_profile(self, max_batch):
        """One drain holding plain requests (one of a non-square model)
        and streams of two (steps, profile) pairs answers every header
        with the in-process Session's bits; the worker's own session
        counts each header as a stream."""
        from repro.api.serve.shm import header_checksum

        square = SpectralModel(_weight(4), 16)
        narrow = SpectralModel(
            ((RNG.standard_normal((4, 2))
              + 1j * RNG.standard_normal((4, 2))) / 4).astype(np.complex64),
            16,
        )
        body, session = self._body({0: square, 1: narrow})
        body.max_batch = max_batch
        # (model id, steps, profile) per header, interleaved on purpose.
        plan = [(0, 1, "exact"), (0, 3, "exact"), (1, 1, "exact"),
                (0, 2, "fast"), (0, 3, "exact"), (0, 1, "exact"),
                (0, 2, "fast")]
        try:
            xs = [_signal((1, 4, 64)) for _ in plan]
            batch = []
            for rid, ((mid, steps, profile), x) in enumerate(zip(plan, xs)):
                off = rid * 2048
                view = np.ndarray(x.shape, x.dtype, buffer=body.req_shm.buf,
                                  offset=off)
                view[...] = x
                fields = (rid, mid, x.shape, str(x.dtype), off, off, 2048,
                          steps, profile, None, 0)
                batch.append(("req", *fields, header_checksum(fields)))
            body.flush(batch)
            assert session.stats()["rollout"] == {"streams": 7, "steps": 13}
            sent = {msg[1]: msg for msg in body.conn.sent}
            assert sorted(sent) == list(range(len(plan)))
            models = {0: square, 1: narrow}
            with Session(backend="numpy") as ref_session:
                for rid, (mid, steps, profile) in enumerate(plan):
                    kind, _, shape, dtype, _, _ = sent[rid]
                    assert kind == "res"
                    got = np.ndarray(shape, dtype, buffer=body.resp_shm.buf,
                                     offset=rid * 2048)
                    want = ref_session.rollout(models[mid], xs[rid], steps,
                                               profile=profile)
                    assert np.array_equal(got, want)
                    if mid == 1:
                        assert shape == (1, 2, 64)
        finally:
            session.close()

    def test_pool_future_fails_typed_and_worker_survives(self):
        from repro.api.serve import ServeError, UnknownModel

        assert issubclass(UnknownModel, ServeError)
        known, ghost = (_weight(4), 16), (_weight(4), 16)
        x = _signal((2, 4, 64))
        with ServePool(workers=1, backend="numpy") as pool:
            want = pool.infer(known, x, timeout=120)
            pid = pool.worker_pids()[0]
            # Mark the next model id pushed without sending it: the worker
            # then receives a request for a model it never saw.
            pool._handles[0].pushed.add(len(pool._models))
            lost = pool.submit(ghost, x)
            kept = [pool.submit(known, x) for _ in range(3)]
            with pytest.raises(UnknownModel, match="not loaded"):
                lost.result(timeout=120)
            for fut in kept:
                assert np.array_equal(fut.result(timeout=120), want)
            assert pool.worker_pids()[0] == pid
            assert pool.stats()["admission"]["crashes"] == 0
