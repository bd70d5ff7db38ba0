"""Tests for ``repro.api.Session``: the stateful execution context.

Covers the session-owned caches (plans, FFT plans, executor pool) and
the one-path cache clearing, backend isolation (sessions with different
backends never share plans or workspaces), the serving path
(``infer``/``infer_many`` bit-identity across micro-batching, threading
and backends), warmup/stats, dtype policy, the ``REPRO_WORKERS``
override, and the module-level facade compatibility (``api.plan`` as a
thin wrapper over the default session).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import api
from repro.api.runner import default_workers
from repro.core.compiled import CompiledSpectralConv1D
from repro.core.config import FNO1DProblem, FNO2DProblem
from repro.core.stages import FusionStage
from repro.fft._ckernels import kernels_available
from repro.fft.compiled import current_plan_caches, default_plan_caches
from repro.nn.fno import FNO1d

PROB_1D = FNO1DProblem.from_m_spatial(2**16, 64, 128, 64)
PROB_2D = FNO2DProblem(batch=8, hidden=32, dim_x=256, dim_y=128,
                       modes_x=64, modes_y=64)
BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]


def _weight(rng, k=8):
    return ((rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            / k).astype(np.complex64)


def _requests(rng, w, n_requests=24, hidden=8, batch=2,
              geometries=((128, 32), (256, 32))):
    reqs = []
    for i in range(n_requests):
        dim_x, modes = geometries[i % len(geometries)]
        x = (rng.standard_normal((batch, hidden, dim_x))
             + 1j * rng.standard_normal((batch, hidden, dim_x))
             ).astype(np.complex64)
        reqs.append(((w, modes), x))
    return reqs


class TestImportPurity:
    def test_import_repro_does_not_touch_kernel_loader(self):
        """`import repro` (and constructing an auto session) must not
        invoke the C compiler — auto resolves lazily at execution."""
        import subprocess
        import sys

        code = (
            "import repro\n"
            "repro.api.Session().close()\n"
            "from repro.fft import _ckernels\n"
            "assert _ckernels._state['tried'] is False, _ckernels._state\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert res.returncode == 0, res.stderr


class TestSessionConstruction:
    def test_defaults_share_process_caches(self):
        s = api.Session()
        assert s.plan_caches is default_plan_caches()
        s.close()

    def test_private_caches_are_private(self):
        s = api.Session(private_caches=True)
        assert s.plan_caches is not default_plan_caches()
        s.close()

    def test_non_auto_backend_gets_private_caches(self):
        s = api.Session(backend="numpy")
        assert s.plan_caches is not default_plan_caches()
        assert s.plan_caches.kernels() is None
        s.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.Session(backend="cuda")

    def test_unknown_dtype_policy_rejected(self):
        with pytest.raises(ValueError, match="dtype_policy"):
            api.Session(dtype_policy="float16")

    def test_context_manager_closes(self):
        with api.Session() as s:
            s.plan(PROB_1D, "D")
        with pytest.raises(RuntimeError, match="closed"):
            s.plan(PROB_1D, "D")
        with pytest.raises(RuntimeError, match="closed"):
            s.infer((np.eye(8, dtype=np.complex64), 4), np.zeros((1, 8, 16)))
        s.close()  # idempotent


class TestSessionPlanning:
    def test_plan_matches_module_facade(self):
        s = api.Session()
        p = s.plan(PROB_1D, FusionStage.FUSED_ALL)
        # Same config/device defaults -> same modelled numbers as the
        # module-level facade (served from separate caches).
        q = api.plan(PROB_1D, FusionStage.FUSED_ALL)
        assert p.total_time == q.total_time
        assert p.stage is q.stage
        s.close()

    def test_session_cache_is_isolated(self):
        s1, s2 = api.Session(), api.Session()
        p1 = s1.plan(PROB_1D, "D")
        p2 = s2.plan(PROB_1D, "D")
        assert p1 is not p2  # distinct plan caches
        assert p1 is s1.plan(PROB_1D, "D")  # but memoised within a session
        assert s1.plan_cache_info().hits >= 1
        s1.close(), s2.close()

    def test_best_resolution_and_baseline_stay_in_session(self):
        s = api.Session()
        for stage in FusionStage.ladder():
            s.plan(PROB_1D, stage)
        misses = s.plan_cache_info().misses
        best = s.plan(PROB_1D)  # BEST
        assert s.plan_cache_info().misses == misses + 1
        assert best.stage in FusionStage.ladder()
        # baseline() routes through the owning session's cache
        before = s.plan_cache_info().currsize
        base = best.baseline()
        assert base.stage is FusionStage.PYTORCH
        assert s.plan_cache_info().currsize == before + 1
        s.close()

    def test_module_plan_is_default_session_backed(self):
        api.clear_plan_cache()
        p = api.plan(PROB_1D, "D")
        assert p is api.default_session().plan(PROB_1D, "D")


class TestClearAllCaches:
    """Satellite: one path empties plans, FFT plans and executors."""

    def _populate(self, s, rng):
        s.plan(PROB_1D, "D")
        w = _weight(rng)
        x = (rng.standard_normal((2, 8, 64))
             + 1j * rng.standard_normal((2, 8, 64))).astype(np.complex64)
        s.infer((w, 16), x)
        assert s.plan_cache_info().currsize > 0
        assert sum(i.currsize for i in s.plan_caches.cache_info()) > 0
        assert s.executor_pool_size() == 1

    def test_clear_all_caches_empties_everything(self, rng):
        s = api.Session(private_caches=True)
        self._populate(s, rng)
        s.clear_all_caches()
        assert s.plan_cache_info().currsize == 0
        assert sum(i.currsize for i in s.plan_caches.cache_info()) == 0
        assert s.executor_pool_size() == 0
        s.close()

    def test_clear_plan_cache_alone_keeps_fft_plans(self, rng):
        """The seed inconsistency, now explicit: clear_plan_cache drops
        only plans; clear_all_caches is the full teardown."""
        s = api.Session(private_caches=True)
        self._populate(s, rng)
        s.clear_plan_cache()
        assert s.plan_cache_info().currsize == 0
        assert sum(i.currsize for i in s.plan_caches.cache_info()) > 0
        assert s.executor_pool_size() == 1
        s.close()

    def test_module_level_clear_all_caches(self, rng):
        s = api.default_session()
        s.plan(PROB_1D, "D")
        w = _weight(rng)
        x = (rng.standard_normal((2, 8, 64))
             + 1j * rng.standard_normal((2, 8, 64))).astype(np.complex64)
        s.infer((w, 16), x)
        api.clear_all_caches()
        assert api.plan_cache_info().currsize == 0
        assert s.executor_pool_size() == 0
        assert sum(i.currsize for i in s.plan_caches.cache_info()) == 0

    def test_close_leaves_shared_fft_caches_alone(self):
        """Closing a cache-sharing session must not cold-start everyone
        else: the process-wide FFT plan set survives."""
        shared = default_plan_caches()
        keeper = api.Session()
        keeper.plan_caches.fft(64, np.complex64)
        before = sum(i.currsize for i in shared.cache_info())
        assert before > 0
        with api.Session() as transient:
            transient.plan(PROB_1D, "D")
        assert sum(i.currsize for i in shared.cache_info()) >= before
        keeper.close()

    def test_executor_pool_is_lru_bounded(self, rng):
        from repro.api import session as session_mod

        s = api.Session()
        x = (rng.standard_normal((1, 4, 32))
             + 1j * rng.standard_normal((1, 4, 32))).astype(np.complex64)
        cap = session_mod.EXECUTOR_POOL_SIZE
        for _ in range(cap + 10):  # transient weights: fresh id each time
            w = ((rng.standard_normal((4, 4))
                  + 1j * rng.standard_normal((4, 4))) / 4
                 ).astype(np.complex64)
            s.infer((w, 8), x)
        assert s.executor_pool_size() == cap
        s.close()

    def test_plans_outlive_their_session(self):
        s = api.Session()
        p = s.plan(PROB_1D, FusionStage.FUSED_ALL)
        s.close()
        # baseline/speedup fall back to the default-session facade.
        assert p.baseline().stage is FusionStage.PYTORCH
        assert p.speedup_vs_baseline() > 0
        w = np.eye(64, dtype=np.complex64)
        assert p.compile_executor(w) is not None

    def test_close_clears_and_refreshes_default(self):
        s = api.default_session()
        s.plan(PROB_1D, "D")
        s.close()
        # A closed default session is replaced lazily.
        s2 = api.default_session()
        assert s2 is not s
        assert s2.plan(PROB_1D, "D").stage is FusionStage.FUSED_ALL


class TestBackendIsolation:
    """Satellite: interleaved sessions with different backends never
    share plans or workspaces."""

    def test_plan_objects_distinct_across_backends(self):
        s_np = api.Session(backend="numpy")
        s_auto = api.Session()
        for n in (64, 128):
            p_np = s_np.plan_caches.fft(n, np.complex64)
            p_auto = s_auto.plan_caches.fft(n, np.complex64)
            assert p_np is not p_auto
            assert p_np.backend == "numpy"
        r_np = s_np.plan_caches.rfft(128, np.float32)
        r_auto = s_auto.plan_caches.rfft(128, np.float32)
        assert r_np is not r_auto
        # R2C sub-plans stay inside their own cache set.
        assert r_np._sub is s_np.plan_caches.fft(64, np.complex64)
        assert r_np._sub is not s_auto.plan_caches.fft(64, np.complex64)
        s_np.close(), s_auto.close()

    def test_interleaved_backends_bit_identical(self, rng):
        w = _weight(rng)
        reqs = _requests(rng, w, n_requests=12)
        s_np = api.Session(backend="numpy")
        s_auto = api.Session()
        out_np, out_auto = [], []
        for model, x in reqs:  # strictly interleaved execution
            out_np.append(s_np.infer(model, x))
            out_auto.append(s_auto.infer(model, x))
        assert all(np.array_equal(a, b) for a, b in zip(out_np, out_auto))
        s_np.close(), s_auto.close()

    def test_interleaved_backends_threaded(self, rng):
        """Two sessions with different backends serving concurrently
        produce the same bits as serial execution."""
        w = _weight(rng)
        reqs = _requests(rng, w, n_requests=16)
        serial = [api.Session(backend="numpy").infer(m, x)
                  for m, x in reqs]
        results: dict[str, list] = {}
        sessions = {
            "numpy": api.Session(backend="numpy"),
            "auto": api.Session(private_caches=True),
        }

        def serve(name):
            s = sessions[name]
            results[name] = s.infer_many(reqs, max_batch=4, workers=2)

        threads = [threading.Thread(target=serve, args=(n,))
                   for n in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name in sessions:
            assert all(
                np.array_equal(a, b)
                for a, b in zip(serial, results[name])
            ), name
            sessions[name].close()


    @pytest.mark.skipif(not kernels_available(),
                        reason="C kernels unavailable")
    @pytest.mark.parametrize("how", ["infer", "infer_many", "exact",
                                     "fast"])
    def test_prebuilt_executor_follows_the_session_backend(
            self, rng, monkeypatch, how):
        """A fresh executor built without ``plans=`` is served on the
        session's backend: not one C kernel call under a NumPy session,
        and the bytes a C session serves."""
        from repro.fft._ckernels import get_kernels

        kernels, calls = get_kernels(), []
        for name in dir(type(kernels)):
            real = getattr(kernels, name)
            if name.startswith("_") or not callable(real):
                continue

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(kernels, name, counting)
        w = _weight(rng)
        xs = [x for _, x in _requests(rng, w, n_requests=4)]

        def serve(backend):
            conv = CompiledSpectralConv1D(w, 32)
            with api.Session(backend=backend, private_caches=True) as s:
                if how == "infer":
                    return [s.infer(conv, x) for x in xs]
                streams = [(conv, x) for x in xs]
                if how == "infer_many":
                    return s.infer_many(streams)
                return s.rollout(streams=streams, steps=3, profile=how)

        want = serve("ckernels")
        assert calls  # the counters see the C session's calls
        calls.clear()
        got = serve("numpy")
        assert calls == []
        assert all(g.dtype == r.dtype and g.tobytes() == r.tobytes()
                   for g, r in zip(got, want))


class TestInference:
    def test_infer_matches_spectral_conv(self, rng):
        w = _weight(rng)
        x = (rng.standard_normal((3, 8, 128))
             + 1j * rng.standard_normal((3, 8, 128))).astype(np.complex64)
        s = api.Session()
        got = s.infer((w, 32), x)
        ref = api.spectral_conv(x, w, 32)
        assert np.array_equal(got, ref)
        s.close()

    def test_executor_pool_reuse(self, rng):
        w = _weight(rng)
        s = api.Session()
        e1 = s.executor(w, 32)
        e2 = s.executor(w, 32)
        assert e1 is e2
        assert isinstance(e1, CompiledSpectralConv1D)
        assert s.executor_pool_size() == 1
        # Different modes (or the symmetric flag) -> a second executor.
        s.executor(w, 16)
        s.executor(w, 32, symmetric=True)
        assert s.executor_pool_size() == 3
        s.close()

    def test_infer_many_bit_identical_to_serial(self, rng):
        w = _weight(rng)
        reqs = _requests(rng, w)
        s = api.Session()
        serial = [s.infer(m, x) for m, x in reqs]
        for max_batch in (1, 4, 7, 64):
            batched = s.infer_many(reqs, max_batch=max_batch)
            assert all(
                np.array_equal(a, b) for a, b in zip(serial, batched)
            ), f"max_batch={max_batch}"
        s.close()

    def test_infer_many_threaded_stress(self, rng):
        """Satellite: threaded infer_many == serial, bit-for-bit, on a
        mixed-geometry mixed-model stream."""
        w1, w2 = _weight(rng), _weight(rng)
        reqs = _requests(rng, w1, n_requests=40) + _requests(
            rng, w2, n_requests=40, geometries=((64, 16), (512, 64))
        )
        s = api.Session()
        serial = [s.infer(m, x) for m, x in reqs]
        for workers in (2, 4, 8):
            got = s.infer_many(reqs, max_batch=5, workers=workers)
            assert all(
                np.array_equal(a, b) for a, b in zip(serial, got)
            ), f"workers={workers}"
        s.close()

    def test_infer_many_respects_max_batch(self, rng):
        w = _weight(rng)
        reqs = _requests(rng, w, n_requests=20,
                         geometries=((128, 32),))  # one geometry
        s = api.Session()
        s.infer_many(reqs, max_batch=8)
        stats = s.stats()
        geo = stats["per_geometry"]["8x128"]
        assert geo["requests"] == 20
        assert geo["batches"] == 3  # ceil(20 / 8)
        s.close()

    def test_infer_many_serves_non_square_model(self, rng):
        """A C_in != C_out layer: each request is a one-step stream, so
        no shape-preserving check applies; bits and per-geometry
        accounting match serial infer."""
        w = ((rng.standard_normal((8, 4))
              + 1j * rng.standard_normal((8, 4))) / 8).astype(np.complex64)
        reqs = _requests(rng, w, n_requests=20, geometries=((128, 32),))
        with api.Session() as serial_session:
            serial = [serial_session.infer(m, x) for m, x in reqs]
        with api.Session() as s:
            got = s.infer_many(reqs, max_batch=8)
            geo = s.stats()["per_geometry"]["8x128"]
            rollout = s.stats()["rollout"]
        assert all(a.shape == (2, 4, 128) for a in got)
        assert all(np.array_equal(a, b) for a, b in zip(serial, got))
        assert geo["requests"] == 20
        assert geo["batches"] == 3  # ceil(20 / 8)
        assert rollout == {"streams": 0, "steps": 0}

    def test_infer_many_rejects_bad_max_batch(self, rng):
        s = api.Session()
        with pytest.raises(ValueError, match="max_batch"):
            s.infer_many([], max_batch=0)
        s.close()

    @pytest.mark.parametrize("value", [2.5, "3", None])
    def test_non_integer_counts_are_rejected(self, rng, value):
        """``steps`` and ``max_batch`` must be integers: 2.5 used to
        flush groups at 3 or leak a raw ``range()`` error."""
        model = api.SpectralModel(_weight(rng), 16)
        x = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with api.Session() as s:
            with pytest.raises(TypeError, match="max_batch must be an int"):
                s.infer_many([(model, x)] * 3, max_batch=value)
            with pytest.raises(TypeError, match="max_batch must be an int"):
                s.rollout(model, x, steps=2, max_batch=value)
            with pytest.raises(TypeError, match="steps must be an integer"):
                s.rollout(model, x, steps=value)
            with pytest.raises(TypeError, match="steps must be an integer"):
                s.rollout_many([(model, x)], steps=value, profile="fast")
            assert s.stats()["requests"] == 0
            out = s.rollout(model, x, steps=np.int64(2), max_batch=np.int8(3))
        assert out.shape == x.shape

    def test_infer_nn_module_under_session(self, rng):
        """A repro.nn model serves through the session (activation
        scope) and micro-batches bit-identically."""
        model = FNO1d(2, 1, width=8, modes=4, depth=2, per_mode=False)
        xs = [rng.standard_normal((2, 2, 32)) for _ in range(6)]
        reqs = [(model, x) for x in xs]
        s = api.Session()
        serial = [s.infer(model, x) for model, x in reqs]
        batched = s.infer_many(reqs, max_batch=3)
        assert all(np.array_equal(a, b) for a, b in zip(serial, batched))
        # and matches the bare forward pass
        assert np.array_equal(serial[0], model(xs[0]))
        s.close()

    def test_infer_nn_module_threaded_serialises(self, rng):
        """Stateful nn models serialise under workers > 1 — concurrent
        forwards on one module would corrupt its cached state."""
        model = FNO1d(2, 1, width=8, modes=4, depth=1, per_mode=False)
        reqs = [(model, rng.standard_normal((1, 2, 32)))
                for _ in range(12)]
        s = api.Session()
        serial = [s.infer(m, x) for m, x in reqs]
        threaded = s.infer_many(reqs, max_batch=2, workers=4)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
        s.close()

    def test_unsupported_model_rejected(self):
        s = api.Session()
        with pytest.raises(TypeError, match="cannot serve model"):
            s.infer(object(), np.zeros((1, 2, 16)))
        s.close()

    def test_worker_error_propagates(self, rng):
        s = api.Session()
        bad = [((None,), np.zeros((1, 2, 16)))] * 4  # 1-tuple: not a model
        with pytest.raises(TypeError):
            s.infer_many(bad, max_batch=1, workers=2)
        s.close()


class TestOneServingPath:
    """``infer_many`` and ``rollout`` share one grouped engine: a plain
    request is a one-step exact stream, and only ``rollout`` counts as
    rollout traffic."""

    #: kind -> (C_in, C_out, spatial, modes)
    KINDS = {
        "square-1d": (8, 8, (64,), 16),
        "narrow-1d": (8, 4, (64,), 16),
        "wide-1d": (4, 8, (64,), 16),
        "square-2d": (8, 8, (32, 32), (8, 8)),
        "narrow-2d": (8, 4, (32, 32), (8, 8)),
    }

    def _streams(self, rng, kind, n=7):
        c_in, c_out, spatial, modes = self.KINDS[kind]
        w = ((rng.standard_normal((c_in, c_out))
              + 1j * rng.standard_normal((c_in, c_out))) / c_in
             ).astype(np.complex64)
        model = api.SpectralModel(w, modes)
        # Batch sizes 1 and 2 interleaved: grouped streams concatenate
        # rows of unequal counts.
        return [
            (model, rng.standard_normal((1 + i % 2, c_in, *spatial))
             .astype(np.float32))
            for i in range(n)
        ], c_out

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_infer_many_is_one_step_rollout(self, rng, backend, kind):
        streams, c_out = self._streams(rng, kind)
        with api.Session(backend=backend, private_caches=True) as s:
            serial = [s.infer(m, x) for m, x in streams]
            many = s.infer_many(streams, max_batch=3)
            one_step = s.rollout(streams=streams, steps=1, max_batch=3)
        for x, ref, a, b in zip([x for _, x in streams], serial, many,
                                one_step, strict=True):
            assert a.shape == (x.shape[0], c_out, *x.shape[2:])
            assert a.dtype == ref.dtype == b.dtype
            assert np.array_equal(a, ref)
            assert np.array_equal(b, ref)

    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_infer_many_accounting_independent_of_workers(self, rng,
                                                          workers):
        w = _weight(rng)
        reqs = _requests(rng, w, n_requests=20)
        with api.Session() as serial_session:
            serial = [serial_session.infer(m, x) for m, x in reqs]
        with api.Session() as s:
            got = s.infer_many(reqs, max_batch=4, workers=workers,
                               queue_depth=1)
            stats = s.stats()
        assert all(np.array_equal(a, b) for a, b in zip(serial, got))
        for geometry in ("8x128", "8x256"):
            geo = stats["per_geometry"][geometry]
            assert geo["requests"] == 10
            assert geo["batches"] == 3  # ceil(10 / 4)
        assert stats["rollout"] == {"streams": 0, "steps": 0}

    @pytest.mark.parametrize("steps", [1, 3])
    def test_only_rollout_counts_streams(self, rng, steps):
        streams, _ = self._streams(rng, "square-1d", n=3)
        with api.Session() as s:
            s.infer_many(streams)
            assert s.stats()["rollout"] == {"streams": 0, "steps": 0}
            s.rollout(*streams[0], steps=steps)
            assert s.stats()["rollout"] == {"streams": 1, "steps": steps}
            s.rollout_many(streams, steps=steps)
            assert s.stats()["rollout"] == {"streams": 4,
                                            "steps": 4 * steps}
            s.infer_many(streams)
            assert s.stats()["rollout"]["streams"] == 4

    def test_rollout_step_records_one_request_per_stream(self, rng):
        """The engine records one request per stream per step, however
        many rows each stream carries."""
        w = _weight(rng)
        model = api.SpectralModel(w, 16)
        streams = [(model, rng.standard_normal((3, 8, 64))
                    .astype(np.float32)) for _ in range(2)]
        with api.Session() as s:
            s.rollout(streams=streams, steps=2)
            geo = s.stats()["per_geometry"]["8x64"]
        assert geo["requests"] == 4  # 2 streams x 2 steps
        assert geo["batches"] == 2  # one grouped executor call per step

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("modes,grid", [(2, (8,)), ((1, 2), (1, 8))])
    def test_grouped_one_row_symmetric_requests_equal_serial_infer(
            self, backend, modes, grid):
        """One-row symmetric requests (B = C = 1, two kept modes, and a
        2-D grid of one row that the plane drivers do not cover) end in
        a one-row C2R call, whose tail product NumPy forms unfused:
        grouped, each request still gets its serial bits, in
        ``infer_many`` and in every step of an exact rollout."""
        def same(a, b):
            return a.dtype == b.dtype and a.tobytes() == b.tobytes()

        with api.Session(backend=backend, private_caches=True) as s:
            for seed in range(20):
                rng = np.random.default_rng(seed)
                w = (rng.standard_normal((1, 1))
                     + 1j * rng.standard_normal((1, 1))).astype(np.complex64)
                model = api.SpectralModel(w, modes, symmetric=True)
                streams = [(model, rng.standard_normal((1, 1, *grid))
                            .astype(np.float32)) for _ in range(3)]
                once = [s.infer(model, x) for _, x in streams]
                twice = [s.infer(model, y) for y in once]
                many = s.infer_many(streams)
                last = s.rollout(streams=streams, steps=2)
                trajectory = s.rollout(streams=streams, steps=2, keep="all")
                for i in range(3):
                    assert same(many[i], once[i]), (seed, i)
                    assert same(last[i], twice[i]), (seed, i)
                    assert same(trajectory[i],
                                np.stack([once[i], twice[i]])), (seed, i)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_grouped_one_row_symmetric_layers_equal_serial_infer(
            self, backend, dim):
        """One-row requests (B = C = 1, two kept modes) of a symmetric
        nn layer, grouped, get their serial ``infer`` bits in
        ``infer_many`` and in every step of an exact rollout, although
        the layer's one-row C2R call forms its tail product unfused;
        each step still records one batch for the group."""
        from repro.nn.modules import SpectralConv1d, SpectralConv2d

        def same(a, b):
            return a.dtype == b.dtype and a.tobytes() == b.tobytes()

        grid = (8,) if dim == 1 else (1, 8)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            layer = (SpectralConv1d(1, 1, 2, rng, symmetric=True)
                     if dim == 1 else
                     SpectralConv2d(1, 1, 1, 2, rng, symmetric=True))
            streams = [(layer, rng.standard_normal((1, 1, *grid))
                        .astype(np.float32)) for _ in range(3)]
            with api.Session(backend=backend, private_caches=True) as s:
                once = [s.infer(layer, x) for _, x in streams]
                twice = [s.infer(layer, y) for y in once]
                many = s.infer_many(streams)
                last = s.rollout(streams=streams, steps=2)
                trajectory = s.rollout(streams=streams, steps=2, keep="all")
                geo = s.stats()["per_geometry"]["x".join(map(str,
                                                             (1, *grid)))]
            for i in range(3):
                assert same(many[i], once[i]), (seed, i)
                assert same(last[i], twice[i]), (seed, i)
                assert same(trajectory[i], np.stack([once[i], twice[i]])), (
                    seed, i)
            # 6 serial calls, then one batch per step of each grouped call.
            assert geo["batches"] == 6 + 1 + 2 + 2
            assert geo["requests"] == 6 + 3 * (1 + 2 + 2)

    def test_check_rtol_reference_is_not_traffic(self, rng):
        """``check_rtol``'s exact reference loop records nothing: a fast
        rollout counts its own steps only, with or without the check,
        and the latency reservoirs hold only its samples (equal shares
        of its one executor call)."""
        model = api.SpectralModel(_weight(rng, 1), 4, symmetric=True)
        x = rng.standard_normal((2, 1, 16)).astype(np.float32)
        for check in (None, 1e-3):
            with api.Session() as s:
                s.rollout(model, x, steps=4, profile="fast",
                          check_rtol=check)
                geo = s.stats()["per_geometry"]["1x16"]
                reservoirs = [s._latency,
                              next(iter(s._geometry_stats.values())).latency]
            assert geo["requests"] == 4 and geo["batches"] == 4, check
            for reservoir in reservoirs:
                assert reservoir.count == 4
                assert len(set(reservoir._samples)) == 1

    @pytest.mark.parametrize("profile", ["infer_many", "exact", "fast"])
    @pytest.mark.parametrize("modes,grid,symmetric", [
        (16, (64,), False), (16, (64,), True), ((4, 5), (16, 32), True),
        ((8, 8), (32, 32), False),
    ])
    def test_executor_groups_record_a_batch_per_step(self, rng, profile,
                                                     modes, grid, symmetric):
        """A compiled executor's group runs every step in one call and
        records ``steps`` batches of every stream in the group, under
        each profile: the counts of one executor call per step."""
        model = api.SpectralModel(_weight(rng), modes, symmetric=symmetric)
        streams = [(model, rng.standard_normal((1 + i % 2, 8, *grid))
                    .astype(np.float32)) for i in range(5)]
        steps = 1 if profile == "infer_many" else 3
        with api.Session() as s:
            if profile == "infer_many":
                s.infer_many(streams, max_batch=3)
            else:
                s.rollout(streams=streams, steps=steps, profile=profile,
                          max_batch=3)
            geo = s.stats()["per_geometry"]["x".join(map(str, (8, *grid)))]
        assert geo["requests"] == 5 * steps
        assert geo["batches"] == 2 * steps  # groups of 3 and 2 streams
        assert geo["latency"]["count"] == 2 * steps

    def test_executor_subclass_keeps_its_overrides(self, rng):
        """Only the stock executor classes are served through their
        group hook: a subclass is stepped through its own ``__call__``
        (exact) and ``step_spectrum`` (fast), with the stock bytes."""
        calls = []

        class Counted(CompiledSpectralConv1D):
            def __call__(self, x, xk_trunc=None):
                calls.append("call")
                return super().__call__(x, xk_trunc)

            def step_spectrum(self, sk):
                calls.append("step")
                return super().step_spectrum(sk)

        w = _weight(rng)
        xs = [rng.standard_normal((n, 8, 64)).astype(np.float32)
              for n in (1, 2)]
        counted = Counted(w, 16, symmetric=True)
        stock = CompiledSpectralConv1D(w, 16, symmetric=True)
        with api.Session() as s:
            for profile in ("exact", "fast"):
                calls.clear()
                got = s.rollout(streams=[(counted, x) for x in xs],
                                steps=3, profile=profile)
                assert calls == ["call" if profile == "exact"
                                 else "step"] * 3
                want = s.rollout(streams=[(stock, x) for x in xs], steps=3,
                                 profile=profile)
                for a, b in zip(got, want, strict=True):
                    assert a.tobytes() == b.tobytes()

    def test_infer_many_serves_low_rank_callable(self, rng):
        """``infer_many`` serves opaque callables of any rank; only
        ``rollout`` demands a ``(batch, C, *spatial)`` state."""
        def double(x):
            return 2 * x

        reqs = [(double, rng.standard_normal(n)) for n in (3, 1, 2)]
        with api.Session() as s:
            got = s.infer_many(reqs)
            with pytest.raises(ValueError, match="rollout state"):
                s.rollout(double, reqs[0][1], steps=1)
        for (_, x), out in zip(reqs, got, strict=True):
            assert np.array_equal(out, 2 * x)


class TestDtypePolicy:
    def test_float64_policy_promotes(self, rng):
        w = _weight(rng)
        x = (rng.standard_normal((2, 8, 64))
             + 1j * rng.standard_normal((2, 8, 64))).astype(np.complex64)
        s = api.Session(dtype_policy="float64")
        got = s.infer((w, 16), x)
        ref = api.spectral_conv(x.astype(np.complex128), w, 16)
        assert got.dtype == np.complex128
        assert np.array_equal(got, ref)
        s.close()

    def test_float32_policy_demotes_real_input(self, rng):
        w = _weight(rng)
        x = rng.standard_normal((2, 8, 64))  # float64 request
        s = api.Session(dtype_policy="float32")
        got = s.infer((w, 16), x)
        ref = api.spectral_conv(x.astype(np.float32), w, 16)
        assert np.array_equal(got, ref)
        s.close()

    def test_preserve_policy_is_default(self, rng):
        s = api.Session()
        assert s.dtype_policy == "preserve"
        s.close()


class TestWarmupAndStats:
    def test_warmup_precompiles_fft_plans(self):
        s = api.Session(private_caches=True)
        report = s.warmup([PROB_1D, PROB_2D])
        assert report["problems"] == 2
        assert report["plans"] == 2
        assert report["fft_plans"] > 0
        # A second warmup of the same problems adds nothing.
        again = s.warmup([PROB_1D, PROB_2D])
        assert again["fft_plans"] == 0
        s.close()

    def test_warmup_makes_first_infer_hit_caches(self, rng):
        """After ``warmup`` a first ``infer`` builds no plan: kept modes
        below the length, ``modes == dim_x`` in 1-D, and a 2-D problem
        whose fused Y stage keeps every bin (``modes_y == Y``)."""
        w = _weight(rng, k=64)
        cases = [
            (FNO1DProblem(batch=4, hidden=64, dim_x=128, modes=64), 64),
            (FNO1DProblem(batch=4, hidden=64, dim_x=128, modes=128), 128),
            (FNO2DProblem(batch=2, hidden=64, dim_x=32, dim_y=16,
                          modes_x=8, modes_y=16), (8, 16)),
        ]
        for prob, modes in cases:
            s = api.Session(private_caches=True)
            s.warmup([prob])
            before = s.plan_caches.cache_info()
            shape = (prob.batch, 64) + tuple(prob.spatial_shape)
            x = (rng.standard_normal(shape)
                 + 1j * rng.standard_normal(shape)).astype(np.complex64)
            s.infer((w, modes), x)
            after = s.plan_caches.cache_info()
            # no new FFT-plan construction: every lookup was a hit
            assert sum(i.currsize for i in after) == sum(
                i.currsize for i in before
            ), prob
            s.close()

    def test_stats_shape(self, rng):
        w = _weight(rng)
        s = api.Session(backend="numpy")
        s.infer_many(_requests(rng, w, n_requests=8), max_batch=4)
        stats = s.stats()
        assert stats["backend"] == "numpy"
        assert stats["requests"] == 8
        assert stats["batches"] == 2  # two geometries, 4 requests each
        assert stats["executor_pool"] == 1
        for geo in stats["per_geometry"].values():
            assert geo["requests_per_s"] is None or geo["requests_per_s"] > 0
        import json
        json.dumps(stats)  # JSON-ready
        s.close()

    def test_reports_carry_no_tuner_fields(self):
        """Tiles are fixed per executor: neither report has a tuner."""
        s = api.Session(private_caches=True)
        assert set(s.warmup([PROB_1D])) == {"problems", "plans", "fft_plans"}
        assert "autotune" not in s.stats()
        s.close()

    def test_stats_report_every_fft_plan_cache(self, rng):
        """All four plan families appear in ``fft_plan_caches``: a
        symmetric real layer is served by the pruned-R2C family, whose
        counters must not be dropped."""
        model = api.SpectralModel(_weight(rng), 16, symmetric=True)
        x = rng.standard_normal((2, 8, 128)).astype(np.float32)
        s = api.Session(private_caches=True)
        s.infer(model, x)
        caches = s.stats()["fft_plan_caches"]
        assert list(caches) == ["fft", "pruned", "real", "pruned_real"]
        for (name, entry), info in zip(caches.items(),
                                       s.plan_caches.cache_info()):
            assert entry == {"hits": info.hits, "misses": info.misses,
                             "currsize": info.currsize}, name
        assert caches["pruned_real"]["misses"] > 0
        s.close()


class TestThreadedStatsConsistency:
    """Satellite: per-geometry serving counters stay consistent under
    threaded ``infer_many`` stress.

    Across any interleaving of worker threads, ``requests`` equals the
    number of requests served, both in total and summed over the
    per-geometry entries — a torn counter breaks one of them.
    """

    def test_threaded_infer_many_stress(self, rng):
        w = _weight(rng)
        geometries = ((64, 16), (32, 8))
        s = api.Session(private_caches=True)
        reqs = _requests(rng, w, n_requests=24, batch=2,
                         geometries=geometries)
        serial = s.infer_many(reqs, max_batch=4)
        threads = 4
        rounds = 3
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(idx: int) -> None:
            try:
                out = []
                for _ in range(rounds):
                    out.append(s.infer_many(reqs, max_batch=4, workers=2))
                results[idx] = out
            except BaseException as exc:  # pragma: no cover - fail fast
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors
        for out_rounds in results.values():
            for outs in out_rounds:
                assert all(
                    np.array_equal(a, b) for a, b in zip(outs, serial)
                )
        stats = s.stats()
        total_requests = len(reqs) * (1 + threads * rounds)
        assert stats["requests"] == total_requests
        per_geo_requests = sum(
            g["requests"] for g in stats["per_geometry"].values()
        )
        assert per_geo_requests == total_requests
        assert len(stats["per_geometry"]) == len(geometries)
        s.close()


class TestReproWorkersOverride:
    """Satellite: REPRO_WORKERS pins sweep parallelism."""

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", " 12 ")
        assert default_workers() == 12

    def test_unset_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1

    @pytest.mark.parametrize("bad", ["zero", "", "1.5", "-2", "0"])
    def test_invalid_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()


class TestRunnerSessionBinding:
    def test_runner_plans_through_session(self):
        s = api.Session()
        runner = api.Runner(session=s)
        p = runner.plan(PROB_1D, "D")
        assert p is s.plan(PROB_1D, "D")
        assert runner.config is s.config and runner.device is s.device
        s.close()

    def test_for_session_constructor(self):
        s = api.Session(device="h100")
        runner = api.Runner.for_session(s)
        assert runner.device.name.startswith("H100")
        assert runner.plan(PROB_1D, "D") is s.plan(PROB_1D, "D")
        s.close()

    def test_sweep_values_match_unbound_runner(self):
        s = api.Session()
        probs = [FNO1DProblem(batch=b, hidden=32, dim_x=128, modes=64)
                 for b in (16, 64)]
        bound = api.Runner(session=s).sweep(probs, ("A", "D"))
        unbound = api.Runner().sweep(probs, ("A", "D"))
        assert bound == unbound
        s.close()


class TestTrainerSessionInjection:
    def test_training_under_session_matches_unbound(self, rng):
        from repro.nn.optim import Adam
        from repro.nn.trainer import evaluate, train

        x = rng.standard_normal((8, 2, 32))
        y = rng.standard_normal((8, 1, 32))

        def run(session):
            model = FNO1d(2, 1, width=8, modes=4, depth=1, per_mode=False,
                          seed=7)
            opt = Adam(model.parameters(), lr=1e-3)
            hist = train(model, opt, x, y, epochs=2, batch_size=4,
                         session=session)
            return hist.train_loss, evaluate(model, x, y, session=session)

        s = api.Session(backend="numpy", private_caches=True)
        bound_losses, bound_eval = run(s)
        # the session's private caches actually served the training FFTs
        assert sum(i.currsize for i in s.plan_caches.cache_info()) > 0
        s.close()
        unbound_losses, unbound_eval = run(None)
        assert bound_losses == unbound_losses
        assert bound_eval == unbound_eval

    def test_activate_scopes_plan_lookups(self):
        s = api.Session(backend="numpy")
        with s.activate():
            assert current_plan_caches() is s.plan_caches
        assert current_plan_caches() is default_plan_caches()
        s.close()
