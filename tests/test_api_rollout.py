"""Tests for ``Session.rollout`` / ``ServePool.rollout``: spectrum-
resident autoregressive rollout serving.

Covers the tentpole acceptance bar — the default (exact) rollout is
bit-identical to the eager per-step ``infer`` loop on every backend —
plus the fast profile's tolerance contract (spectrum-resident stepping
agrees with the exact loop within ``check_rtol`` for every convention
that has a spectrum-resident form, and refuses the ones that don't),
multi-stream micro-batching, keep="all" trajectories, the
``LatencyReservoir`` percentile surfaces in both ``Session.stats()``
and ``ServePool.stats()``, and the serving-layer satellite bugfixes
(``infer_many(queue_depth=0)`` validation, the ``default_session``
double-checked-locking race).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import api
from repro.api import LatencyReservoir, Session, SpectralModel
from repro.api.serve import ServePool
from repro.core.compiled import compile_spectral_conv
from repro.fft._ckernels import kernels_available
from repro.nn.fno import FNO1d, FNO2d
from repro.nn.modules import SpectralConv1d, SpectralConv2d

BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]


def _weight(rng, k=8):
    return ((rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            / k).astype(np.complex64)


def _eager(session, model, x0, steps):
    state = x0
    for _ in range(steps):
        state = session.infer(model, state)
    return state


class TestExactBitIdentity:
    """The acceptance bar: exact rollout == eager per-step loop, bitwise."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_executor_1d(self, rng, backend, symmetric):
        w = _weight(rng)
        model = SpectralModel(w, 16, symmetric=symmetric)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session(backend=backend, private_caches=True) as s:
            out = s.rollout(model, x0, steps=5)
            ref = _eager(s, model, x0, 5)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_executor_2d(self, rng, backend, symmetric):
        w = _weight(rng)
        model = SpectralModel(w, (8, 8), symmetric=symmetric)
        x0 = rng.standard_normal((2, 8, 32, 32)).astype(np.float32)
        with Session(backend=backend, private_caches=True) as s:
            out = s.rollout(model, x0, steps=4)
            ref = _eager(s, model, x0, 4)
        assert np.array_equal(out, ref)

    def test_opaque_callable(self, rng):
        model = FNO2d(1, 1, width=8, modes_x=4, modes_y=4, depth=2, seed=0)
        x0 = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        with Session() as s:
            out = s.rollout(model, x0, steps=3)
            ref = _eager(s, model, x0, 3)
        assert np.array_equal(out, ref)

    def test_keep_all_trajectory(self, rng):
        w = _weight(rng)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            traj = s.rollout(model, x0, steps=4, keep="all")
            assert traj.shape == (4, 2, 8, 64)
            state = x0
            for i in range(4):
                state = s.infer(model, state)
                assert np.array_equal(traj[i], state)

    def test_multi_stream_bit_identical(self, rng):
        """Micro-batched concurrent streams match solo rollouts exactly
        (row independence along the batch axis)."""
        w = _weight(rng)
        model = SpectralModel(w, 16)
        streams = [
            (model, rng.standard_normal((1, 8, 64)).astype(np.float32))
            for _ in range(5)
        ]
        with Session() as s:
            many = s.rollout(streams=streams, steps=4, workers=3)
            for (m, x0), out in zip(streams, many):
                assert np.array_equal(out, s.rollout(m, x0, steps=4))

    def test_rollout_many_alias(self, rng):
        w = _weight(rng)
        model = SpectralModel(w, 16)
        streams = [
            (model, rng.standard_normal((1, 8, 64)).astype(np.float32))
            for _ in range(3)
        ]
        with Session() as s:
            a = s.rollout_many(streams, steps=3)
            b = s.rollout(streams=streams, steps=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestFastProfile:
    """Spectrum-resident stepping: close to exact where it's defined,
    refused with a clear error where it isn't."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_executor_1d_close(self, rng, backend, symmetric):
        w = _weight(rng)
        model = SpectralModel(w, 16, symmetric=symmetric)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session(backend=backend, private_caches=True) as s:
            # check_rtol makes the session itself re-run the exact loop
            # and raise on divergence.
            s.rollout(model, x0, steps=6, profile="fast", check_rtol=1e-3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_executor_2d_close(self, rng, backend, symmetric):
        w = _weight(rng)
        model = SpectralModel(w, (8, 8), symmetric=symmetric)
        x0 = rng.standard_normal((2, 8, 32, 32)).astype(np.float32)
        with Session(backend=backend, private_caches=True) as s:
            s.rollout(model, x0, steps=6, profile="fast", check_rtol=1e-3)

    def test_symmetric_layers_close(self, rng):
        x1 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        x2 = rng.standard_normal((2, 8, 32, 32)).astype(np.float32)
        l1 = SpectralConv1d(8, 8, 16, rng, symmetric=True)
        l2 = SpectralConv2d(8, 8, 8, 8, rng, symmetric=True)
        with Session() as s:
            s.rollout(l1, x1, steps=6, profile="fast", check_rtol=1e-4)
            s.rollout(l2, x2, steps=6, profile="fast", check_rtol=1e-4)

    def test_fast_keep_all_matches_eager_outputs(self, rng):
        """Intermediate states synthesize from the pre-projection
        spectrum — each kept frame must track the eager loop, not just
        the final state."""
        w = _weight(rng)
        model = SpectralModel(w, 16, symmetric=True)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            fast = s.rollout(model, x0, steps=4, keep="all", profile="fast")
            exact = s.rollout(model, x0, steps=4, keep="all")
        for f, e in zip(fast, exact):
            np.testing.assert_allclose(f, e, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("keep", ["last", "all"])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_no_reanalysis_after_the_last_step(self, rng, monkeypatch,
                                               steps, keep):
        """``steps`` steps make ``steps - 1`` reanalyses, through the
        executor and the nn-layer branch, and keep the states of a loop
        that reanalyses after every step, bit for bit."""
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        executor = compile_spectral_conv(_weight(rng), 16, symmetric=True)
        layer = SpectralConv1d(8, 8, 16, rng, symmetric=True)
        for model, (fwd, step, inv) in (
                (executor, ("forward_spectrum", "step_spectrum",
                            "inverse_spectrum")),
                (layer, ("spectrum", "apply_modes", "from_spectrum"))):
            fwd, step, inv = (getattr(model, name) for name in (fwd, step,
                                                                inv))
            sk, ref = fwd(x0), []
            for _ in range(steps):
                yk = step(sk)
                ref.append(inv(yk, 64))
                sk = model.reanalyze_spectrum(yk, 64)
            calls = []
            real = model.reanalyze_spectrum

            def spy(*args, real=real):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(model, "reanalyze_spectrum", spy)
            with Session() as s:
                out = s.rollout(model, x0, steps=steps, keep=keep,
                                profile="fast")
            assert len(calls) == steps - 1
            assert np.array_equal(out, np.stack(ref) if keep == "all"
                                  else ref[-1])

    @pytest.mark.parametrize("profile", ["exact", "fast"])
    @pytest.mark.parametrize("layer_args", [
        (SpectralConv1d, (4, 4, 9), (2, 4, 16)),
        (SpectralConv1d, (4, 4, 12), (2, 4, 16)),
        (SpectralConv2d, (4, 4, 4, 9), (2, 4, 16, 16)),
    ])
    def test_symmetric_layer_modes_beyond_half_grid_refused(
        self, rng, profile, layer_args
    ):
        """Both profiles share the layer's one modes-vs-grid check: the
        fast profile used to serve a filter built from a silently
        shortened half spectrum."""
        cls, args, shape = layer_args
        layer = cls(*args, rng, per_mode=False, symmetric=True)
        x0 = rng.standard_normal(shape)
        with Session() as s:
            with pytest.raises(ValueError, match="symmetric filtering"):
                s.rollout(layer, x0, steps=3, profile=profile)

    def test_refuses_nonsymmetric_layer(self, rng):
        layer = SpectralConv1d(8, 8, 16, rng, symmetric=False)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="exact"):
                s.rollout(layer, x0, steps=2, profile="fast")

    def test_refuses_opaque_callable(self, rng):
        model = FNO1d(1, 1, width=8, modes=4, depth=2, seed=0)
        x0 = rng.standard_normal((1, 1, 32)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="exact"):
                s.rollout(model, x0, steps=2, profile="fast")

    def test_refuses_rectangular_weight(self, rng):
        w = ((rng.standard_normal((8, 4))
              + 1j * rng.standard_normal((8, 4))) / 8).astype(np.complex64)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="square"):
                s.rollout(model, x0, steps=2, profile="fast")

    def test_check_rtol_requires_fast(self, rng):
        w = _weight(rng)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="check_rtol"):
                s.rollout(SpectralModel(w, 16), x0, steps=2,
                          check_rtol=1e-3)


class TestRolloutValidation:
    def test_rejects_bad_args(self, rng):
        w = _weight(rng)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="steps"):
                s.rollout(model, x0, steps=0)
            with pytest.raises(ValueError, match="profile"):
                s.rollout(model, x0, steps=1, profile="warp")
            with pytest.raises(ValueError, match="keep"):
                s.rollout(model, x0, steps=1, keep="none")
            with pytest.raises(ValueError, match="streams"):
                s.rollout(model, x0, steps=1, streams=[(model, x0)])
            with pytest.raises(ValueError, match="streams"):
                s.rollout(steps=1)

    def test_one_step_of_shape_changing_model_is_infer(self, rng):
        """The shape check guards only an output that feeds a further
        step: a one-step stream of a non-square layer is ``infer``."""
        w = ((rng.standard_normal((8, 4))
              + 1j * rng.standard_normal((8, 4))) / 8).astype(np.complex64)
        model = SpectralModel(w, 16)  # 8 channels in, 4 out
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            want = s.infer(model, x0)
            got = s.rollout(model, x0, steps=1)
            trajectory = s.rollout(model, x0, steps=1, keep="all")
        assert got.shape == (2, 4, 64)
        assert np.array_equal(got, want)
        assert np.array_equal(trajectory, want[None])

    def test_rejects_shape_changing_model(self, rng):
        w = ((rng.standard_normal((8, 4))
              + 1j * rng.standard_normal((8, 4))) / 8).astype(np.complex64)
        model = SpectralModel(w, 16)  # 8 channels in, 4 out
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="shape-preserving"):
                s.rollout(model, x0, steps=2)

    @pytest.mark.parametrize("steps", [3, 5])
    @pytest.mark.parametrize("keep", ["last", "all"])
    def test_shape_check_guards_every_fed_step(self, rng, steps, keep):
        """Any stream longer than one step fails on a shape-changing
        model, whatever it keeps, and a failed call counts no rollout."""
        w = ((rng.standard_normal((8, 4))
              + 1j * rng.standard_normal((8, 4))) / 8).astype(np.complex64)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="shape-preserving"):
                s.rollout(model, x0, steps=steps, keep=keep)
            assert s.stats()["rollout"] == {"streams": 0, "steps": 0}

    @pytest.mark.parametrize("shape", [(64,), (8, 64)])
    def test_rejects_low_rank_state(self, rng, shape):
        model = SpectralModel(_weight(rng), 16)
        x0 = rng.standard_normal(shape).astype(np.float32)
        with Session() as s:
            with pytest.raises(ValueError, match="rollout state"):
                s.rollout(model, x0, steps=1)
            with pytest.raises(ValueError, match="rollout state"):
                s.rollout(streams=[(model, x0)], steps=2)


class TestLatencyReservoir:
    def test_empty(self):
        r = LatencyReservoir()
        p = r.percentiles()
        assert p["count"] == 0 and p["samples"] == 0
        assert p["p50"] is None and p["p95"] is None and p["p99"] is None

    def test_bounded_and_deterministic(self):
        r = LatencyReservoir(capacity=16)
        for i in range(1000):
            r.record(float(i))
        p = r.percentiles()
        assert p["count"] == 1000
        assert p["samples"] == 16
        assert 0.0 <= p["p50"] <= 999.0
        assert p["p50"] <= p["p95"] <= p["p99"]
        # Seeded Algorithm R: two identical runs sample identically.
        r2 = LatencyReservoir(capacity=16)
        for i in range(1000):
            r2.record(float(i))
        assert r2.percentiles() == p

    @pytest.mark.parametrize("capacity,before", [(8, 0), (8, 5), (8, 30),
                                                 (64, 3)])
    def test_counted_record_equals_single_records(self, capacity, before):
        """``record(s, n)`` fills and replaces exactly as ``n`` single
        calls, sample for sample, from an empty, a partly filled and a
        full reservoir, and leaves the RNG where they leave it."""
        batched, single = (LatencyReservoir(capacity=capacity)
                           for _ in range(2))
        for i in range(before):
            batched.record(float(i))
            single.record(float(i))
        for value, n in ((0.5, 1), (1.5, 7), (2.5, 0), (3.5, 40)):
            batched.record(value, n)
            for _ in range(n):
                single.record(value)
            assert batched.count == single.count
            assert batched._samples == single._samples
        assert batched._rng.random() == single._rng.random()

    def test_session_stats_surfaces(self, rng):
        w = _weight(rng)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((2, 8, 64)).astype(np.float32)
        with Session() as s:
            s.rollout(model, x0, steps=3)
            s.infer(model, x0)
            stats = s.stats()
        top = stats["latency"]
        assert set(top) == {"p50", "p95", "p99", "samples", "count"}
        assert top["count"] == 4  # 3 rollout steps + 1 infer
        assert top["p50"] is not None and top["p50"] > 0
        geo = next(iter(stats["per_geometry"].values()))
        assert set(geo["latency"]) == {"p50", "p95", "p99", "samples",
                                       "count"}
        assert geo["latency"]["count"] == 4
        assert stats["rollout"] == {"streams": 1, "steps": 3}


class TestServePoolRollout:
    def test_bit_identity_and_stats(self, rng):
        w = _weight(rng)
        model = SpectralModel(w, 16)
        streams = [
            (model, rng.standard_normal((1, 8, 64)).astype(np.float32))
            for _ in range(4)
        ]
        with Session() as s:
            refs = s.rollout_many(streams, steps=5)
        with ServePool(workers=2, backend="numpy") as pool:
            outs = pool.rollout_many(streams, steps=5, timeout=120)
            single = pool.rollout(model, streams[0][1], steps=5,
                                  timeout=120)
            stats = pool.stats()
        for ref, out in zip(refs, outs):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)
        assert np.array_equal(single, refs[0])
        assert stats["rollout"] == {"streams": 5, "steps": 25}
        top = stats["latency"]
        assert set(top) == {"p50", "p95", "p99", "samples", "count"}
        assert top["count"] == 5 and top["p50"] > 0
        geo = next(iter(stats["per_geometry"].values()))
        assert geo["latency"]["count"] > 0

    def test_one_drain_mixes_requests_and_streams(self, rng):
        """Plain requests (one non-square) and rollout streams of two
        (steps, profile) pairs share one worker's drain and return the
        in-process Session's bits; only the streams count as rollouts."""
        square = SpectralModel(_weight(rng), 16)
        narrow = SpectralModel(
            ((rng.standard_normal((8, 4))
              + 1j * rng.standard_normal((8, 4))) / 8).astype(np.complex64),
            16,
        )

        def x():
            return rng.standard_normal((1, 8, 64)).astype(np.float32)

        plain = [(square, x()), (narrow, x()), (square, x())]
        exact = [(square, x()) for _ in range(2)]
        fast = [(square, x()) for _ in range(2)]
        with Session(backend="numpy") as s:
            want = (
                [s.infer(m, a) for m, a in plain]
                + s.rollout_many(exact, steps=3)
                + s.rollout_many(fast, steps=4, profile="fast")
            )
        with ServePool(workers=1, backend="numpy") as pool:
            futures = [pool.submit(m, a) for m, a in plain[:2]]
            futures += [pool.submit_rollout(m, a, 3) for m, a in exact]
            futures += [pool.submit(*plain[2])]
            futures += [pool.submit_rollout(m, a, 4, profile="fast")
                        for m, a in fast]
            got = [f.result(timeout=120) for f in futures]
            stats = pool.stats()
        got = got[:2] + got[4:5] + got[2:4] + got[5:]
        for ref, out in zip(want, got, strict=True):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)
        assert got[1].shape == (1, 4, 64)
        assert stats["rollout"] == {"streams": 4, "steps": 14}
        assert stats["admission"]["completed"] == 7

    @pytest.mark.parametrize("profile", ["exact", "fast"])
    def test_grouped_streams_bit_identical_to_one_by_one(self, rng,
                                                         profile):
        """``rollout_many`` ships each (model, geometry, dtype) group as
        one header, split at ``max_batch`` streams: mixed geometries,
        batch > 1 streams and fresh model tuples still return each
        stream's solo-rollout bits, and stats count streams."""
        w = _weight(rng)
        streams = []
        for i in range(11):
            n = 64 if i % 3 else 32
            x0 = rng.standard_normal((1 + i % 2, 8, n)).astype(np.float32)
            streams.append(((w, 16), x0))
        with Session(backend="numpy") as s:
            refs = [s.rollout(m, x0, 4, profile=profile)
                    for m, x0 in streams]
        with ServePool(workers=2, backend="numpy", max_batch=3) as pool:
            outs = pool.rollout_many(streams, steps=4, profile=profile,
                                     timeout=120)
            stats = pool.stats()
        for ref, out in zip(refs, outs, strict=True):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)
        # 7 streams of n=64 and 4 of n=32: ceil(7/3) + ceil(4/3) headers.
        headers = sum(worker["session"]["rollout"]["streams"]
                      for worker in stats["per_worker"])
        assert headers == 5
        assert stats["rollout"] == {"streams": 11, "steps": 44}
        assert stats["latency"]["count"] == 11

    def test_stream_routes_to_geometry_shard(self, rng):
        """A whole stream lands on the one shard its geometry hashes
        to — per-geometry stats record exactly one worker."""
        w = _weight(rng)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((1, 8, 64)).astype(np.float32)
        with ServePool(workers=4, backend="numpy") as pool:
            expected = pool.shard_of(model, x0)
            pool.rollout(model, x0, steps=4, timeout=120)
            stats = pool.stats()
        (geo,) = stats["per_geometry"].values()
        assert geo["worker"] == expected

    def test_validation(self, rng):
        w = _weight(rng)
        model = SpectralModel(w, 16)
        x0 = rng.standard_normal((1, 8, 64)).astype(np.float32)
        with ServePool(workers=1, backend="numpy") as pool:
            with pytest.raises(ValueError, match="steps"):
                pool.submit_rollout(model, x0, 0)
            with pytest.raises(ValueError, match="profile"):
                pool.submit_rollout(model, x0, 2, profile="warp")


class TestServingSatelliteFixes:
    def test_infer_many_rejects_queue_depth_zero(self, rng):
        """queue_depth=0 used to coerce falsy to the default, silently
        unbounding the queue; it must raise instead."""
        w = _weight(rng)
        reqs = [(SpectralModel(w, 16),
                 rng.standard_normal((2, 8, 64)).astype(np.float32))]
        with Session() as s:
            with pytest.raises(ValueError, match="queue_depth"):
                s.infer_many(reqs, queue_depth=0)
            with pytest.raises(ValueError, match="queue_depth"):
                s.infer_many(reqs, queue_depth=-1)
            assert len(s.infer_many(reqs, queue_depth=1)) == 1

    def test_default_session_threaded_race(self):
        """Every thread racing default_session() after a close() must
        get the same replacement session (the unlocked ``_closed``
        fast-path read was the bug)."""
        api.default_session().close()
        barrier = threading.Barrier(8)
        seen: list[int] = []
        lock = threading.Lock()

        def grab():
            barrier.wait()
            s = api.default_session()
            with lock:
                seen.append(id(s))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 1
        assert not api.default_session()._closed
