"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.compiled import CompiledSpectralConv1D
from repro.core.config import FNO1DProblem, TurboFNOConfig
from repro.core.dtypes import complex_dtype_for
from repro.core.pipeline_model import build_pipeline_1d, turbo_fft_kernel
from repro.core.stages import FusionStage
from repro.fft.plan import FFTPlan
from repro.fft.pruned import truncated_fft
from repro.gpu.device import A100_SPEC, DeviceSpec
from repro.gpu.kernel import kernel_time
from repro.nn import FNO1d
from repro.pde.darcy import solve_darcy


class TestDegenerateShapes:
    def test_single_signal_single_channel(self, rng):
        x = rng.standard_normal((1, 1, 4)) + 0j
        w = np.ones((1, 1), dtype=complex)
        out = CompiledSpectralConv1D(w, 4)(x)
        assert np.allclose(out, x, atol=1e-10)  # identity low-pass

    def test_modes_equal_one(self, rng):
        """Keeping one bin projects onto the mean (DC) component."""
        x = rng.standard_normal((2, 3, 16)) + 0j
        w = np.eye(3, dtype=complex)
        out = CompiledSpectralConv1D(w, 1)(x)
        expected = np.mean(x, axis=-1, keepdims=True) * np.ones_like(x)
        assert np.allclose(out, expected, atol=1e-10)

    def test_length_two_fft_pipeline(self, rng):
        x = rng.standard_normal((1, 2, 2)) + 0j
        w = np.eye(2, dtype=complex)
        out = CompiledSpectralConv1D(w, 2)(x)
        assert np.allclose(out, x, atol=1e-12)

    def test_wide_output_projection(self, rng):
        """C_out >> C_in works (rectangular weights)."""
        x = rng.standard_normal((2, 2, 8)) + 0j
        w = rng.standard_normal((2, 17)) + 0j
        assert CompiledSpectralConv1D(w, 4)(x).shape == (2, 17, 8)


class TestModelEdgeCases:
    def test_one_block_problem(self):
        """The smallest possible grid still times sanely."""
        prob = FNO1DProblem(batch=1, hidden=1, dim_x=64, modes=64)
        for stage in FusionStage.ladder():
            t = build_pipeline_1d(prob, stage).total_time()
            assert np.isfinite(t) and t > 0

    def test_huge_problem_no_overflow(self):
        prob = FNO1DProblem(batch=2**24, hidden=256, dim_x=256, modes=128)
        t = build_pipeline_1d(prob, FusionStage.FUSED_ALL).total_time()
        assert np.isfinite(t)

    def test_tiny_device(self):
        """A one-SM device model still produces ordered results."""
        dev = DeviceSpec(num_sms=1, fp32_tflops=0.1, dram_bandwidth_gbs=10.0)
        prob = FNO1DProblem(batch=64, hidden=16, dim_x=64, modes=32)
        base = build_pipeline_1d(prob, FusionStage.PYTORCH).total_time(dev)
        fused = build_pipeline_1d(prob, FusionStage.FUSED_ALL).total_time(dev)
        assert base > 0 and fused > 0

    def test_kernel_with_zero_work(self):
        plan = FFTPlan(n=4, batch=1, per_thread=2)
        spec = turbo_fft_kernel(plan, TurboFNOConfig(), "tiny")
        t = kernel_time(spec, A100_SPEC)
        # Launch overhead dominates but is present.
        assert t.total >= A100_SPEC.kernel_launch_overhead_s

    def test_modes_equal_dim_disables_truncation_savings(self):
        full = FNO1DProblem(batch=256, hidden=32, dim_x=128, modes=128)
        trunc = FNO1DProblem(batch=256, hidden=32, dim_x=128, modes=64)
        c_full = build_pipeline_1d(full, FusionStage.FFT_OPT).counters()
        c_trunc = build_pipeline_1d(trunc, FusionStage.FFT_OPT).counters()
        assert c_trunc.global_bytes < c_full.global_bytes


class TestByteOrder:
    """Byte order is storage, not precision: a big-endian float32 input
    computes in complex64 like a native one, with the same bits."""

    @pytest.mark.parametrize("dt, expected", [
        (">f4", np.complex64), ("<f4", np.complex64),
        (">c8", np.complex64), ("<c8", np.complex64),
        (">f8", np.complex128), (">c16", np.complex128),
    ])
    def test_complex_dtype_for_ignores_byte_order(self, dt, expected):
        assert complex_dtype_for(dt) == np.dtype(expected)
        assert complex_dtype_for(np.dtype(dt)) == np.dtype(expected)

    @pytest.mark.parametrize("dt", [">f4", ">c8", ">f8"])
    def test_big_endian_input_serves_like_native(self, rng, dt):
        native = np.dtype(dt).newbyteorder("=")
        x = rng.standard_normal((2, 4, 16)).astype(native)
        w = (rng.standard_normal((4, 4))
             + 1j * rng.standard_normal((4, 4))).astype(
                 complex_dtype_for(native))
        session = Session(private_caches=True)
        try:
            got = session.infer((w, 8), x.astype(dt))
            ref = session.infer((w, 8), x)
        finally:
            session.close()
        assert got.dtype == ref.dtype == complex_dtype_for(native)
        assert np.array_equal(got.view(got.real.dtype),
                              ref.view(ref.real.dtype))


class TestNumericalRobustness:
    def test_fused_with_zero_input(self):
        x = np.zeros((2, 4, 16), dtype=complex)
        w = np.ones((4, 4), dtype=complex)
        out = CompiledSpectralConv1D(w, 8)(x)
        assert np.all(out == 0)

    def test_fused_with_large_magnitudes(self, rng):
        x = (rng.standard_normal((2, 4, 32)) * 1e6) + 0j
        w = np.eye(4, dtype=complex) * 1e-6
        out = CompiledSpectralConv1D(w, 16)(x)
        assert np.all(np.isfinite(out))

    def test_truncated_fft_preserves_nan_policy(self):
        """Garbage in, garbage out — but never silently dropped."""
        x = np.full((1, 16), np.nan, dtype=complex)
        out = truncated_fft(x, 4)
        assert np.isnan(out).all()

    def test_fno_rejects_wrong_channel_count(self, rng):
        model = FNO1d(2, 1, width=4, modes=2, depth=1)
        with pytest.raises(ValueError):
            model(rng.standard_normal((1, 3, 16)))

    def test_darcy_near_singular_contrast(self):
        """Extreme coefficient contrast still solves and stays bounded."""
        a = np.ones((16, 16))
        a[4:12, 4:12] = 1e6
        u = solve_darcy(a, f=1.0)
        assert np.all(np.isfinite(u))
        assert np.all(u >= -1e-12)
        # The stiff inclusion carries almost no gradient.
        assert u[8, 8] == pytest.approx(u[8, 9], abs=1e-4)
