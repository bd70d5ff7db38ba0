"""Property-based tests for the fused operators and the pipeline model.

Hypothesis drives random layer geometries through two invariants:

1. the fused single-kernel dataflow always equals the staged oracle, for
   any tiling of the k-loop, and the legacy loop's bytes at any signal
   tile;
2. along the Table 2 ladder, modelled DRAM traffic and kernel launches are
   monotone non-increasing for *every* problem shape (fusion can cost
   time via recompute, but it never adds memory transactions or
   launches in this model — flops are the currency it spends).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pytorch_fno import pytorch_like_spectral_conv_1d
from repro.core import legacy
from repro.core.compiled import CompiledSpectralConv1D
from repro.core.config import FNO1DProblem, FNO2DProblem
from repro.core.pipeline_model import build_pipeline_1d, build_pipeline_2d
from repro.core.stages import FusionStage


@st.composite
def _layer_1d(draw):
    log_n = draw(st.integers(2, 6))
    dim_x = 2**log_n
    modes = 2 ** draw(st.integers(0, log_n))
    batch = draw(st.integers(1, 4))
    c_in = draw(st.integers(1, 6))
    c_out = draw(st.integers(1, 6))
    k_tb = draw(st.sampled_from([1, 2, 8]))
    signal_tile = draw(st.sampled_from([1, 3, 16]))
    seed = draw(st.integers(0, 2**31 - 1))
    return dim_x, modes, batch, c_in, c_out, k_tb, signal_tile, seed


class TestFusedEqualsOracle:
    @given(_layer_1d())
    @settings(max_examples=30, deadline=None)
    def test_any_geometry_any_tiling(self, case):
        dim_x, modes, batch, c_in, c_out, k_tb, tile, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, c_in, dim_x)) + 1j * rng.standard_normal(
            (batch, c_in, dim_x)
        )
        w = (rng.standard_normal((c_in, c_out))
             + 1j * rng.standard_normal((c_in, c_out))) / max(c_in, 1)
        fused = CompiledSpectralConv1D(w, modes, k_tb=k_tb)(x)
        tiled = legacy.fused_fft_gemm_ifft_1d(x, w, modes, k_tb, tile)
        assert fused.tobytes() == tiled.tobytes()
        oracle = pytorch_like_spectral_conv_1d(x, w, modes)
        scale = 1 + np.abs(oracle).max()
        assert np.allclose(fused, oracle, atol=1e-8 * scale)


@st.composite
def _problem_1d(draw):
    dim_x = draw(st.sampled_from([64, 128, 256]))
    modes = draw(st.sampled_from([16, 32, 64]))
    batch = draw(st.integers(1, 4096))
    hidden = draw(st.integers(1, 160))
    return FNO1DProblem(batch=batch, hidden=hidden, dim_x=dim_x,
                        modes=min(modes, dim_x))


_LADDER_ORDER = [
    FusionStage.PYTORCH,
    FusionStage.FFT_OPT,
    FusionStage.FUSED_FFT_GEMM,
    FusionStage.FUSED_ALL,
]


class TestLadderMonotonicity:
    @given(_problem_1d())
    @settings(max_examples=30, deadline=None)
    def test_launches_strictly_decrease(self, prob):
        launches = [
            build_pipeline_1d(prob, s).counters().kernel_launches
            for s in _LADDER_ORDER
        ]
        assert launches == sorted(launches, reverse=True)
        assert launches[0] == 5 and launches[-1] == 1

    @given(_problem_1d())
    @settings(max_examples=30, deadline=None)
    def test_writes_never_increase_along_ladder(self, prob):
        writes = [
            build_pipeline_1d(prob, s).counters().global_bytes_written
            for s in _LADDER_ORDER
        ]
        for earlier, later in zip(writes, writes[1:]):
            assert later <= earlier + 1e-6

    @given(_problem_1d())
    @settings(max_examples=30, deadline=None)
    def test_stage_a_traffic_below_baseline(self, prob):
        base = build_pipeline_1d(prob, FusionStage.PYTORCH).counters()
        opt = build_pipeline_1d(prob, FusionStage.FFT_OPT).counters()
        assert opt.global_bytes < base.global_bytes

    @given(_problem_1d())
    @settings(max_examples=20, deadline=None)
    def test_all_stage_times_finite_positive(self, prob):
        for s in _LADDER_ORDER:
            t = build_pipeline_1d(prob, s).total_time()
            assert np.isfinite(t) and t > 0


class TestLadder2D:
    @given(
        st.integers(1, 64), st.integers(1, 160),
        st.sampled_from([(256, 128), (256, 256), (128, 128)]),
        st.sampled_from([32, 64]),
    )
    @settings(max_examples=20, deadline=None)
    def test_2d_launches_and_traffic(self, batch, hidden, grid, modes):
        prob = FNO2DProblem(batch=batch, hidden=hidden, dim_x=grid[0],
                            dim_y=grid[1], modes_x=modes, modes_y=modes)
        base = build_pipeline_2d(prob, FusionStage.PYTORCH).counters()
        full = build_pipeline_2d(prob, FusionStage.FUSED_ALL).counters()
        assert base.kernel_launches == 7
        assert full.kernel_launches == 3
        assert full.global_bytes_written < base.global_bytes_written
