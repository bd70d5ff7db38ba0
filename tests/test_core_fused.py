"""Tests for the fused operators: single-kernel dataflow == staged oracle.

The stage-D operator is the compiled executor
(:class:`~repro.core.compiled.CompiledSpectralConv1D` / ``2D``); the
stage-B/C partial fusions live beside it in :mod:`repro.core.compiled`.
"""

import numpy as np
import pytest

from repro.baselines.pytorch_fno import (
    pytorch_like_spectral_conv_1d,
    pytorch_like_spectral_conv_2d,
)
from repro.core import legacy
from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    fused_fft_gemm_1d,
    fused_gemm_ifft_1d,
)
from repro.core.fft_variant import assemble_a_tile, kloop_fft_schedule
from repro.fft.pruned import truncated_fft


def _weights(rng, c_in, c_out, scale=0.3):
    w = rng.standard_normal((c_in, c_out)) + 1j * rng.standard_normal((c_in, c_out))
    return w * scale


class TestFused1D:
    @pytest.mark.parametrize("batch,c_in,c_out,dim_x,modes", [
        (2, 8, 8, 64, 16),
        (5, 24, 16, 128, 64),   # paper-like shape
        (1, 3, 7, 32, 32),      # no truncation
        (3, 8, 8, 128, 1),      # extreme truncation
    ])
    def test_matches_pytorch_oracle(self, rng, batch, c_in, c_out, dim_x, modes):
        x = rng.standard_normal((batch, c_in, dim_x)) + 1j * rng.standard_normal(
            (batch, c_in, dim_x)
        )
        w = _weights(rng, c_in, c_out)
        fused = CompiledSpectralConv1D(w, modes)(x)
        oracle = pytorch_like_spectral_conv_1d(x, w, modes)
        assert np.allclose(fused, oracle, atol=1e-9)

    @pytest.mark.parametrize("k_tb", [1, 3, 8, 64])
    def test_k_tile_size_irrelevant_to_result(self, rng, k_tb):
        x = rng.standard_normal((2, 12, 64)) + 0j
        w = _weights(rng, 12, 10)
        ref = CompiledSpectralConv1D(w, 16, k_tb=8)(x)
        out = CompiledSpectralConv1D(w, 16, k_tb=k_tb)(x)
        assert np.allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("signal_tile", [1, 2, 7, 100])
    def test_signal_tiling_irrelevant_to_result(self, rng, signal_tile):
        """The untiled executor has the bytes of the legacy loop at any
        signal tile."""
        x = rng.standard_normal((5, 6, 32)) + 0j
        w = _weights(rng, 6, 6)
        ref = pytorch_like_spectral_conv_1d(x, w, 8)
        out = CompiledSpectralConv1D(w, 8)(x)
        tiled = legacy.fused_fft_gemm_ifft_1d(x, w, 8,
                                              signal_tile=signal_tile)
        assert out.tobytes() == tiled.tobytes()
        assert np.allclose(out, ref, atol=1e-10)

    def test_complex64_pipeline(self, rng):
        x = (rng.standard_normal((2, 8, 64)) + 0j).astype(np.complex64)
        w = _weights(rng, 8, 8).astype(np.complex64)
        out = CompiledSpectralConv1D(w, 16)(x)
        assert out.dtype == np.complex64
        oracle = pytorch_like_spectral_conv_1d(x, w, 16)
        assert np.allclose(out, oracle, atol=1e-4)

    def test_stage_b_returns_truncated_product(self, rng):
        x = rng.standard_normal((2, 8, 64)) + 0j
        w = _weights(rng, 8, 6)
        out = fused_fft_gemm_1d(x, w, 16)
        xk = np.fft.fft(x, axis=-1)[:, :, :16]
        expected = np.einsum("bim,io->bom", xk, w)
        assert out.shape == (2, 6, 16)
        assert np.allclose(out, expected, atol=1e-9)

    def test_stage_c_composes_with_stage_b_to_stage_d(self, rng):
        x = rng.standard_normal((2, 8, 64)) + 0j
        w = _weights(rng, 8, 6)
        # B then a pruned iFFT on the spectrum equals the fully fused D.
        spectrum = truncated_fft(x, 16, axis=-1)
        via_c = fused_gemm_ifft_1d(spectrum, w, 64)
        via_d = CompiledSpectralConv1D(w, 16)(x)
        assert np.allclose(via_c, via_d, atol=1e-9)

    @pytest.mark.parametrize("modes", [0, 65])
    def test_modes_validation(self, rng, modes):
        x = rng.standard_normal((1, 4, 64)) + 0j
        with pytest.raises(ValueError):
            CompiledSpectralConv1D(_weights(rng, 4, 4), modes)(x)

    def test_weight_mismatch_rejected(self, rng):
        x = rng.standard_normal((1, 4, 64)) + 0j
        with pytest.raises(ValueError):
            CompiledSpectralConv1D(_weights(rng, 5, 4), 16)(x)


class TestFused2D:
    @pytest.mark.parametrize("shape,modes", [
        ((2, 6, 32, 64), (8, 16)),
        ((1, 12, 64, 32), (16, 8)),
        ((3, 4, 16, 16), (16, 16)),  # no truncation
    ])
    def test_matches_pytorch_oracle(self, rng, shape, modes):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = _weights(rng, shape[1], shape[1] - 1)
        fused = CompiledSpectralConv2D(w, *modes)(x)
        oracle = pytorch_like_spectral_conv_2d(x, w, *modes)
        assert np.allclose(fused, oracle, atol=1e-9)

    def test_tiling_invariance(self, rng):
        x = rng.standard_normal((2, 6, 16, 32)) + 0j
        w = _weights(rng, 6, 6)
        ref = CompiledSpectralConv2D(w, 4, 8)(x)
        for k_tb, tile in [(2, 3), (6, 1), (8, 100)]:
            out = CompiledSpectralConv2D(w, 4, 8, k_tb=k_tb)(x)
            tiled = legacy.fused_fft_gemm_ifft_2d(x, w, 4, 8, k_tb=k_tb,
                                                  signal_tile=tile)
            assert out.tobytes() == tiled.tobytes()
            assert np.allclose(out, ref, atol=1e-10)

    def test_modes_validation(self, rng):
        x = rng.standard_normal((1, 4, 16, 16)) + 0j
        with pytest.raises(ValueError):
            CompiledSpectralConv2D(_weights(rng, 4, 4), 32, 8)(x)


class TestKLoopVariant:
    def test_schedule_visits_every_channel_once_in_order(self, rng):
        signals = rng.standard_normal((20, 32)) + 0j
        steps = list(kloop_fft_schedule(signals, modes=8, k_tb=8))
        ranges = [s.k_range for s in steps]
        assert ranges == [(0, 8), (8, 16), (16, 20)]
        assert [s.k_index for s in steps] == [0, 1, 2]

    def test_a_tiles_are_truncated_spectra_column_major(self, rng):
        signals = rng.standard_normal((8, 64)) + 0j
        tile = assemble_a_tile(signals, modes=16)
        assert tile.shape == (16, 8)
        assert tile.flags["C_CONTIGUOUS"]
        expected = np.fft.fft(signals, axis=-1)[:, :16].T
        assert np.allclose(tile, expected, atol=1e-9)

    def test_schedule_tiles_concatenate_to_full_spectrum(self, rng):
        signals = rng.standard_normal((24, 32)) + 0j
        steps = list(kloop_fft_schedule(signals, modes=8, k_tb=8))
        full = np.concatenate([s.a_tile for s in steps], axis=1)
        assert np.allclose(full, np.fft.fft(signals, axis=-1)[:, :8].T, atol=1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            list(kloop_fft_schedule(np.zeros((2, 2, 2)), 2))
        with pytest.raises(ValueError):
            list(kloop_fft_schedule(np.zeros((4, 8)) + 0j, 2, k_tb=0))
        with pytest.raises(ValueError):
            assemble_a_tile(np.zeros((2, 2, 2)), 2)
