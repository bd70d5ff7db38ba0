"""Differential fuzz harness: autotune may never change a single bit.

The tiling autotune's correctness claim — every legal ``(signal_tile,
k_tb)`` pair moves operands, never arithmetic — is enforced here by
differential testing: randomized geometries, dtypes, memory layouts and
batch shapes run through (a) the default-tile executor, (b) a
tiled-variant executor, and (c) the frozen :mod:`repro.core.legacy`
oracle, on both the C-kernel and pure-NumPy substrates, asserting
byte-for-byte equality.  Edge tiles are pinned explicitly: batches
smaller than the signal tile, channel counts smaller than the staging
``k_tb``, ragged final panels, and the degenerate one-everything
geometry.

The randomized grid is deterministic (seeded) so failures reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import legacy
from repro.core.autotune import Tiles, TuneStore, Tuner
from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
)
from repro.fft._ckernels import kernels_available

BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    if request.param == "numpy":
        from repro.fft import _ckernels, compiled

        monkeypatch.setitem(_ckernels._state, "kernels", None)
        monkeypatch.setitem(_ckernels._state, "tried", True)
        compiled.clear_fft_plan_cache()
    return request.param


def _bit_equal(a, b):
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    av = np.ascontiguousarray(a)
    bv = np.ascontiguousarray(b)
    if a.dtype.kind == "c":
        av, bv = av.view(a.real.dtype), bv.view(b.real.dtype)
    return np.array_equal(av, bv)


def _weight(rng, c_in, c_out, dtype):
    return (rng.standard_normal((c_in, c_out))
            + 1j * rng.standard_normal((c_in, c_out))).astype(dtype)


def _signal(rng, shape, dtype, layout):
    """A random input in one of several memory layouts."""
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    x = x.astype(dtype)
    if layout == "contiguous":
        return x
    if layout == "strided":  # every other row of a taller batch
        big = np.repeat(x, 2, axis=0)
        big[::2] = x
        return big[::2]
    # "transposed": same values, non-contiguous axis order underneath
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def _random_case_1d(rng):
    dim_x = int(rng.choice([4, 8, 16, 32, 64, 128]))
    p = int(rng.choice([1, 2, 4]))
    while dim_x // p < 1 or dim_x % p:
        p = 1
    modes = dim_x // p
    batch = int(rng.integers(1, 41))
    c_in = int(rng.integers(1, 21))
    c_out = int(rng.integers(1, 13))
    st = int(rng.integers(1, 65))
    ktb = 8 * int(rng.integers(1, 6))
    dtype = rng.choice([np.float32, np.float64, np.complex64])
    layout = rng.choice(["contiguous", "strided", "transposed"])
    return batch, c_in, c_out, dim_x, modes, Tiles(st, ktb), dtype, layout


class TestFuzzFused1D:
    @pytest.mark.parametrize("trial", range(14))
    def test_randomized_tiles_match_default_and_oracle(self, backend,
                                                       trial):
        rng = np.random.default_rng(1000 + trial)
        (batch, c_in, c_out, dim_x, modes, tiles, dtype,
         layout) = _random_case_1d(rng)
        wdtype = np.complex128 if dtype == np.float64 else np.complex64
        w = _weight(rng, c_in, c_out, wdtype)
        x = _signal(rng, (batch, c_in, dim_x), dtype, layout)
        oracle = legacy.fused_fft_gemm_ifft_1d(x, w, modes)
        default = CompiledSpectralConv1D(w, modes)(x)
        tiled = CompiledSpectralConv1D(w, modes, tiles=tiles)(x)
        assert _bit_equal(default, oracle)
        assert _bit_equal(tiled, default), (
            f"tiles {tuple(tiles)} changed bits for "
            f"B={batch} C={c_in}x{c_out} X={dim_x} m={modes} "
            f"{np.dtype(dtype).name} {layout} [{backend}]"
        )

    @pytest.mark.parametrize("batch,c_in,tiles", [
        (3, 9, Tiles(16, 8)),     # batch < signal_tile
        (2, 5, Tiles(64, 8)),     # batch << signal_tile, ragged panel
        (40, 3, Tiles(16, 8)),    # c_in < k_tb: one ragged panel only
        (7, 6, Tiles(32, 16)),    # c_in < staging k_tb
        (1, 1, Tiles(1, 8)),      # the degenerate one-everything case
        (33, 24, Tiles(8, 24)),   # c_in == staging block, 3 sub-panels
        (16, 20, Tiles(5, 16)),   # ragged tail panel after full blocks
    ])
    def test_edge_tiles(self, backend, batch, c_in, tiles):
        rng = np.random.default_rng(batch * 100 + c_in)
        w = _weight(rng, c_in, 4, np.complex64)
        x = _signal(rng, (batch, c_in, 32), np.float32, "contiguous")
        oracle = legacy.fused_fft_gemm_ifft_1d(x, w, 16)
        tiled = CompiledSpectralConv1D(w, 16, tiles=tiles)(x)
        assert _bit_equal(tiled, oracle)

    def test_interleaved_tiled_and_default_executors_share_plans(
            self, backend):
        """Distinct tilings of one weight interleave through the shared
        plan caches without cross-talk."""
        rng = np.random.default_rng(7)
        w = _weight(rng, 10, 5, np.complex64)
        convs = [CompiledSpectralConv1D(w, 16, tiles=t)
                 for t in [(16, 8), (4, 16), (64, 40)]]
        for trial in range(3):
            x = _signal(rng, (11, 10, 32), np.float32, "contiguous")
            ref = legacy.fused_fft_gemm_ifft_1d(x, w, 16)
            for conv in convs:
                assert _bit_equal(conv(x), ref)


class TestFuzzFused2D:
    @pytest.mark.parametrize("trial", range(8))
    def test_randomized_tiles_match_default_and_oracle(self, backend,
                                                       trial):
        rng = np.random.default_rng(2000 + trial)
        dim_x = int(rng.choice([4, 8, 16, 32]))
        dim_y = int(rng.choice([8, 16, 32, 64]))
        mx = dim_x // int(rng.choice([1, 2]))
        my = dim_y // int(rng.choice([1, 2, 4]))
        batch = int(rng.integers(1, 9))
        c_in = int(rng.integers(1, 17))
        c_out = int(rng.integers(1, 9))
        tiles = Tiles(int(rng.integers(1, 65)), 8 * int(rng.integers(1, 5)))
        dtype = rng.choice([np.float32, np.complex64])
        layout = rng.choice(["contiguous", "strided"])
        w = _weight(rng, c_in, c_out, np.complex64)
        x = _signal(rng, (batch, c_in, dim_x, dim_y), dtype, layout)
        oracle = legacy.fused_fft_gemm_ifft_2d(x, w, mx, my)
        tiled = CompiledSpectralConv2D(w, mx, my, tiles=tiles)(x)
        assert _bit_equal(tiled, oracle), (
            f"tiles {tuple(tiles)} changed bits for B={batch} "
            f"C={c_in}x{c_out} grid={dim_x}x{dim_y} m={mx}x{my} "
            f"{np.dtype(dtype).name} {layout} [{backend}]"
        )


def _sym_oracle_1d(x, w, modes):
    """The symmetric filter via numpy.fft in double precision."""
    n = x.shape[-1]
    xk = np.fft.rfft(x.astype(np.float64), axis=-1)[..., :modes]
    yk = np.einsum("bim,io->bom", xk, w.astype(np.complex128))
    out_ft = np.zeros((x.shape[0], w.shape[1], n // 2 + 1), dtype=complex)
    out_ft[..., :modes] = yk
    return np.fft.irfft(out_ft, n=n, axis=-1)


def _sym_oracle_2d(x, w, mx, my):
    b, _, dim_x, dim_y = x.shape
    xk = np.fft.rfft(x.astype(np.float64), axis=3)[..., :my]
    xk = np.fft.fft(xk, axis=2)[:, :, :mx]
    yk = np.einsum("bimn,io->bomn", xk, w.astype(np.complex128))
    out_ft = np.zeros((b, w.shape[1], dim_x, dim_y // 2 + 1), dtype=complex)
    out_ft[:, :, :mx, :my] = yk
    return np.fft.irfft(np.fft.ifft(out_ft, axis=2), n=dim_y, axis=3)


#: oracle tolerance per working precision for the symmetric fuzz
_SYM_ATOL = {np.dtype(np.float32): 1e-3, np.dtype(np.float64): 1e-9}


def _spectrum_path(conv, x, xk=None):
    """``conv(x)`` recomposed from the spectrum entry points."""
    sk = conv.forward_spectrum(x) if xk is None else xk
    spatial = x.shape[2:] if conv.ndim == 2 else x.shape[2]
    return conv.inverse_spectrum(conv.step_spectrum(sk), spatial)


class TestFuzzSymmetric:
    """Symmetric executors fuzz the *pruned* R2C/C2R plan family: modes
    draws cover the whole legal range [1, X/2] — non-powers of two and
    the decomposition/slice/pad strategy boundaries included — and every
    trial is checked against the numpy.fft oracle, and byte for byte
    against the same convolution recomposed from the spectrum entry
    points (the executor is untiled: ``__call__`` runs those stages)."""

    @pytest.mark.parametrize("trial", range(14))
    def test_randomized_call_matches_oracle_and_spectrum_path_1d(
            self, backend, trial):
        rng = np.random.default_rng(3000 + trial)
        dim_x = int(rng.choice([8, 16, 32, 64, 128]))
        # any legal truncation, not just power-of-two divisors: odd
        # parts, Nyquist-adjacent parts and the degenerate full prune
        modes = int(rng.integers(1, dim_x // 2 + 1))
        batch = int(rng.integers(1, 33))
        c_in = int(rng.integers(1, 13))
        c_out = int(rng.integers(1, 9))
        dtype = rng.choice([np.float32, np.float64])
        wdtype = np.complex128 if dtype == np.float64 else np.complex64
        w = _weight(rng, c_in, c_out, wdtype)
        x = _signal(rng, (batch, c_in, dim_x), dtype, "contiguous")
        ref = CompiledSpectralConv1D(w, modes, symmetric=True)(x)
        np.testing.assert_allclose(
            ref, _sym_oracle_1d(x, w, modes),
            atol=_SYM_ATOL[np.dtype(dtype)] * dim_x,
            err_msg=f"oracle mismatch for B={batch} C={c_in} X={dim_x} "
                    f"m={modes} [{backend}]",
        )
        conv = CompiledSpectralConv1D(w, modes, symmetric=True)
        assert _bit_equal(_spectrum_path(conv, x), ref), (
            f"spectrum path changed bits for B={batch} C={c_in} "
            f"X={dim_x} m={modes} [{backend}]"
        )

    @pytest.mark.parametrize("trial", range(8))
    def test_randomized_call_matches_oracle_and_spectrum_path_2d(
            self, backend, trial):
        rng = np.random.default_rng(4000 + trial)
        dim_x, dim_y = int(rng.choice([8, 16])), int(rng.choice([16, 32, 64]))
        mx = int(rng.integers(1, dim_x + 1))
        my = int(rng.integers(1, dim_y // 2 + 1))
        batch = int(rng.integers(1, 17))
        c_in = int(rng.integers(1, 9))
        w = _weight(rng, c_in, 5, np.complex64)
        x = _signal(rng, (batch, c_in, dim_x, dim_y), np.float32,
                    "contiguous")
        ref = CompiledSpectralConv2D(w, mx, my, symmetric=True)(x)
        np.testing.assert_allclose(
            ref, _sym_oracle_2d(x, w, mx, my),
            atol=_SYM_ATOL[np.dtype(np.float32)] * dim_y,
            err_msg=f"oracle mismatch for B={batch} C={c_in} "
                    f"grid={dim_x}x{dim_y} m={mx}x{my} [{backend}]",
        )
        conv = CompiledSpectralConv2D(w, mx, my, symmetric=True)
        assert _bit_equal(_spectrum_path(conv, x), ref)

    def test_precomputed_spectrum_matches_spectrum_path(self, backend):
        rng = np.random.default_rng(5)
        w = _weight(rng, 6, 4, np.complex64)
        x = _signal(rng, (9, 6, 32), np.float32, "contiguous")
        xk = np.fft.rfft(x.astype(np.float64), axis=-1)[..., :8].astype(
            np.complex64
        )
        conv = CompiledSpectralConv1D(w, 8, symmetric=True)
        assert _bit_equal(conv(x, xk_trunc=xk), _spectrum_path(conv, x, xk))


class TestFuzzAutotuned:
    """``tiles="auto"`` — the full tuner path — is itself differential:
    whatever winner the timed search picks must be invisible in the
    output bits."""

    @pytest.mark.parametrize("trial", range(4))
    def test_autotuned_executor_bit_identical_1d(self, backend, tmp_path,
                                                 trial):
        rng = np.random.default_rng(6000 + trial)
        c_in = int(rng.integers(1, 10))
        c_out = int(rng.integers(1, 7))
        batch = int(rng.integers(1, 25))
        dim_x = int(rng.choice([8, 16, 32]))
        modes = dim_x // int(rng.choice([1, 2]))
        w = _weight(rng, c_in, c_out, np.complex64)
        x = _signal(rng, (batch, c_in, dim_x), np.float32, "contiguous")
        tuner = Tuner(store=TuneStore(tmp_path / f"t{trial}.json"))
        auto = CompiledSpectralConv1D(w, modes, tiles="auto", tuner=tuner)
        oracle = legacy.fused_fft_gemm_ifft_1d(x, w, modes)
        assert _bit_equal(auto(x), oracle)
        assert _bit_equal(auto(x), oracle)  # memoised winner: same bits
        assert tuner.stats()["misses"] == 1

    def test_autotuned_executor_bit_identical_2d_and_sym(self, backend,
                                                         tmp_path):
        rng = np.random.default_rng(6100)
        w = _weight(rng, 6, 6, np.complex64)
        tuner = Tuner(store=TuneStore(tmp_path / "t2d.json"))
        x2 = _signal(rng, (5, 6, 16, 32), np.float32, "contiguous")
        auto2 = CompiledSpectralConv2D(w, 8, 16, tiles="auto", tuner=tuner)
        assert _bit_equal(
            auto2(x2), legacy.fused_fft_gemm_ifft_2d(x2, w, 8, 16)
        )
        xs = _signal(rng, (12, 6, 32), np.float32, "contiguous")
        autos = CompiledSpectralConv1D(w, 8, symmetric=True, tiles="auto",
                                       tuner=tuner)
        assert _bit_equal(
            autos(xs), CompiledSpectralConv1D(w, 8, symmetric=True)(xs)
        )
        # symmetric executors are untiled: only the 2-D fused stage tuned
        assert tuner.stats()["misses"] == 1
