"""Tile invariance: the untiled executors give the tiled oracle's bits.

The fused C2C dataflow runs each batch whole: on the C backend in one
``fused_tile_c2c_1d`` call, on the NumPy fallback as one pass of each
NumPy stage.  Either way the output must be byte-for-byte the frozen
:mod:`repro.core.legacy` loop's at the same accumulation width ``k_tb``
and at *any* of its signal tiles.  This suite enforces that by
differential testing: randomized geometries, dtypes, memory layouts,
batch shapes and legacy ``signal_tile`` values, on both substrates.
Edge cases are pinned explicitly: batches below, at and above the
legacy default tile of 16, channel counts smaller than ``k_tb``, ragged
final panels, the degenerate one-everything geometry, and weights with
no input or no output channels.  Inputs the C driver cannot take as
they are (read-only, broadcast, Fortran-ordered, reversed) go through
the reusable staging buffer, which must never alias an input or a
returned output, and an empty batch returns an empty result.  It also
pins the driver contract itself: any batch, however its input is laid
out, costs exactly one driver call.

The randomized grid is deterministic (seeded) so failures reproduce.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import api
from repro.core import legacy
from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    compile_spectral_conv,
    fused_fft_gemm_1d,
)
from repro.fft._ckernels import kernels_available
from repro.fft.compiled import PlanCaches

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
    """Same dtype, shape and bytes (so signed zeros must match too)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return a.tobytes() == b.tobytes()


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
    legacy_tile = int(rng.integers(1, 65))
    k_tb = int(rng.choice([1, 3, 8, 16]))
    dtype = rng.choice([np.float32, np.float64, np.complex64])
    layout = rng.choice(["contiguous", "strided", "transposed"])
    return (batch, c_in, c_out, dim_x, modes, legacy_tile, k_tb, dtype,
            layout)


class TestFuzzFused1D:
    @pytest.mark.parametrize("trial", range(14))
    def test_randomized_signal_tiles_match_oracle(self, backend, trial):
        rng = np.random.default_rng(1000 + trial)
        (batch, c_in, c_out, dim_x, modes, legacy_tile, k_tb, dtype,
         layout) = _random_case_1d(rng)
        wdtype = np.complex128 if dtype == np.float64 else np.complex64
        w = _weight(rng, c_in, c_out, wdtype)
        x = _signal(rng, (batch, c_in, dim_x), dtype, layout)
        oracle = legacy.fused_fft_gemm_ifft_1d(x, w, modes, k_tb)
        tiled = legacy.fused_fft_gemm_ifft_1d(x, w, modes, k_tb, legacy_tile)
        out = CompiledSpectralConv1D(w, modes, k_tb)(x)
        assert _bit_equal(tiled, oracle)
        assert _bit_equal(out, tiled), (
            f"legacy tile {legacy_tile}, k_tb={k_tb}: bits differ for "
            f"B={batch} C={c_in}x{c_out} X={dim_x} m={modes} "
            f"{np.dtype(dtype).name} {layout} [{backend}]"
        )

    @pytest.mark.parametrize("batch,c_in,legacy_tile,k_tb", [
        (3, 9, 16, 8),      # batch < legacy tile
        (2, 5, 64, 8),      # batch << legacy tile, ragged panel
        (40, 3, 16, 8),     # c_in < k_tb: one ragged panel only
        (7, 6, 32, 4),      # ragged tail panel after a full one
        (1, 1, 1, 8),       # the degenerate one-everything case
        (33, 24, 8, 8),     # three full panels, partial last tile
        (16, 20, 5, 16),    # batch at the default tile, ragged panel
        (17, 20, 16, 8),    # one row past the default tile
    ])
    def test_edge_tiles(self, backend, batch, c_in, legacy_tile, k_tb):
        rng = np.random.default_rng(batch * 100 + c_in)
        w = _weight(rng, c_in, 4, np.complex64)
        x = _signal(rng, (batch, c_in, 32), np.float32, "contiguous")
        oracle = legacy.fused_fft_gemm_ifft_1d(x, w, 16, k_tb, legacy_tile)
        out = CompiledSpectralConv1D(w, 16, k_tb)(x)
        assert _bit_equal(out, oracle)

    def test_interleaved_executors_share_plans(self, backend):
        """Executors of one weight with distinct ``k_tb`` interleave
        through the shared plan caches without cross-talk."""
        rng = np.random.default_rng(7)
        w = _weight(rng, 10, 5, np.complex64)
        convs = {k_tb: CompiledSpectralConv1D(w, 16, k_tb)
                 for k_tb in (8, 3, 16)}
        for trial in range(3):
            x = _signal(rng, (11, 10, 32), np.float32, "contiguous")
            for k_tb, conv in convs.items():
                ref = legacy.fused_fft_gemm_ifft_1d(x, w, 16, k_tb)
                assert _bit_equal(conv(x), ref)

    def test_staging_cached_per_dtype_and_length(self, backend):
        """One fused stage per (working dtype, X), whatever the batch."""
        rng = np.random.default_rng(8)
        conv = CompiledSpectralConv1D(_weight(rng, 8, 8, np.complex64), 8)
        for batch in (6, 1, 40):
            conv(_signal(rng, (batch, 8, 16), np.float32, "contiguous"))
        conv(_signal(rng, (3, 8, 32), np.float32, "strided"))
        conv(_signal(rng, (3, 8, 32), np.float64, "contiguous"))
        assert sorted((np.dtype(d).name, n) for d, n in conv._staged) == [
            ("complex128", 32), ("complex64", 16), ("complex64", 32),
        ]


def _arrays(obj):
    """Every array an object's attributes hold, directly or in a tuple,
    list or dict value."""
    for value in vars(obj).values():
        items = (value.values() if isinstance(value, dict)
                 else value if isinstance(value, (tuple, list)) else [value])
        yield from (v for v in items if isinstance(v, np.ndarray))


class TestWeightStaging:
    """An executor casts its weight once per working dtype, on first
    use; every fused stage of that dtype, whatever its length, and the
    spectrum CGEMM share that one cast, and no k-panel copy is kept."""

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_one_cast_per_dtype_shared_across_geometries(self, backend,
                                                         ndim):
        rng = np.random.default_rng(17)
        w = _weight(rng, 6, 6, np.complex64)
        conv = (CompiledSpectralConv1D(w, 8) if ndim == 1
                else CompiledSpectralConv2D(w, 4, 8))
        assert conv._cast == {}
        grids = [(n,) for n in (16, 32, 64)] if ndim == 1 else [
            (8, n) for n in (16, 32)]
        for grid in grids:
            for dtype in (np.float32, np.complex64, np.float64):
                x = _signal(rng, (3, 6) + grid, dtype, "contiguous")
                conv(x)
                sk = conv.forward_spectrum(x)
                conv.rollout_spectrum(sk, 2, grid if ndim == 2 else grid[0])
                conv.step_spectrum(sk)
        casts = conv._cast
        assert sorted(np.dtype(d).name for d in casts) == [
            "complex128", "complex64"]
        assert len(conv._staged) == 2 * len(grids)
        for (dtype, _), stage in conv._staged.items():
            assert stage.weight is casts[dtype]
            for arr in _arrays(stage):
                if arr is not stage.weight:
                    assert not any(np.shares_memory(arr, c)
                                   for c in casts.values())


class TestFuzzFused2D:
    @pytest.mark.parametrize("trial", range(8))
    def test_randomized_signal_tiles_match_oracle(self, backend, trial):
        rng = np.random.default_rng(2000 + trial)
        dim_x = int(rng.choice([4, 8, 16, 32]))
        dim_y = int(rng.choice([8, 16, 32, 64]))
        mx = dim_x // int(rng.choice([1, 2]))
        my = dim_y // int(rng.choice([1, 2, 4]))
        batch = int(rng.integers(1, 9))
        c_in = int(rng.integers(1, 17))
        c_out = int(rng.integers(1, 9))
        legacy_tile = int(rng.integers(1, 65))
        dtype = rng.choice([np.float32, np.complex64])
        layout = rng.choice(["contiguous", "strided"])
        w = _weight(rng, c_in, c_out, np.complex64)
        x = _signal(rng, (batch, c_in, dim_x, dim_y), dtype, layout)
        oracle = legacy.fused_fft_gemm_ifft_2d(x, w, mx, my,
                                               signal_tile=legacy_tile)
        out = CompiledSpectralConv2D(w, mx, my)(x)
        assert _bit_equal(out, oracle), (
            f"legacy tile {legacy_tile}: bits differ for B={batch} "
            f"C={c_in}x{c_out} grid={dim_x}x{dim_y} m={mx}x{my} "
            f"{np.dtype(dtype).name} {layout} [{backend}]"
        )


class TestZeroChannels:
    """A weight with no input or no output channels gives the NumPy
    backend's bytes on every backend: zeros, or an empty array."""

    @pytest.mark.parametrize("c_in,c_out", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("dim_x,modes", [(32, 8), (16, 16)])
    def test_1d(self, backend, c_in, c_out, dim_x, modes):
        w = np.ones((c_in, c_out), np.complex64)
        x = _signal(np.random.default_rng(0), (5, c_in, dim_x),
                    np.complex64, "contiguous")
        ref = CompiledSpectralConv1D(
            w, modes, plans=PlanCaches(backend="numpy")
        )(x)
        assert _bit_equal(CompiledSpectralConv1D(w, modes)(x), ref)
        assert _bit_equal(ref, legacy.fused_fft_gemm_ifft_1d(x, w, modes))

    @pytest.mark.parametrize("c_in,c_out", [(0, 3), (3, 0), (0, 0)])
    def test_2d(self, backend, c_in, c_out):
        w = np.ones((c_in, c_out), np.complex64)
        x = _signal(np.random.default_rng(0), (2, c_in, 8, 16),
                    np.float32, "contiguous")
        ref = CompiledSpectralConv2D(
            w, 4, 8, plans=PlanCaches(backend="numpy")
        )(x)
        assert _bit_equal(CompiledSpectralConv2D(w, 4, 8)(x), ref)
        assert _bit_equal(ref, legacy.fused_fft_gemm_ifft_2d(x, w, 4, 8))


def _odd_layout(rng, shape, dtype, layout):
    """A random input the C driver cannot read in place."""
    x = _signal(rng, shape, dtype, "contiguous")
    if layout == "readonly":
        x.flags.writeable = False
        return x
    if layout == "broadcast":  # zero batch stride: one row, repeated
        return np.broadcast_to(x[:1], shape)
    if layout == "fortran":
        return np.asfortranarray(x)
    return x[::-1, ..., ::-1]  # "reversed": negative strides


ODD_LAYOUTS = ["readonly", "broadcast", "fortran", "reversed"]


class TestStagedInput:
    """Inputs converted into the executor's reusable staging buffer
    (on the C backend) give the oracle's bytes, the same bytes as their
    contiguous copy, and never share memory with what a call returns."""

    @pytest.mark.parametrize("layout", ODD_LAYOUTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_odd_layouts_match_oracle_1d(self, backend, dtype, layout):
        rng = np.random.default_rng(11)
        w = _weight(rng, 6, 5, np.complex64)
        x = _odd_layout(rng, (9, 6, 32), dtype, layout)
        conv = CompiledSpectralConv1D(w, 8, k_tb=4)
        out = conv(x)
        assert _bit_equal(out, legacy.fused_fft_gemm_ifft_1d(x, w, 8, 4))
        assert _bit_equal(out, conv(np.ascontiguousarray(x)))

    @pytest.mark.parametrize("layout", ODD_LAYOUTS)
    def test_odd_layouts_match_oracle_2d(self, backend, layout):
        rng = np.random.default_rng(12)
        w = _weight(rng, 4, 3, np.complex64)
        x = _odd_layout(rng, (5, 4, 8, 16), np.float32, layout)
        conv = CompiledSpectralConv2D(w, 4, 8)
        out = conv(x)
        assert _bit_equal(out, legacy.fused_fft_gemm_ifft_2d(x, w, 4, 8))
        assert _bit_equal(out, conv(np.ascontiguousarray(x)))

    @pytest.mark.parametrize("dtype,layout", [
        (np.float32, "contiguous"),
        (np.complex64, "strided"),
        (np.complex128, "transposed"),
    ])
    def test_staging_never_aliases_input_or_output(self, backend, dtype,
                                                   layout):
        rng = np.random.default_rng(13)
        wdtype = np.complex128 if dtype == np.complex128 else np.complex64
        conv = CompiledSpectralConv1D(_weight(rng, 6, 4, wdtype), 8)
        x1 = _signal(rng, (7, 6, 32), dtype, layout)
        x1_bytes = np.ascontiguousarray(x1).tobytes()
        y1 = conv(x1)
        y1_bytes = y1.tobytes()
        x2 = _signal(rng, (7, 6, 32), dtype, layout)
        y2 = conv(x2)
        assert np.ascontiguousarray(x1).tobytes() == x1_bytes
        assert y1.tobytes() == y1_bytes
        assert not np.shares_memory(y1, y2)
        assert not np.shares_memory(y2, x2)

    def test_batches_grow_and_shrink_through_one_buffer(self, backend):
        """The staging buffer grows to the largest batch seen and is
        reused, unchanged in size, by every smaller one."""
        rng = np.random.default_rng(14)
        w = _weight(rng, 5, 3, np.complex64)
        conv = CompiledSpectralConv1D(w, 8)
        for batch in (5, 40, 1, 17, 40, 2):
            x = _signal(rng, (batch, 5, 16), np.float32, "contiguous")
            assert _bit_equal(conv(x), legacy.fused_fft_gemm_ifft_1d(x, w, 8))
        (stage,) = conv._staged.values()
        want = 40 * 5 * 16 if backend == "ckernels" else 0
        assert stage._x_stage.size == want

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_empty_batch(self, backend, ndim, symmetric):
        w = _weight(np.random.default_rng(15), 4, 3, np.complex64)
        modes, spatial = ((8,), (16,)) if ndim == 1 else ((4, 8), (8, 16))
        x = np.zeros((0, 4) + spatial, np.float32)
        out = compile_spectral_conv(w, modes, symmetric=symmetric)(x)
        ref = compile_spectral_conv(w, modes, symmetric=symmetric,
                                    plans=PlanCaches(backend="numpy"))(x)
        assert out.shape == (0, 3) + spatial
        assert _bit_equal(out, ref)


@pytest.mark.skipif(not kernels_available(), reason="C kernels unavailable")
class TestOneDriverCall:
    """On the C backend every batch is one ``fused_tile_c2c_1d`` call:
    a C-contiguous batch in the working dtype goes straight to C, and
    any other input is converted once into the staged buffer first."""

    @pytest.fixture
    def calls(self, monkeypatch):
        kernels = PlanCaches(backend="ckernels").kernels()
        seen = []
        real = kernels.fused_tile_c2c_1d

        def counting(x, *args):
            seen.append((x.dtype, x.shape))
            return real(x, *args)

        monkeypatch.setattr(kernels, "fused_tile_c2c_1d", counting)
        return seen

    @pytest.mark.parametrize("dtype,layout", [
        (np.complex64, "contiguous"),
        (np.float32, "contiguous"),
        (np.complex64, "strided"),
        (np.complex64, "transposed"),
        (np.complex128, "strided"),
    ])
    def test_each_batch_is_one_call(self, calls, dtype, layout):
        rng = np.random.default_rng(9)
        wdtype = np.complex128 if dtype == np.complex128 else np.complex64
        w = _weight(rng, 10, 5, wdtype)
        conv = CompiledSpectralConv1D(w, 16,
                                      plans=PlanCaches(backend="ckernels"))
        for batch in (37, 5):
            x = _signal(rng, (batch, 10, 32), dtype, layout)
            calls.clear()
            out = conv(x)
            assert calls == [(out.dtype, (batch, 10, 32))]
            assert _bit_equal(out, legacy.fused_fft_gemm_ifft_1d(x, w, 16))

    def test_2d_pencils_are_one_call(self, calls):
        rng = np.random.default_rng(10)
        w = _weight(rng, 6, 3, np.complex64)
        x = _signal(rng, (3, 6, 8, 16), np.float32, "contiguous")
        out = CompiledSpectralConv2D(
            w, 4, 8, plans=PlanCaches(backend="ckernels")
        )(x)
        assert calls == [(np.dtype(np.complex64), (3 * 4, 6, 16))]
        assert _bit_equal(out, legacy.fused_fft_gemm_ifft_2d(x, w, 4, 8))


class TestConstruction:
    """Checks that fire when an executor is built, not at its first
    call, and keywords of the removed tile autotuner."""

    @staticmethod
    def _builds(modes):
        """Every constructor that takes ``modes``, at ``modes`` on one axis."""
        w = np.ones((4, 4), np.complex64)
        return [
            lambda: CompiledSpectralConv1D(w, modes),
            lambda: CompiledSpectralConv1D(w, modes, symmetric=True),
            lambda: CompiledSpectralConv2D(w, modes, 8),
            lambda: CompiledSpectralConv2D(w, 4, modes),
            lambda: compile_spectral_conv(w, modes),
            lambda: compile_spectral_conv(w, (modes,)),
            lambda: compile_spectral_conv(w, (4, modes)),
            lambda: api.SpectralModel(w, modes),
            lambda: api.SpectralModel(w, [modes, 8]),
            lambda: fused_fft_gemm_1d(np.ones((1, 4, 32)), w, modes),
        ]

    @pytest.mark.parametrize("modes", [0, -3])
    def test_modes_must_be_positive(self, modes):
        for build in self._builds(modes):
            with pytest.raises(ValueError, match="modes.* must be positive"):
                build()

    @pytest.mark.parametrize("modes", [16.9, 8.5, True, np.bool_(True),
                                       "8", None, np.float64(8)])
    def test_modes_must_be_an_integer(self, modes):
        """A fractional count is never truncated, nor a flag counted:
        ``modes=16.9`` kept 16 modes and ``modes=True`` one."""
        for build in self._builds(modes):
            with pytest.raises(TypeError, match="modes.* must be an integer"):
                build()

    def test_signal_tile_is_gone(self):
        """Both substrates run each batch whole, so no constructor takes a
        signal tile any more."""
        w = np.ones((4, 4), np.complex64)
        for build in (
            lambda: CompiledSpectralConv1D(w, 8, signal_tile=16),
            lambda: CompiledSpectralConv2D(w, 4, 8, signal_tile=16),
            lambda: compile_spectral_conv(w, 8, signal_tile=16),
        ):
            with pytest.raises(TypeError, match="signal_tile"):
                build()

    def test_numpy_integer_counts_are_accepted(self, backend):
        rng = np.random.default_rng(16)
        w = _weight(rng, 6, 3, np.complex64)
        conv = CompiledSpectralConv1D(w, np.int32(8), k_tb=np.int64(4))
        assert type(conv.k_tb) is int and type(conv.modes) is int
        x = _signal(rng, (7, 6, 32), np.float32, "contiguous")
        assert _bit_equal(conv(x), legacy.fused_fft_gemm_ifft_1d(x, w, 8, 4))
        model = api.SpectralModel(w, (np.int64(8),))
        assert model.modes == (8,) and type(model.modes[0]) is int
        conv2 = compile_spectral_conv(w, (np.uint8(4), np.int16(8)))
        assert (type(conv2.modes_x), type(conv2.modes_y)) == (int, int)

    def test_tile_autotuner_is_gone(self):
        from repro.api.serve import ServePool

        w = np.ones((4, 4), np.complex64)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.autotune")
        with pytest.raises(TypeError, match="tiles"):
            compile_spectral_conv(w, 8, tiles=(16, 8))
        with pytest.raises(TypeError, match="tiles"):
            CompiledSpectralConv2D(w, 4, 8, tiles="auto")
        with pytest.raises(TypeError, match="autotune"):
            api.Session(autotune=True)
        with pytest.raises(TypeError, match="autotune"):
            ServePool(workers=1, autotune=False)


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
