"""Compiled spectral-conv executors: byte identity with the legacy fused
loops, executor reuse, plan attachment, and the parallel sweep runner."""

import numpy as np
import pytest

from repro.api import Runner, clear_plan_cache, plan, spectral_conv
from repro.core import compiled as core_compiled
from repro.core import legacy
from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    compile_spectral_conv,
)
from repro.core.config import FNO1DProblem, FNO2DProblem
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


def _weight(c_in, c_out, dtype, rng):
    return (
        rng.standard_normal((c_in, c_out))
        + 1j * rng.standard_normal((c_in, c_out))
    ).astype(dtype)


def _x(shape, dtype, rng):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _bit_equal(a, b):
    return a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(a.real.dtype),
        np.ascontiguousarray(b).view(b.real.dtype),
    )


# ---------------------------------------------------------------------------
# byte identity with the legacy loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", (np.float32, np.float64, np.complex64))
@pytest.mark.parametrize(
    "batch,c_in,c_out,dim_x,modes",
    [(7, 5, 6, 128, 64), (16, 8, 8, 64, 64), (33, 9, 3, 32, 8),
     (1, 1, 1, 2, 1), (20, 16, 4, 16, 16), (5, 3, 2, 8, 2)],
)
def test_executor_1d_bit_identical(backend, dtype, batch, c_in, c_out,
                                   dim_x, modes):
    rng = np.random.default_rng(0)
    wdtype = np.complex128 if dtype == np.float64 else np.complex64
    x = _x((batch, c_in, dim_x), dtype, rng)
    w = _weight(c_in, c_out, wdtype, rng)
    conv = CompiledSpectralConv1D(w, modes)
    ref = legacy.fused_fft_gemm_ifft_1d(x, w, modes)
    assert _bit_equal(conv(x), ref)
    # the facade takes the same compiled path
    assert _bit_equal(spectral_conv(x, w, modes), ref)


@pytest.mark.parametrize("dtype", (np.float32, np.complex64))
@pytest.mark.parametrize(
    "batch,c_in,c_out,dim_x,dim_y,mx,my",
    [(3, 5, 4, 32, 16, 8, 8), (2, 8, 8, 16, 16, 16, 4),
     (1, 2, 3, 8, 8, 8, 8), (4, 3, 2, 4, 8, 2, 2)],
)
def test_executor_2d_bit_identical(backend, dtype, batch, c_in, c_out,
                                   dim_x, dim_y, mx, my):
    rng = np.random.default_rng(1)
    x = _x((batch, c_in, dim_x, dim_y), dtype, rng)
    w = _weight(c_in, c_out, np.complex64, rng)
    conv = CompiledSpectralConv2D(w, mx, my)
    ref = legacy.fused_fft_gemm_ifft_2d(x, w, mx, my)
    assert _bit_equal(conv(x), ref)
    assert _bit_equal(spectral_conv(x, w, (mx, my)), ref)


@pytest.mark.parametrize("dtype", (np.float32, np.complex64))
def test_stage_b_and_c_wrappers_bit_identical(backend, dtype):
    rng = np.random.default_rng(2)
    x = _x((9, 11, 64), dtype, rng)
    w = _weight(11, 5, np.complex64, rng)
    assert _bit_equal(
        core_compiled.fused_fft_gemm_1d(x, w, 16),
        legacy.fused_fft_gemm_1d(x, w, 16),
    )
    xk = _x((9, 11, 16), np.complex64, rng)
    assert _bit_equal(
        core_compiled.fused_gemm_ifft_1d(xk, w, 64),
        legacy.fused_gemm_ifft_1d(xk, w, 64),
    )


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_one_layer_path_bit_identical_to_legacy(backend, dtype):
    """The facade and the shared-weight non-symmetric nn layers run the
    same compiled executor: both equal the frozen legacy loops byte for
    byte, on either backend."""
    from repro.nn.modules import SpectralConv1d, SpectralConv2d

    rng = np.random.default_rng(4)
    x1 = _x((5, 6, 32), dtype, rng)
    x2 = _x((3, 6, 16, 32), dtype, rng)
    l1 = SpectralConv1d(6, 4, 8, rng, per_mode=False)
    l2 = SpectralConv2d(6, 4, 4, 8, rng, per_mode=False)
    ref1 = legacy.fused_fft_gemm_ifft_1d(x1, l1.weight.value, 8)
    ref2 = legacy.fused_fft_gemm_ifft_2d(x2, l2.weight.value, 4, 8)
    assert _bit_equal(spectral_conv(x1, l1.weight.value, 8), ref1)
    assert _bit_equal(spectral_conv(x2, l2.weight.value, (4, 8)), ref2)
    assert _bit_equal(l1(x1), np.ascontiguousarray(ref1.real))
    assert _bit_equal(l2(x2), np.ascontiguousarray(ref2.real))


@pytest.mark.parametrize("dtype", (np.float32, np.float64, np.complex64))
def test_executor_1d_layouts_bit_identical(backend, dtype):
    """An empty batch and inputs the C tile driver converts tile by
    tile (a strided view, a Fortran-ordered array, a real input widened
    to complex; several tiles, the last one partial) give the legacy
    loops' bytes on either backend."""
    rng = np.random.default_rng(6)
    wdtype = np.complex128 if dtype == np.float64 else np.complex64
    w = _weight(9, 5, wdtype, rng)
    conv = CompiledSpectralConv1D(w, 16)
    base = _x((41, 9, 128), dtype, rng)
    for x in (base[:0], base[::2, :, ::2], np.asfortranarray(base[:, :, :64])):
        ref = legacy.fused_fft_gemm_ifft_1d(x, w, 16)
        assert _bit_equal(conv(x), ref)


def test_executor_reuse_across_calls_and_shapes(backend):
    """One executor, many inputs: staging reuse must not leak state."""
    rng = np.random.default_rng(3)
    w = _weight(6, 6, np.complex64, rng)
    conv = CompiledSpectralConv1D(w, 8)
    inputs = [
        _x((b, 6, dim_x), np.float32, rng)
        for b, dim_x in ((4, 32), (19, 32), (2, 16), (4, 32))
    ]
    for x in inputs:
        assert _bit_equal(conv(x), legacy.fused_fft_gemm_ifft_1d(x, w, 8))
    # float64 input through the same executor: separate complex128 staging
    x64 = _x((3, 6, 32), np.float64, rng)
    assert _bit_equal(conv(x64), legacy.fused_fft_gemm_ifft_1d(x64, w, 8))


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fused_stage_runs_on_the_cached_pruned_plans(backend_name, p):
    """A fused stage holds no transform table of its own: after one call
    its ``trunc``/``itrunc`` are its set's cached pruned plans, and the
    tables the C driver reads are those plans' arrays, so executors
    built per call on one set share every table."""
    plans = PlanCaches(backend=backend_name)
    rng = np.random.default_rng(p)
    w = _weight(5, 3, np.complex64, rng)
    x = _x((2, 5, 8 * p), np.complex64, rng)
    stages = []
    for _ in range(2):
        conv = CompiledSpectralConv1D(w, 8, plans=plans)
        conv(x)
        (stage,) = conv._staged.values()
        stages.append(stage)
    trunc = plans.pruned(8 * p, 8, np.complex64, "trunc")
    itrunc = plans.pruned(8 * p, 8, np.complex64, "itrunc")
    for stage in stages:
        assert stage.trunc is trunc and stage.itrunc is itrunc
        assert not {"fwd", "inv", "wd_f", "wd_i"} & set(vars(stage))
        ops = stage._driver_ops
        if plans.kernels() is None:
            assert ops is None
            continue
        assert ops[0] is trunc.fft.twiddles
        assert ops[1] is itrunc.fft.twiddles
        if p > 1:
            assert ops[2] is trunc.wd and ops[3] is itrunc.wd
        else:
            assert trunc.wd is None and ops[2].size == ops[3].size == 0


def test_executor_rejects_bad_inputs():
    w = np.ones((4, 4), np.complex64)
    conv = CompiledSpectralConv1D(w, 8)
    with pytest.raises(ValueError, match="expected 3-D input"):
        conv(np.ones((4, 4), np.float32))
    with pytest.raises(ValueError, match="C_in"):
        conv(np.ones((2, 5, 16), np.float32))
    with pytest.raises(ValueError, match="modes must be in"):
        CompiledSpectralConv1D(w, 64)(np.ones((2, 4, 16), np.float32))
    with pytest.raises(ValueError, match="power of two"):
        CompiledSpectralConv1D(w, 3)(np.ones((2, 4, 16), np.float32))


@pytest.mark.parametrize("k_tb", [0, -1, -8])
@pytest.mark.parametrize("entry", ["1d", "1d_symmetric", "2d", "2d_symmetric",
                                   "factory", "fft_gemm", "gemm_ifft"])
def test_nonpositive_k_tb_is_rejected(entry, k_tb):
    """``k_tb <= 0`` raises a typed error at construction, not a
    ZeroDivisionError, a NumPy shape error or a silent all-zero output
    (no k-panels at all)."""
    w = np.ones((4, 3), np.complex64)
    x1, x2 = np.ones((2, 4, 16), np.float32), np.ones((2, 4, 8, 8), np.float32)
    run = {
        "1d": lambda: CompiledSpectralConv1D(w, 4, k_tb=k_tb)(x1),
        "1d_symmetric": lambda: CompiledSpectralConv1D(
            w, 4, k_tb=k_tb, symmetric=True)(x1),
        "2d": lambda: CompiledSpectralConv2D(w, 4, 4, k_tb=k_tb)(x2),
        "2d_symmetric": lambda: CompiledSpectralConv2D(
            w, 4, 2, k_tb=k_tb, symmetric=True)(x2),
        "factory": lambda: compile_spectral_conv(w, 4, k_tb=k_tb)(x1),
        "fft_gemm": lambda: core_compiled.fused_fft_gemm_1d(
            x1, w, 4, k_tb=k_tb),
        "gemm_ifft": lambda: core_compiled.fused_gemm_ifft_1d(
            np.ones((2, 4, 4), np.complex64), w, 16, k_tb=k_tb),
    }[entry]
    with pytest.raises(ValueError, match="k_tb must be positive"):
        run()


@pytest.mark.parametrize("k_tb", [2.5, "8"])
@pytest.mark.parametrize("entry", ["1d", "1d_symmetric", "2d", "2d_symmetric",
                                   "factory", "fft_gemm", "gemm_ifft"])
def test_non_integer_k_tb_is_rejected(entry, k_tb):
    """A non-integer ``k_tb`` raises a typed error naming it, not a raw
    ``range()`` or comparison TypeError."""
    w = np.ones((4, 3), np.complex64)
    x1, x2 = np.ones((2, 4, 16), np.float32), np.ones((2, 4, 8, 8), np.float32)
    run = {
        "1d": lambda: CompiledSpectralConv1D(w, 4, k_tb=k_tb)(x1),
        "1d_symmetric": lambda: CompiledSpectralConv1D(
            w, 4, k_tb=k_tb, symmetric=True)(x1),
        "2d": lambda: CompiledSpectralConv2D(w, 4, 4, k_tb=k_tb)(x2),
        "2d_symmetric": lambda: CompiledSpectralConv2D(
            w, 4, 2, k_tb=k_tb, symmetric=True)(x2),
        "factory": lambda: compile_spectral_conv(w, 4, k_tb=k_tb)(x1),
        "fft_gemm": lambda: core_compiled.fused_fft_gemm_1d(
            x1, w, 4, k_tb=k_tb),
        "gemm_ifft": lambda: core_compiled.fused_gemm_ifft_1d(
            np.ones((2, 4, 4), np.complex64), w, 16, k_tb=k_tb),
    }[entry]
    with pytest.raises(TypeError, match="k_tb must be an integer"):
        run()


@pytest.mark.parametrize("dim_x", [32.5, "32", True])
def test_non_integer_dim_x_is_rejected(dim_x):
    """``fused_gemm_ifft_1d`` checks ``dim_x`` like every other count:
    a typed error naming it, not a raw bitwise or comparison TypeError,
    and a bool is not taken as 1."""
    xk = np.ones((2, 4, 4), np.complex64)
    with pytest.raises(TypeError, match="dim_x must be an integer"):
        core_compiled.fused_gemm_ifft_1d(xk, np.ones((4, 3)), dim_x)
    with pytest.raises(ValueError, match="dim_x must be positive"):
        core_compiled.fused_gemm_ifft_1d(xk, np.ones((4, 3)), 0)


def test_compile_spectral_conv_factory():
    w = np.ones((4, 4), np.complex64)
    assert isinstance(compile_spectral_conv(w, 8), CompiledSpectralConv1D)
    assert isinstance(compile_spectral_conv(w, (8,)), CompiledSpectralConv1D)
    assert isinstance(
        compile_spectral_conv(w, (8, 4)), CompiledSpectralConv2D
    )
    with pytest.raises(ValueError):
        compile_spectral_conv(w, (8, 4, 2))
    assert compile_spectral_conv(w, 8, symmetric=True).symmetric
    assert compile_spectral_conv(w, (8, 4), symmetric=True).symmetric


@pytest.mark.parametrize("name", ["__call__", "forward_spectrum",
                                  "step_spectrum", "inverse_spectrum",
                                  "reanalyze_spectrum"])
def test_both_ranks_share_one_entry_point(name):
    """Each executor class names the entry point in its own namespace
    (where class-level wrappers find it), and both name the same
    function: one implementation serves both ranks."""
    one = vars(CompiledSpectralConv1D)[name]
    assert vars(CompiledSpectralConv2D)[name] is one
    assert one is vars(core_compiled._SpectralExecutor)[name]


# ---------------------------------------------------------------------------
# symmetric (half-spectrum) executors
# ---------------------------------------------------------------------------

def _sym_oracle_1d(x, w, modes):
    n = x.shape[-1]
    xk = np.fft.rfft(x, axis=-1)[..., :modes]
    yk = np.einsum("bim,io->bom", xk, w)
    out_ft = np.zeros((x.shape[0], w.shape[1], n // 2 + 1), dtype=complex)
    out_ft[..., :modes] = yk
    return np.fft.irfft(out_ft, n=n, axis=-1)


def _sym_oracle_2d(x, w, mx, my):
    b, _, dim_x, dim_y = x.shape
    xk = np.fft.rfft(x, axis=3)[..., :my]
    xk = np.fft.fft(xk, axis=2)[:, :, :mx]
    yk = np.einsum("bimn,io->bomn", xk, w)
    out_ft = np.zeros((b, w.shape[1], dim_x, dim_y // 2 + 1), dtype=complex)
    out_ft[:, :, :mx, :my] = yk
    return np.fft.irfft(np.fft.ifft(out_ft, axis=2), n=dim_y, axis=3)


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-3), (np.float64, 1e-9)])
def test_symmetric_executor_1d_matches_oracle(backend, dtype, atol):
    rng = np.random.default_rng(6)
    w = _weight(5, 3, np.complex128, rng)
    conv = CompiledSpectralConv1D(w, 8, symmetric=True)
    x = _x((4, 5, 64), dtype, rng)
    y = conv(x)
    assert y.dtype == dtype  # real in, real out, same precision
    np.testing.assert_allclose(
        y, _sym_oracle_1d(x.astype(np.float64), w, 8), atol=atol
    )


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-3), (np.float64, 1e-9)])
def test_symmetric_executor_2d_matches_oracle(backend, dtype, atol):
    rng = np.random.default_rng(7)
    w = _weight(4, 6, np.complex128, rng)
    conv = CompiledSpectralConv2D(w, 4, 8, symmetric=True)
    x = _x((2, 4, 16, 32), dtype, rng)
    y = conv(x)
    assert y.dtype == dtype
    np.testing.assert_allclose(
        y, _sym_oracle_2d(x.astype(np.float64), w, 4, 8), atol=atol
    )


def test_symmetric_executor_reuse_bit_identical(backend):
    """The R2C/C2R plans are resolved once per (dtype, geometry);
    repeated and interleaved calls through them are deterministic."""
    rng = np.random.default_rng(8)
    w = _weight(3, 3, np.complex64, rng)
    conv = CompiledSpectralConv1D(w, 4, symmetric=True)
    xs = [_x((b, 3, 32), np.float32, rng) for b in (2, 7, 1)]
    first = [conv(x) for x in xs]
    second = [conv(x) for x in reversed(xs)][::-1]
    for g1, g2 in zip(first, second):
        assert _bit_equal(g1, g2)
    assert len(conv._real) == 1


def test_symmetric_executor_validation():
    w = np.ones((4, 4), np.complex64)
    with pytest.raises(ValueError, match="modes <= X/2"):
        CompiledSpectralConv1D(w, 12, symmetric=True)(
            np.ones((2, 4, 16), np.float32)
        )
    with pytest.raises(ValueError, match="real input"):
        CompiledSpectralConv1D(w, 4, symmetric=True)(
            np.ones((2, 4, 16), np.complex64)
        )
    with pytest.raises(ValueError, match="modes_y <= Y/2"):
        CompiledSpectralConv2D(w, 4, 12, symmetric=True)(
            np.ones((2, 4, 16, 16), np.float32)
        )


def test_symmetric_executor_accepts_precomputed_spectrum(backend):
    """Passing the truncated spectrum skips the forward R2C pass but
    must produce the same result as computing it in the executor."""
    rng = np.random.default_rng(10)
    w = _weight(4, 3, np.complex128, rng)
    x = _x((3, 4, 64), np.float64, rng)
    conv = CompiledSpectralConv1D(w, 8, symmetric=True)
    xk = np.fft.rfft(x, axis=-1)[..., :8]
    np.testing.assert_allclose(conv(x, xk_trunc=xk), conv(x), atol=1e-9)
    conv2 = CompiledSpectralConv2D(w, 4, 8, symmetric=True)
    x2 = _x((2, 4, 16, 32), np.float64, rng)
    xk2 = np.fft.fft(np.fft.rfft(x2, axis=3)[..., :8], axis=2)[:, :, :4]
    np.testing.assert_allclose(conv2(x2, xk_trunc=xk2), conv2(x2), atol=1e-9)


def test_symmetric_executor_rejects_malformed_xk_trunc():
    rng = np.random.default_rng(11)
    w = _weight(4, 3, np.complex64, rng)
    x = _x((2, 4, 32), np.float32, rng)
    conv = CompiledSpectralConv1D(w, 8, symmetric=True)
    good = np.fft.rfft(x, axis=-1)[..., :8].astype(np.complex64)
    with pytest.raises(ValueError, match="xk_trunc"):
        conv(x, xk_trunc=good[..., :6])  # wrong mode count
    with pytest.raises(ValueError, match="xk_trunc"):
        conv(x, xk_trunc=good[:1])  # wrong batch
    with pytest.raises(ValueError, match="symmetric"):
        CompiledSpectralConv1D(w, 8)(x, xk_trunc=good)  # asymmetric mode
    conv2 = CompiledSpectralConv2D(w, 4, 8, symmetric=True)
    x2 = _x((2, 4, 16, 32), np.float32, rng)
    with pytest.raises(ValueError, match="xk_trunc"):
        conv2(x2, xk_trunc=np.zeros((2, 4, 8, 4), np.complex64))


# ---------------------------------------------------------------------------
# the spectrum entry points
# ---------------------------------------------------------------------------

def _is_pow2(n):
    return n & (n - 1) == 0


#: (batch, C_in, C_out, spatial, modes).  The symmetric rows reach the
#: pruned R2C/C2R "decomp" and "slice"/"pad" strategies (the "full"
#: one needs X/2 + 1 kept bins, past the executor's modes <= X/2), with
#: modes 1, non-powers of two and non-square weights; the fused C2C
#: pass runs the power-of-two rows.
_SPECTRUM_CASES = [
    (5, 6, 4, (32,), (16,)),
    (3, 9, 9, (64,), (1,)),
    (4, 7, 5, (64,), (13,)),
    (3, 5, 5, (64,), (31,)),
    (2, 12, 12, (128,), (32,)),
    (6, 3, 8, (16,), (8,)),
    (4, 10, 3, (128,), (3,)),
    (2, 4, 4, (16, 32), (8, 16)),
    (3, 5, 3, (8, 64), (5, 7)),
    (2, 6, 6, (16, 16), (16, 8)),
    (1, 3, 5, (32, 32), (1, 1)),
    (2, 4, 6, (16, 32), (4, 3)),
]


def _runs(case, symmetric):
    """Symmetric executors need modes <= X/2 on the last axis; the
    fused C2C pass needs power-of-two modes."""
    spatial, modes = case[3], case[4]
    if symmetric:
        return modes[-1] <= spatial[-1] // 2
    return all(map(_is_pow2, modes))


@pytest.mark.parametrize("case,symmetric", [
    (case, symmetric)
    for case in _SPECTRUM_CASES for symmetric in (False, True)
    if _runs(case, symmetric)
])
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_spectrum_path_is_the_call_path(backend, case, symmetric, dtype):
    """``inverse_spectrum(step_spectrum(forward_spectrum(x)))`` is
    ``conv(x)`` byte for byte, in both conventions."""
    batch, c_in, c_out, spatial, modes = case
    rng = np.random.default_rng(sum(spatial) + sum(modes))
    wdtype = np.complex64 if dtype == np.float32 else np.complex128
    w = _weight(c_in, c_out, wdtype, rng)
    x = _x((batch, c_in) + spatial, dtype, rng)
    conv = compile_spectral_conv(w, modes, symmetric=symmetric)
    sk = conv.forward_spectrum(x)
    assert sk.shape == (batch, c_in) + modes
    yk = conv.step_spectrum(sk)
    assert yk.shape == (batch, c_out) + modes
    arg = spatial if len(spatial) == 2 else spatial[0]
    assert _bit_equal(conv.inverse_spectrum(yk, arg), conv(x))


def test_spectrum_cases_reach_every_executor_strategy():
    from repro.fft.compiled import PlanCaches

    caches = PlanCaches(backend="numpy")
    reached = {
        (caches.pruned_rfft(spatial[-1], modes[-1])._strategy,
         caches.pruned_irfft(spatial[-1], modes[-1])._strategy)
        for (_, _, _, spatial, modes) in _SPECTRUM_CASES
        if modes[-1] <= spatial[-1] // 2
    }
    assert reached == {("decomp", "decomp"), ("slice", "pad")}


#: (label, modes, symmetric, method, spectrum shape, spatial)
_BAD_SPECTRA = [
    ("1d-c2c-too-few-bins", (8,), False, "inverse", (2, 4, 4), 32),
    ("1d-c2c-grid-below-modes", (8,), False, "inverse", (2, 4, 8), 4),
    ("1d-c2c-rank", (8,), False, "inverse", (2, 4, 8, 1), 32),
    ("1d-sym-too-few-bins", (8,), True, "inverse", (2, 4, 4), 32),
    ("1d-sym-reanalyze-bins", (8,), True, "reanalyze", (2, 4, 4), 32),
    ("2d-c2c-wrong-corner", (4, 8), False, "inverse", (2, 4, 3, 8),
     (16, 32)),
    ("2d-c2c-grid-below-modes", (4, 8), False, "inverse", (2, 4, 4, 8),
     (2, 32)),
    ("2d-sym-wrong-corner", (4, 8), True, "inverse", (2, 4, 3, 8),
     (16, 32)),
    ("2d-sym-rank", (4, 8), True, "inverse", (2, 4, 32), (16, 32)),
    ("2d-sym-grid-below-modes", (4, 8), True, "inverse", (2, 4, 4, 8),
     (2, 32)),
    ("2d-sym-reanalyze-corner", (4, 8), True, "reanalyze", (2, 4, 3, 8),
     (16, 32)),
    ("2d-sym-reanalyze-grid", (4, 8), True, "reanalyze", (2, 4, 4, 8),
     (2, 32)),
]


@pytest.mark.parametrize(
    "modes,symmetric,method,shape,spatial",
    [case[1:] for case in _BAD_SPECTRA], ids=[c[0] for c in _BAD_SPECTRA],
)
def test_inverse_and_reanalysis_check_the_spectrum(modes, symmetric, method,
                                                   shape, spatial):
    """A spectral state whose rank or kept modes disagree with the
    executor, or a grid smaller than the kept modes, raises a typed
    ``ValueError`` instead of a mis-shaped result or a raw NumPy
    error."""
    conv = compile_spectral_conv(
        np.ones((4, 4), np.complex64), modes, symmetric=symmetric
    )
    sk = np.ones(shape, np.complex64)
    fn = (conv.inverse_spectrum if method == "inverse"
          else conv.reanalyze_spectrum)
    with pytest.raises(ValueError, match=r"expected spectrum|modes"):
        fn(sk, spatial)


@pytest.mark.parametrize("modes,shape", [
    ((4,), (1, 3, 5)), ((4,), (2,)), ((4, 4), (1, 3, 5, 5)),
    ((4, 4), (1, 3, 4)),
])
def test_c2c_reanalysis_checks_the_spectrum(modes, shape):
    """The C2C reanalysis is the identity on a checked spectrum only:
    it used to hand back a list, or a state of the wrong corner,
    unchanged."""
    conv = compile_spectral_conv(np.ones((3, 3), np.complex64), modes)
    with pytest.raises(ValueError, match="expected spectrum"):
        conv.reanalyze_spectrum(np.zeros(shape, np.complex64))
    with pytest.raises(ValueError, match="expected spectrum"):
        conv.reanalyze_spectrum([1, 2])
    sk = np.ones((2, 3) + modes, np.complex64)
    assert conv.reanalyze_spectrum(sk) is sk


#: (ndim, spatial, error): grids with a non-integer length, the wrong
#: arity, or a non-positive length.
_BAD_SPATIAL = [
    (1, 64.7, TypeError),
    (1, (64.0,), TypeError),
    (1, "64", TypeError),
    (1, (64, 5), ValueError),
    (1, (), ValueError),
    (1, 0, ValueError),
    (2, 16, TypeError),
    (2, (16.9, 64), TypeError),
    (2, (16, None), TypeError),
    (2, (16, 64, 3), ValueError),
    (2, (16,), ValueError),
    (2, (16, -64), ValueError),
]


@pytest.mark.parametrize("method", ["inverse", "reanalyze"])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("ndim,spatial,error", _BAD_SPATIAL)
def test_spectrum_entry_points_check_spatial(backend, ndim, spatial, error,
                                             symmetric, method):
    """A ``spatial`` grid that is not one integer length per axis (an
    int or a 1-sequence in 1-D, a 2-sequence in 2-D) raises a typed
    error naming ``spatial``, instead of a raw NumPy error, a silently
    dropped axis or a truncated length."""
    modes = (8,) if ndim == 1 else (4, 8)
    conv = compile_spectral_conv(
        np.ones((4, 4), np.complex64), modes, symmetric=symmetric
    )
    sk = np.ones((2, 4) + modes, np.complex64)
    fn = (conv.inverse_spectrum if method == "inverse"
          else conv.reanalyze_spectrum)
    with pytest.raises(error, match="spatial"):
        fn(sk, spatial)


@pytest.mark.parametrize("symmetric", [False, True])
def test_spectrum_entry_points_take_integer_like_spatial(backend, symmetric):
    """NumPy integers and lists are integer lengths like any other."""
    rng = np.random.default_rng(13)
    w = _weight(4, 3, np.complex64, rng)
    for modes, spatial in (((8,), (32,)), ((4, 8), (16, 32))):
        conv = compile_spectral_conv(w, modes, symmetric=symmetric)
        x = _x((2, 4) + spatial, np.float32, rng)
        yk = conv.step_spectrum(conv.forward_spectrum(x))
        want = conv.inverse_spectrum(yk, spatial)
        as_numpy = [np.int64(s) for s in spatial]
        assert _bit_equal(conv.inverse_spectrum(yk, as_numpy), want)
        assert _bit_equal(conv.reanalyze_spectrum(yk, as_numpy),
                          conv.reanalyze_spectrum(yk, spatial))
        if len(spatial) == 1:
            assert _bit_equal(conv.inverse_spectrum(yk, np.int64(32)), want)


@pytest.mark.parametrize("ndim", [1, 2])
def test_symmetric_executor_rejects_xk_trunc_of_another_dtype(backend,
                                                              ndim):
    """``xk_trunc`` must be the input's complex dtype: a complex128
    spectrum with float32 input is not downcast (nor a complex64 one
    with float64 input upcast), and a real spectrum is refused."""
    rng = np.random.default_rng(14)
    w = _weight(4, 3, np.complex128, rng)
    modes, spatial = ((8,), (32,)) if ndim == 1 else ((4, 8), (16, 32))
    conv = compile_spectral_conv(w, modes, symmetric=True)
    for dtype, other in ((np.float32, np.complex128),
                         (np.float64, np.complex64)):
        x = _x((2, 4) + spatial, dtype, rng)
        xk = conv.forward_spectrum(x)
        assert _bit_equal(conv(x, xk_trunc=xk), conv(x))
        for bad in (xk.astype(other), xk.real.copy()):
            with pytest.raises(ValueError, match="xk_trunc"):
                conv(x, xk_trunc=bad)


def test_symmetric_layer_spectrum_cache_owns_its_memory(backend):
    """The cached activation spectrum must not pin the full half
    spectrum (it is held across the whole optimizer step).  The pruned
    R2C path may hand back an exact-size reshape view, so the invariant
    is on the pinned memory, not the base's shape."""
    from repro.nn.modules import SpectralConv1d

    rng = np.random.default_rng(12)
    m = SpectralConv1d(2, 2, 4, rng, symmetric=True)
    m(rng.standard_normal((1, 2, 256)))
    assert m._xk.base is None or m._xk.base.size == m._xk.size


def test_execution_plan_compile_executor_symmetric():
    rng = np.random.default_rng(9)
    p = plan(FNO1DProblem(batch=4, hidden=6, dim_x=64, modes=16))
    w = _weight(6, 6, np.complex64, rng)
    conv = p.compile_executor(w, symmetric=True)
    assert isinstance(conv, CompiledSpectralConv1D) and conv.symmetric
    x = _x((4, 6, 64), np.float32, rng)
    np.testing.assert_allclose(
        conv(x), _sym_oracle_1d(x.astype(np.float64), w, 16), atol=1e-3
    )


# ---------------------------------------------------------------------------
# plan attachment (plan once -> execute many)
# ---------------------------------------------------------------------------

def test_execution_plan_compile_executor_1d():
    rng = np.random.default_rng(4)
    p = plan(FNO1DProblem(batch=8, hidden=6, dim_x=64, modes=16))
    w = _weight(6, 6, np.complex64, rng)
    conv = p.compile_executor(w)
    assert isinstance(conv, CompiledSpectralConv1D)
    x = _x((8, 6, 64), np.float32, rng)
    assert _bit_equal(conv(x), legacy.fused_fft_gemm_ifft_1d(x, w, 16))


def test_execution_plan_compile_executor_2d_and_validation():
    rng = np.random.default_rng(5)
    p = plan(FNO2DProblem(batch=2, hidden=4, dim_x=16, dim_y=8,
                          modes_x=4, modes_y=4))
    conv = p.compile_executor(_weight(4, 4, np.complex64, rng))
    assert isinstance(conv, CompiledSpectralConv2D)
    with pytest.raises(ValueError, match="hidden"):
        p.compile_executor(_weight(5, 4, np.complex64, rng))


# ---------------------------------------------------------------------------
# parallel sweep runner
# ---------------------------------------------------------------------------

def test_parallel_map_speedups_matches_serial():
    problems = [
        FNO1DProblem(batch=64, hidden=k, dim_x=128, modes=64)
        for k in (16, 32, 48, 64, 80)
    ]
    runner = Runner()
    serial = runner.map_speedups(problems)
    parallel = runner.map_speedups(problems, workers=2)
    assert serial == parallel


def test_parallel_sweep_matches_serial():
    problems = [
        FNO2DProblem(batch=8, hidden=k, dim_x=32, dim_y=16,
                     modes_x=8, modes_y=8)
        for k in (16, 32, 64)
    ]
    runner = Runner()
    serial = runner.sweep(problems, ("A", "D", "best"))
    parallel = runner.sweep(problems, ("A", "D", "best"), workers=2)
    assert serial == parallel


def test_parallel_heatmap_matches_serial():
    from repro.analysis.sweeps import heatmap_1d

    clear_plan_cache()
    serial = heatmap_1d("t", 128, 64, [8, 24], [7, 9, 11])
    parallel = heatmap_1d("t", 128, 64, [8, 24], [7, 9, 11], workers=2)
    assert np.array_equal(serial.values, parallel.values)


def test_speedup_memoised_on_plan():
    p = plan(FNO1DProblem(batch=16, hidden=16, dim_x=128, modes=64), "D")
    first = p.speedup_vs_baseline()
    assert p._speedup is not None
    assert p.speedup_vs_baseline() == first
