"""Kernel-level oracles for the C kernels, for every compiled flag
variant.

``panel_contract`` and ``decomp_reduce`` promise each output element's
einsum summation order: naive rounded products, contracted index summed
sequentially from zero.  Their loop nests tile the unit-stride output
index (and the AVX2 ``panel_contract`` blocks modes by output channels
in registers), so these tests pin that order directly — against a
sequential NumPy replica, on data whose rounding depends on the order
— at shapes below, on and across the tile and block widths.

``stockham`` promises the bits of the legacy NumPy stage loop followed
by the NumPy fallback's complex ``/=`` and ``*=`` on every non-NaN
value, signed zeros and infinities included, and NaN in the same
places.  The AVX2 build runs stages in pairs, with a different
loop for the first pair, later pairs and an odd last stage, so the
lengths cover all of them.

``transpose``, ``decomp_mirror`` and ``expand_head_tail`` (the pruned
R2C/C2R plans' staging) promise the bits of the NumPy compositions they
replace, which :mod:`repro.fft.compiled` keeps as their fallbacks, under
the same contract as ``stockham``.

``fused_tile_c2c_1d`` (one batch of the fused 1-D C2C executor)
promises the bits of the executor's whole-batch NumPy stages, which run
on the NumPy fallback.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core.compiled import _StagedFused1D
from repro.fft import _ckernels, compiled, legacy
from repro.fft.twiddle import stage_twiddles

pytestmark = pytest.mark.skipif(
    _ckernels._build_blocker() is not None,
    reason=f"C kernels not built here: {_ckernels._build_blocker()}",
)

#: (bt, kt, m, o): m below, on, and across the 64-wide panel tile; m at
#: every residue mod 8 and o = 3, 5, 9, 33 with bt > 1, which straddle
#: the AVX2 build's register block of 8 modes (4 in double) by 4
#: output channels on both axes.
PANEL_SHAPES = [(1, 1, 1, 1), (2, 3, 63, 2), (1, 8, 64, 3), (2, 5, 65, 4),
                (1, 4, 129, 2), (3, 2, 200, 1), (1, 8, 256, 16),
                (2, 3, 7, 3), (3, 2, 9, 5), (2, 4, 23, 9), (2, 3, 70, 33),
                (2, 2, 10, 4), (3, 3, 11, 5), (2, 5, 12, 8), (2, 2, 13, 9),
                (2, 3, 14, 4)]
#: (batch, p, q): q below, on, and across the 16-wide decomposition tile.
DECOMP_SHAPES = [(1, 1, 1), (3, 4, 15), (2, 8, 16), (2, 3, 17), (1, 4, 33),
                 (5, 8, 64), (2, 2, 100)]
DTYPES = (np.complex64, np.complex128)


VARIANTS = {tag: flags for flags, tag in _ckernels._flag_variants()}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def kernels(request):
    """Each flag variant, built into (or reused from) the kernel cache.
    It is tested even when the loader's self-check rejected it: the
    oracle below needs only IEEE float adds and multiplies from NumPy,
    so a failure here is the kernel's, not the host's."""
    lib_path = _ckernels._compile(_ckernels._find_cc(),
                                  VARIANTS[request.param], request.param)
    if lib_path is None:
        pytest.skip(f"variant {request.param} does not build here")
    return _ckernels._Kernels(lib_path, request.param)


def _adversarial(rng, shape, dtype):
    """Complex values spanning twelve decades, so a reassociated sum
    rounds differently from the sequential one."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return x.astype(dtype)


def _bits(x):
    return np.ascontiguousarray(x).view(x.real.dtype)


def _complex(re, im):
    out = np.empty(re.shape, np.result_type(re.dtype, np.complex64))
    out.real, out.imag = re, im
    return out


def _panel_sequential(a, w, acc, order=None):
    """``acc + einsum("bkm,ko->bom", a, w)``, summing k in ``order``."""
    bt, kt, m = a.shape
    tr = np.zeros((bt, w.shape[1], m), a.real.dtype)
    ti = np.zeros_like(tr)
    for k in (range(kt) if order is None else order):
        ar, ai = a.real[:, k, None, :], a.imag[:, k, None, :]
        wr, wi = w.real[k, None, :, None], w.imag[k, None, :, None]
        tr = tr + (ar * wr - ai * wi)
        ti = ti + (ar * wi + ai * wr)
    return _complex(acc.real + tr, acc.imag + ti)


def _decomp_sequential(y, wd):
    """``einsum("bpk,pk->bk", y, wd)``, summing p in order."""
    tr = np.zeros((y.shape[0], y.shape[2]), y.real.dtype)
    ti = np.zeros_like(tr)
    for p in range(y.shape[1]):
        yr, yi = y.real[:, p], y.imag[:, p]
        wr, wi = wd.real[p], wd.imag[p]
        tr = tr + (yr * wr - yi * wi)
        ti = ti + (yr * wi + yi * wr)
    return _complex(tr, ti)


def _guarded(shape, dtype, fill):
    """An output array framed by sentinel elements, to catch a tile that
    writes past its row."""
    size = int(np.prod(shape))
    buf = np.full(size + 2, fill, dtype)
    return buf, buf[1:-1].reshape(shape)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", PANEL_SHAPES)
def test_panel_contract_keeps_sequential_order(kernels, dtype, shape):
    bt, kt, m, o = shape
    rng = np.random.default_rng(bt * 1000 + kt * 100 + m + o)
    a = _adversarial(rng, (bt, kt, m), dtype)
    w = _adversarial(rng, (kt, o), dtype)
    acc0 = _adversarial(rng, (bt, o, m), dtype)
    buf, acc = _guarded((bt, o, m), dtype, 7 + 7j)
    acc[...] = acc0
    kernels.panel_contract(a, w, acc, bt, kt, m, o)
    assert np.array_equal(_bits(acc), _bits(_panel_sequential(a, w, acc0)))
    assert np.array_equal(_bits(acc), _bits(acc0 + np.einsum(
        "bkm,ko->bom", a, w)))
    assert buf[0] == buf[-1] == 7 + 7j


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(2, 5, 70, 9), (3, 8, 16, 4)])
def test_panel_contract_keeps_special_values(kernels, dtype, shape):
    """Signed zeros, infinities, NaNs and subnormals in ``a``, ``w``
    and ``acc`` give the sequential replica's bits on every non-NaN
    component and NaN in the same places, inside the register blocks
    and in both tails."""
    bt, kt, m, o = shape
    rng = np.random.default_rng(bt * 1000 + kt * 100 + m + o)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny]
    a, w, acc0 = (_with_specials(rng, _adversarial(rng, s, dtype), specials)
                  for s in ((bt, kt, m), (kt, o), (bt, o, m)))
    buf, acc = _guarded((bt, o, m), dtype, 7 + 7j)
    acc[...] = acc0
    with np.errstate(all="ignore"):
        kernels.panel_contract(a, w, acc, bt, kt, m, o)
        ref = _bits(_panel_sequential(a, w, acc0))
    assert np.isnan(ref).any() and not np.isnan(ref).all()
    assert _same_bits_or_both_nan(acc, ref)
    assert buf[0] == buf[-1] == 7 + 7j


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", DECOMP_SHAPES)
def test_decomp_reduce_keeps_sequential_order(kernels, dtype, shape):
    batch, p, q = shape
    rng = np.random.default_rng(batch * 1000 + p * 100 + q)
    y = _adversarial(rng, (batch, p, q), dtype)
    wd = _adversarial(rng, (p, q), dtype)
    buf, out = _guarded((batch, q), dtype, 7 + 7j)
    kernels.decomp_reduce(y, wd, out, batch, p, q)
    assert np.array_equal(_bits(out), _bits(_decomp_sequential(y, wd)))
    assert np.array_equal(_bits(out), _bits(np.einsum("bpk,pk->bk", y, wd)))
    assert buf[0] == buf[-1] == 7 + 7j


def _with_specials(rng, x, values):
    """``x`` with about a tenth of its real components replaced by
    ``values``."""
    flat = x.copy().view(x.real.dtype).reshape(-1)
    idx = rng.choice(flat.size, size=max(1, flat.size // 10), replace=False)
    flat[idx] = rng.choice(np.array(values, flat.dtype), size=idx.size)
    return flat.view(x.dtype).reshape(x.shape)


def _stage_table(n, dtype, inverse):
    """The concatenated per-stage half tables a compiled plan passes."""
    if n == 1:
        return np.zeros(0, dtype)
    return np.concatenate([stage_twiddles(2 << s, inverse=inverse)
                           .astype(dtype) for s in range(n.bit_length() - 1)])


def _stockham_reference(x, inverse, div_by, mul_by):
    """The legacy stage loop, then the NumPy fallback's complex ``out /=
    div_by`` and ``out *= mul_by``, as real components.  (Those are
    Smith's division and the ufunc multiply by a real promoted to
    ``s + 0i``, which set the signs of zeros and turn infinities into
    NaNs differently from per-component scaling.)"""
    ref = legacy._stockham_last_axis(x, inverse).copy()
    if div_by is not None:
        ref /= div_by
    if mul_by is not None:
        ref *= mul_by
    return ref.view(x.real.dtype)


def _same_bits_or_both_nan(got, ref):
    """Bit-equal on every non-NaN component (as integers, so -0.0 is
    not 0.0), NaN in the same places (NaN payload and sign are not part
    of the contract)."""
    got = _bits(got)
    nan = np.isnan(ref)
    ints = np.dtype(f"u{ref.itemsize}")
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(ints), ref[~nan].view(ints)))


def _run_stockham(kernels, x, inverse, div_by, mul_by):
    """The kernel over every row of ``x``; out and scratch are guarded."""
    rows, n = x.shape
    buf, out = _guarded((rows, n), x.dtype, 7 + 7j)
    sbuf, scratch = _guarded((rows, n), x.dtype, 7 + 7j)
    kernels.stockham(x, out, scratch, _stage_table(n, x.dtype, inverse),
                     rows, n, div_by, mul_by)
    assert buf[0] == buf[-1] == sbuf[0] == sbuf[-1] == 7 + 7j
    return out


#: (div_by, mul_by) per n: none, the inverse normalisation, and the
#: pruned-inverse rescale chained after it.
STOCKHAM_SCALES = {"none": lambda n: (None, None),
                   "div": lambda n: (float(n), None),
                   "div_mul": lambda n: (float(n), 0.375)}


@pytest.mark.parametrize("scale", sorted(STOCKHAM_SCALES))
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", [1, 3, 17])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 512])
def test_stockham_matches_legacy_stage_loop(kernels, n, rows, dtype,
                                            inverse, scale):
    """Every pass kind — the first stage pair (half = 1, 2), later pairs
    with one and several vectors per row, an odd last radix-2 stage, rows
    too short for the vector passes — against the legacy NumPy stage
    loop, bit for bit, on twelve-decade data with signed zeros injected.
    With several rows, row 1 holds only signed zeros and the last row
    also infinities, whose NaNs stay in that row."""
    rng = np.random.default_rng(n * 100 + rows * 10 + inverse)
    x = _with_specials(rng, _adversarial(rng, (rows, n), dtype), [0.0, -0.0])
    if rows > 2:
        x[1] = (np.copysign(0.0, x[1].real)
                + 1j * np.copysign(0.0, x[1].imag))
    if rows > 1:
        x[-1:] = _with_specials(rng, x[-1:], [np.inf, -np.inf])
    div_by, mul_by = STOCKHAM_SCALES[scale](n)
    with np.errstate(all="ignore"):
        got = _run_stockham(kernels, x, inverse, div_by, mul_by)
        ref = _stockham_reference(x, inverse, div_by, mul_by)
    assert not np.isnan(ref[:max(rows - 1, 1)]).any()
    assert _same_bits_or_both_nan(got, ref)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [2, 8, 64])
def test_stockham_keeps_nan_positions(kernels, n, dtype):
    """A NaN input reaches the same output components as in the legacy
    loop, and every other component keeps its bits."""
    rng = np.random.default_rng(n)
    x = _with_specials(rng, _adversarial(rng, (5, n), dtype), [0.0, -0.0])
    x[0, n - 1] = complex(np.nan, 1.0)
    x[1, 0] = complex(-np.inf, 0.0)
    with np.errstate(all="ignore"):
        got = _run_stockham(kernels, x, True, float(n), None)
        ref = _stockham_reference(x, True, float(n), None)
    assert np.isnan(ref[0]).any() and not np.isnan(ref[2:]).any()
    assert _same_bits_or_both_nan(got, ref)


#: Every (re, im) pair of {+-0, +-1, +-inf}.
SIGNED_GRID = np.array([complex(re, im)
                        for re in (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf)
                        for im in (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf)])


def _grid_rows(n, dtype):
    """Each grid value as a constant row and as an impulse at bin 0."""
    const = np.repeat(SIGNED_GRID[:, None], n, axis=1)
    impulse = np.zeros((SIGNED_GRID.size, n), complex)
    impulse[:, 0] = SIGNED_GRID
    return np.ascontiguousarray(np.concatenate([const, impulse]), dtype)


@pytest.mark.parametrize("scale", ["div", "div_mul"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_stockham_scaling_matches_numpy_fallback_on_signed_grid(
        kernels, n, dtype, scale):
    """The inverse transform's ``/ div_by`` and ``* mul_by`` give the
    NumPy fallback's bits and NaNs on signed zeros and infinities: its
    complex ufuncs set the signs of zeros, and turn an infinite
    component into NaN in the other, where per-component scaling would
    not."""
    x = _grid_rows(n, dtype)
    div_by, mul_by = (float(n), None if scale == "div" else 0.5)
    plan = compiled.PlanCaches(backend="numpy").fft(n, dtype, inverse=True)
    with np.errstate(all="ignore"):
        got = _run_stockham(kernels, x, True, div_by, mul_by)
        ref = plan.execute(x, div_by=div_by, mul_by=mul_by)
    assert _same_bits_or_both_nan(got, _bits(ref))


@pytest.mark.skipif(not _ckernels.kernels_available(),
                    reason="the C kernels did not load here")
def test_build_info_names_the_variant_and_the_vector_tier():
    """A fingerprint or a bug report shows which code ran: the loaded
    flag variant and the vector tier it picked from the CPU (``scalar``
    exactly for the generic build)."""
    k = _ckernels.get_kernels()
    assert _ckernels.build_info().startswith(
        f"loaded ({k.variant}, {k.tier}) from ")
    assert k.tier in _ckernels.TIERS
    assert (k.tier == "scalar") == k.variant.startswith("generic")


def test_each_variant_reports_its_tiers(kernels):
    """The generic build runs only the scalar loops and cannot be forced
    to a vector tier; the fma-target build runs AVX2 or AVX-512."""
    if kernels.variant.startswith("generic"):
        assert kernels.tier == "scalar"
        with pytest.raises(ValueError):
            with kernels._forced_tier("avx2"):
                pass
        assert kernels.tier == "scalar"
    else:
        assert kernels.tier in ("avx2", "avx512")


@pytest.fixture
def private_loader(monkeypatch, tmp_path):
    """``get_kernels`` from a fresh loader state over a private copy of
    the ``fma-target`` library: a copy is a separate load with its own
    vector tier, so pinning it leaves the library every other test uses
    alone.  The loader's state is restored afterwards.  Returns the
    variant's tag and the library the other tests load."""
    flags, fma_tag = _ckernels._flag_variants()[0]
    shared = _ckernels._compile(_ckernels._find_cc(), flags, fma_tag)
    if shared is None:
        pytest.skip(f"variant {fma_tag} does not build here")
    compile_ = _ckernels._compile

    def copying(cc, extra, tag):
        path = compile_(cc, extra, tag)
        if path is None or tag != fma_tag:
            return path
        copy = tmp_path / os.path.basename(path)
        if not copy.exists():
            shutil.copyfile(path, copy)
        return str(copy)

    monkeypatch.setattr(_ckernels, "_compile", copying)
    monkeypatch.setattr(_ckernels, "_state",
                        {"kernels": None, "tried": False,
                         "info": "not loaded"})
    return fma_tag, shared


def _failing_self_check(monkeypatch, fails):
    """Make the loader's self-check fail wherever ``fails(kernels)``;
    return the (variant, tier) pairs it ran at."""
    check, runs = _ckernels._self_check, []

    def patched(k):
        runs.append((k.variant, k.tier))
        return not fails(k) and check(k)

    monkeypatch.setattr(_ckernels, "_self_check", patched)
    return runs


def test_self_check_failing_at_avx512_pins_avx2(private_loader, monkeypatch):
    """A library that fails the self-check at the AVX-512 tier it picked
    but passes at AVX2 is kept, pinned at AVX2 for the process: the
    failed tier cannot be forced again, and ``build_info`` names the
    tier in effect."""
    fma_tag, shared = private_loader
    try:
        with _ckernels._Kernels(shared, fma_tag)._forced_tier("avx512"):
            pass
    except ValueError:
        pytest.skip("this CPU lacks the avx512 tier (avx512f/dq/vl with OS "
                    "support), so the loader never checks a library there")
    runs = _failing_self_check(monkeypatch, lambda k: k.tier == "avx512")
    k = _ckernels.get_kernels()
    assert runs == [(fma_tag, "avx512"), (fma_tag, "avx2")]
    assert k.variant == fma_tag and k.tier == "avx2"
    with pytest.raises(ValueError, match="avx512"):
        with k._forced_tier("avx512"):
            pass
    assert k.tier == "avx2"
    assert _ckernels.build_info().startswith(f"loaded ({fma_tag}, avx2) from ")
    assert "avx512 tier failed" in _ckernels.build_info()


def test_self_check_failing_at_every_tier_falls_back_to_generic(
        private_loader, monkeypatch):
    """A library that fails at AVX2 as well (or at its only tier) is
    refused, and the generic build loads."""
    fma_tag, _ = private_loader
    runs = _failing_self_check(monkeypatch,
                               lambda k: k.variant == fma_tag)
    k = _ckernels.get_kernels()
    assert k is not None and k.variant != fma_tag and k.tier == "scalar"
    assert [tier for variant, tier in runs if variant == fma_tag][-1] == "avx2"
    assert _ckernels.build_info().startswith(f"loaded ({k.variant}, scalar) ")


@pytest.mark.skipif(not _ckernels.kernels_available(),
                    reason="the C kernels did not load here")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_pruned_irfft_part_one_matches_across_backends(n, dtype):
    """A one-bin C2R synthesis gives the same bits and NaNs on both
    backends over the signed grid: its length-1 sub-inverse scales by
    ``div_by`` and ``mul_by`` there."""
    x = np.ascontiguousarray(SIGNED_GRID[:, None], dtype)
    outs = []
    with np.errstate(all="ignore"):
        for backend in ("ckernels", "numpy"):
            plans = compiled.PlanCaches(backend=backend)
            outs.append(plans.pruned_irfft(n, 1, dtype).execute(x))
    assert _same_bits_or_both_nan(*outs)


@pytest.mark.parametrize("dtype", DTYPES)
def test_order_oracle_detects_reassociation(dtype):
    """The adversarial data makes the oracle order-sensitive: summing k
    in reverse gives different bits, so a kernel that reassociated would
    fail the tests above."""
    rng = np.random.default_rng(11)
    a = _adversarial(rng, (2, 8, 64), dtype)
    w = _adversarial(rng, (8, 4), dtype)
    acc0 = np.zeros((2, 4, 64), dtype)
    forward = _panel_sequential(a, w, acc0)
    backward = _panel_sequential(a, w, acc0, order=range(7, -1, -1))
    assert not np.array_equal(_bits(forward), _bits(backward))


def test_operands_are_checked_before_the_call(kernels):
    """The C side trusts its sizes: a wrong dtype, a strided view, a
    short buffer or a bad geometry scalar raises before any kernel
    touches memory."""
    k = kernels
    a = np.ones((2, 3, 8), np.complex64)
    w = np.ones((3, 4), np.complex64)
    acc = np.zeros((2, 4, 8), np.complex64)
    with pytest.raises(TypeError, match="unsupported dtype"):
        k.panel_contract(a.real.copy(), w, acc, 2, 3, 8, 4)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.panel_contract(a, w.astype(np.complex128), acc, 2, 3, 8, 4)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.panel_contract(a, w, acc[:, :, ::2], 2, 3, 4, 4)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.panel_contract(a, w, acc, 2, 3, 8, 5)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.decomp_reduce(a, w[:, :1], acc, 2, 3, 8)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.stockham(a.reshape(6, 8), acc.reshape(8, 8)[:5], acc,
                   np.ones(7, np.complex64), 6, 8, None, None)
    with pytest.raises(ValueError, match="outside"):
        k.decomp_mirror(a, w, w, acc, 2, 3, 8, 9)
    with pytest.raises(ValueError, match="outside"):
        k.expand_head_tail(a[:, 0, :0], w[0, :0], w[0, :0], w, w, acc,
                           2, 0, 3, 4)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.transpose(a, acc[:, :3, ::2], 2, 3, 8)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.expand_head_tail(a[:, 0, :2], w[0, :2], w[0, :1], w, w, acc,
                           2, 2, 3, 4)
    assert not acc.any()
    # The tile driver: its geometry first, then every operand against
    # the counts that geometry implies.
    c64 = np.complex64
    ops = dict(
        x=np.ones((2, 3, 16), c64), w=np.ones((3, 4), c64),
        tw_fwd=np.ones(7, c64), tw_inv=np.ones(7, c64),
        wd_fwd=np.ones((2, 8), c64), wd_inv=np.ones((2, 8), c64),
        gather=np.zeros(64, c64), fftbuf=np.zeros(64, c64),
        scratch=np.zeros(64, c64), spec=np.zeros(16, c64),
        acc=np.zeros(32, c64), out=np.zeros((2, 4, 16), c64),
        bt=2, c_in=3, c_out=4, dim_x=16, modes=8, k_tb=2,
    )
    bad = [
        (TypeError, "unsupported dtype", dict(x=ops["x"].real.copy())),
        (ValueError, "C-contiguous", dict(w=ops["w"].astype(np.complex128))),
        (ValueError, "C-contiguous",
         dict(x=np.ones((2, 3, 32), c64)[:, :, ::2])),
        (ValueError, "C-contiguous", dict(scratch=np.zeros(63, c64))),
        (ValueError, "C-contiguous", dict(spec=np.zeros(15, c64))),
        (ValueError, "C-contiguous", dict(bt=3)),
        (ValueError, "power of two", dict(modes=6, dim_x=12)),
        (ValueError, "power of two", dict(modes=0)),
        (ValueError, "multiple of modes", dict(dim_x=20)),
        (ValueError, "multiple of modes", dict(dim_x=4)),
        (ValueError, "k_tb", dict(k_tb=0)),
        (ValueError, "k_tb", dict(k_tb=-1)),
        (ValueError, "extents", dict(bt=-1)),
        (ValueError, "extents", dict(c_in=0)),
        (ValueError, "extents", dict(c_out=0)),
    ]
    for exc, match, change in bad:
        with pytest.raises(exc, match=match):
            k.fused_tile_c2c_1d(**{**ops, **change})
    for name in ("gather", "fftbuf", "scratch", "spec", "acc", "out"):
        assert not ops[name].any(), name


# ---------------------------------------------------------------------------
# Pruned R2C/C2R staging kernels against the NumPy compositions
# ---------------------------------------------------------------------------

#: (batch, r, c) transposes: the R2C gather is (rows, q, P) -> (rows, P,
#: q) and the C2R interleave (rows, S, q) -> (rows, q, S).
TRANSPOSE_SHAPES = [(1, 1, 1), (3, 16, 4), (17, 4, 16), (3, 1, 8),
                    (1, 17, 3)]
#: (p, q, m) mirrored pairs: part 1 (bin 0 mirrors itself), part below
#: and at q, q below, on and across the 16-wide tile, split 1 and > 1.
MIRROR_SHAPES = [(4, 1, 1), (1, 2, 2), (2, 8, 1), (4, 8, 5), (1, 8, 8),
                 (4, 16, 9), (2, 16, 16), (4, 32, 17), (1, 32, 32),
                 (3, 22, 19)]
#: (m, s, q) head/tail expansions: part 1 (no tail), part 2 (one tail
#: bin), part below and at q; q below, on and across the 64-wide tile;
#: split 1 and > 1.
HEAD_TAIL_SHAPES = [(1, 4, 1), (1, 2, 8), (2, 3, 2), (2, 1, 8),
                    (5, 4, 8), (8, 2, 8), (9, 1, 16), (16, 3, 16),
                    (33, 2, 64), (64, 1, 64), (65, 2, 128), (128, 2, 128)]
ROWS = [1, 3, 17]


def _staging_data(rng, shape, dtype):
    """Twelve-decade values with signed zeros everywhere and, with
    several rows, infinities in the last one."""
    x = _with_specials(rng, _adversarial(rng, shape, dtype), [0.0, -0.0])
    if shape[0] > 1:
        x[-1:] = _with_specials(rng, x[-1:], [np.inf, -np.inf])
    return x


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", TRANSPOSE_SHAPES)
def test_transpose_matches_swapaxes(kernels, dtype, shape):
    batch, r, c = shape
    rng = np.random.default_rng(batch * 100 + r * 10 + c)
    src = _staging_data(rng, shape, dtype)
    buf, dst = _guarded((batch, c, r), dtype, 7 + 7j)
    kernels.transpose(src, dst, batch, r, c)
    ref = np.empty_like(dst)
    compiled.transpose(src, ref)
    assert _same_bits_or_both_nan(dst, _bits(ref))
    assert buf[0] == buf[-1] == 7 + 7j


def _run_mirror(kernels, y, u, v, m):
    batch, p, q = y.shape
    buf, out = _guarded((batch, m), y.dtype, 7 + 7j)
    kernels.decomp_mirror(y, u, v, out, batch, p, q, m)
    assert buf[0] == buf[-1] == 7 + 7j
    ref = np.empty_like(out)
    compiled.decomp_mirror(y, u, v, ref)
    return out, ref


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("shape", MIRROR_SHAPES)
def test_decomp_mirror_matches_numpy_composition(kernels, shape, rows, dtype):
    """``take`` + ``conjugate`` + two ``decomp_reduce`` + ``+=`` + the
    ``[:, :m]`` slice, bit for bit, on data whose sums depend on the
    order of p."""
    p, q, m = shape
    rng = np.random.default_rng(p * 1000 + q * 10 + m + rows)
    y = _staging_data(rng, (rows, p, q), dtype)
    u, v = _adversarial(rng, (p, q), dtype), _adversarial(rng, (p, q), dtype)
    with np.errstate(all="ignore"):
        out, ref = _run_mirror(kernels, y, u, v, m)
    assert not np.isnan(_bits(ref)[:max(rows - 1, 1)]).any()
    assert _same_bits_or_both_nan(out, _bits(ref))


def _run_head_tail(kernels, x, ch, ct, wdh, wdt):
    batch, m = x.shape
    s, q = wdh.shape
    buf, out = _guarded((batch, s, q), x.dtype, 7 + 7j)
    kernels.expand_head_tail(x, ch, ct, wdh, wdt, out, batch, m, s, q)
    assert buf[0] == buf[-1] == 7 + 7j
    ref = np.empty_like(out)
    compiled.expand_head_tail(x, ch, ct, wdh, wdt, ref)
    return out, ref


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("shape", HEAD_TAIL_SHAPES)
def test_expand_head_tail_matches_numpy_composition(kernels, shape, rows,
                                                    dtype):
    """The head/tail scatter, both ``expand_mul`` calls and ``+=``, bit
    for bit, including signed zeros from the zero bins and the
    one-row, one-tail-bin product NumPy forms without FMA."""
    m, s, q = shape
    rng = np.random.default_rng(m * 1000 + s * 100 + q + rows)
    x = _staging_data(rng, (rows, m), dtype)
    ch, ct = _adversarial(rng, m, dtype), _adversarial(rng, m - 1, dtype)
    wdh = _adversarial(rng, (s, q), dtype)
    wdt = _adversarial(rng, (s, q), dtype)
    with np.errstate(all="ignore"):
        out, ref = _run_head_tail(kernels, x, ch, ct, wdh, wdt)
    assert not np.isnan(_bits(ref)[:max(rows - 1, 1)]).any()
    assert _same_bits_or_both_nan(out, _bits(ref))


@pytest.mark.parametrize("dtype", DTYPES)
def test_staging_kernels_keep_nan_positions(kernels, dtype):
    """A NaN input reaches the same outputs as in the NumPy composition,
    and every other component keeps its bits."""
    rng = np.random.default_rng(5)
    y = _staging_data(rng, (4, 4, 16), dtype)
    y[0, 1, 3] = complex(np.nan, 1.0)
    u, v = _adversarial(rng, (4, 16), dtype), _adversarial(rng, (4, 16), dtype)
    x = _staging_data(rng, (4, 9), dtype)
    x[0, 4] = complex(1.0, np.nan)
    ch, ct = _adversarial(rng, 9, dtype), _adversarial(rng, 8, dtype)
    wdh, wdt = (_adversarial(rng, (2, 16), dtype),
                _adversarial(rng, (2, 16), dtype))
    with np.errstate(all="ignore"):
        results = [_run_mirror(kernels, y, u, v, 9),
                   _run_head_tail(kernels, x, ch, ct, wdh, wdt)]
    for out, ref in results:
        assert np.isnan(_bits(ref)[0]).any()
        assert not np.isnan(_bits(ref)[1:-1]).any()
        assert _same_bits_or_both_nan(out, _bits(ref))


@pytest.mark.parametrize("dtype", DTYPES)
def test_one_row_one_tail_bin_keeps_the_unfused_product(kernels, dtype):
    """With one row and one tail bin NumPy forms the tail product in its
    scalar loop, without FMA; with two rows it fuses.  On operands where
    the two differ, the kernel matches the composition either way."""
    x, *tables = _ckernels._unfused_tail_probe(dtype)
    one, one_ref = _run_head_tail(kernels, x, *tables)
    two, two_ref = _run_head_tail(kernels, np.repeat(x, 2, axis=0), *tables)
    assert not np.array_equal(_bits(one_ref[0]), _bits(two_ref[0]))
    assert np.array_equal(_bits(one), _bits(one_ref))
    assert np.array_equal(_bits(two), _bits(two_ref))


@pytest.mark.parametrize("name,out_arg", [("transpose", 1),
                                          ("decomp_mirror", 3),
                                          ("expand_head_tail", 5),
                                          ("fused_tile_c2c_1d", 11),
                                          ("pruned_rfft_rows", 5),
                                          ("pruned_irfft_rows", 7),
                                          ("spectral_steps", 3),
                                          ("panel_contract", 2),
                                          ("stockham", 1)])
def test_self_check_probes_the_staging_kernels(kernels, name, out_arg,
                                               monkeypatch):
    """The loader's self-check rejects a library whose staging,
    contraction or FFT kernel, or tile or row driver, is off by one ulp
    in one output component."""
    assert _ckernels._self_check(kernels)
    real = getattr(kernels, name)

    def off_by_one_ulp(*args):
        real(*args)
        out = args[out_arg]
        if isinstance(out, list):  # a row table: nudge its last entry
            out = out[-1]
        last = out.reshape(-1)[-1:].view(out.real.dtype)
        last[-1] = np.nextafter(last[-1], np.inf)

    monkeypatch.setattr(kernels, name, off_by_one_ulp)
    assert not _ckernels._self_check(kernels)


def test_self_check_rejects_per_component_scaling(kernels, monkeypatch):
    """A Stockham kernel that scales each component on its own, as
    this one once did, agrees with NumPy on every finite nonzero value
    at a power-of-two divisor; the self-check's signed-zero probe still
    rejects it."""
    real = kernels.stockham

    def per_component(x, out, scratch, tw, rows, n, div_by, mul_by):
        real(x, out, scratch, tw, rows, n, None, None)
        parts = out.reshape(-1).view(out.real.dtype)
        if div_by is not None:
            parts /= div_by
        if mul_by is not None:
            parts *= mul_by

    assert _ckernels._self_check(kernels)
    monkeypatch.setattr(kernels, "stockham", per_component)
    assert not _ckernels._self_check(kernels)


# ---------------------------------------------------------------------------
# The fused C2C tile driver against the executor's NumPy stages
# ---------------------------------------------------------------------------

#: C_in -> C_out, never square.  At k_tb = 4: full panels only (32), a
#: ragged tail panel after three full ones (13) and after one (5); at
#: k_tb = 3 every count ends ragged, and at k_tb = 8, C_in = 5 is one
#: panel narrower than k_tb.
FUSED_CHANNELS = {32: 24, 13: 7, 5: 9}
FUSED_MODES = 16
_numpy_plans = compiled.PlanCaches(backend="numpy")


def _fused_tile(kernels, staged, x):
    """The driver over ``x`` as one tile, with every workspace sized as
    documented and framed by sentinels."""
    bt, c_in, dim_x = x.shape
    c_out, modes, p = staged.c_out, staged.modes, staged.p
    row = max(staged.k_tb, c_out) * dim_x
    sizes = (row, row, row, staged.k_tb * modes if p > 1 else 0,
             c_out * modes, bt * c_out * dim_x)
    bufs = [_guarded((size,), x.dtype, 7 + 7j) for size in sizes]
    none = np.empty(0, x.dtype)
    kernels.fused_tile_c2c_1d(
        x, staged.weight, staged.trunc.fft.twiddles,
        staged.itrunc.fft.twiddles, staged.trunc.wd if p > 1 else none,
        staged.itrunc.wd if p > 1 else none,
        *(view for _, view in bufs), bt, c_in, c_out, dim_x, modes,
        staged.k_tb)
    assert all(buf[0] == buf[-1] == 7 + 7j for buf, _ in bufs)
    return bufs[-1][1].reshape(bt, c_out, dim_x)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bt", [1, 7, 16])
@pytest.mark.parametrize("k_tb", [3, 4, 8])
@pytest.mark.parametrize("c_in", sorted(FUSED_CHANNELS))
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_fused_tile_matches_python_stage_loop(kernels, p, c_in, k_tb, bt,
                                              dtype):
    """One call per batch is byte-identical to the executor's NumPy
    stages, on twelve-decade data with signed zeros: p = 1 (no
    decomposition) and p > 1, full and ragged tail panels, a panel
    wider than C_in, one to sixteen rows."""
    c_out, dim_x = FUSED_CHANNELS[c_in], p * FUSED_MODES
    rng = np.random.default_rng(p * 1000 + c_in * 10 + k_tb + bt)
    x = _with_specials(rng, _adversarial(rng, (bt, c_in, dim_x), dtype),
                       [0.0, -0.0])
    w = _with_specials(rng, _adversarial(rng, (c_in, c_out), dtype),
                       [0.0, -0.0])
    staged = _StagedFused1D(w, FUSED_MODES, dim_x, k_tb, np.dtype(dtype),
                            plans=_numpy_plans)
    ref = staged.run_fused(x)
    got = _fused_tile(kernels, staged, x)
    assert np.array_equal(_bits(got), _bits(ref))
