"""The vector tiers of the ``fma-target`` build give the same bytes.

That build runs its vector kernels at one of two tiers, picked once per
process from the CPU: AVX2 (256-bit registers) or, where the CPU and OS
support avx512f/dq/vl, AVX-512 (two rows per zmm register in the
Stockham passes; 16-mode (8 in double) blocks in ``panel_contract``,
``decomp_mirror`` and the C2R head/tail expansion).  The AVX-512 tier
runs the AVX2 tier's operations on every lane, so every kernel and
driver must give the AVX2 tier's bytes, NaN payloads included, and the
oracles' bytes: the legacy NumPy stage loop (Stockham), the sequential
einsum replica (``panel_contract``) and the loader's staged kernel
sequences (the drivers, run at the AVX2 tier).

Each test runs at both tiers; the AVX-512 half skips on a CPU without
AVX-512.  The tier is the library's, shared by every binding of the same
file in the process, so ``_forced_tier`` restores it on exit.
"""

import numpy as np
import pytest

from repro.fft import _ckernels, legacy
from repro.fft.twiddle import decomposition_twiddles

pytestmark = pytest.mark.skipif(
    _ckernels._build_blocker() is not None,
    reason=f"C kernels not built here: {_ckernels._build_blocker()}",
)

DTYPES = (np.complex64, np.complex128)


@pytest.fixture(scope="module")
def kernels():
    """The ``fma-target`` build (sanitized when the run is)."""
    flags, tag = _ckernels._flag_variants()[0]
    lib_path = _ckernels._compile(_ckernels._find_cc(), flags, tag)
    if lib_path is None:
        pytest.skip(f"variant {tag} does not build here")
    return _ckernels._Kernels(lib_path, tag)


@pytest.fixture(params=["avx2", "avx512"])
def tier(request, kernels):
    try:
        with kernels._forced_tier(request.param):
            pass
    except ValueError:
        pytest.skip(f"this CPU lacks the {request.param} tier "
                    f"(avx512f/dq/vl with OS support), so only the AVX2 "
                    f"tier runs here")
    return request.param


def _at(kernels, tier, fn):
    with kernels._forced_tier(tier):
        return fn()


def _cplx(rng, shape, dtype):
    """Complex values spanning twelve decades, with signed zeros."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    x = x.astype(dtype)
    flat = x.view(x.real.dtype).reshape(-1)
    if not flat.size:
        return x
    idx = rng.choice(flat.size, max(1, flat.size // 10), replace=False)
    flat[idx] = rng.choice(np.array([0.0, -0.0], flat.dtype), idx.size)
    return x


def _bytes(x):
    return np.ascontiguousarray(x).view(np.uint8)


def _same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(_bytes(a), _bytes(b))


def _same_bits_or_both_nan(got, ref):
    got = np.ascontiguousarray(got).view(got.real.dtype).reshape(-1)
    ref = np.ascontiguousarray(ref).view(ref.real.dtype).reshape(-1)
    nan = np.isnan(ref)
    ints = np.dtype(f"u{ref.itemsize}")
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(ints), ref[~nan].view(ints)))


def test_the_tier_is_named_and_restored(kernels):
    """The loader names the tier it picked, a forced tier holds only
    inside its block, and a tier the build lacks raises and changes
    nothing."""
    picked = kernels.tier
    assert picked in ("avx2", "avx512")
    with kernels._forced_tier("avx2"):
        assert kernels.tier == "avx2"
    assert kernels.tier == picked
    with pytest.raises(ValueError, match="scalar"):
        with kernels._forced_tier("scalar"):
            pass
    assert kernels.tier == picked


# ---------------------------------------------------------------------------
# Stockham: rows in pairs and an odd last row, at every pass kind
# ---------------------------------------------------------------------------

#: (div_by, mul_by) per n.
SCALES = {"none": lambda n: (None, None),
          "div": lambda n: (float(n), None),
          "div_mul": lambda n: (float(n), 0.375)}


def _stockham(kernels, x, inverse, div_by, mul_by):
    rows, n = x.shape
    out, scratch = np.empty_like(x), np.empty_like(x)
    kernels.stockham(x, out, scratch, _ckernels._stage_table(
        n, x.dtype, inverse), rows, n, div_by, mul_by)
    return out


def _legacy(x, inverse, div_by, mul_by):
    ref = legacy._stockham_last_axis(x, inverse).copy()
    if div_by is not None:
        ref /= div_by
    if mul_by is not None:
        ref *= mul_by
    return ref


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("rows", [1, 2, 3, 8, 17])
@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 512])
@pytest.mark.parametrize("dtype", DTYPES)
def test_stockham_tiers_agree(kernels, tier, dtype, n, rows, inverse,
                              scale):
    """n = 4W (8 in double, 16 in float: the register-resident rows),
    first pairs, later pairs with one and several steps per row and an
    odd last stage, shorter rows (scalar), over even and odd row counts;
    with several rows, row 1 holds only signed zeros and the last row
    infinities."""
    rng = np.random.default_rng(n * 100 + rows * 10 + inverse)
    x = _cplx(rng, (rows, n), dtype)
    if rows > 2:
        x[1] = np.copysign(0.0, x[1].real) + 1j * np.copysign(0.0, x[1].imag)
    if rows > 1:
        x[-1, ::3] = complex(np.inf, -np.inf)
    div_by, mul_by = SCALES[scale](n)
    with np.errstate(all="ignore"):
        got = _at(kernels, tier, lambda: _stockham(kernels, x, inverse,
                                                   div_by, mul_by))
        ref = _at(kernels, "avx2", lambda: _stockham(kernels, x, inverse,
                                                     div_by, mul_by))
        oracle = _legacy(x, inverse, div_by, mul_by)
    assert _same_bytes(got, ref)
    assert _same_bits_or_both_nan(got, oracle)


#: Every (re, im) pair of {+-0, +-1, +-inf}.
SIGNED_GRID = np.array([complex(re, im)
                        for re in (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf)
                        for im in (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf)])


@pytest.mark.parametrize("scale", ["div", "div_mul"])
@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("dtype", DTYPES)
def test_stockham_tiers_agree_on_the_signed_grid(kernels, tier, dtype, n,
                                                 scale):
    """Each grid value as a constant row and as an impulse at bin 0
    (72 rows), and the same less one row, through the inverse scaling:
    the signs of zeros and the NaNs from infinities."""
    const = np.repeat(SIGNED_GRID[:, None], n, axis=1)
    impulse = np.zeros((SIGNED_GRID.size, n), complex)
    impulse[:, 0] = SIGNED_GRID
    grid = np.concatenate([const, impulse]).astype(dtype)
    div_by, mul_by = SCALES[scale](n)
    for x in (grid, np.ascontiguousarray(grid[:-1])):
        with np.errstate(all="ignore"):
            got = _at(kernels, tier, lambda: _stockham(kernels, x, True,
                                                       div_by, mul_by))
            ref = _at(kernels, "avx2", lambda: _stockham(kernels, x, True,
                                                         div_by, mul_by))
            oracle = _legacy(x, True, div_by, mul_by)
        assert _same_bytes(got, ref)
        assert _same_bits_or_both_nan(got, oracle)


# ---------------------------------------------------------------------------
# panel_contract: 16-mode (8 in double) blocks, an AVX2 block, tails
# ---------------------------------------------------------------------------

def _panel_sequential(a, w, acc):
    """``acc + einsum("bkm,ko->bom", a, w)``, summing k in order."""
    bt, kt, m = a.shape
    tr = np.zeros((bt, w.shape[1], m), a.real.dtype)
    ti = np.zeros_like(tr)
    for k in range(kt):
        ar, ai = a.real[:, k, None, :], a.imag[:, k, None, :]
        wr, wi = w.real[k, None, :, None], w.imag[k, None, :, None]
        tr = tr + (ar * wr - ai * wi)
        ti = ti + (ar * wi + ai * wr)
    out = np.empty(acc.shape, acc.dtype)
    out.real, out.imag = acc.real + tr, acc.imag + ti
    return out


@pytest.mark.parametrize("shape", [(1, 8, 256, 16), (1, 8, 64, 32),
                                   (2, 3, 78, 5), (3, 4, 24, 9),
                                   (2, 5, 16, 4), (1, 2, 15, 4),
                                   (2, 3, 40, 3)])
@pytest.mark.parametrize("dtype", DTYPES)
def test_panel_contract_tiers_agree(kernels, tier, dtype, shape):
    """m = 78 is four 16-mode blocks, an 8-mode AVX2 block and a 6-mode
    tail in float (nine 8-mode blocks, a 4-mode block and 2 in double);
    o = 5 and 9 leave trailing channels, o = 3 has no channel block."""
    bt, kt, m, o = shape
    rng = np.random.default_rng(bt * 1000 + kt * 100 + m + o)
    a, w, acc0 = (_cplx(rng, s, dtype) for s in ((bt, kt, m), (kt, o),
                                                  (bt, o, m)))
    a.reshape(-1)[::17] = complex(np.inf, -0.0)

    def run():
        acc = acc0.copy()
        kernels.panel_contract(a, w, acc, bt, kt, m, o)
        return acc

    with np.errstate(all="ignore"):
        got, ref = _at(kernels, tier, run), _at(kernels, "avx2", run)
        oracle = _panel_sequential(a, w, acc0)
    assert _same_bytes(got, ref)
    assert _same_bits_or_both_nan(got, oracle)


# ---------------------------------------------------------------------------
# The drivers against the staged kernel sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("projection,keep,modes", [
    ("none", "all", (3, 16)), ("dc_real", "last", (48,)),
    ("herm_x", "all", (3, 16))])
@pytest.mark.parametrize("dtype", DTYPES)
def test_spectral_steps_tiers_agree(kernels, tier, dtype, projection, keep,
                                    modes):
    """Three steps of a 5-channel weight at k_tb = 2 (a ragged panel) on
    48 modes per channel row: 1-D, or (mx, my) = (3, 16) corners."""
    rng = np.random.default_rng(len(projection))
    sk = _cplx(rng, (2, 5) + modes, dtype)
    w = _cplx(rng, (5, 5), dtype) / 5
    mx, my = modes if len(modes) == 2 else modes + (1,)

    def run():
        out = np.empty((3 if keep == "all" else 1,) + sk.shape, dtype)
        kernels.spectral_steps(sk, w, np.empty_like(sk), out, 2, 5, mx, my,
                               2, 3, 128, projection, keep)
        return out

    got, ref = _at(kernels, tier, run), _at(kernels, "avx2", run)
    oracle = _at(kernels, "avx2", lambda: _ckernels._spectral_steps_by_kernels(
        kernels, sk, w, 2, 3, 128, projection, keep))
    assert _same_bytes(got, ref)
    assert _same_bytes(got.reshape(oracle.shape), oracle)


@pytest.mark.parametrize("modes,p", [(16, 1), (16, 4), (32, 2), (64, 8)])
@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_tile_tiers_agree(kernels, tier, dtype, modes, p):
    """Three requests of 2, 0 and 3 rows in one row-table call, C_in = 5
    at k_tb = 2 (a ragged panel), C_out = 16 (full channel blocks)."""
    c_in, c_out, k_tb, dim_x = 5, 16, 2, p * modes
    rng = np.random.default_rng(modes + p)
    w = _cplx(rng, (c_in, c_out), dtype)
    xs = [_cplx(rng, (n, c_in, dim_x), dtype) for n in (2, 0, 3)]
    tables = [_ckernels._stage_table(modes, dtype, inv)
              for inv in (False, True)]
    tables += [np.ascontiguousarray(decomposition_twiddles(
        dim_x, p, modes, inverse=inv).astype(dtype)) for inv in (False, True)]
    row = max(k_tb, c_out) * dim_x

    def run():
        work = [np.empty(size, dtype) for size in
                (row, row, row, k_tb * modes, c_out * modes)]
        outs = [np.empty((len(x), c_out, dim_x), dtype) for x in xs]
        kernels.fused_tile_c2c_1d(xs, w, *tables, *work, outs, 5, c_in,
                                  c_out, dim_x, modes, k_tb)
        return np.concatenate(outs)

    got, ref = _at(kernels, tier, run), _at(kernels, "avx2", run)
    oracle = _at(kernels, "avx2", lambda: np.concatenate([
        _ckernels._fused_tile_by_stages(kernels, x, w, tables, modes, k_tb)
        for x in xs]))
    assert _same_bytes(got, ref)
    assert _same_bytes(got, oracle)


@pytest.mark.parametrize("rows", [1, 3, pytest.param(None, id="2chunk+1")])
@pytest.mark.parametrize("q,m", [(16, 16), (16, 11), (32, 32), (32, 24),
                                 (64, 40)])
@pytest.mark.parametrize("dtype", DTYPES)
def test_row_drivers_tiers_agree(kernels, tier, dtype, q, m, rows):
    """The pruned R2C and C2R row drivers over split 2 and 4: kept bins
    filling 16-bin (8 in double) blocks, with AVX2 blocks and scalar
    bins after them; m = q makes every bin a head and a tail bin.
    ``rows=None`` runs two chunks of rows and one row more."""
    rng = np.random.default_rng(q * 10 + m + (rows or 0))
    tw_f, tw_i = (_ckernels._stage_table(q, dtype, inv)
                  for inv in (False, True))
    chunks = rows is None
    for split in (2, 4):
        h = split * q
        if chunks:
            rows = 2 * kernels.row_chunk(dtype, h) + 1
        z, u, v = (_cplx(rng, s, dtype) for s in ((rows, h), (split, q),
                                                   (split, q)))
        ws = np.empty(kernels.row_workspace(dtype, 2 * h), dtype)

        def rfft():
            out = np.empty((rows, m), dtype)
            kernels.pruned_rfft_rows(z, u, v, tw_f, ws, out, rows, 2 * h, q,
                                     m)
            return out

        got, ref = _at(kernels, tier, rfft), _at(kernels, "avx2", rfft)
        oracle = _at(kernels, "avx2", lambda: _ckernels._rfft_rows_by_stages(
            kernels, z, u, v, tw_f, m))
        assert _same_bytes(got, ref) and _same_bytes(got, oracle)
        ops = tuple(_cplx(rng, s, dtype) for s in ((rows, m), (m,), (m - 1,),
                                                    (split, q), (split, q)))

        def irfft():
            out = np.empty((rows, h), dtype)
            kernels.pruned_irfft_rows(*ops, tw_i, ws, out, rows, 2 * h, q, m)
            return out

        got, ref = _at(kernels, tier, irfft), _at(kernels, "avx2", irfft)
        oracle = _at(kernels, "avx2", lambda: _ckernels._irfft_rows_by_stages(
            kernels, *ops, tw_i))
        assert _same_bytes(got, ref) and _same_bytes(got, oracle)


#: (dim_x, dim_y, mx, my, q): 16 and 32 kept bins (full 16-bin blocks,
#: 8 in double), 11 (an AVX2 block and a tail), 5 (scalar bins).
PLANES = [(16, 128, 8, 16, 16), (32, 128, 16, 32, 32), (8, 64, 4, 11, 16),
          (16, 32, 4, 5, 8)]


@pytest.mark.parametrize("geometry", PLANES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_plane_drivers_tiers_agree(kernels, tier, dtype, geometry):
    """Both plane drivers over a table of states of 2, 0 and 1 rows of
    two channels: the analysis, then the synthesis through a table with
    re-analysis, and without a table."""
    dim_x, dim_y, mx, my, q = geometry
    rng = np.random.default_rng(dim_x + dim_y + my)
    fwd = tuple(_cplx(rng, s, dtype) for s in (
        (dim_y // 2 // q, q), (dim_y // 2 // q, q), (q - 1,), (mx - 1,),
        (dim_x // mx, mx)))
    inv = tuple(_cplx(rng, s, dtype) for s in (
        (my,), (my - 1,), (dim_y // 2 // q, q), (dim_y // 2 // q, q),
        (q - 1,), (mx - 1,), (dim_x // mx, mx)))
    real = np.float32 if dtype == np.complex64 else np.float64
    xs = [rng.standard_normal((n, 2, dim_x, dim_y)).astype(real)
          for n in (2, 0, 1)]
    xs[0].reshape(-1)[::13] = -0.0
    geo = (dim_x, dim_y, mx, my, q)
    ws = np.empty(kernels.sym2d_workspace(dim_x, dim_y, mx, my, dtype),
                  dtype)

    def run():
        sk, nxt, held = (np.empty((3, 2, mx, my), dtype) for _ in range(3))
        kernels.sym2d_analyse(xs, sk, fwd, ws, 3, 2, *geo)
        outs = [np.empty_like(x) for x in xs]
        kernels.sym2d_synthesise(sk, outs, nxt, inv, fwd, ws, 3, 2, *geo)
        kernels.sym2d_synthesise(sk, None, held, inv, fwd, ws, 3, 2, *geo)
        return sk, np.concatenate(outs), nxt, held

    got, ref = _at(kernels, tier, run), _at(kernels, "avx2", run)
    for a, b in zip(got, ref):
        assert _same_bytes(a, b)
    sk, out, nxt, held = got
    state = np.concatenate(xs)
    oracle = _at(kernels, "avx2", lambda: (
        _ckernels._sym2d_analyse_by_stages(kernels, state, fwd, mx, my),
        _ckernels._sym2d_synthesise_by_stages(kernels, sk, inv, dim_x,
                                              dim_y)))
    assert _same_bytes(sk, oracle[0]) and _same_bytes(out, oracle[1])
    again = _at(kernels, "avx2", lambda: _ckernels._sym2d_analyse_by_stages(
        kernels, out, fwd, mx, my))
    assert _same_bytes(nxt, again) and _same_bytes(held, nxt)
