"""Property tests for the compiled packed-real R2C/C2R plan family.

The contract mirrors :mod:`tests.test_fft_compiled`: results are
bit-identical *within the plan family* (across the C-kernel and NumPy
executor backends, and across repeated executions through one cached
plan), match ``numpy.fft.rfft/irfft`` to working precision, and match
the legacy slice-the-full-spectrum oracle (:mod:`repro.fft.legacy`) to
tolerance — across dtypes, axes, non-contiguous layouts and batch
shapes.  Plan-cache semantics (same key -> same object, workspace reuse
under interleaved 1-D/2-D calls) are held to the same bar as the C2C
plans.
"""

import numpy as np
import pytest

from repro.fft import compiled, legacy
from repro.fft._ckernels import kernels_available
from repro.fft.real import irfft, padded_irfft, rfft, truncated_rfft

REAL_DTYPES = (np.float32, np.float64)

BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]

#: absolute tolerance per working precision (vs numpy / the legacy oracle;
#: the packed recombination reassociates, so this is not bitwise).
ATOL = {np.dtype(np.float32): 1e-3, np.dtype(np.float64): 1e-10,
        np.dtype(np.complex64): 1e-3, np.dtype(np.complex128): 1e-10}


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run a test under the C kernels and under the NumPy fallback."""
    if request.param == "numpy":
        from repro.fft import _ckernels

        monkeypatch.setitem(_ckernels._state, "kernels", None)
        monkeypatch.setitem(_ckernels._state, "tried", True)
        compiled.clear_fft_plan_cache()
    yield request.param
    compiled.clear_fft_plan_cache()


def _real_data(shape, dtype, rng, contiguity="C"):
    x = rng.standard_normal(shape).astype(dtype)
    if contiguity == "sliced":  # non-contiguous rows
        x = np.repeat(x, 2, axis=0)[::2]
    elif contiguity == "F":
        x = np.asfortranarray(x)
    return x


def _half_spectrum(shape_lead, n, dtype, rng, valid=True):
    """A random half spectrum with the given leading (batch) shape."""
    bins = n // 2 + 1
    xk = (rng.standard_normal((*shape_lead, bins))
          + 1j * rng.standard_normal((*shape_lead, bins))).astype(dtype)
    if valid:  # DC and Nyquist bins of a real signal are real
        xk[..., 0] = xk[..., 0].real
        xk[..., -1] = xk[..., -1].real
    return xk


def _bit_equal(a, b):
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(
        a.view(a.real.dtype), b.view(b.real.dtype)
    )


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n", [1, 2, 4, 16, 128, 256])
def test_roundtrip_identity(backend, dtype, n):
    rng = np.random.default_rng(10)
    x = _real_data((3, n), dtype, rng)
    back = irfft(rfft(x), n)
    assert back.dtype == x.dtype
    np.testing.assert_allclose(back, x, atol=ATOL[x.dtype] * max(n, 1))


@pytest.mark.parametrize("shape,axis", [((2, 4, 32), 1), ((16, 5), 0),
                                        ((4, 64), -1), ((2, 8, 3), -2)])
def test_roundtrip_any_axis(backend, shape, axis):
    rng = np.random.default_rng(11)
    x = _real_data(shape, np.float64, rng)
    n = x.shape[axis]
    back = irfft(rfft(x, axis=axis), n, axis=axis)
    np.testing.assert_allclose(back, x, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_roundtrip_randomized(backend, seed):
    """Seeded randomized round-trips across random shapes/axes/dtypes."""
    rng = np.random.default_rng(1000 + seed)
    n = 2 ** int(rng.integers(0, 9))
    lead = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3))))
    dtype = [np.float32, np.float64][seed % 2]
    axis = int(rng.integers(0, len(lead) + 1))
    shape = list(lead)
    shape.insert(axis, n)
    x = _real_data(tuple(shape), dtype, rng)
    back = irfft(rfft(x, axis=axis), n, axis=axis)
    np.testing.assert_allclose(back, x, atol=ATOL[x.dtype] * max(n, 1))


# ---------------------------------------------------------------------------
# equality vs numpy.fft and the legacy full-C2C oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_rfft_matches_numpy(backend, dtype, n):
    rng = np.random.default_rng(12)
    x = _real_data((3, n), dtype, rng)
    np.testing.assert_allclose(
        rfft(x), np.fft.rfft(x.astype(np.float64)),
        atol=ATOL[np.dtype(dtype)] * n,
    )


@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_rfft_matches_legacy_oracle(backend, dtype, n):
    rng = np.random.default_rng(13)
    x = _real_data((4, n), dtype, rng)
    np.testing.assert_allclose(
        rfft(x), legacy.rfft(x), atol=ATOL[np.dtype(dtype)] * n
    )


@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_irfft_matches_numpy(backend, dtype, n):
    rng = np.random.default_rng(14)
    xk = _half_spectrum((3,), n, dtype, rng)
    np.testing.assert_allclose(
        irfft(xk, n), np.fft.irfft(xk.astype(np.complex128), n),
        atol=ATOL[np.dtype(dtype)] * n,
    )


@pytest.mark.parametrize("valid", [True, False])
@pytest.mark.parametrize("n", [4, 32, 128])
def test_irfft_matches_legacy_oracle(backend, valid, n):
    """Agreement with the seed path even for *invalid* half spectra
    (complex DC/Nyquist bins, whose imaginary parts both paths drop)."""
    rng = np.random.default_rng(15)
    xk = _half_spectrum((2, 3), n, np.complex128, rng, valid=valid)
    np.testing.assert_allclose(
        irfft(xk, n), legacy.irfft(xk, n), atol=1e-10 * n
    )


@pytest.mark.parametrize("axis", [0, 1, -1, -2])
def test_rfft_irfft_leading_and_negative_axes(backend, axis):
    rng = np.random.default_rng(16)
    x = _real_data((16, 4, 16), np.float64, rng)
    n = x.shape[axis]
    got = rfft(x, axis=axis)
    assert got.flags.c_contiguous  # the legacy path's guarantee
    np.testing.assert_allclose(got, np.fft.rfft(x, axis=axis), atol=1e-10)
    xk = np.fft.rfft(x, axis=axis)
    np.testing.assert_allclose(
        irfft(xk, n, axis=axis), np.fft.irfft(xk, n, axis=axis), atol=1e-10
    )


@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("contiguity", ["sliced", "F"])
def test_rfft_non_contiguous_inputs(backend, dtype, contiguity):
    rng = np.random.default_rng(17)
    x = _real_data((6, 32), dtype, rng, contiguity)
    for axis in (-1, 0):
        if not compiled._is_power_of_two(x.shape[axis]):
            continue
        np.testing.assert_allclose(
            rfft(x, axis=axis),
            np.fft.rfft(x.astype(np.float64), axis=axis),
            atol=ATOL[np.dtype(dtype)] * x.shape[axis],
        )


@pytest.mark.parametrize("contiguity", ["sliced", "F"])
def test_irfft_non_contiguous_inputs(backend, contiguity):
    rng = np.random.default_rng(18)
    xk = _half_spectrum((6,), 32, np.complex128, rng)
    if contiguity == "sliced":
        xk = np.repeat(xk, 2, axis=0)[::2]
    else:
        xk = np.asfortranarray(xk)
    np.testing.assert_allclose(
        irfft(xk, 32), np.fft.irfft(xk, 32), atol=1e-10
    )


@pytest.mark.parametrize("shape,axis", [((8,), 0), ((2, 3, 4, 16), -1),
                                        ((1, 64), -1), ((5, 2, 8), 2)])
def test_batch_shapes(backend, shape, axis):
    rng = np.random.default_rng(19)
    x = _real_data(shape, np.float64, rng)
    np.testing.assert_allclose(
        rfft(x, axis=axis), np.fft.rfft(x, axis=axis), atol=1e-10
    )


# ---------------------------------------------------------------------------
# bit-identity within the plan family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", REAL_DTYPES)
def test_repeated_executions_bit_identical(backend, dtype):
    """One cached plan, reused workspaces -> identical bytes every call."""
    rng = np.random.default_rng(20)
    x = _real_data((5, 64), dtype, rng)
    first = rfft(x)
    for _ in range(3):
        assert _bit_equal(rfft(x), first)
    xk = _half_spectrum((5,), 64, np.complex128, rng)
    firsti = irfft(xk, 64)
    for _ in range(3):
        assert _bit_equal(irfft(xk, 64), firsti)


@pytest.mark.skipif(not kernels_available(), reason="needs the C kernels")
@pytest.mark.parametrize("dtype", REAL_DTYPES)
def test_backends_bit_identical(dtype, monkeypatch):
    """C-kernel and NumPy-fallback paths produce the same bytes: the
    recombination is shared and the half-length sub-transform is held to
    the compiled layer's bit-identity contract."""
    from repro.fft import _ckernels

    rng = np.random.default_rng(21)
    x = _real_data((4, 128), dtype, rng)
    xk = _half_spectrum((4,), 128,
                        np.complex64 if dtype == np.float32 else np.complex128,
                        rng)
    compiled.clear_fft_plan_cache()
    with_kernels = (rfft(x), irfft(xk, 128))
    monkeypatch.setitem(_ckernels._state, "kernels", None)
    monkeypatch.setitem(_ckernels._state, "tried", True)
    compiled.clear_fft_plan_cache()
    without = (rfft(x), irfft(xk, 128))
    assert _bit_equal(with_kernels[0], without[0])
    assert _bit_equal(with_kernels[1], without[1])
    compiled.clear_fft_plan_cache()


# ---------------------------------------------------------------------------
# plan-cache semantics
# ---------------------------------------------------------------------------

def test_same_key_returns_same_plan_object():
    p1 = compiled.get_rfft_plan(128, np.float32)
    assert compiled.get_rfft_plan(128, np.float32) is p1
    # dtype normalisation: float32 and complex64 share one plan
    assert compiled.get_rfft_plan(128, np.complex64) is p1
    # direction and precision are distinct keys
    assert compiled.get_irfft_plan(128, np.float32) is not p1
    assert compiled.get_rfft_plan(128, np.float64) is not p1
    assert compiled.get_rfft_plan(64, np.float32) is not p1
    q1 = compiled.get_irfft_plan(64, np.complex64)
    assert compiled.get_irfft_plan(64, np.float32) is q1


def test_plans_share_the_half_length_c2c_plan():
    """The packed-real trick runs through the cached C2C machinery: the
    sub-transform *is* the cached half-length plan object."""
    p = compiled.get_rfft_plan(128, np.float32)
    assert p._sub is compiled.get_fft_plan(64, np.complex64, inverse=False)
    q = compiled.get_irfft_plan(128, np.float32)
    assert q._sub is compiled.get_fft_plan(64, np.complex64, inverse=True)


def test_clear_plan_cache_resets_objects():
    p1 = compiled.get_rfft_plan(32, np.float32)
    compiled.clear_fft_plan_cache()
    assert compiled.get_rfft_plan(32, np.float32) is not p1


def test_cache_info_reports_rfft_plans():
    compiled.clear_fft_plan_cache()
    compiled.get_rfft_plan(16, np.float32)
    compiled.get_irfft_plan(16, np.float32)
    info = compiled.fft_plan_cache_info()
    assert len(info) == 4  # fft, pruned, r2c/c2r, pruned r2c/c2r
    assert info[2].currsize == 2
    assert info[3].currsize == 0
    compiled.get_pruned_rfft_plan(16, 3, np.float32)
    compiled.get_pruned_irfft_plan(16, 3, np.float32)
    assert compiled.fft_plan_cache_info()[3].currsize == 2


def test_plan_tables_are_readonly_and_precast():
    p = compiled.get_rfft_plan(32, np.float32)
    assert p._wm.dtype == np.complex64
    assert not p._wm.flags.writeable
    q = compiled.get_irfft_plan(32, np.float64)
    assert q._wj.dtype == np.complex128
    assert not q._wj.flags.writeable


def test_workspace_reuse_interleaved_1d_2d(backend):
    """Interleaved 1-D/2-D (and growing/shrinking batch) calls through
    the same cached plans must not corrupt each other's workspaces."""
    rng = np.random.default_rng(22)
    xs = [
        _real_data((3, 32), np.float64, rng),
        _real_data((2, 5, 32), np.float64, rng),   # 2-D batch, same length
        _real_data((1, 32), np.float64, rng),
        _real_data((4, 2, 32), np.float64, rng),
    ]
    expected = [np.fft.rfft(x, axis=-1) for x in xs]
    first = [rfft(x, axis=-1) for x in xs]
    # reversed order re-runs over the warm, grown workspaces
    second = [rfft(x, axis=-1) for x in reversed(xs)][::-1]
    for e, g1, g2 in zip(expected, first, second):
        np.testing.assert_allclose(g1, e, atol=1e-10)
        assert _bit_equal(g1, g2)
    ks = [np.fft.rfft(x, axis=-1) for x in xs]
    iexpected = [np.fft.irfft(k, 32, axis=-1) for k in ks]
    ifirst = [irfft(k, 32, axis=-1) for k in ks]
    isecond = [irfft(k, 32, axis=-1) for k in reversed(ks)][::-1]
    for e, g1, g2 in zip(iexpected, ifirst, isecond):
        np.testing.assert_allclose(g1, e, atol=1e-10)
        assert _bit_equal(g1, g2)


def test_execution_does_not_mutate_input(backend):
    rng = np.random.default_rng(23)
    x = _real_data((4, 16), np.float64, rng)
    kept = x.copy()
    rfft(x)
    assert np.array_equal(x, kept)
    xk = _half_spectrum((4,), 16, np.complex128, rng)
    kept_k = xk.copy()
    irfft(xk, 16)
    assert np.array_equal(xk, kept_k)


# ---------------------------------------------------------------------------
# dtype policy (regression: no silent complex128 promotion)
# ---------------------------------------------------------------------------

def test_irfft_complex64_in_float32_out():
    rng = np.random.default_rng(24)
    xk = np.fft.rfft(rng.standard_normal((2, 16))).astype(np.complex64)
    out = irfft(xk, 16)
    assert out.dtype == np.float32


def test_irfft_real_valued_half_spectrum_keeps_precision():
    """The seed promoted real-valued half spectra to complex128 no matter
    the input precision; the compiled path follows the dtype policy."""
    xk32 = np.ones((2, 9), dtype=np.float32)
    assert irfft(xk32, 16).dtype == np.float32
    xk64 = np.ones((2, 9), dtype=np.float64)
    assert irfft(xk64, 16).dtype == np.float64


def test_irfft_complex128_in_float64_out():
    rng = np.random.default_rng(25)
    xk = np.fft.rfft(rng.standard_normal((2, 16)))
    assert irfft(xk, 16).dtype == np.float64


def test_rfft_output_dtypes():
    rng = np.random.default_rng(26)
    assert rfft(rng.standard_normal((2, 8)).astype(np.float32)).dtype \
        == np.complex64
    assert rfft(rng.standard_normal((2, 8))).dtype == np.complex128
    # integer input follows the "everything else is double" rule
    assert rfft(np.arange(8).reshape(1, 8)).dtype == np.complex128


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rfft_rejects_complex_input():
    with pytest.raises(ValueError):
        rfft(np.zeros((2, 8), dtype=complex))


def test_rfft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        rfft(np.zeros((2, 12)))


def test_irfft_rejects_wrong_bin_count():
    with pytest.raises(ValueError):
        irfft(np.zeros((2, 8), dtype=complex), 32)
    with pytest.raises(ValueError):
        irfft(np.zeros((2, 9), dtype=complex), 24)  # not a power of two


def test_plan_execute_validates_geometry():
    p = compiled.get_rfft_plan(16, np.float32)
    with pytest.raises(ValueError):
        p.execute(np.zeros((2, 8), dtype=np.float32))  # wrong length
    with pytest.raises(ValueError):
        p.execute(np.zeros((2, 16), dtype=np.float64))  # wrong precision
    q = compiled.get_irfft_plan(16, np.float32)
    with pytest.raises(ValueError):
        q.execute(np.zeros((2, 16), dtype=np.complex64))  # wrong bin count
    with pytest.raises(ValueError):
        q.execute(np.zeros((2, 9), dtype=np.complex128))  # wrong precision


# ---------------------------------------------------------------------------
# pruned (truncated) R2C / padded C2R — oracle and property harness
# ---------------------------------------------------------------------------

def _slice_spectrum(xk, modes, axis):
    index = [slice(None)] * xk.ndim
    index[axis] = slice(0, modes)
    return xk[tuple(index)]


def _pad_spectrum(yk, n, axis):
    bins = n // 2 + 1
    widths = [(0, 0)] * yk.ndim
    widths[axis] = (0, bins - yk.shape[axis])
    return np.pad(yk, widths)


def _trunc_spectrum(shape_lead, modes, dtype, rng):
    """A random truncated half spectrum (real DC, as a real signal has)."""
    yk = (rng.standard_normal((*shape_lead, modes))
          + 1j * rng.standard_normal((*shape_lead, modes))).astype(dtype)
    yk[..., 0] = yk[..., 0].real
    return yk


@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n,modes", [(8, 1), (8, 2), (32, 3), (64, 8),
                                     (128, 5), (256, 16), (256, 32)])
def test_truncated_rfft_matches_legacy_slice(backend, dtype, n, modes):
    """The fused prune equals the legacy full transform plus a slice."""
    rng = np.random.default_rng(30)
    x = _real_data((4, n), dtype, rng)
    got = truncated_rfft(x, modes)
    assert got.shape == (4, modes)
    assert got.flags.c_contiguous
    np.testing.assert_allclose(
        got, legacy.rfft(x)[:, :modes], atol=ATOL[np.dtype(dtype)] * n
    )


@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n,modes", [(16, 2), (64, 4), (256, 12), (512, 64)])
def test_truncated_rfft_matches_numpy(backend, dtype, n, modes):
    rng = np.random.default_rng(31)
    x = _real_data((3, n), dtype, rng)
    np.testing.assert_allclose(
        truncated_rfft(x, modes),
        np.fft.rfft(x.astype(np.float64))[:, :modes],
        atol=ATOL[np.dtype(dtype)] * n,
    )


@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
@pytest.mark.parametrize("n,modes", [(8, 2), (32, 3), (64, 8), (256, 16)])
def test_padded_irfft_matches_legacy_pad(backend, dtype, n, modes):
    """The input-pruned synthesis equals zero-pad plus the legacy C2R."""
    rng = np.random.default_rng(32)
    yk = _trunc_spectrum((4,), modes, dtype, rng)
    got = padded_irfft(yk, n)
    assert got.shape == (4, n)
    assert got.dtype == np.finfo(dtype).dtype
    np.testing.assert_allclose(
        got,
        legacy.irfft(_pad_spectrum(yk.astype(np.complex128), n, -1), n),
        atol=ATOL[np.dtype(dtype)] * n,
    )


@pytest.mark.parametrize("n,modes", [(16, 3), (64, 8), (512, 17)])
def test_padded_irfft_matches_numpy(backend, n, modes):
    rng = np.random.default_rng(33)
    yk = _trunc_spectrum((2, 3), modes, np.complex128, rng)
    np.testing.assert_allclose(
        padded_irfft(yk, n),
        np.fft.irfft(_pad_spectrum(yk, n, -1), n),
        atol=1e-10 * n,
    )


@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n,modes", [(32, 4), (128, 9), (256, 32)])
def test_pruned_roundtrip_is_low_pass(backend, dtype, n, modes):
    """trunc -> pad round trip acts as the ideal low-pass projector."""
    rng = np.random.default_rng(34)
    x = _real_data((3, n), dtype, rng)
    got = padded_irfft(truncated_rfft(x, modes), n)
    expected = np.fft.irfft(
        _pad_spectrum(np.fft.rfft(x.astype(np.float64))[:, :modes], n, -1), n
    )
    np.testing.assert_allclose(got, expected, atol=ATOL[np.dtype(dtype)] * n)


@pytest.mark.parametrize("shape,axis", [((2, 4, 64), 1), ((64, 5), 0),
                                        ((3, 128), -1), ((2, 64, 3), -2)])
def test_pruned_any_axis(backend, shape, axis):
    rng = np.random.default_rng(35)
    x = _real_data(shape, np.float64, rng)
    n = x.shape[axis]
    modes = max(1, n // 8)
    got = truncated_rfft(x, modes, axis=axis)
    assert got.flags.c_contiguous
    full = np.fft.rfft(x, axis=axis)
    np.testing.assert_allclose(
        got, _slice_spectrum(full, modes, axis % x.ndim), atol=1e-10 * n
    )
    yk = _slice_spectrum(full, modes, axis % x.ndim)
    np.testing.assert_allclose(
        padded_irfft(yk, n, axis=axis),
        np.fft.irfft(_pad_spectrum(yk, n, axis % x.ndim), n, axis=axis),
        atol=1e-10 * n,
    )


@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("contiguity", ["sliced", "F"])
def test_pruned_non_contiguous_inputs(backend, dtype, contiguity):
    rng = np.random.default_rng(36)
    x = _real_data((6, 64), dtype, rng, contiguity)
    np.testing.assert_allclose(
        truncated_rfft(x, 5),
        np.fft.rfft(x.astype(np.float64))[:, :5],
        atol=ATOL[np.dtype(dtype)] * 64,
    )
    yk = np.fft.rfft(np.asarray(x, dtype=np.float64))[:, :5]
    yk = np.asfortranarray(yk) if contiguity == "F" \
        else np.repeat(yk, 2, axis=0)[::2]
    np.testing.assert_allclose(
        padded_irfft(yk, 64),
        np.fft.irfft(_pad_spectrum(yk, 64, -1), 64),
        atol=1e-10 * 64,
    )


@pytest.mark.parametrize("seed", range(8))
def test_pruned_randomized_property(backend, seed):
    """Seeded fuzz over lengths, parts, batch shapes, axes and dtypes."""
    rng = np.random.default_rng(2000 + seed)
    n = 2 ** int(rng.integers(1, 10))
    modes = int(rng.integers(1, n // 2 + 2))
    dtype = [np.float32, np.float64][seed % 2]
    lead = tuple(int(rng.integers(1, 4))
                 for _ in range(int(rng.integers(0, 3))))
    axis = int(rng.integers(0, len(lead) + 1))
    shape = list(lead)
    shape.insert(axis, n)
    x = _real_data(tuple(shape), dtype, rng)
    got = truncated_rfft(x, modes, axis=axis)
    full = np.fft.rfft(x.astype(np.float64), axis=axis)
    np.testing.assert_allclose(
        got, _slice_spectrum(full, modes, axis),
        atol=ATOL[np.dtype(dtype)] * n,
    )
    back = padded_irfft(got, n, axis=axis)
    expected = np.fft.irfft(
        _pad_spectrum(_slice_spectrum(full, modes, axis), n, axis),
        n, axis=axis,
    )
    np.testing.assert_allclose(
        back, expected, atol=ATOL[np.dtype(dtype)] * n
    )


# ---------------------------------------------------------------------------
# pruned plans: bit-identity within the family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", REAL_DTYPES)
def test_pruned_repeated_executions_bit_identical(backend, dtype):
    rng = np.random.default_rng(40)
    x = _real_data((5, 128), dtype, rng)
    first = truncated_rfft(x, 8)
    for _ in range(3):
        assert _bit_equal(truncated_rfft(x, 8), first)
    yk = _trunc_spectrum(
        (5,), 8, np.complex64 if dtype == np.float32 else np.complex128, rng
    )
    firsti = padded_irfft(yk, 128)
    for _ in range(3):
        assert _bit_equal(padded_irfft(yk, 128), firsti)


@pytest.mark.skipif(not kernels_available(), reason="needs the C kernels")
@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("n,modes", [(64, 4), (128, 8), (256, 3), (256, 32)])
def test_pruned_backends_bit_identical(dtype, n, modes, monkeypatch):
    """C-kernel and NumPy executors produce the same bytes for every
    pruned strategy (the C contractions replay the NumPy recurrences)."""
    from repro.fft import _ckernels

    rng = np.random.default_rng(41)
    x = _real_data((4, n), dtype, rng)
    yk = _trunc_spectrum(
        (4,), modes,
        np.complex64 if dtype == np.float32 else np.complex128, rng,
    )
    compiled.clear_fft_plan_cache()
    with_kernels = (truncated_rfft(x, modes), padded_irfft(yk, n))
    monkeypatch.setitem(_ckernels._state, "kernels", None)
    monkeypatch.setitem(_ckernels._state, "tried", True)
    compiled.clear_fft_plan_cache()
    without = (truncated_rfft(x, modes), padded_irfft(yk, n))
    assert _bit_equal(with_kernels[0], without[0])
    assert _bit_equal(with_kernels[1], without[1])
    compiled.clear_fft_plan_cache()


@pytest.mark.skipif(not kernels_available(), reason="needs the C kernels")
def test_pruned_scoped_numpy_caches_bit_identical():
    """A numpy-pinned PlanCaches set installed via plan_cache_scope
    reproduces the default (C-kernel) bytes exactly."""
    rng = np.random.default_rng(42)
    x = _real_data((3, 256), np.float64, rng)
    yk = _trunc_spectrum((3,), 16, np.complex128, rng)
    compiled.clear_fft_plan_cache()
    default = (truncated_rfft(x, 16), padded_irfft(yk, 256))
    with compiled.plan_cache_scope(compiled.PlanCaches(backend="numpy")):
        scoped = (truncated_rfft(x, 16), padded_irfft(yk, 256))
    assert _bit_equal(default[0], scoped[0])
    assert _bit_equal(default[1], scoped[1])
    compiled.clear_fft_plan_cache()


def _strided(a, layout):
    """``a`` as a view with the same values and a non-contiguous layout."""
    if layout == "sliced":
        return np.repeat(a, 2, axis=0)[::2]
    if layout == "F":
        return np.asfortranarray(a)
    return a[::-1].copy()[::-1]  # negative strides


@pytest.mark.parametrize("layout", ["sliced", "F", "negative"])
@pytest.mark.parametrize("dtype", REAL_DTYPES)
@pytest.mark.parametrize("part", [1, 2, 9, 16])
def test_pruned_decomp_strided_inputs_match_numpy_backend(part, dtype,
                                                          layout):
    """The decomp strategy (C staging kernels or NumPy) takes strided and
    F-ordered inputs, complex128 included, with the bits of the
    NumPy-backend plan on contiguous input: the C path copies its input
    contiguous instead of raising from the kernel binding."""
    n, rows = 128, 5
    cdtype = np.complex64 if dtype == np.float32 else np.complex128
    rng = np.random.default_rng(45 + part)
    x = _real_data((rows, n), dtype, rng)
    yk = _trunc_spectrum((rows,), part, cdtype, rng)
    oracle = compiled.PlanCaches("numpy")
    want = (oracle.pruned_rfft(n, part, dtype).execute(x),
            oracle.pruned_irfft(n, part, cdtype).execute(yk))
    for name in BACKENDS:
        caches = compiled.PlanCaches(name)
        plan = caches.pruned_irfft(n, part, cdtype)
        assert plan._strategy == "decomp"
        assert _bit_equal(plan.execute(_strided(yk, layout)), want[1])
        with compiled.plan_cache_scope(caches):
            got = truncated_rfft(_strided(x, layout), part)
        assert _bit_equal(got, want[0])


def test_pruned_interleaved_workspace_safety(backend):
    """Interleaved calls with different batch shapes and parts through
    the same cached pruned plans must not corrupt workspaces."""
    rng = np.random.default_rng(43)
    xs = [
        _real_data((3, 64), np.float64, rng),
        _real_data((2, 5, 64), np.float64, rng),
        _real_data((1, 64), np.float64, rng),
        _real_data((4, 2, 64), np.float64, rng),
    ]
    parts = [4, 8, 4, 8]
    expected = [np.fft.rfft(x, axis=-1)[..., :m] for x, m in zip(xs, parts)]
    first = [truncated_rfft(x, m) for x, m in zip(xs, parts)]
    second = [truncated_rfft(x, m)
              for x, m in reversed(list(zip(xs, parts)))][::-1]
    for e, g1, g2 in zip(expected, first, second):
        np.testing.assert_allclose(g1, e, atol=1e-10 * 64)
        assert _bit_equal(g1, g2)
    iexpected = [np.fft.irfft(_pad_spectrum(k, 64, k.ndim - 1), 64, axis=-1)
                 for k in expected]
    ifirst = [padded_irfft(k, 64) for k in expected]
    isecond = [padded_irfft(k, 64) for k in reversed(expected)][::-1]
    for e, g1, g2 in zip(iexpected, ifirst, isecond):
        np.testing.assert_allclose(g1, e, atol=1e-10 * 64)
        assert _bit_equal(g1, g2)


def test_pruned_execution_does_not_mutate_input(backend):
    rng = np.random.default_rng(44)
    x = _real_data((4, 64), np.float64, rng)
    kept = x.copy()
    truncated_rfft(x, 5)
    assert np.array_equal(x, kept)
    yk = _trunc_spectrum((4,), 5, np.complex128, rng)
    kept_k = yk.copy()
    padded_irfft(yk, 64)
    assert np.array_equal(yk, kept_k)


# ---------------------------------------------------------------------------
# pruned plans: cache semantics and scope isolation
# ---------------------------------------------------------------------------

def test_pruned_same_key_returns_same_plan_object():
    p1 = compiled.get_pruned_rfft_plan(128, 8, np.float32)
    assert compiled.get_pruned_rfft_plan(128, 8, np.float32) is p1
    # dtype normalisation: float32 and complex64 share one plan
    assert compiled.get_pruned_rfft_plan(128, 8, np.complex64) is p1
    # part, direction, precision and length are all distinct keys
    assert compiled.get_pruned_rfft_plan(128, 16, np.float32) is not p1
    assert compiled.get_pruned_irfft_plan(128, 8, np.float32) is not p1
    assert compiled.get_pruned_rfft_plan(128, 8, np.float64) is not p1
    assert compiled.get_pruned_rfft_plan(256, 8, np.float32) is not p1


def test_pruned_plans_share_the_cached_sub_plans():
    """Decomposition sub-transforms resolve from the owning cache set:
    the length-q sub-plan *is* the cached C2C plan object."""
    compiled.clear_fft_plan_cache()
    p = compiled.get_pruned_rfft_plan(256, 8, np.float32)
    assert p._strategy == "decomp"
    assert p._sub is compiled.get_fft_plan(8, np.complex64, inverse=False)
    q = compiled.get_pruned_irfft_plan(256, 8, np.float32)
    assert q._strategy == "decomp"
    assert q._sub is compiled.get_fft_plan(8, np.complex64, inverse=True)


def test_pruned_plan_cache_scope_isolation():
    """Plans requested under plan_cache_scope come from the scoped set —
    including their sub-plans — and never leak into the default set."""
    compiled.clear_fft_plan_cache()
    own = compiled.PlanCaches()
    default_plan = compiled.get_pruned_rfft_plan(128, 8, np.float32)
    with compiled.plan_cache_scope(own):
        scoped_plan = compiled.get_pruned_rfft_plan(128, 8, np.float32)
        assert scoped_plan is not default_plan
        assert scoped_plan is own.pruned_rfft(128, 8, np.float32)
        # the scoped plan's sub-transform lives in the scoped set too
        assert scoped_plan._sub is own.fft(8, np.complex64, inverse=False)
        assert scoped_plan._sub is not compiled.default_plan_caches().fft(
            8, np.complex64, inverse=False
        )
    # leaving the scope restores the default set
    assert compiled.get_pruned_rfft_plan(128, 8, np.float32) is default_plan
    compiled.clear_fft_plan_cache()


def test_pruned_degenerate_full_plan_resolves_in_owning_set():
    own = compiled.PlanCaches()
    plan = own.pruned_rfft(32, 17, np.float64)
    assert plan._strategy == "full"
    assert plan._full is own.rfft(32, np.float64)
    assert plan._full is not compiled.get_rfft_plan(32, np.float64)


def test_pruned_clear_plan_cache_resets_objects():
    p1 = compiled.get_pruned_rfft_plan(64, 4, np.float32)
    compiled.clear_fft_plan_cache()
    assert compiled.get_pruned_rfft_plan(64, 4, np.float32) is not p1


def test_pruned_plan_tables_are_readonly_and_precast():
    p = compiled.get_pruned_rfft_plan(256, 8, np.float32)
    for table in (p._u, p._v):
        assert table.dtype == np.complex64
        assert not table.flags.writeable
    q = compiled.get_pruned_irfft_plan(256, 8, np.float64)
    for table in (q._ch, q._ct, q._wdh, q._wdt):
        assert table.dtype == np.complex128
        assert not table.flags.writeable


# ---------------------------------------------------------------------------
# pruned plans: edge cases and degenerate strategies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 16, 128])
def test_pruned_degenerate_aliases_full_plan_bit_exactly(backend, n):
    """modes == n//2 + 1 is the degenerate prune: it delegates to the
    plain R2C/C2R plans and is bit-exact against them."""
    rng = np.random.default_rng(50)
    bins = n // 2 + 1
    x = _real_data((3, n), np.float64, rng)
    assert compiled.get_pruned_rfft_plan(n, bins, np.float64)._strategy \
        == "full"
    assert _bit_equal(truncated_rfft(x, bins), rfft(x))
    xk = _half_spectrum((3,), n, np.complex128, rng)
    assert _bit_equal(padded_irfft(xk, n), irfft(xk, n))


@pytest.mark.parametrize("n", [16, 64])
def test_pruned_slice_strategy_bit_exact_vs_full_plus_slice(backend, n):
    """Large parts with no whole stage to drop fall back to
    transform-then-slice, bit-exact versus that composition."""
    part = n // 2  # q = next_pow2(part) = h > h/2 -> "slice"
    plan = compiled.get_pruned_rfft_plan(n, part, np.float64)
    assert plan._strategy == "slice"
    rng = np.random.default_rng(51)
    x = _real_data((4, n), np.float64, rng)
    assert _bit_equal(truncated_rfft(x, part), rfft(x)[:, :part])


@pytest.mark.parametrize("n", [16, 64])
def test_pruned_pad_strategy_bit_exact_vs_pad_plus_full(backend, n):
    part = n // 2
    plan = compiled.get_pruned_irfft_plan(n, part, np.complex128)
    assert plan._strategy == "pad"
    rng = np.random.default_rng(52)
    yk = _trunc_spectrum((4,), part, np.complex128, rng)
    assert _bit_equal(padded_irfft(yk, n), irfft(_pad_spectrum(yk, n, -1), n))


@pytest.mark.parametrize("n", [8, 64, 256])
def test_pruned_dc_only(backend, n):
    """modes == 1 keeps just the DC bin; the synthesis is the mean."""
    rng = np.random.default_rng(53)
    x = _real_data((3, n), np.float64, rng)
    got = truncated_rfft(x, 1)
    np.testing.assert_allclose(got, np.fft.rfft(x)[:, :1], atol=1e-10 * n)
    back = padded_irfft(got, n)
    np.testing.assert_allclose(
        back, np.broadcast_to(x.mean(axis=-1, keepdims=True), x.shape),
        atol=1e-10 * n,
    )


def test_pruned_nyquist_boundary(backend):
    """Parts straddling the Nyquist bin (h vs h+1 for even n) stay
    consistent with the full-transform slice."""
    n = 32
    h = n // 2
    rng = np.random.default_rng(54)
    x = _real_data((4, n), np.float64, rng)
    full = np.fft.rfft(x)
    for part in (h - 1, h, h + 1):
        np.testing.assert_allclose(
            truncated_rfft(x, part), full[:, :part], atol=1e-10 * n
        )
        yk = np.ascontiguousarray(full[:, :part])
        np.testing.assert_allclose(
            padded_irfft(yk, n),
            np.fft.irfft(_pad_spectrum(yk, n, -1), n),
            atol=1e-10 * n,
        )


def test_pruned_rejects_bad_geometry():
    with pytest.raises(ValueError):
        truncated_rfft(np.zeros((2, 12)), 3)  # not a power of two
    with pytest.raises(ValueError):
        truncated_rfft(np.zeros((2, 16)), 0)  # part below range
    with pytest.raises(ValueError):
        truncated_rfft(np.zeros((2, 16)), 10)  # part above n//2 + 1
    with pytest.raises(ValueError):
        truncated_rfft(np.zeros((2, 16), dtype=complex), 3)  # complex input
    with pytest.raises(ValueError):
        padded_irfft(np.zeros((2, 3), dtype=complex), 12)  # non-pow2 n
    with pytest.raises(ValueError):
        padded_irfft(np.zeros((2, 10), dtype=complex), 16)  # too many bins
    with pytest.raises(ValueError):
        compiled.get_pruned_rfft_plan(24, 3, np.float32)
    with pytest.raises(ValueError):
        compiled.get_pruned_irfft_plan(16, 0, np.complex64)


def test_pruned_part_mismatch_is_typed(backend):
    """Wrong bin counts raise PrunedPartMismatchError (a ValueError)."""
    plan = compiled.get_pruned_irfft_plan(64, 4, np.complex128)
    with pytest.raises(compiled.PrunedPartMismatchError):
        plan.execute(np.zeros((2, 5), dtype=np.complex128))
    assert issubclass(compiled.PrunedPartMismatchError, ValueError)
    # wrong precision is a plain ValueError, not a part mismatch
    with pytest.raises(ValueError):
        plan.execute(np.zeros((2, 4), dtype=np.complex64))


def test_pruned_rfft_plan_execute_validates_geometry(backend):
    plan = compiled.get_pruned_rfft_plan(64, 4, np.float64)
    with pytest.raises(ValueError):
        plan.execute(np.zeros((2, 32)))  # wrong length
    with pytest.raises(ValueError):
        plan.execute(np.zeros((2, 64), dtype=np.float32))  # wrong precision
