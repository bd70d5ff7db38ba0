"""The pruned R2C/C2R row drivers against their oracles.

On the C backend a pruned real plan's ``decomp`` strategy runs in one
call: ``pruned_rfft_rows`` (gather, Stockham over the p sub-rows,
``decomp_mirror``) or ``pruned_irfft_rows`` (``expand_head_tail``,
Stockham with the chained ``/q`` and ``*q/h``, interleave), each stage
run over chunks of rows (``_Kernels.row_chunk``).  Both promise the
bits of the same kernels run stage by stage over the whole batch (the
loader's oracle, ``_ckernels._rfft_rows_by_stages`` /
``_irfft_rows_by_stages``) and of the plans' NumPy fallback, for every
compiled flag variant: equal bytes on every non-NaN component, signed
zeros and infinities included, and NaN in the same places.

The AVX2 build's ``decomp_mirror`` and ``expand_head_tail`` work in
blocks of 8 (float) or 4 (double) bins with scalar tails, so the parts
cover sub-transforms shorter than, equal to and longer than a block,
with ragged kept bins.  With one row and one tail bin NumPy forms the
C2R tail product without FMA; that choice belongs to the whole call,
which part = 2 at rows 0..3 pins, and at row counts around a chunk,
where a last chunk of one row stays fused.  Row counts around a chunk
run at n = 64 (a chunk of 32 rows in float, 16 in double), n = 512 (4
and 2) and n = 1024 (2 and 1).
"""

import numpy as np
import pytest

from repro.fft import _ckernels, compiled

pytestmark = pytest.mark.skipif(
    _ckernels._build_blocker() is not None,
    reason=f"C kernels not built here: {_ckernels._build_blocker()}",
)

VARIANTS = {tag: flags for flags, tag in _ckernels._flag_variants()}
DTYPES = (np.complex64, np.complex128)
_numpy_plans = compiled.PlanCaches(backend="numpy")


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def kernels(request):
    """Each flag variant, built into (or reused from) the kernel cache."""
    lib_path = _ckernels._compile(_ckernels._find_cc(),
                                  VARIANTS[request.param], request.param)
    if lib_path is None:
        pytest.skip(f"variant {request.param} does not build here")
    return _ckernels._Kernels(lib_path, request.param)


def _real(dtype):
    return np.float32 if dtype == np.complex64 else np.float64


#: Row counts around the row stages' chunk, as (chunks, extra rows).
AROUND_CHUNK = {"chunk-1": (1, -1), "chunk": (1, 0), "chunk+1": (1, 1),
                "2chunk+1": (2, 1)}


def _row_count(rows, n, dtype):
    """``rows`` itself, or the row count ``rows`` names in
    :data:`AROUND_CHUNK` for rows of length ``n``."""
    if isinstance(rows, int):
        return rows
    chunks, extra = AROUND_CHUNK[rows]
    return chunks * _ckernels._Kernels.row_chunk(dtype, n // 2) + extra


def _guarded(size, dtype):
    """A buffer of ``size`` elements framed by sentinels."""
    buf = np.full(size + 2, 7 + 7j, dtype)
    return buf, buf[1:-1]


def _intact(*bufs):
    return all(buf[0] == buf[-1] == 7 + 7j for buf, _ in bufs)


def _same_bits_or_both_nan(got, ref):
    """Bit-equal as integers on every non-NaN component, NaN in the same
    places."""
    got = np.ascontiguousarray(got).view(got.real.dtype).reshape(-1)
    ref = np.ascontiguousarray(ref).view(ref.real.dtype).reshape(-1)
    nan = np.isnan(ref)
    ints = np.dtype(f"u{ref.itemsize}")
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(ints), ref[~nan].view(ints)))


def _specials(rng, x, values):
    """``x`` with about a tenth of its components replaced by
    ``values``."""
    flat = x.copy().reshape(-1).view(x.real.dtype)
    idx = rng.choice(flat.size, size=min(flat.size, max(1, flat.size // 10)),
                     replace=False)
    flat[idx] = rng.choice(np.array(values, flat.dtype), size=idx.size)
    return flat.view(x.dtype).reshape(x.shape)


def _adversarial(rng, shape, dtype):
    """Twelve-decade values with signed zeros, so a reordered sum or an
    unfused product changes bits."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    x = rng.standard_normal(shape) * scale
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape) * scale
    return _specials(rng, x.astype(dtype), [0.0, -0.0])


def _run_rfft(kernels, plan, x):
    """The forward driver over real rows ``x``, every workspace and the
    output guarded."""
    rows, n = x.shape
    work = _guarded(kernels.row_workspace(plan.dtype, n), plan.dtype)
    out = _guarded(rows * plan.part, plan.dtype)
    kernels.pruned_rfft_rows(
        x.view(plan.dtype), plan._u, plan._v, plan._sub.twiddles, work[1],
        out[1], rows, n, plan._q, plan.part)
    assert _intact(work, out)
    return out[1].reshape(rows, plan.part)


def _run_irfft(kernels, plan, xk):
    """The inverse driver over kept bins ``xk``, guarded likewise;
    returns packed complex rows ``(rows, n/2)``."""
    rows, h = xk.shape[0], plan.half
    work = _guarded(kernels.row_workspace(plan.dtype, plan.n), plan.dtype)
    out = _guarded(rows * h, plan.dtype)
    kernels.pruned_irfft_rows(
        xk, plan._ch, plan._ct, plan._wdh, plan._wdt, plan._sub.twiddles,
        work[1], out[1], rows, plan.n, plan._q, plan.part)
    assert _intact(work, out)
    return out[1].reshape(rows, h)


def _cases():
    """(n, part, rows) on the decomp strategy: three rows at q below, at
    and above the AVX2 block, kept bins at, below and straddling a
    block; then row counts around a chunk at n = 64, 512 and 1024."""
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        for part in (1, 2, 3, 4, 5, 8, 11, 16, 19, 32, 45, 64, 100, 256):
            if compiled._next_pow2(part) <= n // 4:
                yield pytest.param(n, part, 3, id=f"{n}-{part}")
    for n, part in ((64, 11), (512, 11), (1024, 11)):
        for rows in AROUND_CHUNK:
            yield pytest.param(n, part, rows, id=f"{n}-{part}-{rows}")


CASES = list(_cases())


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,part,rows", CASES)
def test_rfft_driver_matches_stages_and_numpy(kernels, n, part, rows,
                                              dtype):
    rng = np.random.default_rng(n * 1000 + part)
    plan = _numpy_plans.pruned_rfft(n, part, _real(dtype))
    x = _adversarial(rng, (_row_count(rows, n, dtype), n), _real(dtype))
    got = _run_rfft(kernels, plan, x)
    staged = _ckernels._rfft_rows_by_stages(
        kernels, x.view(plan.dtype), plan._u, plan._v, plan._sub.twiddles,
        part)
    assert _same_bits_or_both_nan(got, staged)
    assert _same_bits_or_both_nan(got, plan.execute(x))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,part,rows", CASES)
def test_irfft_driver_matches_stages_and_numpy(kernels, n, part, rows,
                                               dtype):
    rng = np.random.default_rng(n * 1000 + part + 1)
    plan = _numpy_plans.pruned_irfft(n, part, dtype)
    xk = _adversarial(rng, (_row_count(rows, n, dtype), part), dtype)
    got = _run_irfft(kernels, plan, xk)
    staged = _ckernels._irfft_rows_by_stages(
        kernels, xk, plan._ch, plan._ct, plan._wdh, plan._wdt,
        plan._sub.twiddles)
    assert _same_bits_or_both_nan(got, staged)
    assert _same_bits_or_both_nan(got, plan.execute(xk).view(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", [0, 1, 2, 3, *AROUND_CHUNK])
def test_one_tail_bin_choice_belongs_to_the_call(kernels, rows, dtype):
    """Part 2 has one tail bin: the tail product is unfused only when
    the call has one row, never for a last chunk of one row.  On the
    probe operands, where the two differ, the driver matches the staged
    sequence at every row count, and its one-row result is not the
    first row of a two-row call."""
    x, *ops = _ckernels._unfused_tail_probe(dtype)
    x[0, 0] = 0  # a zero head bin passes the tail product's bits through
    tw = _ckernels._stage_table(2, dtype, True)
    work = _guarded(kernels.row_workspace(dtype, 8), dtype)

    def driver(xs):
        out = _guarded(len(xs) * 4, dtype)
        kernels.pruned_irfft_rows(xs, *ops, tw, work[1], out[1], len(xs), 8,
                                  2, 2)
        assert _intact(work, out)
        return out[1].reshape(len(xs), 4)

    xs = np.ascontiguousarray(np.repeat(x, _row_count(rows, 8, dtype),
                                        axis=0))
    got = driver(xs)
    assert _same_bits_or_both_nan(
        got, _ckernels._irfft_rows_by_stages(kernels, xs, *ops, tw))
    if rows == 1:
        assert not _same_bits_or_both_nan(got, driver(np.repeat(x, 2, 0))[:1])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", [0, 1, 2, 3, *AROUND_CHUNK])
def test_part_two_matches_numpy_at_every_row_count(kernels, rows, dtype):
    rng = np.random.default_rng(_row_count(rows, 8, dtype))
    for n in (8, 64, 512, 1024):
        fwd = _numpy_plans.pruned_rfft(n, 2, _real(dtype))
        inv = _numpy_plans.pruned_irfft(n, 2, dtype)
        x = _adversarial(rng, (_row_count(rows, n, dtype), n), _real(dtype))
        xk = _adversarial(rng, (_row_count(rows, n, dtype), 2), dtype)
        assert _same_bits_or_both_nan(_run_rfft(kernels, fwd, x),
                                      fwd.execute(x))
        assert _same_bits_or_both_nan(_run_irfft(kernels, inv, xk),
                                      inv.execute(xk).view(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,part", [(16, 4), (64, 11), (128, 16), (256, 19)])
def test_special_values_match_numpy(kernels, n, part, dtype):
    """Rows of signed zeros, infinities and NaNs: the same bits on every
    non-NaN component and NaN in the same places; clean rows stay
    NaN-free."""
    rng = np.random.default_rng(n + part)
    fwd = _numpy_plans.pruned_rfft(n, part, _real(dtype))
    inv = _numpy_plans.pruned_irfft(n, part, dtype)
    x = _adversarial(rng, (5, n), _real(dtype))
    x[1] = _specials(rng, x[1], [np.inf, -np.inf])
    x[2] = _specials(rng, x[2], [np.nan])
    x[3] = -0.0
    xk = _adversarial(rng, (5, part), dtype)
    xk[1] = _specials(rng, xk[1], [np.inf, -np.inf])
    xk[2] = _specials(rng, xk[2], [np.nan])
    xk[3] = complex(-0.0, -0.0)
    with np.errstate(all="ignore"):
        got, ref = _run_rfft(kernels, fwd, x), fwd.execute(x)
        igot, iref = _run_irfft(kernels, inv, xk), inv.execute(xk)
    assert not np.isnan(ref[[0, 3, 4]].view(ref.real.dtype)).any()
    assert not np.isnan(iref[[0, 3, 4]]).any()
    assert _same_bits_or_both_nan(got, ref)
    assert _same_bits_or_both_nan(igot, iref.view(dtype))


def test_geometry_and_operands_are_checked(kernels):
    """Bad geometry or a short operand raises before C runs."""
    c64 = np.complex64
    plan = _numpy_plans.pruned_rfft(64, 11, np.float32)
    inv = _numpy_plans.pruned_irfft(64, 11, c64)
    z, out = np.ones((2, 32), c64), np.zeros((2, 11), c64)
    work = [np.zeros(kernels.row_workspace(c64, 64), c64)]
    fwd_ops = (z, plan._u, plan._v, plan._sub.twiddles, *work, out)
    for exc, match, args in [
        (ValueError, "power of two", (2, 64, 12, 11)),
        (ValueError, "split", (2, 66, 16, 11)),
        (ValueError, "split", (2, 16, 16, 11)),
        (ValueError, "outside", (2, 64, 16, 0)),
        (ValueError, "outside", (2, 64, 16, 17)),
        (ValueError, "negative", (-1, 64, 16, 11)),
        (ValueError, "C-contiguous", (3, 64, 16, 11)),
    ]:
        with pytest.raises(exc, match=match):
            kernels.pruned_rfft_rows(*fwd_ops, *args)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.pruned_rfft_rows(z, plan._u, plan._v, plan._sub.twiddles,
                                 work[0][:-1], out, 2, 64, 16, 11)
    xk = np.ones((2, 11), c64)
    inv_ops = (xk, inv._ch, inv._ct, inv._wdh, inv._wdt, inv._sub.twiddles,
               *work)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.pruned_irfft_rows(*inv_ops, z[:, ::2], 2, 64, 16, 11)
    with pytest.raises(ValueError, match="outside"):
        kernels.pruned_irfft_rows(*inv_ops, z, 2, 64, 16, 17)
    with pytest.raises(TypeError, match="unsupported dtype"):
        kernels.pruned_irfft_rows(xk.real.copy(), *inv_ops[1:], z,
                                  2, 64, 16, 11)
    assert not out.any() and (z == 1).all()
    for buf in work:
        assert not buf.any()


@pytest.mark.skipif(not _ckernels.kernels_available(),
                    reason="the C kernels did not load here")
class TestOneDriverCall:
    """On the C backend each ``execute`` of a decomp plan is one driver
    call and nothing else: no staged kernel runs."""

    STAGED = ("transpose", "stockham", "decomp_mirror", "expand_head_tail")

    @pytest.fixture
    def calls(self, monkeypatch):
        kernels = compiled.PlanCaches(backend="ckernels").kernels()
        seen = []

        def counting(name):
            real = getattr(kernels, name)

            def wrapper(*args):
                seen.append(name)
                return real(*args)
            return wrapper

        for name in self.STAGED + ("pruned_rfft_rows", "pruned_irfft_rows"):
            monkeypatch.setattr(kernels, name, counting(name))
        return seen

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rows", [0, 1, 37])
    def test_each_execute_is_one_call(self, calls, rows, dtype):
        plans = compiled.PlanCaches(backend="ckernels")
        rng = np.random.default_rng(rows)
        fwd = plans.pruned_rfft(128, 16, _real(dtype))
        inv = plans.pruned_irfft(128, 16, dtype)
        x = _adversarial(rng, (rows, 128), _real(dtype))
        xk = fwd.execute(x)
        assert calls == ["pruned_rfft_rows"]
        calls.clear()
        y = inv.execute(xk)
        assert calls == ["pruned_irfft_rows"]
        assert _same_bits_or_both_nan(
            xk, _numpy_plans.pruned_rfft(128, 16, _real(dtype)).execute(x))
        assert _same_bits_or_both_nan(
            y, _numpy_plans.pruned_irfft(128, 16, dtype).execute(xk))
