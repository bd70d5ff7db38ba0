"""The symmetric 2-D plane drivers against the staged path.

On the C backend a symmetric ``CompiledSpectralConv2D`` runs its halves
one ``(b, c)`` plane at a time: ``sym2d_analyse`` (the pruned R2C rows,
then the pruned C2C pass along X) and ``sym2d_synthesise`` (its mirror,
optionally re-analysing each plane it synthesises from the copy it
holds in its workspace, with or without an output table), reading and
writing through row tables.  Both promise the bytes of the staged path they
replace — the same kernels stage by stage over the whole batch
(``_analyse_staged`` / ``_synthesise_staged`` and the loader's oracles)
and the NumPy fallback — for every compiled flag variant, in both
precisions, with signed zeros and infinities.  ``_serve`` (every step
of an exact rollout in one executor call) must give the eager loop's
bytes.  Geometries the drivers do not cover keep the staged path.
"""

import itertools

import numpy as np
import pytest

from repro.api import Session, SpectralModel
from repro.core.compiled import CompiledSpectralConv2D
from repro.fft import _ckernels
from repro.fft.compiled import PlanCaches

needs_c = pytest.mark.skipif(
    _ckernels._build_blocker() is not None,
    reason=f"C kernels not built here: {_ckernels._build_blocker()}",
)
pytestmark = needs_c

VARIANTS = {tag: flags for flags, tag in _ckernels._flag_variants()}
DTYPES = (np.complex64, np.complex128)

#: (dim_x, dim_y, mx, my) the drivers cover: X split 2..8, row split
#: 2..4, one kept bin on either axis, a full AVX2 block of kept bins
#: plus a tail, and an X grid of 2.
COVERED = [
    (16, 32, 4, 5),
    (8, 64, 2, 11),
    (2, 8, 1, 1),
    (4, 16, 1, 2),
    (32, 16, 8, 4),
    (16, 128, 8, 16),
]

#: Geometries the staged path keeps: mx == X (no X split, X = 1 too),
#: mx not a power of two, and the R2C "slice" strategy (Y = 2, 4, 8).
FALLBACK = [
    (8, 16, 8, 2),
    (1, 16, 1, 2),
    (8, 16, 3, 2),
    (8, 8, 2, 3),
    (4, 2, 1, 1),
    (4, 4, 2, 2),
]


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


def _weight(rng, c, dtype):
    w = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
    return (w / (2 * c)).astype(dtype)


def _executor(w, mx, my, backend="ckernels"):
    return CompiledSpectralConv2D(w, mx, my, symmetric=True,
                                  plans=PlanCaches(backend))


def _states(rng, sizes, c, dim_x, dim_y, dtype, specials=()):
    """Real states of ``sizes`` rows with about a tenth of their values
    replaced by ``specials``."""
    xs = []
    for n in sizes:
        x = rng.standard_normal((n, c, dim_x, dim_y)).astype(_real(dtype))
        if specials and x.size:
            flat = x.reshape(-1)
            idx = rng.choice(flat.size, max(1, flat.size // 10),
                             replace=False)
            flat[idx] = rng.choice(np.array(specials, x.dtype), idx.size)
        xs.append(x)
    return xs


def _same_bits(got, ref):
    got, ref = np.ascontiguousarray(got), np.ascontiguousarray(ref)
    ints = np.dtype(f"u{ref.real.dtype.itemsize}")
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and np.array_equal(got.view(ints), ref.view(ints)))


def _same_bits_or_both_nan(got, ref):
    """Bit-equal on every non-NaN component, NaN in the same places."""
    got = np.ascontiguousarray(got).view(got.real.dtype).reshape(-1)
    ref = np.ascontiguousarray(ref).view(ref.real.dtype).reshape(-1)
    nan = np.isnan(ref)
    ints = np.dtype(f"u{ref.itemsize}")
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(ints), ref[~nan].view(ints)))


def _guarded(shape, dtype):
    """An array of ``shape`` framed by sentinel elements."""
    size = int(np.prod(shape))
    buf = np.full(size + 2, 7, dtype)
    return buf, buf[1:-1].reshape(shape)


def _intact(*bufs):
    return all(buf[0] == buf[-1] == 7 for buf, _ in bufs)


def _planes(w, mx, my, dim_x, dim_y):
    dtype = np.dtype(w.dtype)
    drivers = _executor(w, mx, my)._planes(dtype, (dim_x, dim_y), len(w))
    assert drivers is not None
    return drivers[0]


# ---------------------------------------------------------------------------
# The drivers against their staged oracles, per flag variant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", COVERED)
def test_drivers_match_the_staged_kernels(kernels, geometry, dtype):
    """A ragged table of states (2, 0, 3 and 1 rows) through both
    drivers, every workspace and output guarded; the synthesis writes
    through a table and re-analyses every plane."""
    dim_x, dim_y, mx, my = geometry
    rng = np.random.default_rng(dim_x * 1000 + my)
    c = 3
    planes = _planes(_weight(rng, c, dtype), mx, my, dim_x, dim_y)
    xs = _states(rng, (2, 0, 3, 1), c, dim_x, dim_y, dtype, (0.0, -0.0))
    bt, geo = 6, planes.geometry
    ws = _guarded((kernels.sym2d_workspace(*geo[:4], dtype),), dtype)
    sk = _guarded((bt, c, mx, my), dtype)
    kernels.sym2d_analyse(xs, sk[1], planes.fwd, ws[1], bt, c, *geo)
    state = np.concatenate(xs)
    assert _same_bits(sk[1], _ckernels._sym2d_analyse_by_stages(
        kernels, state, planes.fwd, mx, my))
    outs = [_guarded(x.shape, x.dtype) for x in xs]
    nxt = _guarded((bt, c, mx, my), dtype)
    kernels.sym2d_synthesise(sk[1], [o for _, o in outs], nxt[1],
                             planes.inv, planes.fwd, ws[1], bt, c, *geo)
    ref = _ckernels._sym2d_synthesise_by_stages(kernels, sk[1], planes.inv,
                                                dim_x, dim_y)
    assert _same_bits(np.concatenate([o for _, o in outs]), ref)
    assert _same_bits(nxt[1], _ckernels._sym2d_analyse_by_stages(
        kernels, ref, planes.fwd, mx, my))
    assert _intact(ws, sk, nxt, *outs)
    # Without an output table every plane stays in the workspace, and
    # the re-analysis is the same.
    held = _guarded((bt, c, mx, my), dtype)
    kernels.sym2d_synthesise(sk[1], None, held[1], planes.inv, planes.fwd,
                             ws[1], bt, c, *geo)
    assert _same_bits(held[1], nxt[1]) and _intact(ws, held)


@pytest.mark.parametrize("dtype", DTYPES)
def test_special_values_match_the_staged_kernels(kernels, dtype):
    """Signed zeros, infinities and NaN through both drivers: the staged
    kernels give the same bits, NaN payloads included."""
    dim_x, dim_y, mx, my = 16, 64, 4, 11
    rng = np.random.default_rng(5)
    planes = _planes(_weight(rng, 2, dtype), mx, my, dim_x, dim_y)
    geo = planes.geometry
    (x,) = _states(rng, (2,), 2, dim_x, dim_y, dtype,
                   (0.0, -0.0, np.inf, -np.inf, np.nan))
    ws = np.empty(kernels.sym2d_workspace(*geo[:4], dtype), dtype)
    sk = np.empty((2, 2, mx, my), dtype)
    kernels.sym2d_analyse([x], sk, planes.fwd, ws, 2, 2, *geo)
    assert _same_bits(sk, _ckernels._sym2d_analyse_by_stages(
        kernels, x, planes.fwd, mx, my))
    spec = sk.copy()
    spec.reshape(-1)[::7] = -0.0
    spec.reshape(-1)[3::11] = complex(-np.inf, 0.0)
    out = np.empty_like(x)
    kernels.sym2d_synthesise(spec, [out], None, planes.inv, None, ws, 2, 2,
                             *geo)
    assert _same_bits(out, _ckernels._sym2d_synthesise_by_stages(
        kernels, spec, planes.inv, dim_x, dim_y))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", COVERED)
def test_held_and_tabled_syntheses_reanalyse_alike(kernels, geometry,
                                                   dtype):
    """The synthesis holds every plane in the workspace in the analysis's
    sub-row layout and re-analyses it from there, with or without an
    output table: both calls give the same ``next`` bytes, which are
    the analysis of the planes written through the table, on plain
    corners and on corners with signed zeros, infinities and NaN."""
    dim_x, dim_y, mx, my = geometry
    rng = np.random.default_rng(dim_x * 10 + dim_y + my)
    c = 2
    planes = _planes(_weight(rng, c, dtype), mx, my, dim_x, dim_y)
    geo = planes.geometry
    xs = _states(rng, (3,), c, dim_x, dim_y, dtype, (0.0, -0.0))
    ws = np.empty(kernels.sym2d_workspace(*geo[:4], dtype), dtype)
    sk = np.empty((3, c, mx, my), dtype)
    kernels.sym2d_analyse(xs, sk, planes.fwd, ws, 3, c, *geo)
    special = sk.copy()
    flat = special.reshape(-1)
    flat[::5] = -0.0
    flat[1::7] = complex(-np.inf, 0.0)
    flat[2::11] = complex(0.0, np.inf)
    flat[3::13] = complex(np.nan, 1.0)
    for corner in (sk, special):
        outs = [np.empty_like(xs[0])]
        tabled, held, again = (np.empty_like(corner) for _ in range(3))
        with np.errstate(all="ignore"):
            kernels.sym2d_synthesise(corner, outs, tabled, planes.inv,
                                     planes.fwd, ws, 3, c, *geo)
            kernels.sym2d_synthesise(corner, None, held, planes.inv,
                                     planes.fwd, ws, 3, c, *geo)
            kernels.sym2d_analyse(outs, again, planes.fwd, ws, 3, c, *geo)
        assert _same_bits(held, tabled)
        assert _same_bits(again, tabled)
    assert np.isnan(held).any()


# ---------------------------------------------------------------------------
# The executor's halves, and _serve, against the staged path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", COVERED)
def test_halves_match_the_staged_path_and_numpy(geometry, dtype):
    dim_x, dim_y, mx, my = geometry
    rng = np.random.default_rng(dim_y * 100 + mx)
    w = _weight(rng, 3, dtype)
    ex, ref = _executor(w, mx, my), _executor(w, mx, my, "numpy")
    (x,) = _states(rng, (3,), 3, dim_x, dim_y, dtype, (0.0, -0.0))
    cd = np.dtype(dtype)
    sk = ex.forward_spectrum(x)
    assert _same_bits(sk, ex._analyse_staged(x, cd))
    assert _same_bits(sk, ref.forward_spectrum(x))
    yk = ex.step_spectrum(sk)
    out = ex.inverse_spectrum(yk, (dim_x, dim_y))
    assert _same_bits(out, ex._synthesise_staged(yk, (dim_x, dim_y), cd))
    assert _same_bits_or_both_nan(out, ref.inverse_spectrum(yk,
                                                            (dim_x, dim_y)))
    assert _same_bits(ex(x), ref(x))


def _eager(executor, x, steps, keep="last"):
    """``steps`` applications of ``executor``, each output the next
    input: the last output, or all of them stacked."""
    kept = []
    for _ in range(steps):
        x = executor(x)
        kept.append(x)
    return np.stack(kept) if keep == "all" else kept[-1]


@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("geometry", COVERED)
def test_exact_steps_match_the_eager_loop(geometry, dtype, keep):
    """Ragged states (1, 0, 2 rows, one Fortran-ordered) stepped four
    times in one ``_serve`` call equal each state's eager loop on the
    NumPy fallback; every result owns its buffer."""
    dim_x, dim_y, mx, my = geometry
    rng = np.random.default_rng(dim_x + dim_y + my)
    w = _weight(rng, 2, dtype)
    ex, ref = _executor(w, mx, my), _executor(w, mx, my, "numpy")
    xs = _states(rng, (1, 0, 2), 2, dim_x, dim_y, dtype, (0.0, -0.0))
    xs[2] = np.asfortranarray(xs[2])
    outs = ex._serve(xs, 4, "exact", keep)
    for x, got in zip(xs, outs, strict=True):
        assert _same_bits(got, _eager(ref, x, 4, keep))
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(outs + xs, 2))


@pytest.mark.parametrize("geometry", FALLBACK)
def test_other_geometries_keep_the_staged_path(geometry):
    """The drivers cover none of these: the halves run staged (with the
    NumPy fallback's bytes), and so does ``_serve`` of a group, exact
    and fast."""
    dim_x, dim_y, mx, my = geometry
    rng = np.random.default_rng(3)
    w = _weight(rng, 2, np.complex64)
    ex, ref = _executor(w, mx, my), _executor(w, mx, my, "numpy")
    assert ex._planes(np.dtype(np.complex64), (dim_x, dim_y), 2) is None
    xs = _states(rng, (1, 2), 2, dim_x, dim_y, np.complex64)
    for got, x in zip(ex._serve(xs, 2, "exact", "last"), xs, strict=True):
        assert _same_bits(got, _eager(ref, x, 2))
    for got, want in zip(ex._serve(xs, 2, "fast", "all"),
                         ref._serve(xs, 2, "fast", "all"), strict=True):
        assert _same_bits(got, want)
    assert _same_bits(ex(xs[1]), ref(xs[1]))


def test_numpy_backend_and_non_square_weights_take_the_staged_path():
    """On the NumPy backend, and with a non-square weight (no fused
    step loop), ``_serve`` runs the staged halves with the bytes of the
    eager loop; the non-square executor's halves still run on the
    drivers."""
    rng = np.random.default_rng(4)
    w = _weight(rng, 2, np.complex64)
    xs = _states(rng, (1,), 2, 16, 32, np.complex64)
    cd = np.dtype(np.complex64)
    numpy = _executor(w, 4, 5, "numpy")
    assert numpy._planes(cd, (16, 32), 2) is None
    (got,) = numpy._serve(xs, 2, "exact", "last")
    assert _same_bits(got, _eager(numpy, xs[0], 2))
    narrow, narrow_ref = (
        CompiledSpectralConv2D(w[:, :1], 4, 5, symmetric=True,
                               plans=PlanCaches(backend))
        for backend in ("ckernels", "numpy"))
    assert narrow._planes(cd, (16, 32), 2) is not None  # the halves still
    (got,) = narrow._serve(xs, 1, "exact", "last")
    assert _same_bits(got, _eager(narrow_ref, xs[0], 1))


# ---------------------------------------------------------------------------
# Bad tables and operands are rejected before C runs
# ---------------------------------------------------------------------------

DIMS = (16, 32, 4, 5)


def _operands(rng):
    w = _weight(rng, 2, np.complex64)
    planes = _planes(w, DIMS[2], DIMS[3], DIMS[0], DIMS[1])
    xs = _states(rng, (2, 1), 2, DIMS[0], DIMS[1], np.complex64)
    sk = np.zeros((3, 2, DIMS[2], DIMS[3]), np.complex64)
    ws = np.zeros(_ckernels._Kernels.sym2d_workspace(*DIMS, np.complex64),
                  np.complex64)
    return planes, xs, sk, ws


def _unaligned(x):
    raw = np.zeros(x.nbytes + 1, np.uint8)
    out = raw[1:].view(x.dtype).reshape(x.shape)
    out[...] = x
    return out


def _shared(a, b, offset=0):
    """Copies of ``a`` and ``b`` placed in one buffer, ``b`` starting
    ``offset`` elements of ``a``'s dtype after ``a``'s start: they
    overlap where ``offset < a.size``."""
    item = a.dtype.itemsize
    raw = np.zeros(max(a.nbytes, offset * item + b.nbytes), np.uint8)
    a2 = raw[:a.nbytes].view(a.dtype).reshape(a.shape)
    b2 = raw[offset * item:offset * item + b.nbytes].view(b.dtype).reshape(
        b.shape)
    a2[...] = a
    b2[...] = b
    return a2, b2


def _spectrum_over_input(xs, sk, ws, bt, dims):
    x1, sk1 = _shared(xs[1], sk)
    return [xs[0], x1], sk1, ws, bt, dims


def _output_over_spectrum(sk, outs, nxt, ws, bt):
    sk1, out1 = _shared(sk, outs[1])
    return sk1, [outs[0], out1], nxt, ws, bt


def _read_only(x):
    x = x.copy()
    x.setflags(write=False)
    return x


#: (label, change) of the analysis call's ``(xs, sk, ws, bt, dims)``.
_BAD_ANALYSE = [
    ("float64 entry", lambda xs, sk, ws, bt, d: (
        [xs[0].astype(np.float64), xs[1]], sk, ws, bt, d)),
    ("complex entry", lambda xs, sk, ws, bt, d: (
        [xs[0].astype(np.complex64), xs[1]], sk, ws, bt, d)),
    ("strided entry", lambda xs, sk, ws, bt, d: (
        [xs[0][:, :, ::2], xs[1]], sk, ws, bt, d)),
    ("unaligned entry", lambda xs, sk, ws, bt, d: (
        [_unaligned(xs[0]), xs[1]], sk, ws, bt, d)),
    ("wrong channels", lambda xs, sk, ws, bt, d: (
        [xs[0][:, :1].copy(), xs[1]], sk, ws, bt, d)),
    ("not an array", lambda xs, sk, ws, bt, d: (
        [xs[0].tolist(), xs[1]], sk, ws, bt, d)),
    ("row count", lambda xs, sk, ws, bt, d: (xs, sk, ws, bt + 1, d)),
    ("short spectrum", lambda xs, sk, ws, bt, d: (
        xs, sk[:2].copy(), ws, bt, d)),
    ("read-only spectrum", lambda xs, sk, ws, bt, d: (
        xs, _read_only(sk), ws, bt, d)),
    ("short workspace", lambda xs, sk, ws, bt, d: (
        xs, sk, ws[:-1].copy(), bt, d)),
    ("spectrum overlaps an input", _spectrum_over_input),
    ("workspace overlaps the spectrum", lambda xs, sk, ws, bt, d: (
        xs, *_shared(sk, ws, sk.size // 2), bt, d)),
    ("mx not a power of two", lambda xs, sk, ws, bt, d: (
        xs, sk, ws, bt, (16, 32, 3, 5))),
    ("no X split", lambda xs, sk, ws, bt, d: (
        xs, sk, ws, bt, (16, 32, 16, 5))),
    ("my beyond q", lambda xs, sk, ws, bt, d: (
        xs, sk, ws, bt, (16, 32, 4, 9))),
]


@pytest.mark.parametrize("label,change", _BAD_ANALYSE,
                         ids=[label for label, _ in _BAD_ANALYSE])
def test_bad_analyse_operands_are_rejected(label, change):
    rng = np.random.default_rng(6)
    planes, xs, sk, ws = _operands(rng)
    kernels = _ckernels.get_kernels()
    xs, sk, ws, bt, dims = change(xs, sk, ws, 3, DIMS)
    before = sk.copy()
    with pytest.raises(ValueError, match="sym2d_analyse"):
        kernels.sym2d_analyse(xs, sk, planes.fwd, ws, bt, 2, *dims, 8)
    assert _same_bits(sk, before), label


#: (label, change) of the synthesis call's ``(sk, outs, nxt, ws, bt)``.
_BAD_SYNTHESISE = [
    ("float64 output", lambda sk, outs, nxt, ws, bt: (
        sk, [outs[0].astype(np.float64), outs[1]], nxt, ws, bt)),
    ("read-only output", lambda sk, outs, nxt, ws, bt: (
        sk, [_read_only(outs[0]), outs[1]], nxt, ws, bt)),
    ("output row count", lambda sk, outs, nxt, ws, bt: (
        sk, outs[:1], nxt, ws, bt)),
    ("output overlaps the spectrum", _output_over_spectrum),
    ("outputs overlap", lambda sk, outs, nxt, ws, bt: (
        sk, [outs[0], outs[0][:1]], nxt, ws, bt)),
    ("next overlaps an output", lambda sk, outs, nxt, ws, bt: (
        sk, outs, outs[0].reshape(-1).view(np.complex64)[:nxt.size],
        ws, bt)),
    ("short next", lambda sk, outs, nxt, ws, bt: (
        sk, outs, nxt[:2].copy(), ws, bt)),
    ("strided spectrum", lambda sk, outs, nxt, ws, bt: (
        np.zeros((3, 2, 4, 10), np.complex64)[..., ::2], outs, nxt, ws,
        bt)),
]


@pytest.mark.parametrize("label,change", _BAD_SYNTHESISE,
                         ids=[label for label, _ in _BAD_SYNTHESISE])
def test_bad_synthesise_operands_are_rejected(label, change):
    rng = np.random.default_rng(7)
    planes, xs, sk, ws = _operands(rng)
    kernels = _ckernels.get_kernels()
    outs = [np.zeros_like(x) for x in xs]
    sk, outs, nxt, ws, bt = change(sk, outs, np.zeros_like(sk), ws, 3)
    before = [o.copy() for o in outs] + [nxt.copy()]
    with pytest.raises(ValueError, match="sym2d_synthesise"):
        kernels.sym2d_synthesise(sk, outs, nxt, planes.inv, planes.fwd, ws,
                                 bt, 2, *DIMS, 8)
    for old, new in zip(before, outs + [nxt]):
        assert _same_bits(new, old), label


def test_next_needs_the_forward_tables():
    planes, _, sk, ws = _operands(np.random.default_rng(8))
    with pytest.raises(ValueError, match="forward tables"):
        _ckernels.get_kernels().sym2d_synthesise(
            sk, None, np.zeros_like(sk), planes.inv, None, ws, 3, 2, *DIMS,
            8)


# ---------------------------------------------------------------------------
# Session rollouts on the plane drivers
# ---------------------------------------------------------------------------

@pytest.fixture
def counters(monkeypatch):
    """Count ``np.concatenate`` calls and the plane drivers' calls."""
    seen = {"concatenate": 0, "sym2d_analyse": 0, "sym2d_synthesise": 0}
    concatenate = np.concatenate

    def counting_concatenate(*args, **kwargs):
        seen["concatenate"] += 1
        return concatenate(*args, **kwargs)

    kernels = _ckernels.get_kernels()
    for name in ("sym2d_analyse", "sym2d_synthesise"):
        real = getattr(kernels, name)

        def counting(*args, _real=real, _name=name):
            seen[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counting)
    monkeypatch.setattr(np, "concatenate", counting_concatenate)
    return seen


def _session_streams(rng, sizes=(1, 2, 1)):
    c, (dim_x, dim_y) = 3, (16, 32)
    model = SpectralModel(_weight(rng, c, np.complex64), (4, 5),
                          symmetric=True)
    return [(model, x) for x in _states(rng, sizes, c, dim_x, dim_y,
                                        np.complex64)]


@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("profile", ["exact", "fast"])
def test_rollout_serves_in_place(counters, profile, keep):
    """A symmetric 2-D group on the C backend is never concatenated: one
    analysis per group, and one synthesis per step (exact) or per call
    (fast).  Each result owns its buffer, equals the NumPy session's
    bytes, and the per-geometry counts are a batch of every stream per
    step, as before the drivers."""
    rng = np.random.default_rng(9)
    streams = _session_streams(rng)
    steps = 3
    with Session(backend="numpy", private_caches=True) as s:
        want = s.rollout(streams=streams, steps=steps, profile=profile,
                         keep=keep, max_batch=2)
    with Session(backend="ckernels", private_caches=True) as s:
        # Warm: building plans concatenates their stage tables.
        s.rollout(streams=streams, steps=1, profile=profile, max_batch=2)
        for name in counters:
            counters[name] = 0
        got = s.rollout(streams=streams, steps=steps, profile=profile,
                        keep=keep, max_batch=2)
        seen = dict(counters)  # stats() below runs np.quantile
        stats = s.stats()["per_geometry"]["3x16x32"]
    assert seen["concatenate"] == 0
    assert seen["sym2d_analyse"] == 2  # groups of 2 and 1 streams
    assert seen["sym2d_synthesise"] == (2 * steps if profile == "exact"
                                        else 2)
    for g, w in zip(got, want, strict=True):
        assert _same_bits(g, w)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(
        got + [x for _, x in streams], 2))
    assert stats["requests"] == (1 + steps) * len(streams)
    assert stats["batches"] == (1 + steps) * 2


def test_exact_rollout_equals_the_eager_loop():
    rng = np.random.default_rng(10)
    streams = _session_streams(rng, (2, 1))
    with Session(backend="ckernels", private_caches=True) as s:
        got = s.rollout(streams=streams, steps=4)
        for (model, x), g in zip(streams, got, strict=True):
            for _ in range(4):
                x = s.infer(model, x)
            assert _same_bits(g, x)


def test_exact_rollout_keeps_every_step_of_the_eager_loop():
    """``keep="all"`` on the plane drivers: every kept step of every
    stream equals the eager loop's state at that step."""
    rng = np.random.default_rng(11)
    streams = _session_streams(rng, (1, 2))
    with Session(backend="ckernels", private_caches=True) as s:
        got = s.rollout(streams=streams, steps=3, keep="all")
        for (model, x), g in zip(streams, got, strict=True):
            frames = []
            for _ in range(3):
                x = s.infer(model, x)
                frames.append(x)
            assert _same_bits(g, np.stack(frames))
