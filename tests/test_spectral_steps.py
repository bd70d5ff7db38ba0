"""The spectrum-resident rollout step driver against its oracles.

On the C backend ``rollout_spectrum`` runs every step of a fast rollout
in one ``spectral_steps`` call: per step a zeroed output, the canonical
``k_tb`` panels of ``panel_contract`` read in place from the state, and
(but after the last step) the executor's reanalysis — the identity for
the C2C convention, the DC bin made real in symmetric 1-D, the
Hermitian y-DC column in symmetric 2-D.  It promises the bytes of the
executors' Python step loop (``step_spectrum`` then
``reanalyze_spectrum``) and of the NumPy executor, signed zeros and
infinities included and NaN in the same places, for every compiled flag
variant.

The Session's fast profile then synthesises each stream from its own
rows of the kept spectra; those results must be the bytes of the loop
the Session ran before (whole-group synthesis, rows copied out), own
their buffers, and equal each stream's solo rollout.
"""

import itertools

import numpy as np
import pytest

from repro.api import Session, SpectralModel
from repro.api.serve import ServePool
from repro.core.compiled import CompiledSpectralConv1D, CompiledSpectralConv2D
from repro.fft import _ckernels, compiled

HAVE_C = _ckernels.kernels_available()
needs_c = pytest.mark.skipif(not HAVE_C,
                             reason="the C kernels did not load here")

VARIANTS = {tag: flags for flags, tag in _ckernels._flag_variants()}
DTYPES = (np.complex64, np.complex128)
BACKENDS = ("ckernels", "numpy")
_NUMPY = compiled.PlanCaches(backend="numpy")

#: (ndim, modes, spatial): a 2-D corner whose kept X bins reach past
#: dim_x / 2, so mirror pairs fall inside the corner.
GEOMETRIES = ((1, (6,), (32,)), (2, (5, 4), (8, 8)))


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def kernels(request):
    """Each flag variant, built into (or reused from) the kernel cache."""
    if _ckernels._build_blocker() is not None:
        pytest.skip(_ckernels._build_blocker())
    lib_path = _ckernels._compile(_ckernels._find_cc(),
                                  VARIANTS[request.param], request.param)
    if lib_path is None:
        pytest.skip(f"variant {request.param} does not build here")
    return _ckernels._Kernels(lib_path, request.param)


def _plans(backend):
    if backend == "ckernels" and not HAVE_C:
        pytest.skip("the C kernels did not load here")
    return compiled.PlanCaches(backend=backend)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.real.dtype.itemsize}")


def _same(got, ref):
    return got.shape == ref.shape and np.array_equal(_bits(got), _bits(ref))


def _same_or_both_nan(got, ref):
    """Bit-equal on every non-NaN component, NaN in the same places."""
    got = np.ascontiguousarray(got).view(got.real.dtype).reshape(-1)
    ref = np.ascontiguousarray(ref).view(ref.real.dtype).reshape(-1)
    nan = np.isnan(ref)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(_bits(got[~nan]), _bits(ref[~nan])))


def _cplx(rng, shape, dtype):
    """Twelve-decade values with signed zeros sprinkled in."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    x = (x * scale).astype(dtype)
    flat = x.reshape(-1).view(x.real.dtype)
    idx = rng.choice(flat.size, size=flat.size // 10, replace=False)
    flat[idx] = rng.choice(np.array([0.0, -0.0], flat.dtype), size=idx.size)
    return x


def _executor(ndim, modes, weight, symmetric, plans, k_tb=8):
    if ndim == 1:
        return CompiledSpectralConv1D(weight, modes[0], k_tb=k_tb,
                                      symmetric=symmetric, plans=plans)
    return CompiledSpectralConv2D(weight, *modes, k_tb=k_tb,
                                  symmetric=symmetric, plans=plans)


def _loop(executor, sk, steps, spatial, keep):
    """The Python step loop through the public entry points."""
    kept = []
    for step in range(steps):
        yk = executor.step_spectrum(sk)
        kept.append(yk)
        if step + 1 < steps:
            sk = executor.reanalyze_spectrum(yk, spatial)
    return np.stack(kept) if keep == "all" else kept[-1]


def _guarded(size, dtype):
    """A buffer of ``size`` elements framed by sentinels."""
    buf = np.full(size + 2, 7 + 7j, dtype)
    return buf, buf[1:-1]


def _run_kernel(kernels, sk, w, k_tb, steps, dim_x, projection, keep):
    """The driver on a state ``(bt, c, *modes)`` with guarded work and
    output buffers."""
    bt, c, mx = sk.shape[:3]
    my = sk.shape[3] if sk.ndim == 4 else 1
    work = _guarded(sk.size, sk.dtype)
    out = _guarded((steps if keep == "all" else 1) * sk.size, sk.dtype)
    kernels.spectral_steps(sk, w, work[1], out[1], bt, c, mx, my, k_tb,
                           steps, dim_x, projection, keep)
    for buf, _ in (work, out):
        assert buf[0] == buf[-1] == 7 + 7j
    return out[1].reshape(((steps,) if keep == "all" else ()) + sk.shape)


# ---------------------------------------------------------------------------
# rollout_spectrum against the loop and the NumPy executor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", [0, 1, 3])
@pytest.mark.parametrize("steps", [1, 2, 5])
@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("ndim,modes,spatial", GEOMETRIES)
def test_rollout_spectrum_matches_loop_and_numpy(ndim, modes, spatial,
                                                 symmetric, dtype, keep,
                                                 steps, batch, backend):
    """C = 12 channels in panels of k_tb = 8 leave a ragged tail panel."""
    rng = np.random.default_rng(hash((ndim, symmetric, steps, batch)) % 2**32)
    c = 12
    weight = _cplx(rng, (c, c), dtype) / 10 ** 6
    sk = _cplx(rng, (batch, c) + modes, dtype)
    executor = _executor(ndim, modes, weight, symmetric, _plans(backend))
    reference = _executor(ndim, modes, weight, symmetric, _NUMPY)
    got = executor.rollout_spectrum(sk, steps, spatial, keep)
    want = _loop(reference, sk, steps, spatial, keep)
    assert got.dtype == dtype
    assert _same(got, want)
    assert _same(got, _loop(executor, sk, steps, spatial, keep))
    assert _same(reference.rollout_spectrum(sk, steps, spatial, keep), want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_one_element_column_takes_the_unfused_multiply(dtype, keep, backend):
    """``B * C * dim_x == 1``: NumPy scales the one-element padded column
    in its scalar loop, and the driver does the same.  (A multiply by
    0.5 + 0i rounds alike fused or not, so this pins the geometry, not
    the choice.)"""
    rng = np.random.default_rng(5)
    weight = _cplx(rng, (1, 1), dtype)
    sk = _cplx(rng, (1, 1, 1, 3), dtype)
    executor = _executor(2, (1, 3), weight, True, _plans(backend))
    reference = _executor(2, (1, 3), weight, True, _NUMPY)
    got = executor.rollout_spectrum(sk, 4, (1, 8), keep)
    assert _same(got, _loop(reference, sk, 4, (1, 8), keep))


@pytest.mark.parametrize("backend", BACKENDS)
def test_real_state_widens_like_the_loop(backend):
    rng = np.random.default_rng(9)
    weight = _cplx(rng, (4, 4), np.complex64)
    sk = rng.standard_normal((2, 4, 5, 4)).astype(np.float32)
    executor = _executor(2, (5, 4), weight, True, _plans(backend))
    got = executor.rollout_spectrum(sk, 3, (8, 8), "all")
    assert got.dtype == np.complex64
    assert _same(got, _loop(executor, sk, 3, (8, 8), "all"))


# ---------------------------------------------------------------------------
# The kernel itself, per flag variant
# ---------------------------------------------------------------------------

_GRID = np.array([complex(re, im) for re, im in itertools.product(
    (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf), repeat=2)])


@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ndim", [1, 2])
def test_special_values_through_the_projection(kernels, ndim, dtype, keep):
    """Every {+-0, +-1, +-inf}^2 value lands in a projected bin — the DC
    bins in 1-D, the y-DC column (with mirror pairs) in 2-D — under a
    unit weight, so the second step contracts the projection's output;
    NaN is checked by position only."""
    rng = np.random.default_rng(ndim)
    if ndim == 1:
        sk = _cplx(rng, (36, 1, 3), dtype)
        sk[:, 0, 0] = _GRID
        modes, spatial = (3,), (8,)
    else:
        sk = _cplx(rng, (6, 1, 6, 2), dtype)
        sk[:, 0, :, 0] = _GRID.reshape(6, 6)
        modes, spatial = (6, 2), (8, 4)
    weight = np.ones((1, 1), dtype)
    projection = "dc_real" if ndim == 1 else "herm_x"
    with np.errstate(all="ignore"):
        got = _run_kernel(kernels, sk, weight, 8, 3, spatial[0], projection,
                          keep)
        ref = _ckernels._spectral_steps_by_kernels(
            kernels, sk, weight, 8, 3, spatial[0], projection, keep)
        numpy = _executor(ndim, modes, weight, True, _NUMPY)
        want = numpy.rollout_spectrum(sk, 3, spatial, keep)
    assert np.isnan(want).any()
    assert _same_or_both_nan(got, ref)
    assert _same_or_both_nan(got, want)


@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("projection", ["none", "dc_real", "herm_x"])
def test_guarded_driver_matches_staged_loop(kernels, projection, dtype,
                                            keep):
    """Ragged panels (c = 12 at k_tb = 8), mirror bins inside the corner
    (mx = 7 of dim_x = 8); nothing is written outside the operands."""
    rng = np.random.default_rng(12)
    shape = (3, 12, 7) if projection == "dc_real" else (3, 12, 7, 5)
    sk, w = _cplx(rng, shape, dtype), _cplx(rng, (12, 12), dtype)
    got = _run_kernel(kernels, sk, w, 8, 5, 8, projection, keep)
    ref = _ckernels._spectral_steps_by_kernels(kernels, sk, w, 8, 5, 8,
                                               projection, keep)
    assert _same(got, ref)


def test_geometry_and_operands_are_checked(kernels):
    """Bad geometry, a short or overlapping operand, or an unknown kind
    raises before C runs."""
    c64 = np.complex64
    sk, w = np.ones((2, 3, 4), c64), np.ones((3, 3), c64)
    work, out = np.zeros((2, 3, 4), c64), np.zeros((2, 2, 3, 4), c64)
    good = (2, 3, 4, 1, 2, 2, 4, "none", "all")
    for exc, match, args, ops in [
        (ValueError, "steps", (2, 3, 4, 1, 2, 0, 4, "none", "all"), None),
        (ValueError, "k_tb", (2, 3, 4, 1, 0, 2, 4, "none", "all"), None),
        (ValueError, "extents", (2, 3, 4, 1, 2, 2, 3, "none", "all"), None),
        (ValueError, "extents", (-1, 3, 4, 1, 2, 2, 4, "none", "all"), None),
        (ValueError, "projection", (2, 3, 4, 1, 2, 2, 4, "herm", "all"),
         None),
        (ValueError, "keep", (2, 3, 4, 1, 2, 2, 4, "none", "every"), None),
        (ValueError, "C-contiguous", (2, 3, 4, 1, 2, 3, 4, "none", "all"),
         None),
        (ValueError, "C-contiguous", good, (sk, w, work[:, :, ::2], out)),
        (ValueError, "overlap", good, (sk, w, out[0], out)),
        (ValueError, "overlap", good[:-1] + ("last",), (sk, w, work, work)),
        (TypeError, "unsupported dtype", good,
         (sk.real.copy(), w, work, out)),
    ]:
        with pytest.raises(exc, match=match):
            kernels.spectral_steps(*(ops or (sk, w, work, out)), *args)
    overlapping = np.zeros(2 * sk.size, c64)
    with pytest.raises(ValueError, match="overlap"):
        kernels.spectral_steps(overlapping[:sk.size], w, work,
                               overlapping, *good)
    assert not work.any() and not out.any()


# ---------------------------------------------------------------------------
# The executor's checks
# ---------------------------------------------------------------------------

class TestRolloutSpectrumChecks:
    def _executor(self, weight=None, symmetric=True):
        if weight is None:
            weight = np.eye(4, dtype=np.complex64)
        return CompiledSpectralConv2D(weight, 3, 2, symmetric=symmetric)

    @pytest.mark.parametrize("steps", [2.5, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(TypeError, match="steps must be an integer"):
            self._executor().rollout_spectrum(
                np.zeros((1, 4, 3, 2), np.complex64), steps, (8, 8))

    def test_bad_arguments(self):
        ex = self._executor()
        sk = np.zeros((1, 4, 3, 2), np.complex64)
        with pytest.raises(ValueError, match="steps must be positive"):
            ex.rollout_spectrum(sk, 0, (8, 8))
        with pytest.raises(ValueError, match="keep"):
            ex.rollout_spectrum(sk, 1, (8, 8), keep="first")
        with pytest.raises(ValueError, match="expected spectrum"):
            ex.rollout_spectrum(sk[:, :3], 1, (8, 8))
        with pytest.raises(ValueError, match="expected spectrum"):
            ex.rollout_spectrum(sk[..., :1], 1, (8, 8))
        with pytest.raises(ValueError, match="out of range"):
            ex.rollout_spectrum(sk, 1, (2, 8))
        with pytest.raises(TypeError, match="spatial"):
            ex.rollout_spectrum(sk, 1, 8)
        narrow = self._executor(np.ones((4, 3), np.complex64))
        with pytest.raises(ValueError, match="square"):
            narrow.rollout_spectrum(sk, 1, (8, 8))

    def test_replaced_steps_are_honoured(self, rng):
        """A subclass that replaces ``step_spectrum`` is stepped through
        its replacement, not around it by the driver."""
        class Doubling(CompiledSpectralConv1D):
            def step_spectrum(self, sk):
                return 2 * super().step_spectrum(sk)

        weight = _cplx(rng, (4, 4), np.complex64)
        stock = CompiledSpectralConv1D(weight, 5, symmetric=True)
        ex = Doubling(weight, 5, symmetric=True)
        sk = _cplx(rng, (2, 4, 5), np.complex64)
        got = ex.rollout_spectrum(sk, 3, 16, "all")
        assert _same(got, _loop(ex, sk, 3, 16, "all"))
        assert not _same(got, stock.rollout_spectrum(sk, 3, 16, "all"))


# ---------------------------------------------------------------------------
# The Session's fast profile
# ---------------------------------------------------------------------------

def _loop_before(executor, streams, steps, keep):
    """The fast rollout as the Session ran it before the step driver:
    the whole group's state through step_spectrum/reanalyze_spectrum,
    each kept state synthesised over the whole group, every stream's
    rows then copied out."""
    state = np.concatenate([x for _, x in streams])
    spatial = state.shape[2:] if state.ndim == 4 else state.shape[2]
    sk, kept = executor.forward_spectrum(state), []
    for step in range(steps):
        yk = executor.step_spectrum(sk)
        if keep == "all" or step + 1 == steps:
            kept.append(executor.inverse_spectrum(yk, spatial))
        if step + 1 < steps:
            sk = executor.reanalyze_spectrum(yk, spatial)
    out, off = [], 0
    for _, x in streams:
        sl = slice(off, off + len(x))
        off += len(x)
        out.append(np.stack([k[sl] for k in kept]) if keep == "all"
                   else np.array(kept[-1][sl]))
    return out


def _streams(rng, ndim, modes, symmetric, dtype, sizes, c=4):
    weight = _cplx(rng, (c, c), dtype) / 2
    model = SpectralModel(weight, modes, symmetric=symmetric)
    grid = (32,) if ndim == 1 else (8, 8)
    real = np.float32 if dtype == np.complex64 else np.float64
    streams = []
    for n in sizes:
        x = rng.standard_normal((n, c) + grid)
        if not symmetric:
            x = x + 1j * rng.standard_normal(x.shape)
        streams.append((model, x.astype(real if symmetric else dtype)))
    return streams


def _no_shared_memory(results):
    return not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(results, 2))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("ndim,modes,spatial", GEOMETRIES)
def test_session_fast_matches_the_loop_before(ndim, modes, spatial,
                                              symmetric, dtype, keep,
                                              backend):
    rng = np.random.default_rng(ndim * 10 + symmetric)
    streams = _streams(rng, ndim, modes, symmetric, dtype, (1, 2, 1))
    _plans(backend)
    with Session(backend=backend) as s:
        got = s.rollout(streams=streams, steps=5, keep=keep, profile="fast")
        executor = s.executor(streams[0][0].weight, modes, symmetric)
        want = _loop_before(executor, streams, 5, keep)
    for g, w in zip(got, want, strict=True):
        assert _same(g, w)
    assert _no_shared_memory(got)


@pytest.mark.parametrize("keep", ["last", "all"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_grouped_one_row_streams_equal_their_solo_rollouts(backend, keep):
    """A one-channel, one-row stream at two kept modes synthesises as a
    one-row C2R call, whose tail product NumPy forms unfused; grouped
    with other streams it still gets its solo bits, and each kept frame
    is the one-row synthesis the loop before made."""
    rng = np.random.default_rng(2)
    streams = _streams(rng, 1, (2,), True, np.complex64, (1, 2, 1), c=1)
    streams = [(m, x[..., :8].copy()) for m, x in streams]
    _plans(backend)
    with Session(backend=backend) as s:
        grouped = s.rollout(streams=streams, steps=3, keep=keep,
                            profile="fast")
        executor = s.executor(streams[0][0].weight, (2,), True)
        for (model, x), got in zip(streams, grouped, strict=True):
            solo = _loop_before(executor, [(model, x)], 3, keep)[0]
            assert _same(got, solo)
            assert _same(got, s.rollout(model, x, steps=3, keep=keep,
                                        profile="fast"))


@needs_c
class TestOneDriverCall:
    """On the C backend a fast rollout runs each group's steps in one
    ``spectral_steps`` call, and no ``panel_contract`` call of its own."""

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

        for name in ("spectral_steps", "panel_contract"):
            monkeypatch.setattr(kernels, name, counting(name))
        return seen

    @pytest.mark.parametrize("keep", ["last", "all"])
    def test_one_call_per_group(self, calls, rng, keep):
        one = _streams(rng, 2, (5, 4), True, np.complex64, (1, 2))
        two = _streams(rng, 1, (6,), False, np.complex128, (1, 1, 3))
        with Session(backend="ckernels") as s:
            s.rollout(streams=one + two, steps=7, keep=keep, profile="fast")
            assert calls == ["spectral_steps"] * 2
            stats = s.stats()
        assert stats["batches"] == 14
        assert stats["requests"] == 7 * 5
        assert stats["latency"]["count"] == 14
        assert stats["rollout"] == {"streams": 5, "steps": 35}

    def test_class_level_wrap_keeps_the_driver(self, calls, rng,
                                               monkeypatch):
        """A wrapper set on the public class itself, as perfbench's
        tracer sets one, is still the stock method: the rollout stays
        one driver call and never enters the wrapper."""
        stock = vars(CompiledSpectralConv2D)["step_spectrum"]
        entered = []

        def traced(self, sk):
            entered.append(sk.shape)
            return stock(self, sk)

        monkeypatch.setattr(CompiledSpectralConv2D, "step_spectrum", traced)
        ex = CompiledSpectralConv2D(_cplx(rng, (4, 4), np.complex64), 5, 4,
                                    symmetric=True, plans=_plans("ckernels"))
        sk = _cplx(rng, (2, 4, 5, 4), np.complex64)
        got = ex.rollout_spectrum(sk, 3, (8, 8), "all")
        assert calls == ["spectral_steps"]
        assert entered == []
        assert _same(got, _loop(ex, sk, 3, (8, 8), "all"))


def test_serve_pool_fast_matches_the_loop_before(rng):
    streams = _streams(rng, 2, (5, 4), True, np.complex64, (1, 2, 1))
    with Session() as s:
        executor = s.executor(streams[0][0].weight, (5, 4), True)
        want = _loop_before(executor, streams, 4, "last")
    with ServePool(workers=1) as pool:
        got = pool.rollout_many(streams, steps=4, profile="fast",
                                timeout=120)
    for g, w in zip(got, want, strict=True):
        assert _same(g, w)
    assert _no_shared_memory(got)
