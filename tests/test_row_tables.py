"""C2C 1-D micro-batches served in place through the fused driver's row
tables.

``fused_tile_c2c_1d`` reads and writes through per-call row tables (each
entry a source base, a destination base and a row count) that its
binding builds from lists of arrays, so ``Session`` serves a 1-D C2C
micro-batch without concatenating the requests or copying each result
out.  Covered here:

* the binding: a multi-entry table equals one call per entry, byte for
  byte, with guarded outputs; every bad entry (dtype, layout, shape,
  row count, alignment, read-only or overlapping output) raises
  ``ValueError`` before C runs;
* serving: ``infer_many`` and ``rollout(steps=1)`` over groups that mix
  0-, 1- and 3-row requests, a ragged tail, widened float32,
  Fortran-order, byte-swapped and complex128 requests equal serial
  ``Session.infer`` byte for byte on both backends; no result shares
  memory with a request or another result; no 1-D C2C group is
  concatenated on either backend, and on the C backend each is one
  driver call, while 2-D and symmetric groups keep the concatenating
  path;
* the allocation bound of a warm ``infer_c2c_1d``-shaped burst;
* the ``workers``/``queue_depth`` checks of ``infer_many`` and
  ``rollout``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.core.compiled import CompiledSpectralConv1D, _StagedFused1D
from repro.fft._ckernels import kernels_available
from repro.fft.compiled import PlanCaches

BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]
needs_kernels = pytest.mark.skipif(not kernels_available(),
                                   reason="C kernels unavailable")

C_IN, C_OUT, MODES = 4, 3, 8


def _complex(rng, shape, dtype=np.complex64):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(dtype)


def _same_bytes(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _unaligned(x):
    """A C-contiguous copy of ``x`` at an odd byte address."""
    buf = np.zeros(x.nbytes + 1, np.uint8)
    out = buf[1:].view(x.dtype).reshape(x.shape)
    out[...] = x
    assert not out.flags.aligned
    return out


def _assert_owned(results, inputs):
    """No result shares memory with a request or with another result."""
    for i, out in enumerate(results):
        for x in inputs:
            assert not np.shares_memory(out, x)
        for other in results[i + 1:]:
            assert not np.shares_memory(out, other)


# ---------------------------------------------------------------------------
# The binding
# ---------------------------------------------------------------------------

def _staged(dtype, p, backend="ckernels", c_in=C_IN, c_out=C_OUT):
    rng = np.random.default_rng(p)
    w = _complex(rng, (c_in, c_out), dtype)
    return _StagedFused1D(w, MODES, p * MODES, 3, np.dtype(dtype),
                          plans=PlanCaches(backend=backend))


def _driver(staged):
    """The kernels and the staged driver operands (staged by one run)."""
    staged.run_fused(np.zeros((1, staged.c_in, staged.dim_x), staged.dtype))
    return staged.plans.kernels(), staged._driver_ops


def _call(staged, xs, outs, bt=None):
    kernels, ops = _driver(staged)
    if bt is None:
        bt = sum(len(x) for x in xs)
    kernels.fused_tile_c2c_1d(xs, staged.weight, *ops, outs, bt,
                              staged.c_in, staged.c_out, staged.dim_x,
                              staged.modes, staged.k_tb)


def _guarded(shape, dtype, fill=7 + 7j):
    size = int(np.prod(shape))
    buf = np.full(size + 2, fill, dtype)
    return buf, buf[1:-1].reshape(shape)


@needs_kernels
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("p", [1, 4])
def test_table_matches_the_stage_loop_per_entry(dtype, p):
    """A table of separate requests (an empty one among them) and a
    table of views of one buffer in reverse order both give each entry
    the bytes of the NumPy stages over that entry alone; nothing is
    written outside an output."""
    staged, oracle = _staged(dtype, p), _staged(dtype, p, "numpy")
    rng = np.random.default_rng(10 * p)
    dim_x = staged.dim_x
    xs = [_complex(rng, (n, C_IN, dim_x), dtype) for n in (2, 0, 1, 3)]
    guarded = [_guarded((len(x), C_OUT, dim_x), dtype) for x in xs]
    _call(staged, xs, [out for _, out in guarded])
    for x, (buf, out) in zip(xs, guarded):
        assert buf[0] == buf[-1] == 7 + 7j
        assert _same_bytes(out, oracle.run_fused(x))
    whole = _complex(rng, (6, C_IN, dim_x), dtype)
    views = [whole[4:6], whole[1:4], whole[0:1]]
    buf, block = _guarded((6, C_OUT, dim_x), dtype)
    _call(staged, views, block)  # one buffer takes the rows in order
    assert buf[0] == buf[-1] == 7 + 7j
    assert _same_bytes(block, oracle.run_fused(np.concatenate(views)))


def _bad_tables():
    """(label, change) pairs; each change maps valid ``(xs, outs, bt)``
    to an invalid call."""
    dim_x = 4 * MODES

    def replace(seq, i, new):
        seq = list(seq)
        seq[i] = new
        return seq

    def overlapping_input(xs, outs, bt):
        # Output 0 lies inside a buffer that input 0 also reads.
        pool = np.zeros(8 * C_IN * dim_x, np.complex64)
        x0 = pool[:2 * C_IN * dim_x].reshape(2, C_IN, dim_x)
        x0[...] = xs[0]
        out0 = pool[C_IN * dim_x: C_IN * dim_x + 2 * C_OUT * dim_x]
        return [x0, xs[1]], [out0.reshape(2, C_OUT, dim_x), outs[1]], bt

    def overlapping_block(xs, outs, bt):
        pool = np.zeros(8 * C_IN * dim_x, np.complex64)
        x1 = pool[-C_IN * dim_x:].reshape(1, C_IN, dim_x)
        block = pool[-3 * C_OUT * dim_x:].reshape(3, C_OUT, dim_x)
        return [xs[0], x1], block, bt

    def read_only(xs, outs, bt):
        out = outs[1].copy()
        out.flags.writeable = False
        return xs, replace(outs, 1, out), bt

    return [
        ("input dtype",
         lambda xs, o, bt: (replace(xs, 1, xs[1].astype(np.complex128)), o,
                            bt)),
        ("output dtype",
         lambda xs, o, bt: (xs, replace(o, 0, o[0].astype(np.complex128)),
                            bt)),
        ("non-contiguous input",
         lambda xs, o, bt: (replace(xs, 0, np.repeat(xs[0], 2, axis=2)
                                    [:, :, ::2]), o, bt)),
        ("Fortran-order output",
         lambda xs, o, bt: (xs, replace(o, 0, np.asfortranarray(o[0])), bt)),
        ("short input",
         lambda xs, o, bt: (replace(xs, 1, xs[1][:, :, :dim_x // 2].copy()),
                            o, bt)),
        ("short output",
         lambda xs, o, bt: (xs, replace(o, 0, o[0][:1].copy()), bt)),
        ("short output buffer",
         lambda xs, o, bt: (xs, np.zeros(bt * C_OUT * dim_x - 1,
                                         np.complex64), bt)),
        ("row count", lambda xs, o, bt: (xs, o, bt + 1)),
        ("entry count", lambda xs, o, bt: (xs, o[:1], bt)),
        ("not an array", lambda xs, o, bt: (replace(xs, 0, xs[0].tolist()),
                                            o, bt)),
        ("read-only output", read_only),
        ("unaligned input",
         lambda xs, o, bt: (replace(xs, 0, _unaligned(xs[0])), o, bt)),
        ("output overlaps an input", overlapping_input),
        ("output buffer overlaps an input", overlapping_block),
        ("output overlaps an output",
         lambda xs, o, bt: (xs, [o[0], o[0][:1]], bt)),
    ]


@needs_kernels
@pytest.mark.parametrize("label,change", _bad_tables(),
                         ids=[label for label, _ in _bad_tables()])
def test_bad_table_entries_are_rejected_before_c_runs(label, change):
    staged = _staged(np.complex64, 4)
    rng = np.random.default_rng(3)
    xs = [_complex(rng, (n, C_IN, staged.dim_x)) for n in (2, 1)]
    outs = [np.zeros((len(x), C_OUT, staged.dim_x), np.complex64)
            for x in xs]
    xs, outs, bt = change(xs, outs, 3)
    before = [np.array(o, copy=True) for o in
              (outs if isinstance(outs, list) else [outs])]
    with pytest.raises(ValueError, match="fused_tile_c2c_1d"):
        _call(staged, xs, outs, bt)
    after = outs if isinstance(outs, list) else [outs]
    for old, new in zip(before, after):
        assert _same_bytes(np.asarray(new), old), label


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

DIM_X = 4 * MODES
MAX_BATCH = 4


def _mixed_requests(rng, w):
    """Requests for the C2C model ``(w, MODES)`` in five groups at
    ``MAX_BATCH``: six complex64 (0, 1, 3, Fortran 3, 1 and unaligned 2
    rows: a full group and a ragged tail), two float32, two '>c8' and
    three complex128 (0, 3 and 1 rows), interleaved."""
    model = (w, MODES)

    def c64(n):
        return _complex(rng, (n, C_IN, DIM_X))

    groups = [
        [c64(0), c64(1), c64(3), np.asfortranarray(c64(3)), c64(1),
         _unaligned(c64(2))],
        [rng.standard_normal((n, C_IN, DIM_X)).astype(np.float32)
         for n in (1, 3)],
        [c64(n).astype(">c8") for n in (1, 3)],
        [_complex(rng, (n, C_IN, DIM_X), np.complex128) for n in (0, 3, 1)],
    ]
    order = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 1),
             (0, 4), (3, 1), (2, 1), (0, 5), (3, 2)]
    return [(model, groups[g][i]) for g, i in order]


GROUPS = 5  # the complex64 group splits at MAX_BATCH


def _serial(backend, requests):
    with api.Session(backend=backend, private_caches=True) as ref:
        return [ref.infer(m, x) for m, x in requests]


@pytest.fixture
def counters(monkeypatch):
    """Count ``np.concatenate`` calls, and the fused driver's calls on a
    session's kernels once :func:`watch` is called."""
    seen = {"concatenate": 0, "driver": 0}
    concatenate = np.concatenate

    def counting_concatenate(*args, **kwargs):
        seen["concatenate"] += 1
        return concatenate(*args, **kwargs)

    def watch(session):
        kernels = session.plan_caches.kernels()
        if kernels is None:
            return
        driver = kernels.fused_tile_c2c_1d

        def counting_driver(*args):
            seen["driver"] += 1
            return driver(*args)

        monkeypatch.setattr(kernels, "fused_tile_c2c_1d", counting_driver)

    monkeypatch.setattr(np, "concatenate", counting_concatenate)
    seen["watch"] = watch
    return seen


def _serve(session, how, requests):
    if how == "infer_many":
        return session.infer_many(requests, max_batch=MAX_BATCH)
    return session.rollout(streams=requests, steps=1, max_batch=MAX_BATCH)


@pytest.mark.parametrize("how", ["infer_many", "rollout"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_groups_equal_serial_infer(backend, how, rng, counters):
    w = _complex(rng, (C_IN, C_OUT))
    requests = _mixed_requests(rng, w)
    inputs = [x.copy(order="K") for _, x in requests]
    want = _serial(backend, requests)
    with api.Session(backend=backend, private_caches=True) as s:
        _serve(s, how, requests)  # warm: staging may concatenate tables
        counters["watch"](s)
        counters["concatenate"] = 0
        got = _serve(s, how, requests)
    assert len(got) == len(want)
    for g, ref in zip(got, want):
        assert _same_bytes(g, ref)
    for (_, x), original in zip(requests, inputs):
        assert _same_bytes(x, original)  # requests are only read
    _assert_owned(got, [x for _, x in requests])
    if backend == "ckernels":
        assert counters["driver"] == GROUPS
    assert counters["concatenate"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_compiled_executor_and_keep_all(backend, rng, counters):
    """A compiled executor passed as the model is served in place too,
    and ``keep="all"`` returns each one-step trajectory."""
    w = _complex(rng, (C_IN, C_OUT))
    conv = CompiledSpectralConv1D(w, MODES,
                                  plans=PlanCaches(backend=backend))
    requests = [(conv, _complex(rng, (n, C_IN, DIM_X))) for n in (2, 1, 3)]
    want = [conv(x) for _, x in requests]
    with api.Session(backend=backend, private_caches=True) as s:
        s.infer_many(requests)
        counters["watch"](s)
        counters["concatenate"] = 0
        got = s.rollout(streams=requests, steps=1, keep="all")
    for g, ref in zip(got, want):
        assert _same_bytes(g, ref[None])
    _assert_owned(got, [x for _, x in requests])
    assert counters["concatenate"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_other_groups_keep_the_concatenating_path(backend, rng, counters):
    """2-D and symmetric groups are concatenated and split, as before,
    and still equal serial ``infer``."""
    w2 = _complex(rng, (C_IN, C_IN))
    requests = (
        [((w2, (4, 4)), _complex(rng, (n, C_IN, 8, 16))) for n in (1, 2)]
        + [((w2, MODES, True), rng.standard_normal((n, C_IN, DIM_X)))
           for n in (2, 1)]
    )
    want = _serial(backend, requests)
    with api.Session(backend=backend, private_caches=True) as s:
        s.infer_many(requests)
        counters["watch"](s)
        counters["concatenate"] = 0
        got = s.infer_many(requests)
    for g, ref in zip(got, want):
        assert _same_bytes(g, ref)
    _assert_owned(got, [x for _, x in requests])
    assert counters["concatenate"] == 2


@needs_kernels
def test_warm_burst_allocates_little_beyond_its_results(rng):
    """A warm 48-request ``infer_c2c_1d``-shaped burst (K = 32, three
    geometries, ``max_batch=16``, complex64) peaks at most 1.5x the
    bytes of the results it returns under ``tracemalloc``; concatenating
    and copying out took 2.15x."""
    k = 32
    w = _complex(rng, (k, k)) / k
    geometries = ((128, 32), (256, 64), (512, 64))
    models = {m: api.SpectralModel(w, m) for _, m in geometries}
    burst = [(models[geometries[i % 3][1]],
              _complex(rng, (1, k, geometries[i % 3][0])))
             for i in range(48)]
    with api.Session(backend="ckernels", private_caches=True) as s:
        for _ in range(2):
            s.infer_many(burst, max_batch=16)
        tracemalloc.start()
        try:
            outs = s.infer_many(burst, max_batch=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    results = sum(out.nbytes for out in outs)
    assert results == 16 * k * (128 + 256 + 512) * 8
    assert peak <= 1.5 * results, (peak, results)


# ---------------------------------------------------------------------------
# workers / queue_depth
# ---------------------------------------------------------------------------

def _three_groups(rng):
    w = _complex(rng, (C_IN, C_IN))
    return [((w, MODES), _complex(rng, (1, C_IN, dim_x)))
            for dim_x in (16, 32, 64)]


BAD_COUNTS = [(0, ValueError), (-1, ValueError), ("2", TypeError),
              (2.5, TypeError), (True, TypeError), (np.float64(3), TypeError)]


@pytest.mark.parametrize("name", ["workers", "queue_depth"])
@pytest.mark.parametrize("value,exc", BAD_COUNTS)
def test_infer_many_checks_workers_and_queue_depth(rng, name, value, exc):
    with api.Session(private_caches=True) as s:
        with pytest.raises(exc, match=name):
            s.infer_many(_three_groups(rng), **{name: value})


@pytest.mark.parametrize("value,exc", BAD_COUNTS)
def test_rollout_checks_workers(rng, value, exc):
    with api.Session(private_caches=True) as s:
        with pytest.raises(exc, match="workers"):
            s.rollout(streams=_three_groups(rng), workers=value)


def test_valid_workers_and_queue_depth_serve_the_same(rng):
    requests = _three_groups(rng)
    with api.Session(private_caches=True) as s:
        want = s.infer_many(requests)
        for kwargs in (dict(workers=None, queue_depth=None),
                       dict(workers=np.int64(2), queue_depth=1),
                       dict(workers=3, queue_depth=np.int32(5))):
            got = s.infer_many(requests, **kwargs)
            assert all(_same_bytes(g, r) for g, r in zip(got, want))
        got = s.rollout(streams=requests, workers=2)
        assert all(_same_bytes(g, r) for g, r in zip(got, want))
