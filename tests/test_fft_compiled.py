"""Property tests: compiled FFT plans are byte-identical to the legacy
functional paths, plan caching behaves like a plan cache, and the NumPy
fallback path is held to the same bit-exactness bar as the C kernels."""

import sys
import threading

import numpy as np
import pytest

from repro.fft import compiled, legacy, pruned, stockham
from repro.fft._ckernels import kernels_available

DTYPES = (np.float32, np.float64, np.complex64, np.complex128)

BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]
KINDS = ("trunc", "pad", "itrunc")


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run a test under the C kernels and under the NumPy fallback."""
    if request.param == "numpy":
        from repro.fft import _ckernels

        monkeypatch.setitem(_ckernels._state, "kernels", None)
        monkeypatch.setitem(_ckernels._state, "tried", True)
        # plans built under the other backend hold no backend state, but
        # start from a clean cache so workspaces are not shared across
        # parametrisations.
        compiled.clear_fft_plan_cache()
    yield request.param
    compiled.clear_fft_plan_cache()


def _data(shape, dtype, rng, contiguity="C"):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    x = x.astype(dtype)
    if contiguity == "sliced":  # non-contiguous rows
        x = np.repeat(x, 2, axis=0)[::2]
        assert not x.flags.c_contiguous or x.shape[0] <= 1
    elif contiguity == "F":
        x = np.asfortranarray(x)
    return x


def _bit_equal(a, b):
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(
        a.view(a.real.dtype), b.view(b.real.dtype)
    )


# ---------------------------------------------------------------------------
# fft / ifft
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "shape,axis",
    [((8, 64), -1), ((8, 64), 0), ((3, 4, 32), 1), ((3, 4, 32), -3),
     ((16,), 0), ((5, 1), -1), ((2, 2), -2)],
)
def test_fft_bit_identical_to_legacy(backend, dtype, shape, axis):
    rng = np.random.default_rng(1)
    x = _data(shape, dtype, rng)
    if not stockham.is_power_of_two(x.shape[axis]):
        pytest.skip("length not a power of two")
    assert _bit_equal(stockham.fft(x, axis=axis), legacy.fft(x, axis=axis))
    assert _bit_equal(stockham.ifft(x, axis=axis), legacy.ifft(x, axis=axis))


@pytest.mark.parametrize("dtype", (np.float32, np.complex64, np.float64))
@pytest.mark.parametrize("contiguity", ["sliced", "F"])
def test_fft_non_contiguous_inputs(backend, dtype, contiguity):
    rng = np.random.default_rng(2)
    x = _data((6, 32), dtype, rng, contiguity)
    for axis in (-1, 0):
        if not stockham.is_power_of_two(x.shape[axis]):
            continue
        assert _bit_equal(stockham.fft(x, axis=axis), legacy.fft(x, axis=axis))
        assert _bit_equal(
            stockham.ifft(x, axis=axis), legacy.ifft(x, axis=axis)
        )


@pytest.mark.parametrize("dtype", (np.float32, np.complex128))
def test_fft2_bit_identical_to_legacy(backend, dtype):
    rng = np.random.default_rng(3)
    x = _data((4, 16, 8), dtype, rng)
    assert _bit_equal(stockham.fft2(x), legacy.fft2(x))
    assert _bit_equal(stockham.ifft2(x), legacy.ifft2(x))
    assert _bit_equal(
        stockham.fft2(x, axes=(0, 2)), legacy.fft2(x, axes=(0, 2))
    )


# ---------------------------------------------------------------------------
# pruned transforms, every truncation split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_pruned_bit_identical_across_all_splits(backend, dtype, n):
    rng = np.random.default_rng(4)
    x = _data((5, n), dtype, rng)
    splits = [1 << i for i in range(n.bit_length()) if (1 << i) <= n]
    for part in splits:
        assert _bit_equal(
            pruned.truncated_fft(x, part), legacy.truncated_fft(x, part)
        )
        xs = x[:, :part]
        assert _bit_equal(
            pruned.zero_padded_fft(xs, n), legacy.zero_padded_fft(xs, n)
        )
        assert _bit_equal(
            pruned.truncated_ifft(xs, n), legacy.truncated_ifft(xs, n)
        )


@pytest.mark.parametrize("axis", [0, 1, -1, -2])
def test_pruned_negative_and_leading_axes(backend, axis):
    rng = np.random.default_rng(5)
    x = _data((16, 4, 16), np.float32, rng)
    n = x.shape[axis]
    assert _bit_equal(
        pruned.truncated_fft(x, n // 4, axis=axis),
        legacy.truncated_fft(x, n // 4, axis=axis),
    )
    xs = np.take(x, range(n // 2), axis=axis)
    assert _bit_equal(
        pruned.truncated_ifft(xs, n, axis=axis),
        legacy.truncated_ifft(xs, n, axis=axis),
    )


# ---------------------------------------------------------------------------
# plan cache semantics
# ---------------------------------------------------------------------------

def test_same_key_returns_same_plan_object():
    p1 = compiled.get_fft_plan(128, np.complex64, inverse=False)
    p2 = compiled.get_fft_plan(128, np.complex64, inverse=False)
    assert p1 is p2
    # dtype normalisation: float32 shares the complex64 plan.
    assert compiled.get_fft_plan(128, np.float32) is p1
    # distinct keys get distinct plans
    assert compiled.get_fft_plan(128, np.complex64, inverse=True) is not p1
    assert compiled.get_fft_plan(64, np.complex64) is not p1
    assert compiled.get_fft_plan(128, np.float64) is not p1

    q1 = compiled.get_pruned_plan(128, 32, np.complex64, "trunc")
    q2 = compiled.get_pruned_plan(128, 32, np.float32, "trunc")
    assert q1 is q2
    assert compiled.get_pruned_plan(128, 32, np.complex64, "pad") is not q1


def test_clear_plan_cache_resets_objects():
    p1 = compiled.get_fft_plan(32, np.complex64)
    compiled.clear_fft_plan_cache()
    assert compiled.get_fft_plan(32, np.complex64) is not p1


def test_plan_twiddles_are_readonly_and_precast():
    plan = compiled.get_fft_plan(16, np.complex64)
    for w in plan._stage_tw:
        assert w.dtype == np.complex64
        assert not w.flags.writeable


# ---------------------------------------------------------------------------
# workspace reuse safety
# ---------------------------------------------------------------------------

def test_workspace_reuse_does_not_corrupt_results(backend):
    """Two interleaved executions through one shared plan must not
    interfere, including growing and shrinking batch sizes."""
    rng = np.random.default_rng(6)
    xs = [_data((b, 32), np.complex64, rng) for b in (3, 17, 1, 9)]
    expected = [legacy.fft(x) for x in xs]
    got_first = [stockham.fft(x) for x in xs]
    # re-run in reverse order over the same (now warm, grown) workspaces
    got_second = [stockham.fft(x) for x in reversed(xs)][::-1]
    for e, g1, g2 in zip(expected, got_first, got_second):
        assert _bit_equal(e, g1)
        assert _bit_equal(e, g2)


def test_execution_does_not_mutate_input(backend):
    rng = np.random.default_rng(7)
    x = _data((4, 16), np.complex64, rng)
    kept = x.copy()
    stockham.fft(x)
    pruned.truncated_fft(x, 4)
    pruned.truncated_ifft(x[:, :4], 16)
    assert np.array_equal(x, kept)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_degenerate_pruned_plan_is_thread_safe(backend_name, kind):
    """Two threads applying one ``part == n`` pruned plan at once each
    get the serial bytes: the shared gather workspace is filled under
    the plan's lock, never before it.  A short switch interval makes
    the interleaving that corrupted it likely."""
    plan = compiled.PlanCaches(backend=backend_name).pruned(
        256, 256, np.complex64, kind)
    rng = np.random.default_rng(11)
    xs = [_data((8, 256), np.complex64, rng, "sliced") for _ in range(2)]
    want = [plan.apply(x) for x in xs]
    wrong = [0, 0]

    def hammer(i):
        for _ in range(1000):
            wrong[i] += not _bit_equal(plan.apply(xs[i]), want[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0, 0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("part", [4, 16, 64])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_pruned_apply_takes_a_list_in_place(backend_name, part, kind,
                                             monkeypatch):
    """A list of arrays stacked along their first axis gives the bytes
    of their concatenation, each array gathered from where it lies
    (strided, Fortran-ordered, another dtype, empty) without one
    ``np.concatenate``."""
    plan = compiled.PlanCaches(backend=backend_name).pruned(
        64, part, np.complex64, kind)
    width = 64 if kind == "trunc" else part
    rng = np.random.default_rng(part)
    parts = [_data((3, 2, width), np.complex64, rng, "sliced"),
             _data((0, 2, width), np.complex64, rng),
             _data((2, 2, width), np.complex128, rng, "F"),
             _data((1, 2, width), np.float32, rng)]
    whole = np.concatenate(parts).astype(np.complex64)
    want = plan.apply(whole)
    monkeypatch.setattr(np, "concatenate", None)
    got = plan.apply(parts)
    assert got.shape == want.shape == (6, 2, 64 if kind != "trunc" else part)
    assert _bit_equal(got, want)


def test_workspace_arena_distinct_tags_coexist():
    a = compiled.workspace_empty("test-a", (4, 4), np.complex64)
    b = compiled.workspace_zeros("test-b", (4, 4), np.complex64)
    assert a is not b
    assert np.count_nonzero(b) == 0
    # same tag+shape+dtype reuses the buffer
    a2 = compiled.workspace_empty("test-a", (4, 4), np.complex64)
    assert a2 is a


# ---------------------------------------------------------------------------
# numerics sanity (against numpy.fft, tolerance — not bitwise)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 16, 128])
def test_compiled_fft_matches_numpy(backend, n):
    rng = np.random.default_rng(8)
    x = _data((3, n), np.complex128, rng)
    np.testing.assert_allclose(
        stockham.fft(x), np.fft.fft(x, axis=-1), rtol=1e-10, atol=1e-10
    )
    np.testing.assert_allclose(
        stockham.ifft(x), np.fft.ifft(x, axis=-1), rtol=1e-10, atol=1e-10
    )
