"""Microbenchmarks: the custom FFT substrate's wall-clock behaviour.

The paper's claim "performance comparable to or faster than ... cuFFT"
translates here to: our vectorized Stockham FFT is within an
interpreter-overhead factor of ``numpy.fft`` (the library stand-in), and —
the part that carries over exactly — the *pruned* transforms beat the
full-transform-then-slice pattern by doing less work.
"""

import numpy as np
import pytest

from repro.fft.pruned import truncated_fft, truncated_ifft
from repro.fft.stockham import fft

BATCH = 256
N = 256

rng = np.random.default_rng(0)
X = (rng.standard_normal((BATCH, N)) + 1j * rng.standard_normal((BATCH, N))
     ).astype(np.complex64)
XK_LOW = np.ascontiguousarray(np.fft.fft(X, axis=-1)[:, :64]).astype(np.complex64)


def test_stockham_fft(benchmark):
    out = benchmark(fft, X)
    assert np.allclose(out, np.fft.fft(X, axis=-1), atol=1e-2)


def test_numpy_fft_reference(benchmark):
    benchmark(np.fft.fft, X, None, -1)


def test_truncated_fft_quarter(benchmark):
    """Built-in truncation: compute only the kept 25 % of bins."""
    out = benchmark(truncated_fft, X, 64)
    assert out.shape == (BATCH, 64)


def test_full_fft_then_slice(benchmark):
    """The cuFFT-style alternative the paper eliminates."""
    def run():
        return np.ascontiguousarray(fft(X)[:, :64])

    out = benchmark(run)
    assert out.shape == (BATCH, 64)


def test_truncated_ifft_pad(benchmark):
    """Built-in zero padding on the inverse side."""
    out = benchmark(truncated_ifft, XK_LOW, N)
    assert out.shape == (BATCH, N)


def test_pad_then_full_ifft(benchmark):
    """The memcpy + full-iFFT alternative."""
    def run():
        padded = np.zeros((BATCH, N), dtype=np.complex64)
        padded[:, :64] = XK_LOW
        return np.fft.ifft(padded, axis=-1)

    out = benchmark(run)
    assert out.shape == (BATCH, N)

