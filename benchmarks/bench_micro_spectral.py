"""Microbenchmarks: the fused spectral convolution vs the staged baseline.

This is the wall-clock analogue of the paper's end-to-end comparison on
the CPU substrate: the fused executor's pruned transforms (through the
rank-dispatched :func:`repro.api.spectral_conv` facade) do strictly less
arithmetic than the staged PyTorch-style baseline's full-FFT + copy +
pad + full-iFFT pipeline.
"""

import numpy as np

from repro.api import spectral_conv
from repro.baselines.pytorch_fno import (
    pytorch_like_spectral_conv_1d,
    pytorch_like_spectral_conv_2d,
)

rng = np.random.default_rng(2)
X1 = (rng.standard_normal((8, 64, 128)) + 0j).astype(np.complex64)
W1 = ((rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 8
      ).astype(np.complex64)
X2 = (rng.standard_normal((2, 32, 64, 64)) + 0j).astype(np.complex64)
W2 = ((rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) / 6
      ).astype(np.complex64)


def test_spectral1d_turbo(benchmark):
    benchmark(spectral_conv, X1, W1, 64)


def test_spectral1d_pytorch_style(benchmark):
    benchmark(pytorch_like_spectral_conv_1d, X1, W1, 64)


def test_spectral2d_turbo(benchmark):
    benchmark(spectral_conv, X2, W2, (16, 16))


def test_spectral2d_pytorch_style(benchmark):
    benchmark(pytorch_like_spectral_conv_2d, X2, W2, 16, 16)
