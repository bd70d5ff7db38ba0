"""Numerically executable PyTorch-style spectral convolution.

This is the computational behaviour the paper's CUDA-C baseline replicates
(§5: separate cuFFT, memcpy, cuBLAS, memcpy, cuFFT invocations): every
stage materialises its full result before the next stage reads it.  We use
``numpy.fft`` as the stand-in for cuFFT and ``@`` (BLAS) for cuBLAS.

Conventions follow the paper, not the original FNO code: the frequency
filter keeps the *first* ``modes`` bins of the C2C transform, and a single
complex ``(C_in, C_out)`` weight matrix is shared across all kept modes
(§3.1: "M = BatchSize x DimX x DimY, N = OutputDim, K = HiddenDim" — one
tall-and-skinny CGEMM, not per-mode matrices).

These functions are the correctness oracle for the fused executors of
:mod:`repro.core.compiled` (and so for :func:`repro.api.spectral_conv`).
The stage temporaries the baseline is defined by (the truncation copy of
Step 2, the zero-pad buffer of Step 4) never escape a call, so they are
drawn from the compiled layer's workspace arena
(:func:`repro.fft.compiled.workspace_empty`) instead of being freshly
allocated each time — the numbers are unchanged, only the allocator
traffic goes away.
"""

from __future__ import annotations

import numpy as np

from repro.fft.compiled import workspace_empty, workspace_zeros

__all__ = ["pytorch_like_spectral_conv_1d", "pytorch_like_spectral_conv_2d"]


def _check_weight(weight: np.ndarray, c_in: int) -> None:
    if weight.ndim != 2:
        raise ValueError(f"weight must be (C_in, C_out), got shape {weight.shape}")
    if weight.shape[0] != c_in:
        raise ValueError(
            f"weight C_in={weight.shape[0]} does not match input channels {c_in}"
        )


def pytorch_like_spectral_conv_1d(
    x: np.ndarray, weight: np.ndarray, modes: int
) -> np.ndarray:
    """Spectral convolution on ``(batch, C_in, X)`` input, stage by stage.

    Steps 1-5 of Figure 1(a): full FFT along X, truncation copy to the
    first ``modes`` bins, complex channel mixing, zero-padding copy back to
    X, full inverse FFT.  Returns ``(batch, C_out, X)`` complex.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, C_in, X), got shape {x.shape}")
    batch, c_in, dim_x = x.shape
    _check_weight(weight, c_in)
    if not (1 <= modes <= dim_x):
        raise ValueError(f"modes must be in [1, {dim_x}], got {modes}")

    # Step 1: full-length FFT (cuFFT has no trimming).
    xk = np.fft.fft(x, axis=-1)
    # Step 2: truncation memcpy kernel.
    xk_low = workspace_empty("pt1d-trunc", (batch, c_in, modes), xk.dtype)
    xk_low[...] = xk[:, :, :modes]
    # Step 3: CGEMM along the hidden dimension.
    yk_low = np.einsum("bix,io->box", xk_low, weight)
    # Step 4: zero-padding memcpy kernel.
    yk = workspace_zeros(
        "pt1d-pad", (batch, weight.shape[1], dim_x), yk_low.dtype
    )
    yk[:, :, :modes] = yk_low
    # Step 5: full-length inverse FFT.
    return np.fft.ifft(yk, axis=-1)


def pytorch_like_spectral_conv_2d(
    x: np.ndarray, weight: np.ndarray, modes_x: int, modes_y: int
) -> np.ndarray:
    """Spectral convolution on ``(batch, C_in, X, Y)`` input, stage by stage.

    2-D analogue: full 2-D FFT, rectangular low-frequency truncation to
    ``modes_x x modes_y``, channel mixing, zero padding, full inverse 2-D
    FFT.  Returns ``(batch, C_out, X, Y)`` complex.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected (batch, C_in, X, Y), got shape {x.shape}")
    batch, c_in, dim_x, dim_y = x.shape
    _check_weight(weight, c_in)
    if not (1 <= modes_x <= dim_x) or not (1 <= modes_y <= dim_y):
        raise ValueError(
            f"modes ({modes_x}, {modes_y}) out of range for grid "
            f"({dim_x}, {dim_y})"
        )

    xk = np.fft.fft2(x, axes=(-2, -1))
    xk_low = workspace_empty(
        "pt2d-trunc", (batch, c_in, modes_x, modes_y), xk.dtype
    )
    xk_low[...] = xk[:, :, :modes_x, :modes_y]
    yk_low = np.einsum("bixy,io->boxy", xk_low, weight)
    yk = workspace_zeros(
        "pt2d-pad", (batch, weight.shape[1], dim_x, dim_y), yk_low.dtype
    )
    yk[:, :, :modes_x, :modes_y] = yk_low
    return np.fft.ifft2(yk, axes=(-2, -1))
