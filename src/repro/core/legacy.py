"""Frozen pre-compiled-layer fused operators (the seed code).

The original loop implementations of the fused operators (now the
executors of :mod:`repro.core.compiled`), kept verbatim — including the
per-tile, per-k-iteration ``astype`` of the weight panel that the
compiled executors hoist — as

* the **benchmark baseline** for ``benchmarks/bench_compiled_vs_legacy.py``,
* the **bit-exactness oracle** for the executor property tests.

They run on :mod:`repro.fft.legacy` (the frozen per-call transforms), so
this module exercises none of the compiled plan layer.  Do not optimise
it — its value is that it does *not* change.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtypes import complex_dtype_for
from repro.fft.legacy import truncated_fft, truncated_ifft

__all__ = [
    "fused_fft_gemm_1d",
    "fused_gemm_ifft_1d",
    "fused_fft_gemm_ifft_1d",
    "fused_fft_gemm_ifft_2d",
]

_DEFAULT_K_TB = 8
_DEFAULT_SIGNAL_TILE = 16


def _check_inputs(x: np.ndarray, weight: np.ndarray, ndim: int) -> None:
    if x.ndim != ndim:
        raise ValueError(f"expected {ndim}-D input, got shape {x.shape}")
    if weight.ndim != 2:
        raise ValueError(f"weight must be (C_in, C_out), got {weight.shape}")
    if weight.shape[0] != x.shape[1]:
        raise ValueError(
            f"weight C_in={weight.shape[0]} != input channels {x.shape[1]}"
        )


def fused_fft_gemm_1d(
    x: np.ndarray,
    weight: np.ndarray,
    modes: int,
    k_tb: int = _DEFAULT_K_TB,
) -> np.ndarray:
    """Stage B dataflow, legacy execution (see :mod:`repro.core.compiled`)."""
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 3)
    batch, c_in, _ = x.shape
    c_out = weight.shape[1]
    dtype = complex_dtype_for(x.dtype)
    acc = np.zeros((batch, c_out, modes), dtype=dtype)
    for k0 in range(0, c_in, k_tb):
        k1 = min(k0 + k_tb, c_in)
        a = truncated_fft(x[:, k0:k1, :], modes, axis=-1)  # (b, kt, modes)
        acc += np.einsum("bkm,ko->bom", a, weight[k0:k1].astype(dtype))
    return acc


def fused_gemm_ifft_1d(
    xk_low: np.ndarray,
    weight: np.ndarray,
    dim_x: int,
    k_tb: int = _DEFAULT_K_TB,
) -> np.ndarray:
    """Stage C dataflow, legacy execution (see :mod:`repro.core.compiled`)."""
    xk_low = np.asarray(xk_low)
    weight = np.asarray(weight)
    _check_inputs(xk_low, weight, 3)
    batch, c_in, modes = xk_low.shape
    c_out = weight.shape[1]
    dtype = complex_dtype_for(xk_low.dtype)
    acc = np.zeros((batch, c_out, modes), dtype=dtype)
    for k0 in range(0, c_in, k_tb):
        k1 = min(k0 + k_tb, c_in)
        acc += np.einsum(
            "bkm,ko->bom", xk_low[:, k0:k1, :], weight[k0:k1].astype(dtype)
        )
    return truncated_ifft(acc, dim_x, axis=-1)


def fused_fft_gemm_ifft_1d(
    x: np.ndarray,
    weight: np.ndarray,
    modes: int,
    k_tb: int = _DEFAULT_K_TB,
    signal_tile: int = _DEFAULT_SIGNAL_TILE,
) -> np.ndarray:
    """Stage D dataflow, legacy execution (see :mod:`repro.core.compiled`).

    Note the per-tile, per-panel ``weight[k0:k1].astype(dtype)`` — the
    redundant re-cast the compiled executors stage once at plan time.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 3)
    batch, c_in, dim_x = x.shape
    if not (1 <= modes <= dim_x):
        raise ValueError(f"modes must be in [1, {dim_x}], got {modes}")
    c_out = weight.shape[1]
    dtype = complex_dtype_for(x.dtype)
    out = np.empty((batch, c_out, dim_x), dtype=dtype)
    for b0 in range(0, batch, signal_tile):
        b1 = min(b0 + signal_tile, batch)
        acc = np.zeros((b1 - b0, c_out, modes), dtype=dtype)
        for k0 in range(0, c_in, k_tb):
            k1 = min(k0 + k_tb, c_in)
            a = truncated_fft(x[b0:b1, k0:k1, :], modes, axis=-1)
            acc += np.einsum("bkm,ko->bom", a, weight[k0:k1].astype(dtype))
        out[b0:b1] = truncated_ifft(acc, dim_x, axis=-1)
    return out


def fused_fft_gemm_ifft_2d(
    x: np.ndarray,
    weight: np.ndarray,
    modes_x: int,
    modes_y: int,
    k_tb: int = _DEFAULT_K_TB,
    signal_tile: int = _DEFAULT_SIGNAL_TILE,
) -> np.ndarray:
    """2-D stage D dataflow, legacy execution (see
    :mod:`repro.core.compiled`)."""
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 4)
    batch, c_in, dim_x, dim_y = x.shape
    if not (1 <= modes_x <= dim_x) or not (1 <= modes_y <= dim_y):
        raise ValueError(
            f"modes ({modes_x}, {modes_y}) out of range for ({dim_x}, {dim_y})"
        )
    c_out = weight.shape[1]
    dtype = complex_dtype_for(x.dtype)

    xk_x = truncated_fft(x.astype(dtype, copy=False), modes_x, axis=2)

    pencils = xk_x.transpose(0, 2, 1, 3).reshape(batch * modes_x, c_in, dim_y)
    out_pencils = np.empty((batch * modes_x, c_out, dim_y), dtype=dtype)
    for b0 in range(0, pencils.shape[0], signal_tile):
        b1 = min(b0 + signal_tile, pencils.shape[0])
        acc = np.zeros((b1 - b0, c_out, modes_y), dtype=dtype)
        for k0 in range(0, c_in, k_tb):
            k1 = min(k0 + k_tb, c_in)
            a = truncated_fft(pencils[b0:b1, k0:k1, :], modes_y, axis=-1)
            acc += np.einsum("bkm,ko->bom", a, weight[k0:k1].astype(dtype))
        out_pencils[b0:b1] = truncated_ifft(acc, dim_y, axis=-1)

    yk_x = out_pencils.reshape(batch, modes_x, c_out, dim_y).transpose(0, 2, 1, 3)
    return truncated_ifft(yk_x, dim_x, axis=2)
