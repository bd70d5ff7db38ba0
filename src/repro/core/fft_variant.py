"""The k-loop FFT variant (Figure 6c/d).

A conventional batched FFT picks its pencils along a spatial axis; each
thread block transforms a contiguous chunk of signals and writes the whole
spectrum back.  TurboFNO instead makes one thread block *iterate over the
hidden dimension*: at GEMM k-iteration ``kk`` it transforms the ``k_tb``
hidden-channel slices it is about to multiply, truncates them, and lays
the result into shared memory as the GEMM ``A`` tile (column-major: one
column per hidden channel).

:func:`kloop_fft_schedule` yields exactly that iteration order, and
:func:`assemble_a_tile` produces the column-major tile a k-iteration hands
to the CGEMM inner loop.  The fused executors in
:mod:`repro.core.compiled` walk the same order (one ``k_tb`` panel per
k-iteration), so tests can check both the schedule (each k-slice
visited once, in k order) and the tile contents (equal to the truncated
FFT of the right slices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.fft.pruned import truncated_fft

__all__ = ["KLoopStep", "kloop_fft_schedule", "assemble_a_tile"]


@dataclass(frozen=True)
class KLoopStep:
    """One k-iteration of the fused kernel's FFT side.

    ``k_range`` is the hidden-channel slice transformed this iteration;
    ``a_tile`` is the truncated spectrum laid out ``(modes, k_tb)`` —
    column-major exactly as CGEMM expects operand A (Fig. 7a, bottom).
    """

    k_index: int
    k_range: tuple[int, int]
    a_tile: np.ndarray


def kloop_fft_schedule(
    signals: np.ndarray, modes: int, k_tb: int = 8
) -> Iterator[KLoopStep]:
    """Iterate one signal's hidden channels in GEMM k-loop order.

    Parameters
    ----------
    signals:
        ``(hidden, n)`` complex array: all hidden-channel slices of one
        spatial pencil.
    modes:
        Kept low-frequency bins (the truncation threshold that makes the
        FFT output "match the size of GEMM input tiles", §1).
    k_tb:
        Channels transformed per iteration (= CGEMM ``k_tb`` = FFT ``bs``).
    """
    if signals.ndim != 2:
        raise ValueError(f"expected (hidden, n), got shape {signals.shape}")
    hidden, n = signals.shape
    if k_tb <= 0:
        raise ValueError("k_tb must be positive")
    for kk, k0 in enumerate(range(0, hidden, k_tb)):
        k1 = min(k0 + k_tb, hidden)
        yield KLoopStep(
            k_index=kk,
            k_range=(k0, k1),
            a_tile=assemble_a_tile(signals[k0:k1], modes),
        )


def assemble_a_tile(k_slices: np.ndarray, modes: int) -> np.ndarray:
    """Truncated FFT of ``(k_tb, n)`` slices as a ``(modes, k_tb)`` A tile.

    The transpose is the layout decision of Fig. 7(a): consecutive rows
    (bins) of one column (channel) are contiguous, so CGEMM's column-major
    loads are bank-conflict-free.
    """
    if k_slices.ndim != 2:
        raise ValueError(f"expected (k_tb, n), got shape {k_slices.shape}")
    return np.ascontiguousarray(truncated_fft(k_slices, modes, axis=-1).T)
