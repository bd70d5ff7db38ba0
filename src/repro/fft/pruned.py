"""Output-truncated and input-zero-padded FFTs via transform decomposition.

cuFFT cannot skip work: PyTorch's FNO computes a full FFT, then a memcpy
kernel extracts the kept low frequencies, and a second memcpy re-inserts
zero padding before the inverse transform (§1, limitations 1–2).
TurboFNO's kernel instead *never computes* the discarded work.  These
functions are the NumPy analogue, built on the classic transform
decomposition (a.k.a. FFT pruning):

* ``truncated_fft``: with ``N = P*Q`` and ``Q`` kept outputs,
  ``X[k] = sum_p W_N^{pk} * FFT_Q(x[p::P])[k]`` for ``k < Q`` —
  ``P`` FFTs of length ``Q`` plus a twiddle-weighted reduction, instead of
  one length-``N`` FFT plus a slice.
* ``zero_padded_fft``: with ``L`` live inputs and ``N = S*L``,
  ``X[s + S*t] = FFT_L(x * W_N^{s*n})[t]`` — ``S`` FFTs of length ``L``.
* ``truncated_ifft``: the inverse-side dual (zero-padded spectrum in,
  full-length signal out), which is exactly FNO's Step 4+5.

Each (length, split, dtype) decomposition is served by a cached
:class:`repro.fft.compiled.CompiledPrunedPlan` holding the pre-cast
decomposition twiddles and reusable gather/expand workspaces — the
legacy per-call path re-cast the tables on every invocation.  Outputs
are byte-identical to it (property-tested against
:mod:`repro.fft.legacy`), while doing the reduced work the paper's
pruning strategy claims.
"""

from __future__ import annotations

import numpy as np

from repro.fft.compiled import execute_pruned
from repro.fft.stockham import fft, ifft, is_power_of_two

__all__ = [
    "truncated_fft",
    "zero_padded_fft",
    "truncated_ifft",
    "truncated_fft_auto",
    "padded_ifft_auto",
]


def _validate_split(n: int, part: int, what: str) -> None:
    if not is_power_of_two(n):
        raise ValueError(f"transform length must be a power of two, got {n}")
    if not is_power_of_two(part):
        raise ValueError(f"{what} must be a power of two, got {part}")
    if not (1 <= part <= n):
        raise ValueError(f"{what} must be in [1, {n}], got {part}")


def truncated_fft(x: np.ndarray, n_keep: int, axis: int = -1,
                  caches=None) -> np.ndarray:
    """First ``n_keep`` outputs of the FFT of ``x`` along ``axis``.

    Equivalent to ``fft(x, axis)[..., :n_keep]`` but computes only the
    surviving work.  ``n_keep`` must be a power of two dividing the length.
    ``caches`` pins the plan lookups to one explicit
    :class:`repro.fft.compiled.PlanCaches` set (default: the current
    thread's) — how session-pooled executors keep their transforms in
    their own caches.
    """
    x = np.asarray(x)
    n = x.shape[axis]
    _validate_split(n, n_keep, "n_keep")
    if n_keep == n:
        return fft(x, axis=axis, caches=caches)
    return execute_pruned(x, n, n_keep, axis, "trunc", caches=caches)


def zero_padded_fft(x: np.ndarray, n_out: int, axis: int = -1,
                    caches=None) -> np.ndarray:
    """FFT of ``x`` zero-padded (on the right) to length ``n_out``.

    Equivalent to padding then ``fft`` but never touches the zeros.  The
    live length must be a power of two dividing ``n_out``.
    """
    x = np.asarray(x)
    n_live = x.shape[axis]
    _validate_split(n_out, n_live, "input length")
    if n_live == n_out:
        return fft(x, axis=axis, caches=caches)
    return execute_pruned(x, n_out, n_live, axis, "pad", caches=caches)


def truncated_fft_auto(x: np.ndarray, modes: int, axis: int = -1,
                       caches=None) -> np.ndarray:
    """First ``modes`` FFT outputs, pruned when the split applies.

    Falls back to the full transform plus a slice when ``modes`` is not a
    power of two dividing the length — numerically identical, just
    without the work savings.  The one C2C truncation helper, shared by
    the spectral layers (:mod:`repro.nn.modules`) and the compiled
    executors (:mod:`repro.core.compiled`); its R2C counterpart is
    :func:`repro.fft.real.truncated_rfft`, which needs no fallback.
    """
    if is_power_of_two(modes) and modes <= x.shape[axis]:
        return truncated_fft(x, modes, axis=axis, caches=caches)
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(0, modes)
    return fft(x, axis=axis, caches=caches)[tuple(sl)]


def padded_ifft_auto(xk: np.ndarray, n_out: int, axis: int = -1,
                     caches=None) -> np.ndarray:
    """Zero-padded inverse FFT, pruned when the split applies.

    Falls back to an explicit pad plus the full inverse when the live
    length is not a power of two dividing ``n_out``.
    """
    if is_power_of_two(xk.shape[axis]) and xk.shape[axis] <= n_out:
        return truncated_ifft(xk, n_out, axis=axis, caches=caches)
    shape = list(xk.shape)
    shape[axis] = n_out
    padded = np.zeros(shape, dtype=xk.dtype)
    sl = [slice(None)] * xk.ndim
    sl[axis] = slice(0, xk.shape[axis])
    padded[tuple(sl)] = xk
    return ifft(padded, axis=axis, caches=caches)


def truncated_ifft(xk: np.ndarray, n_out: int, axis: int = -1,
                   caches=None) -> np.ndarray:
    """Inverse FFT of a truncated spectrum, zero-padded to ``n_out``.

    Input holds the first ``L`` frequency bins; output is the length
    ``n_out`` signal ``ifft(pad(xk, n_out))``.  This is FNO's Step 4
    (zero padding) + Step 5 (iFFT) in one pruned transform.
    """
    xk = np.asarray(xk)
    n_live = xk.shape[axis]
    _validate_split(n_out, n_live, "spectrum length")
    if n_live == n_out:
        return ifft(xk, axis=axis, caches=caches)
    return execute_pruned(xk, n_out, n_live, axis, "itrunc", caches=caches)
