"""Custom FFT substrate.

TurboFNO builds its own Stockham FFT rather than calling cuFFT, because the
closed library cannot truncate, zero-pad or prune.  This package is the
NumPy analogue of that kernel family:

* :mod:`repro.fft.reference` — naive O(N^2) DFT, the numerical oracle.
* :mod:`repro.fft.stockham` — vectorized iterative Stockham radix-2 FFT
  (the formulation the paper uses for coalesced global reads, §3.2).
* :mod:`repro.fft.pruned` — output-truncated and input-zero-padded
  transforms via transform decomposition: numerically *identical* to
  "full FFT then slice" / "pad then full FFT" but computing only the
  surviving work, mirroring the kernel's built-in truncation/padding.
* :mod:`repro.fft.real` — R2C/C2R transforms (``rfft``/``irfft``) via
  the packed-real trick: one *half-length* Stockham pass through the
  compiled plan caches plus a Hermitian recombination stage, halving
  the FFT work for the training-side (original-FNO convention) layers.
  ``truncated_rfft``/``padded_irfft`` compound this with transform
  decomposition — truncation fused *into* the half-length pass, so a
  ``modes << n/2`` symmetric layer never computes the bins it discards.
* :mod:`repro.fft.opcount` — exact butterfly-operation census over the
  Stockham dataflow graph, reproducing Figure 5's pruning ratios
  (37.5 % of ops at 25 % truncation, 75 % at 50 %).
* :mod:`repro.fft.twiddle` — cached twiddle-factor tables.
* :mod:`repro.fft.compiled` — compiled plan executors (the cuFFT-style
  plan/execute split): cached :class:`~repro.fft.compiled.CompiledFFTPlan`
  and :class:`~repro.fft.compiled.CompiledPrunedPlan` objects with
  pre-cast tables and reusable workspaces, optionally backed by
  self-verifying C kernels.  The functional API above is a thin wrapper
  over this layer; :mod:`repro.fft.legacy` preserves the original
  per-call path as the bit-exactness oracle.
* :mod:`repro.fft.plan` — FFT plan objects carrying the Table 1 kernel
  geometry (N1/N2 = 128/256, per-thread sizes 8/16, batch-per-block 8).
"""

from repro.fft.compiled import (
    clear_fft_plan_cache,
    fft_plan_cache_info,
    get_fft_plan,
    get_irfft_plan,
    get_pruned_irfft_plan,
    get_pruned_plan,
    get_pruned_rfft_plan,
    get_rfft_plan,
    kernels_available,
)
from repro.fft.opcount import butterfly_ops, pruned_fraction, PruneCensus
from repro.fft.plan import FFTPlan
from repro.fft.pruned import truncated_fft, truncated_ifft, zero_padded_fft
from repro.fft.real import (
    hermitian_pad,
    irfft,
    padded_irfft,
    rfft,
    truncated_rfft,
)
from repro.fft.reference import dft, idft
from repro.fft.stockham import fft, fft2, ifft, ifft2

__all__ = [
    "dft",
    "idft",
    "fft",
    "ifft",
    "fft2",
    "ifft2",
    "rfft",
    "irfft",
    "hermitian_pad",
    "truncated_rfft",
    "padded_irfft",
    "truncated_fft",
    "truncated_ifft",
    "zero_padded_fft",
    "butterfly_ops",
    "pruned_fraction",
    "PruneCensus",
    "FFTPlan",
    "get_fft_plan",
    "get_pruned_plan",
    "get_rfft_plan",
    "get_irfft_plan",
    "get_pruned_rfft_plan",
    "get_pruned_irfft_plan",
    "fft_plan_cache_info",
    "clear_fft_plan_cache",
    "kernels_available",
]
