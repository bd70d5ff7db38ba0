"""Dimension-agnostic numeric operators.

:func:`spectral_conv` dispatches on the input's array rank and runs the
fused FFT-CGEMM-iFFT through a compiled executor
(:func:`repro.core.compiled.compile_spectral_conv`) built for the call.
The staged PyTorch-style pipeline it is checked against lives in
:mod:`repro.baselines.pytorch_fno`.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.core.compiled import compile_spectral_conv

__all__ = ["spectral_conv"]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def spectral_conv(
    x: np.ndarray,
    weight: np.ndarray,
    modes: int | tuple[int, ...],
) -> np.ndarray:
    """The paper's Fourier layer, any supported dimensionality.

    Parameters
    ----------
    x:
        ``(batch, C_in, X)`` for a 1-D layer or ``(batch, C_in, X, Y)``
        for a 2-D layer; real or complex.
    weight:
        Complex ``(C_in, C_out)`` spectral weights shared across modes.
    modes:
        Kept low-frequency bins: an int (same along every axis) or one
        int per spatial axis.

    Returns the complex ``(batch, C_out, *spatial)`` output.  The
    executor is built per call and never pooled: a caller may mutate
    ``weight`` in place between calls.  Hold a
    :func:`~repro.core.compiled.compile_spectral_conv` executor (or
    serve through a :class:`repro.api.Session`) to amortise its staging.
    """
    x = np.asarray(x)

    def as_mode(v) -> int:
        # numbers.Integral admits numpy integer scalars (e.g. sweep-array
        # elements), not just builtin int; everything else (floats from
        # sweep arithmetic, strings, a bool flag) is rejected rather than
        # truncated or taken as 0 or 1.
        if not _is_int(v):
            raise ValueError(
                f"modes must be an integer or a tuple of integers, got {v!r}"
            )
        return int(v)

    if x.ndim not in (3, 4):
        raise ValueError(
            f"spectral_conv expects a (batch, C, X) or (batch, C, X, Y) "
            f"array; got ndim={x.ndim}"
        )
    spatial = x.ndim - 2
    if _is_int(modes):
        per_axis = (int(modes),) * spatial
    else:
        try:
            # 0-d arrays advertise __iter__ but raise on iteration, so
            # attempt it and fold the failure into the clean error below.
            per_axis = tuple(as_mode(m) for m in modes)
        except TypeError:
            raise ValueError(
                f"modes must be an integer or a tuple of integers, "
                f"got {modes!r}"
            ) from None
        if len(per_axis) != spatial:
            raise ValueError(
                f"modes has {len(per_axis)} entries but the input has "
                f"{spatial} spatial axis(es); pass one int per axis"
            )
    return compile_spectral_conv(weight, per_axis)(x)
