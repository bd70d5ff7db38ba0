"""Shared dtype policy for every numeric engine in the package.

The paper evaluates in single precision, so the rule — applied by the
FFT substrate, the pruned transforms, the blocked CGEMM and the fused
operators alike — is: float32/complex64 inputs stay complex64, every
other real/complex input computes in complex128.  This module is the one
place that rule lives; it deliberately imports nothing from the rest of
``repro`` so any layer may use it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["complex_dtype_for"]

_SINGLE = (np.dtype(np.float32), np.dtype(np.complex64))


def complex_dtype_for(dtype: np.dtype | type) -> np.dtype:
    """Complex working dtype for an input dtype.

    complex64 for float32/complex64 inputs (the paper's FP32 setting),
    complex128 otherwise.  Byte order does not count: ``'>f4'`` is
    float32 too.
    """
    if np.dtype(dtype).newbyteorder("=") in _SINGLE:
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)
