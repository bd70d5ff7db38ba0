"""Differentiable modules: Dense, GELU, SpectralConv1d/2d.

Gradients follow the PyTorch convention for complex parameters: the stored
gradient of a complex tensor ``z`` is ``dL/dRe(z) + i * dL/dIm(z)``, so
for a C-linear map ``y = A x`` the input cotangent is ``A^H g_y`` and the
weight cotangent is ``conj(x) g_y``.  The adjoint of "truncate-to-modes
after FFT" is "zero-pad then (unnormalised) inverse FFT", which is why the
backward passes below reuse the *pruned* transforms of
:mod:`repro.fft.pruned` and :mod:`repro.fft.real` — TurboFNO's built-in
truncation/padding accelerates training's backward pass for free.

All forward spectral math goes through this package's own FFTs, never
``numpy.fft``.  A shared-weight layer (``per_mode=False``) runs its
forward pass on the compiled executor of :mod:`repro.core.compiled`,
the same operator :func:`repro.api.spectral_conv` and
:class:`repro.api.Session` execute.  The executor is built per call:
the optimizer mutates the weight in place between steps, so held
staging would go stale.  Per-mode layers, and C2C layers whose mode
counts the pruned transforms cannot split, contract the truncated
spectrum with ``einsum`` instead.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    _project_dc_real,
    _project_herm_x,
)
from repro.fft.pruned import padded_ifft_auto as _pad_ifft
from repro.fft.pruned import truncated_fft_auto as _trunc_fft
from repro.fft.real import padded_irfft, truncated_rfft
from repro.fft.stockham import is_power_of_two

__all__ = ["Parameter", "Module", "Dense", "GELU", "SpectralConv1d", "SpectralConv2d"]


def _executor_applies(symmetric: bool, modes: tuple[int, ...]) -> bool:
    """Whether a shared-weight layer's forward runs on the compiled
    executor.  The symmetric executors take any validated mode count;
    the paper's C2C executor prunes every axis, which needs a
    power-of-two mode count (``spectrum()`` has already bounded it by
    the grid)."""
    return symmetric or all(is_power_of_two(m) for m in modes)


class Parameter:
    """A learnable array with an accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Minimal layer interface: ``forward`` caches, ``backward`` consumes.

    ``backward`` must be called after ``forward`` with the cotangent of the
    forward output; it accumulates parameter gradients and returns the
    cotangent of the forward input.
    """

    def parameters(self) -> Iterator[Parameter]:
        for v in vars(self).values():
            if isinstance(v, Parameter):
                yield v
            elif isinstance(v, Module):
                yield from v.parameters()
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Module):
    """Pointwise channel mixing: ``y[b, o, *s] = sum_i x[b, i, *s] W[i, o] + b[o]``.

    Works on any number of trailing spatial axes; this is both the FNO's
    lifting/projection layer and the per-block pointwise residual path.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 name: str = "dense") -> None:
        if c_in <= 0 or c_out <= 0:
            raise ValueError("channel counts must be positive")
        scale = math.sqrt(2.0 / (c_in + c_out))
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(c_in, c_out)), f"{name}.weight"
        )
        self.bias = Parameter(np.zeros(c_out), f"{name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 2 or x.shape[1] != self.weight.value.shape[0]:
            raise ValueError(
                f"expected (batch, {self.weight.value.shape[0]}, ...), got {x.shape}"
            )
        self._x = x
        y = np.einsum("bi...,io->bo...", x, self.weight.value)
        bias = self.bias.value.reshape(1, -1, *([1] * (x.ndim - 2)))
        return y + bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        spatial_axes = tuple(range(2, x.ndim))
        x2 = x.reshape(x.shape[0], x.shape[1], -1)
        g2 = grad.reshape(grad.shape[0], grad.shape[1], -1)
        self.weight.grad += np.einsum("bis,bos->io", x2, g2)
        self.bias.grad += grad.sum(axis=(0, *spatial_axes))
        return np.einsum("bo...,io->bi...", grad, self.weight.value)


class GELU(Module):
    """GELU activation (tanh approximation, as in the FNO reference code)."""

    _C = math.sqrt(2.0 / math.pi)

    def __init__(self) -> None:
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = self._C * (x + 0.044715 * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        inner = self._C * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        d_inner = self._C * (1.0 + 3 * 0.044715 * x**2)
        dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
        return grad * dgelu


def _init_spectral_weight(
    c_in: int, c_out: int, mode_shape: tuple[int, ...],
    per_mode: bool, rng: np.random.Generator,
) -> np.ndarray:
    scale = 1.0 / (c_in * c_out)
    shape = (c_in, c_out, *mode_shape) if per_mode else (c_in, c_out)
    re = rng.uniform(-scale, scale, size=shape)
    im = rng.uniform(-scale, scale, size=shape)
    return (re + 1j * im).astype(np.complex128)


class SpectralConv1d(Module):
    """1-D spectral convolution (the paper's Fourier layer) on real input.

    Forward: ``y = Re(iFFT(pad(W * truncate(FFT(x)))))`` with the paper's
    filter convention (first ``modes`` bins of the C2C transform).

    Parameters
    ----------
    per_mode:
        ``True`` (default) gives the original FNO's independent weight
        matrix per kept mode; ``False`` shares one ``(C_in, C_out)`` matrix
        across modes — the single tall-and-skinny CGEMM the paper
        benchmarks (§3.1), which lets the forward pass dispatch to the
        fused TurboFNO operator.
    symmetric:
        ``False`` (default) is the paper's filter: keep the *first*
        ``modes`` bins of the C2C transform.  ``True`` is the original
        FNO's convention: the kept low modes are Hermitian-mirrored into
        the negative frequencies (the rfft/irfft formulation), so the
        layer is a genuine real->real low-pass operator.  Requires
        ``modes <= X/2``.  The symmetric path consumes half spectra
        end-to-end through the compiled packed-real R2C/C2R plans
        (:mod:`repro.fft.real`) — half the FFT butterfly work of the
        former full-C2C formulation; ``per_mode=False`` dispatches to
        the compiled :class:`repro.core.compiled.CompiledSpectralConv1D`
        symmetric executor (shared-weight CGEMM on the half spectrum).
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        modes: int,
        rng: np.random.Generator,
        per_mode: bool = True,
        symmetric: bool = False,
        name: str = "spectral1d",
    ) -> None:
        if min(c_in, c_out, modes) <= 0:
            raise ValueError("c_in, c_out and modes must be positive")
        self.c_in = c_in
        self.c_out = c_out
        self.modes = modes
        self.per_mode = per_mode
        self.symmetric = symmetric
        self.weight = Parameter(
            _init_spectral_weight(c_in, c_out, (modes,), per_mode, rng),
            f"{name}.weight",
        )
        self._xk: np.ndarray | None = None
        self._dim_x: int = 0

    # -- spectral-step split --------------------------------------------
    # The three stages of the Fourier layer as separate entry points, so
    # a spectrum-resident rollout (repro.api.Session.rollout) can hand
    # the truncated spectrum from one step to the next without paying
    # the inverse/forward transform pair in between.  ``forward`` is
    # exactly ``from_spectrum(apply_modes(spectrum(x)), X)`` on the
    # non-executor paths.

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated spectrum of ``x`` under this layer's convention.

        The one check of ``modes`` against the grid: ``forward`` (and
        so ``backward``) and the spectrum-resident rollout all pass
        through here.
        """
        dim_x = x.shape[-1]
        if self.modes > dim_x:
            raise ValueError(f"modes={self.modes} exceeds spatial size {dim_x}")
        if self.symmetric:
            if self.modes > dim_x // 2:
                raise ValueError(
                    f"symmetric filtering needs modes <= X/2, got "
                    f"{self.modes} on a length-{dim_x} grid"
                )
            return truncated_rfft(x, self.modes, axis=-1)
        return _trunc_fft(x, self.modes, axis=-1)

    def apply_modes(self, xk: np.ndarray) -> np.ndarray:
        """Apply the layer weight to a truncated spectrum — the step
        that stays resident in the spectrum across rollout steps."""
        if self.per_mode:
            return np.einsum("bim,iom->bom", xk, self.weight.value)
        return np.einsum("bim,io->bom", xk, self.weight.value)

    def from_spectrum(self, yk: np.ndarray, n_out: int) -> np.ndarray:
        """Spatial-domain output from a truncated output spectrum."""
        if self.symmetric:
            return padded_irfft(yk, n_out, axis=-1)
        return _pad_ifft(yk, n_out, axis=-1).real

    def reanalyze_spectrum(self, yk: np.ndarray, n_out: int = 0) -> np.ndarray:
        """The output spectrum as the next step's ``spectrum`` would see
        it.  The skipped irfft->rfft pair is not the identity: the real
        synthesis discards Im(DC), so reanalysis projects the DC bin
        real.  Only the symmetric convention has a spectrum-resident
        form — the non-symmetric layer takes ``.real`` in the spatial
        domain, which mixes every bin."""
        if not self.symmetric:
            raise ValueError(
                "non-symmetric SpectralConv1d has no spectrum-resident "
                "reanalysis (the spatial .real projection mixes bins); "
                "use the exact rollout profile"
            )
        return _project_dc_real(np.asarray(yk))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(f"expected (batch, {self.c_in}, X), got {x.shape}")
        dim_x = x.shape[2]
        xk = self.spectrum(x)
        self._xk = xk
        self._dim_x = dim_x
        modes = (self.modes,)
        if self.per_mode or not _executor_applies(self.symmetric, modes):
            return self.from_spectrum(self.apply_modes(xk), dim_x)
        # The paper's formulation: one CGEMM shared across modes -> the
        # compiled fused executor.  The symmetric executor is fed the
        # spectrum already cached for backward.
        conv = CompiledSpectralConv1D(
            self.weight.value, self.modes, symmetric=self.symmetric
        )
        y = conv(x, xk_trunc=xk if self.symmetric else None)
        return np.ascontiguousarray(y.real)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._xk is None:
            raise RuntimeError("backward called before forward")
        dim_x = self._dim_x
        if self.symmetric:
            # y = irfft(pad(yk)) => g_yk = (2/N) rfft(grad) with the DC
            # bin un-doubled (it is never mirrored).
            g_yk = truncated_rfft(grad, self.modes, axis=-1)
            g_yk *= 2.0 / dim_x
            g_yk[..., 0] *= 0.5
        else:
            # y = Re(ifft(pad(yk))) => g_yk = truncate(fft(grad)) / N.
            g_yk = _trunc_fft(grad, self.modes, axis=-1) / dim_x
        if self.per_mode:
            self.weight.grad += np.einsum("bim,bom->iom", np.conj(self._xk), g_yk)
            g_xk = np.einsum("bom,iom->bim", g_yk, np.conj(self.weight.value))
        else:
            self.weight.grad += np.einsum("bim,bom->io", np.conj(self._xk), g_yk)
            g_xk = np.einsum("bom,io->bim", g_yk, np.conj(self.weight.value))
        if self.symmetric:
            # xk = rfft(x)[..:m], x real => the R2C adjoint: halve every
            # bin except DC, then the (unnormalised) C2R inverse.
            g_xk *= 0.5
            g_xk[..., 0] *= 2.0
            return padded_irfft(g_xk, dim_x, axis=-1) * dim_x
        # xk = truncate(fft(x)), x real => g_x = Re(N * ifft(pad(g_xk))).
        g_x = _pad_ifft(g_xk, dim_x, axis=-1).real * dim_x
        return g_x


class SpectralConv2d(Module):
    """2-D spectral convolution on real ``(batch, C_in, X, Y)`` input.

    Same conventions as :class:`SpectralConv1d`, with a rectangular
    ``modes_x x modes_y`` low-frequency filter.

    ``symmetric=True`` is the rfft2-style half-spectrum convention: the
    last axis transforms through the compiled R2C plan (Hermitian
    symmetry along Y), the X axis keeps the paper's first-bins C2C
    filter, and the output is reconstructed with the C2R inverse — a
    real->real operator whose half spectrum is consumed end-to-end.
    Requires ``modes_y <= Y/2``.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        modes_x: int,
        modes_y: int,
        rng: np.random.Generator,
        per_mode: bool = True,
        symmetric: bool = False,
        name: str = "spectral2d",
    ) -> None:
        if min(c_in, c_out, modes_x, modes_y) <= 0:
            raise ValueError("channels and modes must be positive")
        self.c_in = c_in
        self.c_out = c_out
        self.modes_x = modes_x
        self.modes_y = modes_y
        self.per_mode = per_mode
        self.symmetric = symmetric
        self.weight = Parameter(
            _init_spectral_weight(c_in, c_out, (modes_x, modes_y), per_mode, rng),
            f"{name}.weight",
        )
        self._xk: np.ndarray | None = None
        self._shape: tuple[int, int] = (0, 0)

    def _truncate_fft2(self, x: np.ndarray) -> np.ndarray:
        if self.symmetric:
            xk = truncated_rfft(x, self.modes_y, axis=3)
            return _trunc_fft(xk, self.modes_x, axis=2)
        xk = _trunc_fft(x, self.modes_x, axis=2)
        return _trunc_fft(xk, self.modes_y, axis=3)

    def _pad_ifft2(self, yk: np.ndarray, dim_x: int, dim_y: int) -> np.ndarray:
        y = _pad_ifft(yk, dim_y, axis=3)
        return _pad_ifft(y, dim_x, axis=2)

    def _pad_irfft2(self, yk: np.ndarray, dim_x: int, dim_y: int) -> np.ndarray:
        y = _pad_ifft(yk, dim_x, axis=2)
        return padded_irfft(y, dim_y, axis=3)

    # -- spectral-step split (see SpectralConv1d) -----------------------

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated spectrum corner of ``x`` under this layer's
        convention — and the one check of the modes against the grid
        (see :meth:`SpectralConv1d.spectrum`)."""
        dim_x, dim_y = x.shape[-2], x.shape[-1]
        if self.modes_x > dim_x or self.modes_y > dim_y:
            raise ValueError("modes exceed the spatial grid")
        if self.symmetric:
            if self.modes_y > dim_y // 2:
                raise ValueError(
                    f"symmetric filtering needs modes_y <= Y/2, got "
                    f"{self.modes_y} on a length-{dim_y} grid"
                )
            # contiguous copy: the fallback truncation path can return a
            # view pinning the full spectrum until backward
            return np.ascontiguousarray(self._truncate_fft2(x))
        return self._truncate_fft2(x)

    def apply_modes(self, xk: np.ndarray) -> np.ndarray:
        """Apply the layer weight to a truncated spectrum corner."""
        if self.per_mode:
            return np.einsum("bimn,iomn->bomn", xk, self.weight.value)
        return np.einsum("bimn,io->bomn", xk, self.weight.value)

    def from_spectrum(self, yk: np.ndarray, shape) -> np.ndarray:
        """Spatial-domain output from a truncated output spectrum."""
        dim_x, dim_y = int(shape[0]), int(shape[1])
        if self.symmetric:
            return self._pad_irfft2(yk, dim_x, dim_y)
        return self._pad_ifft2(yk, dim_x, dim_y).real

    def reanalyze_spectrum(self, yk: np.ndarray, shape) -> np.ndarray:
        """The output spectrum corner as the next step's ``spectrum``
        would see it.  The skipped C2R/R2C pair along Y projects the
        y-DC plane real in the spatial domain; re-analysis along X then
        Hermitian-symmetrises that column's X-spectrum (over the padded
        X length, truncated back to the kept corner).  Non-symmetric
        layers have no spectrum-resident form (spatial ``.real``)."""
        if not self.symmetric:
            raise ValueError(
                "non-symmetric SpectralConv2d has no spectrum-resident "
                "reanalysis (the spatial .real projection mixes bins); "
                "use the exact rollout profile"
            )
        return _project_herm_x(np.asarray(yk), int(shape[0]))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise ValueError(f"expected (batch, {self.c_in}, X, Y), got {x.shape}")
        shape = (x.shape[2], x.shape[3])
        xk = self.spectrum(x)
        self._xk = xk
        self._shape = shape
        modes = (self.modes_x, self.modes_y)
        if self.per_mode or not _executor_applies(self.symmetric, modes):
            return self.from_spectrum(self.apply_modes(xk), shape)
        conv = CompiledSpectralConv2D(
            self.weight.value, *modes, symmetric=self.symmetric
        )
        y = conv(x, xk_trunc=xk if self.symmetric else None)
        return np.ascontiguousarray(y.real)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._xk is None:
            raise RuntimeError("backward called before forward")
        dim_x, dim_y = self._shape
        n_total = dim_x * dim_y
        if self.symmetric:
            # y = irfft_y(ifft_x(pad(yk))) => the Y adjoint doubles every
            # kept bin except DC, the X adjoint is the plain 1/X FFT.
            g_f = truncated_rfft(grad, self.modes_y, axis=3)
            g_f *= 2.0 / dim_y
            g_f[..., 0] *= 0.5
            g_yk = _trunc_fft(g_f, self.modes_x, axis=2) / dim_x
        else:
            g_yk = self._truncate_fft2(grad) / n_total
        if self.per_mode:
            self.weight.grad += np.einsum(
                "bimn,bomn->iomn", np.conj(self._xk), g_yk
            )
            g_xk = np.einsum("bomn,iomn->bimn", g_yk, np.conj(self.weight.value))
        else:
            self.weight.grad += np.einsum("bimn,bomn->io", np.conj(self._xk), g_yk)
            g_xk = np.einsum("bomn,io->bimn", g_yk, np.conj(self.weight.value))
        if self.symmetric:
            # xk = fft_x(rfft_y(x))[kept corner]: adjoint = X * ifft_x on
            # the padded corner, then the halved-bins C2R inverse * Y.
            t = _pad_ifft(g_xk, dim_x, axis=2) * dim_x
            t *= 0.5
            t[..., 0] *= 2.0
            return padded_irfft(t, dim_y, axis=3) * dim_y
        return self._pad_ifft2(g_xk, dim_x, dim_y).real * n_total
