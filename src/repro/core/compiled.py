"""Compiled spectral-convolution executors: build once, execute many.

The legacy fused loops (:mod:`repro.core.legacy`) re-cast the same
weight panel on every tile of every signal block and re-staged their FFT
setup per call.  A :class:`CompiledSpectralConv1D` /
:class:`CompiledSpectralConv2D` executor stages all of that once — the
weight cast once per working dtype, the pruned FFT plans (with their
pre-cast decomposition twiddles) taken from the plan caches
(:mod:`repro.fft.compiled`) — so each execution runs only the
arithmetic.  Outputs are byte-identical to the legacy loops
(property-tested): the executors replay the same ``k_tb`` panel
accumulation order, so not a single floating-point operation changes,
only where the operands live.

The fused C2C dataflow (the 1-D executor, and the 2-D executor's
per-pencil stage) runs the whole batch as one call into the C tile
driver ``fused_tile_c2c_1d`` when the C kernels are loaded — TurboFNO's
one FFT -> CGEMM -> iFFT kernel, with each signal row streamed through
the stages in cache.  Without them the batch runs whole through the
same cached pruned plans the functional API runs (the truncated FFT,
the k-panel CGEMM, the zero-padded inverse), which are also the
driver's oracle; the driver reads its tables from those plans too.

The symmetric (rfft/irfft) convention has one dataflow: its
``__call__`` runs the same three staged halves as its spectrum entry
points — pruned R2C analysis, the k-panel CGEMM shared with every
``step_spectrum``, pruned C2R synthesis — so ``self(x)`` and
``inverse_spectrum(step_spectrum(forward_spectrum(x)))`` are the same
computation, byte for byte.

Every shared-weight Fourier layer outside :class:`repro.api.Session`
runs through these executors: :func:`repro.api.spectral_conv` and the
shared-weight :mod:`repro.nn` layers build one per call, which still
hoists every redundant cast out of the loops; hold an executor (or get
one from ``repro.api.plan(...).compile_executor``) to amortise the
staging across calls.  :func:`fused_fft_gemm_1d` and :func:`fused_gemm_ifft_1d` are the
partially fused stage-B/C dataflows of Table 2, on the same staging.

Executors own mutable workspaces and are **not** thread-safe; share
one per thread (the plan caches underneath serialise themselves).

Every executor resolves its FFT/rfft plans from one
:class:`repro.fft.compiled.PlanCaches` set — the one passed as
``plans=``, else the set active on the calling thread
(:func:`repro.fft.compiled.current_plan_caches`).  A
:class:`repro.api.Session` passes its own set, so pooled executors
carry the session's backend and never share workspaces with other
sessions; staging captures the set once per geometry.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from repro.core.dtypes import complex_dtype_for
from repro.fft.compiled import (
    PlanCaches,
    PrunedPartMismatchError,
    current_plan_caches,
    panel_contract,
)
from repro.fft.pruned import (
    _validate_split,
    padded_ifft_auto,
    truncated_fft,
    truncated_fft_auto,
    truncated_ifft,
)
from repro.fft.stockham import _check_length

__all__ = [
    "CompiledSpectralConv1D",
    "CompiledSpectralConv2D",
    "compile_spectral_conv",
    "fused_fft_gemm_1d",
    "fused_gemm_ifft_1d",
]

_DEFAULT_K_TB = 8


def _check_inputs(x: np.ndarray, weight: np.ndarray, ndim: int) -> None:
    if x.ndim != ndim:
        raise ValueError(f"expected {ndim}-D input, got shape {x.shape}")
    if weight.ndim != 2:
        raise ValueError(f"weight must be (C_in, C_out), got {weight.shape}")
    if weight.shape[0] != x.shape[1]:
        raise ValueError(
            f"weight C_in={weight.shape[0]} != input channels {x.shape[1]}"
        )


def _integer(name: str, value) -> int:
    """Check an integer argument and return it as a Python int."""
    # A non-integer would otherwise surface as a raw TypeError from
    # range() or a bitwise test at the first call, or be truncated.  A
    # bool is a flag, not a count, although operator.index accepts it.
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {value!r}"
        ) from None


def _positive_int(name: str, value) -> int:
    """Check a count (``k_tb``, ``modes``, ``steps``, ``workers``, ...)
    and return it as a Python int."""
    # value <= 0 would surface as a ZeroDivisionError, a NumPy shape
    # error or, with no k-panels at all, an all-zero output.
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class _StagedFused1D:
    """Everything a fused 1-D pass needs, staged for one (dtype, dim_x).

    Replays the exact legacy dataflow (k-loop -> epilogue) with all
    per-call setup hoisted: the weight cast (the executor's, shared by
    every length of its dtype) and the plan-cache set's pruned pair
    along ``dim_x``, ``trunc`` (the truncated FFT) and ``itrunc`` (the
    zero-padded inverse) — the same cached plans the functional API
    runs.  With the C kernels loaded, :meth:`run_rows` makes one
    tile-driver call for a whole list of requests, read and written in
    place through row tables (workspaces for one streamed row), with
    every table the driver reads taken from those two plans; otherwise
    it runs the requests as one batch through the plans themselves,
    ``trunc.apply`` -> k-panel CGEMM -> ``itrunc.apply``, which is the
    NumPy fallback and the driver's oracle.
    """

    def __init__(self, weight: np.ndarray, modes: int, dim_x: int,
                 k_tb: int, dtype: np.dtype,
                 plans: PlanCaches | None = None):
        # Same split validation (and messages) the first inner
        # truncated_fft of the legacy loop would have raised.
        if modes == dim_x:
            _check_length(dim_x)
        else:
            _validate_split(dim_x, modes, "n_keep")
        c_in, c_out = weight.shape
        self.modes = modes
        self.dim_x = dim_x
        self.k_tb = k_tb
        self.dtype = dtype
        self.c_in = c_in
        self.c_out = c_out
        self.p = dim_x // modes
        self.plans = plans if plans is not None else current_plan_caches()
        # No copy when the weight is already cast (an executor's is).
        self.weight = np.ascontiguousarray(weight, dtype=dtype)
        self.trunc = self.plans.pruned(dim_x, modes, dtype, "trunc")
        self.itrunc = self.plans.pruned(dim_x, modes, dtype, "itrunc")
        # The driver's workspaces are staged at its first call.
        self._driver_ops = None
        self._x_stage = np.empty(0, dtype)

    def _run_driver(self, xs: list, block: np.ndarray, kernels) -> None:
        """:meth:`run_rows` on the C tile driver: one checked kernel call
        runs every request into ``block``, streaming each row through
        every stage, so the workspaces hold one row (see
        ``_kernels.c``)."""
        if self._driver_ops is None:
            dtype, p, modes = self.dtype, self.p, self.modes
            row = max(self.k_tb, self.c_out) * self.dim_x
            none = np.empty(0, dtype)
            self._driver_ops = (
                self.trunc.fft.twiddles, self.itrunc.fft.twiddles,
                none if p == 1 else self.trunc.wd,
                none if p == 1 else self.itrunc.wd,
                np.empty(row, dtype), np.empty(row, dtype),
                np.empty(row, dtype),
                np.empty(self.k_tb * modes if p > 1 else 0, dtype),
                np.empty(self.c_out * modes, dtype),
            )
        dtype = self.dtype
        convert = [i for i, x in enumerate(xs)
                   if x.dtype != dtype or not x.flags.c_contiguous
                   or not x.flags.aligned]
        if convert:
            # Other layouts and dtypes are converted once into a reusable
            # staging buffer, one slice per request; a real input widens
            # exactly.  Every other request is read where it lies.
            xs = list(xs)
            need = sum(xs[i].size for i in convert)
            if self._x_stage.size < need:
                self._x_stage = np.empty(need, dtype)
            off = 0
            for i in convert:
                x = xs[i]
                staged = self._x_stage[off: off + x.size].reshape(x.shape)
                np.copyto(staged, x, casting="unsafe")
                xs[i] = staged
                off += x.size
        kernels.fused_tile_c2c_1d(xs[0] if len(xs) == 1 else xs,
                                  self.weight, *self._driver_ops, block,
                                  len(block), self.c_in, self.c_out,
                                  self.dim_x, self.modes, self.k_tb)

    def run_rows(self, xs: list) -> list:
        """Stage D over separate requests: the fully fused FFT -> CGEMM
        -> iFFT pass of each ``(rows, C_in, X)`` array in ``xs``.  The
        results are consecutive, disjoint row ranges of one new buffer
        (the buffer itself for a single request).

        With the C kernels loaded every request runs in one driver call
        that reads it in place and writes its result directly (only a
        request in another dtype or layout is converted first, into a
        reused staging buffer); otherwise the requests run as one batch
        through the pruned plans, each gathered from where it lies: the
        oracle the driver is tested against.  A weight with no input or
        no output channels always takes the plans: the driver requires
        both extents."""
        # One block holds every result, each request's its own rows.
        # One allocation per request would be too small to lift glibc's
        # dynamic mmap and trim thresholds, so freeing a burst's results
        # would trim the heap and the next burst would fault the pages
        # back in: about 430 minor faults per warm 48-request burst of
        # three 16-request groups, against none with one block each.
        kernels = self.plans.kernels()
        if kernels is not None and self.c_in and self.c_out:
            block = np.empty((sum(len(x) for x in xs), self.c_out,
                              self.dim_x), self.dtype)
            self._run_driver(xs, block, kernels)
        else:
            block = self.itrunc.apply(self.run_fft_gemm(xs))
        if len(xs) == 1:
            return [block]
        outs, off = [], 0
        for x in xs:
            outs.append(block[off: off + len(x)])
            off += len(x)
        return outs

    def run_fused(self, x: np.ndarray) -> np.ndarray:
        """Stage D over one batch: :meth:`run_rows` of ``[x]``."""
        return self.run_rows([x])[0]

    def run_fft_gemm(self, xs: list) -> np.ndarray:
        """Stage B over the requests ``xs`` as one batch: the truncated
        spectrum contracted with the weight in ``k_tb`` panels,
        ``(batch, C_out, modes)``."""
        return _contract(self.trunc.apply(xs), self.weight, self.k_tb,
                         self.plans.kernels())


def _contract(a: np.ndarray, weight: np.ndarray, k_tb: int,
              kernels) -> np.ndarray:
    """The k-panel CGEMM every path shares: ``einsum("bkm,ko->bom", a,
    weight)`` accumulated one ``k_tb``-channel panel at a time, in the
    canonical order that fixes the output bits.  ``weight`` is the
    C-contiguous cast in the working dtype, so each panel is a view."""
    batch, c_in, m = a.shape
    acc = np.zeros((batch, weight.shape[1], m), weight.dtype)
    for k0 in range(0, c_in, k_tb):
        panel = np.ascontiguousarray(a[:, k0:k0 + k_tb], dtype=weight.dtype)
        panel_contract(panel, weight[k0:k0 + k_tb], acc, kernels=kernels)
    return acc


def fused_fft_gemm_1d(
    x: np.ndarray,
    weight: np.ndarray,
    modes: int,
    k_tb: int = _DEFAULT_K_TB,
) -> np.ndarray:
    """Stage B dataflow: FFT fused into the CGEMM k-loop.

    Input ``(batch, C_in, X)``; returns the truncated-frequency product
    ``(batch, C_out, modes)`` — what the fused kernel would hand to a
    separate iFFT kernel.
    """
    k_tb = _positive_int("k_tb", k_tb)
    modes = _positive_int("modes", modes)
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 3)
    staged = _StagedFused1D(
        weight, modes, x.shape[2], k_tb, complex_dtype_for(x.dtype),
    )
    return staged.run_fft_gemm([x])


def fused_gemm_ifft_1d(
    xk_low: np.ndarray,
    weight: np.ndarray,
    dim_x: int,
    k_tb: int = _DEFAULT_K_TB,
) -> np.ndarray:
    """Stage C dataflow: iFFT as the CGEMM epilogue.

    Input is the already-truncated spectrum ``(batch, C_in, modes)``;
    returns the spatial output ``(batch, C_out, X)``.  The zero-padding
    never materialises: the epilogue's pruned inverse transform consumes
    the C tile straight from "shared memory".
    """
    k_tb = _positive_int("k_tb", k_tb)
    dim_x = _positive_int("dim_x", dim_x)
    xk_low = np.asarray(xk_low)
    weight = np.asarray(weight)
    _check_inputs(xk_low, weight, 3)
    dtype = complex_dtype_for(xk_low.dtype)
    acc = _contract(xk_low, weight.astype(dtype, order="C"), k_tb,
                    current_plan_caches().kernels())
    return truncated_ifft(acc, dim_x, axis=-1)


def _project_dc_real(sk: np.ndarray) -> np.ndarray:
    """The half-spectrum irfft->rfft round trip, as a spectrum-resident
    map: a real signal's DC bin is real, so re-analysing the synthesised
    signal projects ``Im(DC)`` away and leaves every other kept bin
    untouched (kept modes never reach the Nyquist bin)."""
    sk = sk.copy()
    sk[..., 0] = sk[..., 0].real
    return sk


def _project_herm_x(sk: np.ndarray, dim_x: int) -> np.ndarray:
    """The symmetric-2D inverse/forward round trip on the kept corner.

    Along Y the C2R/R2C pair projects the y-DC plane; re-analysing that
    now-real plane along X (the first-bins C2C filter) Hermitian-
    symmetrises its X-spectrum — ``v[k] -> (v[k] + conj(v[(N-k) % N]))
    / 2`` over the padded length before truncating back to the kept
    bins.  Every ``my > 0`` bin passes through untouched.
    """
    sk = sk.copy()
    col = sk[..., 0]
    mx = col.shape[-1]
    full = np.zeros(col.shape[:-1] + (dim_x,), dtype=sk.dtype)
    full[..., :mx] = col
    herm = 0.5 * (full + np.conj(np.roll(full[..., ::-1], 1, axis=-1)))
    sk[..., 0] = herm[..., :mx]
    return sk


def _rollout_loop(sk: np.ndarray, steps: int, keep: str, step,
                  reanalyze) -> np.ndarray:
    """The rollout loop of :meth:`_SpectralExecutor.rollout_spectrum` in
    Python: ``step`` every state, ``reanalyze`` every output but the
    last; the kept outputs as the method returns them."""
    kept = []
    for i in range(steps):
        yk = step(sk)
        if keep == "all":
            kept.append(yk)
        if i + 1 < steps:
            sk = reanalyze(yk)
    return np.stack(kept) if keep == "all" else yk


def _require_part(plan, modes: int, what: str) -> None:
    """Typed guard: a staged pruned real plan must truncate to exactly
    the executor's kept modes — a disagreement means the truncation the
    CGEMM assumes and the truncation the transform performs have
    drifted apart, which the old slice-after-transform path could only
    mis-slice silently."""
    if plan.part != modes:
        raise PrunedPartMismatchError(
            f"{what}: staged plan truncates to part={plan.part} but the "
            f"executor keeps modes={modes}"
        )


def _real_pair(plans: PlanCaches, n: int, part: int, dtype, what: str):
    """The pruned R2C/C2R plan pair along a symmetric executor's
    half-spectrum axis, checked to truncate to exactly ``part`` bins."""
    rfft = plans.pruned_rfft(n, part, dtype)
    irfft = plans.pruned_irfft(n, part, dtype)
    _require_part(rfft, part, f"{what} forward")
    _require_part(irfft, part, f"{what} inverse")
    return rfft, irfft


def _check_spatial(spatial, ndim: int) -> tuple:
    """The ``spatial`` grid of a spectrum entry point as a tuple of
    ``ndim`` lengths: 1-D takes an int or a 1-sequence, 2-D a
    2-sequence, and every length must be an integer >= 1."""
    if ndim == 1 and not isinstance(spatial, (tuple, list)):
        spatial = (spatial,)
    if not isinstance(spatial, (tuple, list)):
        raise TypeError(
            f"spatial must be a {ndim}-sequence of grid lengths, got "
            f"{spatial!r}"
        )
    if len(spatial) != ndim:
        raise ValueError(
            f"spatial must hold {ndim} grid length(s), got {spatial!r}"
        )
    try:
        lengths = tuple(operator.index(s) for s in spatial)
    except TypeError:
        raise TypeError(
            f"spatial lengths must be integers, got {spatial!r}"
        ) from None
    if min(lengths) < 1:
        raise ValueError(f"spatial lengths must be positive, got {lengths}")
    return lengths


def _check_spectrum(sk: np.ndarray, modes: tuple, channels=None) -> None:
    """Typed guard on a spectral state: its rank and kept-mode dims (and,
    given ``channels``, its channel count) must match the executor."""
    if (sk.ndim != 2 + len(modes) or sk.shape[2:] != modes
            or (channels is not None and sk.shape[1] != channels)):
        want = ", ".join(map(str, (
            "batch", "C" if channels is None else channels, *modes
        )))
        raise ValueError(
            f"expected spectrum of shape ({want}), got {sk.shape}"
        )


# ---------------------------------------------------------------------------
# The executors
# ---------------------------------------------------------------------------

class _SpectralExecutor:
    """Staging the 1-D and 2-D executors share.

    Holds the construction-time ``k_tb`` check, the plan-cache set, the
    weight cast (once per working dtype, shared by every stage, the
    k-panel CGEMM and the step driver), the fused stages (one per dtype
    and length) and, for the symmetric convention, the pruned R2C/C2R
    plan pair (checked and resolved once per dtype and grid).

    Both conventions run their spectrum entry points through three
    private staged halves: ``_analyse`` (truncated forward transform),
    :meth:`_step` (the k-panel CGEMM) and ``_synthesise`` (zero-padded
    inverse).  A symmetric ``__call__`` is exactly those three halves
    in a row, so it is ``inverse_spectrum(step_spectrum(
    forward_spectrum(x)))`` by construction.  The public entry points
    are defined on each executor class and never call one another;
    :meth:`rollout_spectrum`, shared by both, steps through
    ``step_spectrum`` and ``reanalyze_spectrum`` only where a subclass
    or an instance replaces them.
    """

    def __init__(self, weight: np.ndarray, modes: tuple, k_tb: int,
                 symmetric: bool, plans: PlanCaches | None):
        self.weight = weight
        self.k_tb = _positive_int("k_tb", k_tb)
        self.symmetric = symmetric
        self._modes = modes
        self._plans = plans
        self._staged: dict[tuple, _StagedFused1D] = {}
        self._cast: dict = {}
        self._real: dict = {}

    def _plan_caches(self) -> PlanCaches:
        return self._plans if self._plans is not None else current_plan_caches()

    def _weight_for(self, dtype: np.dtype) -> np.ndarray:
        """The weight cast to ``dtype`` in C order, once per dtype on
        first use."""
        weight = self._cast.get(dtype)
        if weight is None:
            weight = self._cast[dtype] = self.weight.astype(dtype, order="C")
        return weight

    def _stage_for(self, dtype: np.dtype, length: int) -> _StagedFused1D:
        """The fused stage over signals of ``length`` (X in 1-D, the
        pencil length Y in 2-D), staged once per ``(dtype, length)``
        against the plan caches active then."""
        key = (dtype, length)
        staged = self._staged.get(key)
        if staged is None:
            staged = _StagedFused1D(
                self._weight_for(dtype), self._modes[-1], length, self.k_tb,
                dtype, plans=self._plan_caches(),
            )
            self._staged[key] = staged
        return staged

    def _step(self, sk: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The middle staged half: one k-panel CGEMM over the kept
        spectrum (a 2-D corner flattened), accumulated panel by panel in
        the canonical ``k_tb`` order the fused pass uses."""
        batch = sk.shape[0]
        flat = sk.reshape(batch, sk.shape[1], math.prod(self._modes))
        acc = _contract(flat,
                        self._weight_for(dtype), self.k_tb,
                        self._plan_caches().kernels())
        return acc.reshape((batch, acc.shape[1]) + self._modes)

    def _project(self, yk: np.ndarray, dim_x: int) -> np.ndarray:
        """The reanalysis of a checked output spectrum: the identity for
        the C2C convention, else the symmetric projection."""
        if not self.symmetric:
            return yk
        if self.ndim == 1:
            return _project_dc_real(yk)
        return _project_herm_x(yk, dim_x)

    def _replays_steps(self) -> bool:
        """Whether ``step_spectrum`` and ``reanalyze_spectrum`` are the
        stock methods, which the step driver and the private loop
        replay.  A subclass or an instance attribute that replaces
        either is stepped through the replacement instead."""
        stock = (CompiledSpectralConv1D if self.ndim == 1
                 else CompiledSpectralConv2D)
        return not any(
            name in vars(self)
            or getattr(type(self), name) is not getattr(stock, name)
            for name in ("step_spectrum", "reanalyze_spectrum")
        )

    def rollout_spectrum(self, sk: np.ndarray, steps: int, spatial,
                         keep: str = "last") -> np.ndarray:
        """``steps`` spectrum-resident rollout steps from the state
        ``sk``: each step is :meth:`step_spectrum`, and every step but
        the last feeds the :meth:`reanalyze_spectrum` of its output to
        the next.  Returns the kept output spectra, before reanalysis:
        the last ``(batch, C, *modes)`` one for ``keep="last"``, all of
        them stacked ``(steps, batch, C, *modes)`` for ``keep="all"``.

        With the C kernels loaded the whole loop is one checked
        ``spectral_steps`` call; otherwise it runs as a Python loop over
        the same staged halves, which is the driver's oracle.  Both
        give the loop's bytes.  An executor whose ``step_spectrum`` or
        ``reanalyze_spectrum`` is replaced (by a subclass or an instance
        attribute) loops through the replacements instead.  The weight
        must be square.
        """
        sk = np.asarray(sk)
        c_in, c_out = self.weight.shape
        _check_spectrum(sk, self._modes, c_in)
        steps = _positive_int("steps", steps)
        if keep not in ("last", "all"):
            raise ValueError(f"keep must be 'last' or 'all', got {keep!r}")
        spatial = _check_spatial(spatial, self.ndim)
        if c_in != c_out:
            raise ValueError(
                f"a rollout feeds the output spectrum back in, which needs "
                f"a square (C, C) weight; got ({c_in}, {c_out})"
            )
        dim_x = spatial[0]
        if self._modes[0] > dim_x:
            raise ValueError(
                f"modes {self._modes} out of range for the grid {spatial}"
            )
        dtype = complex_dtype_for(sk.dtype)
        if not self._replays_steps():
            return _rollout_loop(
                sk, steps, keep, self.step_spectrum,
                lambda yk: self.reanalyze_spectrum(yk, spatial),
            )
        kernels = self._plan_caches().kernels()
        if kernels is None or not c_in:
            return _rollout_loop(
                sk, steps, keep, lambda s: self._step(s, dtype),
                lambda yk: self._project(yk, dim_x),
            )
        weight = self._weight_for(dtype)
        out = np.empty(((steps,) if keep == "all" else ()) + sk.shape, dtype)
        mx, my = (self._modes + (1,))[:2]
        projection = ("none" if not self.symmetric
                      else "dc_real" if self.ndim == 1 else "herm_x")
        kernels.spectral_steps(
            np.ascontiguousarray(sk, dtype=dtype), weight,
            np.empty(sk.shape, dtype), out, sk.shape[0], c_in, mx, my,
            self.k_tb, steps, dim_x, projection, keep,
        )
        return out

    def _symmetric_spectrum(self, x: np.ndarray, xk_trunc, dtype):
        """The forward half of a symmetric ``__call__``: the R2C
        analysis of ``x``, or the caller's precomputed ``xk_trunc``
        checked against the staged plans."""
        rfft, _ = self._real_plans(dtype, x.shape[2:])
        if xk_trunc is None:
            return self._analyse(x, dtype)
        if xk_trunc.shape[-1] != rfft.part:
            raise PrunedPartMismatchError(
                f"xk_trunc carries {xk_trunc.shape[-1]} bins but the "
                f"staged plans truncate to part={rfft.part}"
            )
        want = x.shape[:2] + self._modes
        if xk_trunc.shape != want:
            raise ValueError(
                f"xk_trunc must have shape {want}, got {xk_trunc.shape}"
            )
        if xk_trunc.dtype != dtype:
            raise ValueError(
                f"xk_trunc must be {dtype.name} for {x.dtype.name} input, "
                f"got {xk_trunc.dtype.name}"
            )
        return xk_trunc


class CompiledSpectralConv1D(_SpectralExecutor):
    """Reusable executor for the fused 1-D spectral convolution.

    Build once per weight matrix; call with any ``(batch, C_in, X)``
    input.  Staging (weight casts, FFT plans, workspaces) is cached per
    (working dtype, X); outputs are byte-identical to
    :func:`repro.core.legacy.fused_fft_gemm_ifft_1d`.

    ``symmetric=True`` selects the original FNO's rfft/irfft filter
    convention instead of the paper's first-bins C2C filter: real input,
    truncated half spectrum straight from the cached pruned-R2C plan,
    one shared CGEMM over the kept modes, and the pruned C2R plan
    synthesising from exactly those modes — a genuine real->real
    low-pass operator returning a real array.  Requires
    ``modes <= X/2``.

    ``k_tb`` is the CGEMM's k-panel width: it fixes the accumulation
    order, and so the output bits.  Both substrates run each batch
    whole: the C driver in one call, the NumPy fallback as one pass of
    each stage.

    ``plans`` pins the executor to one plan-cache set.  Without it,
    each (dtype, X) is staged against the set active at its first call
    (a :class:`repro.api.Session` activates its own around every call);
    the spectrum entry points resolve the active set at every call.
    """

    ndim = 1

    def __init__(self, weight: np.ndarray, modes: int,
                 k_tb: int = _DEFAULT_K_TB,
                 symmetric: bool = False,
                 plans: PlanCaches | None = None):
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise ValueError(
                f"weight must be (C_in, C_out), got {weight.shape}"
            )
        self.modes = modes = _positive_int("modes", modes)
        super().__init__(weight, (modes,), k_tb, symmetric, plans)

    # -- the staged halves ----------------------------------------------

    def _real_plans(self, dtype: np.dtype, spatial: tuple):
        pair = self._real.get((dtype, spatial))
        if pair is None:
            (dim_x,) = spatial
            _check_length(dim_x)
            if self.modes > dim_x // 2:
                raise ValueError(
                    f"symmetric filtering needs modes <= X/2, got "
                    f"{self.modes} on a length-{dim_x} grid"
                )
            pair = _real_pair(self._plan_caches(), dim_x, self.modes,
                              dtype, "symmetric 1-D")
            self._real[(dtype, spatial)] = pair
        return pair

    def _analyse(self, x: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The forward staged half: the truncated spectrum of a checked
        input — pruned R2C (symmetric) or pruned C2C."""
        if self.symmetric:
            batch, c_in, n = x.shape
            rfft, _ = self._real_plans(dtype, (n,))
            flat = np.ascontiguousarray(
                x, dtype=rfft.real_dtype
            ).reshape(batch * c_in, n)
            return rfft.execute(flat).reshape(batch, c_in, self.modes)
        return truncated_fft_auto(
            x.astype(dtype, copy=False), self.modes, axis=2,
            caches=self._plan_caches(),
        )

    def _synthesise(self, yk: np.ndarray, spatial: tuple) -> np.ndarray:
        """The inverse staged half: pruned C2R (symmetric, real output)
        or the pruned zero-padded C2C inverse (complex output).  Checks
        the state's rank and kept modes against the executor and the
        grid against the modes."""
        _check_spectrum(yk, self._modes)
        (dim_x,) = spatial
        dtype = complex_dtype_for(yk.dtype)
        if self.symmetric:
            _, irfft = self._real_plans(dtype, spatial)
            batch, c = yk.shape[:2]
            flat = np.ascontiguousarray(yk, dtype=dtype).reshape(
                batch * c, self.modes
            )
            return irfft.execute(flat).reshape(batch, c, dim_x)
        if self.modes > dim_x:
            raise ValueError(
                f"modes must be in [1, {dim_x}], got {self.modes}"
            )
        return padded_ifft_auto(
            yk.astype(dtype, copy=False), dim_x, axis=2,
            caches=self._plan_caches(),
        )

    # -- spectrum-in / spectrum-out entry points (rollout serving) ------

    def forward_spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated spectrum of ``x`` — the state a spectrum-resident
        rollout (:meth:`repro.api.Session.rollout`) keeps between steps.

        ``inverse_spectrum(step_spectrum(forward_spectrum(x)), X)``
        computes the same convolution as ``self(x)`` without paying the
        inverse/forward transform pair between consecutive steps (byte
        for byte in the symmetric convention, whose ``__call__`` runs
        these very stages).
        """
        x = np.asarray(x)
        _check_inputs(x, self.weight, 3)
        dim_x = x.shape[2]
        if not (1 <= self.modes <= dim_x):
            raise ValueError(
                f"modes must be in [1, {dim_x}], got {self.modes}"
            )
        if self.symmetric and np.iscomplexobj(x):
            raise ValueError("symmetric executor expects real input")
        return self._analyse(x, complex_dtype_for(x.dtype))

    def step_spectrum(self, sk: np.ndarray) -> np.ndarray:
        """One spectral-conv application entirely in the spectrum: the
        k-panel CGEMM over the kept modes, no transforms.

        ``sk`` is a ``(batch, C_in, modes)`` truncated spectrum; returns
        the ``(batch, C_out, modes)`` spectrum of the convolved signal —
        exactly the quantity the fused pass accumulates before its
        inverse transform.
        """
        sk = np.asarray(sk)
        _check_spectrum(sk, self._modes, self.weight.shape[0])
        return self._step(sk, complex_dtype_for(sk.dtype))

    def inverse_spectrum(self, sk: np.ndarray, spatial) -> np.ndarray:
        """Spatial-domain signal of a ``(batch, C, modes)`` spectral
        state: the pruned zero-padded inverse (complex output, like the
        fused pass), or — symmetric — the C2R half-spectrum inverse
        (real output)."""
        return self._synthesise(np.asarray(sk), _check_spatial(spatial, 1))

    def reanalyze_spectrum(self, sk: np.ndarray, spatial=None) -> np.ndarray:
        """The output spectrum as the *next* step's forward analysis
        would see it — the exact linear map the skipped inverse/forward
        transform pair applies between rollout steps.  Identity for the
        paper's C2C convention (complex output, nothing discarded); the
        symmetric convention projects the DC bin real."""
        if spatial is not None:
            _check_spatial(spatial, 1)
        sk = np.asarray(sk)
        _check_spectrum(sk, self._modes)
        return self._project(sk, 0)

    def _check_call(self, x: np.ndarray) -> int:
        """Check a ``__call__`` input; return its length X."""
        _check_inputs(x, self.weight, 3)
        dim_x = x.shape[2]
        if not (1 <= self.modes <= dim_x):
            raise ValueError(
                f"modes must be in [1, {dim_x}], got {self.modes}"
            )
        if self.symmetric and np.iscomplexobj(x):
            raise ValueError("symmetric executor expects real input")
        return dim_x

    def __call__(self, x: np.ndarray,
                 xk_trunc: np.ndarray | None = None) -> np.ndarray:
        """Run the convolution.  ``xk_trunc`` (symmetric mode only) is an
        optional precomputed truncated half spectrum ``(batch, C_in,
        modes)`` — callers that already hold it (the training layers
        cache it for backward) skip the forward R2C pass."""
        x = np.asarray(x)
        dim_x = self._check_call(x)
        if xk_trunc is not None and not self.symmetric:
            raise ValueError("xk_trunc applies to symmetric executors only")
        dtype = complex_dtype_for(x.dtype)
        if self.symmetric:
            sk = self._symmetric_spectrum(x, xk_trunc, dtype)
            return self._synthesise(self._step(sk, dtype), (dim_x,))
        return self._stage_for(dtype, dim_x).run_fused(x)

    def _call_rows(self, xs: list) -> list:
        """``[self(x) for x in xs]`` for C2C requests sharing one dtype
        and ``(C_in, X)``, byte for byte, as one fused pass: on the C
        backend one driver call reads every request in place and writes
        each result into its own rows of one new buffer (see
        :meth:`_StagedFused1D.run_rows`)."""
        if self.symmetric:
            raise ValueError("_call_rows serves the C2C convention only")
        first = xs[0]
        dim_x = self._check_call(first)
        for x in xs[1:]:
            if x.dtype != first.dtype or x.shape[1:] != first.shape[1:]:
                raise ValueError(
                    f"_call_rows needs one dtype and geometry; got "
                    f"{x.dtype}{x.shape} after {first.dtype}{first.shape}"
                )
        dtype = complex_dtype_for(first.dtype)
        return self._stage_for(dtype, dim_x).run_rows(xs)


class CompiledSpectralConv2D(_SpectralExecutor):
    """Reusable executor for the fused 2-D spectral convolution.

    The width FFT and width inverse run through the cached pruned plans;
    the fused height pass reuses the 1-D tile machinery over the
    (batch x kept-row) pencils.  Byte-identical to
    :func:`repro.core.legacy.fused_fft_gemm_ifft_2d`.

    ``symmetric=True`` selects the half-spectrum convention on real
    input: pruned R2C along Y, the paper's first-bins C2C filter along
    X, one shared CGEMM over the kept corner, then the inverse chain
    (pruned C2C inverse along X, pruned C2R along Y — synthesised
    straight from the kept modes, no Hermitian-half zero-pad) and a
    real-valued output.  Requires ``modes_y <= Y/2``.

    ``k_tb`` and ``plans`` work as on :class:`CompiledSpectralConv1D`,
    ``k_tb`` applied to the per-pencil fused stage along Y (a
    ``batch * modes_x`` pencil batch of the 1-D computation).
    """

    ndim = 2

    def __init__(self, weight: np.ndarray, modes_x: int, modes_y: int,
                 k_tb: int = _DEFAULT_K_TB,
                 symmetric: bool = False,
                 plans: PlanCaches | None = None):
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise ValueError(
                f"weight must be (C_in, C_out), got {weight.shape}"
            )
        self.modes_x = modes_x = _positive_int("modes_x", modes_x)
        self.modes_y = modes_y = _positive_int("modes_y", modes_y)
        super().__init__(weight, (modes_x, modes_y), k_tb, symmetric, plans)

    # -- the staged halves ----------------------------------------------

    def _real_plans(self, dtype: np.dtype, spatial: tuple):
        pair = self._real.get((dtype, spatial))
        if pair is None:
            dim_x, dim_y = spatial
            _check_length(dim_x)
            _check_length(dim_y)
            if self.modes_x > dim_x:
                raise ValueError(
                    f"modes_x={self.modes_x} exceeds spatial size {dim_x}"
                )
            if self.modes_y > dim_y // 2:
                raise ValueError(
                    f"symmetric filtering needs modes_y <= Y/2, got "
                    f"{self.modes_y} on a length-{dim_y} grid"
                )
            pair = _real_pair(self._plan_caches(), dim_y, self.modes_y,
                              dtype, "symmetric 2-D")
            self._real[(dtype, spatial)] = pair
        return pair

    def _analyse(self, x: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The forward staged half: the truncated corner of a checked
        input — pruned R2C along Y then pruned C2C along X (symmetric),
        or pruned C2C along X then Y."""
        plans = self._plan_caches()
        batch, c_in, dim_x, dim_y = x.shape
        if self.symmetric:
            rfft, _ = self._real_plans(dtype, (dim_x, dim_y))
            flat = np.ascontiguousarray(
                x, dtype=rfft.real_dtype
            ).reshape(batch * c_in * dim_x, dim_y)
            xk_y = rfft.execute(flat).reshape(
                batch, c_in, dim_x, self.modes_y
            )
            return truncated_fft_auto(
                xk_y, self.modes_x, axis=2, caches=plans,
            )
        xk_x = truncated_fft_auto(
            x.astype(dtype, copy=False), self.modes_x, axis=2, caches=plans
        )
        return truncated_fft_auto(xk_x, self.modes_y, axis=3, caches=plans)

    def _synthesise(self, yk: np.ndarray, spatial: tuple) -> np.ndarray:
        """The inverse staged half, mirroring :meth:`_analyse`: pruned
        C2C inverse along X then pruned C2R along Y (symmetric, real
        output), or zero-padded C2C inverses along Y then X.  Checks the
        state's rank and kept corner and the grid against the modes."""
        _check_spectrum(yk, self._modes)
        dim_x, dim_y = spatial
        dtype = complex_dtype_for(yk.dtype)
        plans = self._plan_caches()
        if self.symmetric:
            _, irfft = self._real_plans(dtype, spatial)
            batch, c = yk.shape[:2]
            y_x = padded_ifft_auto(
                np.ascontiguousarray(yk, dtype=dtype), dim_x, axis=2,
                caches=plans,
            )
            flat = np.ascontiguousarray(y_x, dtype=dtype).reshape(
                batch * c * dim_x, self.modes_y
            )
            return irfft.execute(flat).reshape(batch, c, dim_x, dim_y)
        if self.modes_x > dim_x or self.modes_y > dim_y:
            raise ValueError(
                f"modes ({self.modes_x}, {self.modes_y}) out of range "
                f"for ({dim_x}, {dim_y})"
            )
        y_y = padded_ifft_auto(
            yk.astype(dtype, copy=False), dim_y, axis=3, caches=plans
        )
        return padded_ifft_auto(y_y, dim_x, axis=2, caches=plans)

    # -- spectrum-in / spectrum-out entry points (rollout serving) ------

    def forward_spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated ``(batch, C_in, modes_x, modes_y)`` spectrum corner
        of ``x`` — the rollout state (see
        :meth:`CompiledSpectralConv1D.forward_spectrum`)."""
        x = np.asarray(x)
        _check_inputs(x, self.weight, 4)
        dim_x, dim_y = x.shape[2:]
        if not (1 <= self.modes_x <= dim_x) or not (
            1 <= self.modes_y <= dim_y
        ):
            raise ValueError(
                f"modes ({self.modes_x}, {self.modes_y}) out of range "
                f"for ({dim_x}, {dim_y})"
            )
        if self.symmetric and np.iscomplexobj(x):
            raise ValueError("symmetric executor expects real input")
        return self._analyse(x, complex_dtype_for(x.dtype))

    def step_spectrum(self, sk: np.ndarray) -> np.ndarray:
        """One spectral-conv application entirely in the spectrum: the
        shared CGEMM over the flattened kept corner, no transforms."""
        sk = np.asarray(sk)
        _check_spectrum(sk, self._modes, self.weight.shape[0])
        return self._step(sk, complex_dtype_for(sk.dtype))

    def inverse_spectrum(self, sk: np.ndarray, spatial) -> np.ndarray:
        """Spatial-domain signal of a ``(batch, C, modes_x, modes_y)``
        spectral state (complex output; symmetric executors return the
        real C2R inverse)."""
        return self._synthesise(np.asarray(sk), _check_spatial(spatial, 2))

    def reanalyze_spectrum(self, sk: np.ndarray, spatial=None) -> np.ndarray:
        """The output spectrum as the next step's forward analysis would
        see it (see :meth:`CompiledSpectralConv1D.reanalyze_spectrum`).
        The symmetric convention needs ``spatial`` — the Hermitian
        projection of the y-DC column depends on the padded X length."""
        if spatial is not None:
            spatial = _check_spatial(spatial, 2)
        sk = np.asarray(sk)
        _check_spectrum(sk, self._modes)
        if not self.symmetric:
            return sk
        if spatial is None:
            raise ValueError(
                "symmetric reanalysis needs the spatial shape (dim_x, dim_y)"
            )
        dim_x = spatial[0]
        if self.modes_x > dim_x:
            raise ValueError(
                f"modes_x={self.modes_x} exceeds spatial size {dim_x}"
            )
        return self._project(sk, dim_x)

    def __call__(self, x: np.ndarray,
                 xk_trunc: np.ndarray | None = None) -> np.ndarray:
        """Run the convolution.  ``xk_trunc`` (symmetric mode only) is an
        optional precomputed truncated spectrum corner ``(batch, C_in,
        modes_x, modes_y)``; callers that already hold it skip the
        forward transforms."""
        x = np.asarray(x)
        _check_inputs(x, self.weight, 4)
        batch, c_in, dim_x, dim_y = x.shape
        if not (1 <= self.modes_x <= dim_x) or not (1 <= self.modes_y <= dim_y):
            raise ValueError(
                f"modes ({self.modes_x}, {self.modes_y}) out of range for "
                f"({dim_x}, {dim_y})"
            )
        if xk_trunc is not None and not self.symmetric:
            raise ValueError("xk_trunc applies to symmetric executors only")
        dtype = complex_dtype_for(x.dtype)
        if self.symmetric:
            if np.iscomplexobj(x):
                raise ValueError("symmetric executor expects real input")
            sk = self._symmetric_spectrum(x, xk_trunc, dtype)
            return self._synthesise(self._step(sk, dtype), (dim_x, dim_y))
        c_out = self.weight.shape[1]
        plans = self._plan_caches()

        # Stage 1: width FFT with built-in truncation.
        xk_x = truncated_fft(
            x.astype(dtype, copy=False), self.modes_x, axis=2, caches=plans
        )

        # Fused stage along Y over (batch, kept-x-row) pencils.
        pencils = xk_x.transpose(0, 2, 1, 3).reshape(
            batch * self.modes_x, c_in, dim_y
        )
        out_pencils = self._stage_for(dtype, dim_y).run_fused(pencils)

        yk_x = out_pencils.reshape(
            batch, self.modes_x, c_out, dim_y
        ).transpose(0, 2, 1, 3)
        # Final stage: width iFFT with built-in zero padding.
        return truncated_ifft(yk_x, dim_x, axis=2, caches=plans)


def compile_spectral_conv(
    weight: np.ndarray,
    modes: int | tuple[int, ...],
    k_tb: int = _DEFAULT_K_TB,
    symmetric: bool = False,
    plans: PlanCaches | None = None,
):
    """Build the executor matching ``modes``' dimensionality.

    An int (or 1-tuple) of kept modes gives a
    :class:`CompiledSpectralConv1D`; a 2-tuple gives a
    :class:`CompiledSpectralConv2D`.  ``symmetric=True`` selects the
    rfft/irfft half-spectrum convention (real input, real output).
    ``plans`` pins the executor to one plan-cache set (a session's);
    ``None`` resolves the set active on the staging thread.
    """
    if isinstance(modes, tuple):
        if len(modes) == 1:
            return CompiledSpectralConv1D(
                weight, modes[0], k_tb, symmetric=symmetric, plans=plans,
            )
        if len(modes) == 2:
            return CompiledSpectralConv2D(
                weight, modes[0], modes[1], k_tb, symmetric=symmetric,
                plans=plans,
            )
        raise ValueError(
            f"modes must have 1 or 2 entries, got {len(modes)}"
        )
    return CompiledSpectralConv1D(
        weight, modes, k_tb, symmetric=symmetric, plans=plans,
    )
