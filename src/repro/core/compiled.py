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

One implementation, :class:`_SpectralExecutor`, serves both ranks: 2-D
is the 1-D computation along Y plus the pruned C2C pass along X.

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
computation, byte for byte.  In 2-D on the C backend each half is one
call to a plane driver (``sym2d_analyse``/``sym2d_synthesise``) that
streams every (batch, channel) plane through both axes in cache.

A group of requests or rollout streams runs through one private entry
point, ``_SpectralExecutor._serve``, which :class:`repro.api.Session`
calls once per group of a stock executor: every step in one call, each
state's result in its own buffer.  It is the one place a group picks
between the C drivers and the staged halves.

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

import numpy as np

from repro.core.dtypes import complex_dtype_for
from repro.fft.compiled import (
    PlanCaches,
    PrunedPartMismatchError,
    _integer,
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
        return _split(block, [len(x) for x in xs])

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


class _SymPlanes:
    """The symmetric 2-D plane drivers staged for one (dtype, grid).

    Holds the tables the C drivers ``sym2d_analyse`` and
    ``sym2d_synthesise`` read, all from the executor's cached plans:
    the pruned R2C/C2R pair along Y (its ``decomp`` strategy's
    ``tables``) and the pruned C2C pair along X, ``trunc`` and
    ``itrunc``.  Each driver call streams every ``(b, c)`` plane through
    both axes with the staged path's kernels in the staged path's
    order, so it gives the staged bytes (see ``_kernels.c``).
    Workspaces are per call: a caller passes one to a series of its own
    calls, or each call allocates its own.
    """

    def __init__(self, rfft, irfft, trunc, itrunc, modes: tuple,
                 spatial: tuple):
        self.dtype = rfft.dtype
        self.real = rfft.real_dtype
        self.fwd = (*rfft.tables, trunc.fft.twiddles, trunc.wd)
        self.inv = (*irfft.tables, itrunc.fft.twiddles, itrunc.wd)
        # (dim_x, dim_y, mx, my, q): q is the R2C sub-transform length.
        self.geometry = (*spatial, *modes, rfft.tables[0].shape[1])

    def workspace(self, kernels) -> np.ndarray:
        return np.empty(kernels.sym2d_workspace(*self.geometry[:4],
                                                self.dtype), self.dtype)

    def analyse(self, kernels, xs: list, ws=None) -> np.ndarray:
        """The kept corners ``(rows, C, mx, my)`` of the real states
        ``xs`` (one geometry), in order, in one driver call that reads
        each state where it lies (one in another dtype or layout is
        converted first)."""
        real = self.real
        xs = [x if x.dtype == real and x.flags.c_contiguous
              and x.flags.aligned else np.array(x, real, order="C")
              for x in xs]
        bt, c = sum(len(x) for x in xs), xs[0].shape[1]
        _, _, mx, my, _ = self.geometry
        sk = np.empty((bt, c, mx, my), self.dtype)
        kernels.sym2d_analyse(
            xs, sk, self.fwd, self.workspace(kernels) if ws is None else ws,
            bt, c, *self.geometry)
        return sk

    def synthesise(self, kernels, sk: np.ndarray, outs, nxt=None,
                   ws=None) -> None:
        """The real planes of the corners ``sk`` written through the
        arrays ``outs`` (entry order), or held in the workspace only
        (``outs=None``); given ``nxt``, each plane's re-analysis is
        written there too."""
        sk = np.ascontiguousarray(sk, dtype=self.dtype)
        kernels.sym2d_synthesise(
            sk, outs, nxt, self.inv, self.fwd,
            self.workspace(kernels) if ws is None else ws, len(sk),
            sk.shape[1], *self.geometry)


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


def _stacked(xs: list) -> np.ndarray:
    """A group's states as one state: concatenated along the batch
    axis, or the one state itself."""
    return xs[0] if len(xs) == 1 else np.concatenate(xs, axis=0)


def _split(block: np.ndarray, sizes: list) -> list:
    """Each stream's own rows of a group's ``block``, in order: disjoint
    views (the block itself for a single stream)."""
    if len(sizes) == 1:
        return [block]
    outs, off = [], 0
    for n in sizes:
        outs.append(block[off:off + n])
        off += n
    return outs


def _synthesise_streams(synthesise, spectra: np.ndarray, sizes: list,
                        keep: str, spatial) -> list:
    """Each stream's spatial result from its own rows of a group's kept
    spectra — ``(batch, C, *modes)`` for ``keep="last"``, ``(steps,
    batch, C, *modes)`` for ``keep="all"`` — in one ``synthesise(rows,
    spatial)`` call per stream, so a stream's bits never depend on the
    streams grouped with it.  The result owns its buffer, so no stream
    pins the group's state."""
    results, off = [], 0
    for n in sizes:
        if keep == "last":
            results.append(synthesise(spectra[off:off + n], spatial))
        elif n * spectra.shape[2] > 1:
            rows = spectra[:, off:off + n]
            y = synthesise(rows.reshape((-1,) + rows.shape[2:]), spatial)
            results.append(y.reshape(rows.shape[:2] + y.shape[1:]))
        else:
            # A one-row state synthesises frame by frame: NumPy forms a
            # one-row C2R call's tail product unfused (and the kernels
            # replay it), so stacking the frames would change its bits.
            results.append(np.stack([synthesise(frame, spatial)
                                     for frame in spectra[:, off:off + n]]))
        off += n
    return results


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
    2-sequence, and every length must be an integer >= 1 (a bool is
    not a length)."""
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
        lengths = tuple(_integer("spatial", s) for s in spatial)
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
    """The spectral-convolution executor, written once for both ranks.

    Every method runs over the kept-mode tuple ``self._modes``
    (``(modes,)`` or ``(modes_x, modes_y)``), so the input checks, the
    staging, the staged halves and every public entry point serve both
    executors.  The 2-D operator is the 1-D one along Y, the last axis,
    plus the pruned C2C pass along X: TurboFNO's 2-D fusion (Figure 18)
    built from its 1-D pass.

    Holds the construction-time ``k_tb`` check, the plan-cache set, the
    weight cast (once per working dtype, shared by every stage, the
    k-panel CGEMM and the step driver), the fused stages (one per dtype
    and last-axis length) and, for the symmetric convention, the pruned
    R2C/C2R plan pair along the last axis (checked and resolved once per
    dtype and grid).

    The spectrum entry points run through three private staged halves:
    ``_analyse`` (truncated forward transform), :meth:`_step` (the
    k-panel CGEMM) and ``_synthesise`` (its zero-padded mirror).  A
    symmetric ``__call__`` is exactly those halves in a row, so it is
    ``inverse_spectrum(step_spectrum(forward_spectrum(x)))`` by
    construction; a C2C ``__call__`` runs the fused stage.  The public
    entry points never call one another; :meth:`rollout_spectrum` steps
    through ``step_spectrum`` and ``reanalyze_spectrum`` only where a
    subclass or an instance replaces them.

    On the C backend a symmetric 2-D executor runs each half as one
    plane-driver call (:meth:`_planes`, :class:`_SymPlanes`): every
    ``(b, c)`` plane streams through both axes in cache, with the
    staged halves' kernels in their order, so the bytes do not change.
    The staged halves (``_analyse_staged``, ``_synthesise_staged``)
    stay as the NumPy fallback, the drivers' oracle and the path of
    every geometry the drivers do not cover.  ``_analyse`` and
    ``_synthesise`` take a group of states and give each its own
    output, the row-table shape the drivers read, so one copy of each
    half serves one request and a group alike; the staged synthesis
    runs once per state, so no state's bits depend on its group.

    :meth:`_serve` is the one group entry point
    (:class:`repro.api.Session` serves every group of a stock executor
    through it) and the one place a group picks between the drivers
    and the staged halves: every step of an exact or fast rollout, or
    one inference step, in one call, each result in its own buffer.
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
        self._plane_drivers: dict = {}

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
        # Compare with the public class, not this base: a wrapper set on
        # the public class itself (a tracer's) is the stock method.
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
            return self._analyse([x], dtype)
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

    def _out_of_range(self, spatial: tuple) -> ValueError:
        """The error for kept modes that do not fit the grid ``spatial``."""
        if self.ndim == 1:
            return ValueError(
                f"modes must be in [1, {spatial[0]}], got {self._modes[0]}"
            )
        return ValueError(f"modes {self._modes} out of range for {spatial}")

    def _check_outer(self, spatial: tuple) -> None:
        """2-D: the kept X modes must fit the grid's X length."""
        if self.ndim == 2 and self._modes[0] > spatial[0]:
            raise ValueError(
                f"modes_x={self._modes[0]} exceeds spatial size {spatial[0]}"
            )

    def _check_input(self, x: np.ndarray) -> tuple:
        """Check a spatial input's rank, channels and kept-mode range,
        and that a symmetric executor's input is real; return its grid."""
        _check_inputs(x, self.weight, 2 + self.ndim)
        spatial = x.shape[2:]
        if any(m > n for m, n in zip(self._modes, spatial)):
            raise self._out_of_range(spatial)
        if self.symmetric and np.iscomplexobj(x):
            raise ValueError("symmetric executor expects real input")
        return spatial

    def _check_rows(self, xs: list, what: str) -> tuple:
        """Check a group of inputs that must share one dtype and
        geometry (:meth:`_check_input` on the first); return their grid
        and working dtype."""
        first = xs[0]
        spatial = self._check_input(first)
        for x in xs[1:]:
            if x.dtype != first.dtype or x.shape[1:] != first.shape[1:]:
                raise ValueError(
                    f"{what} needs one dtype and geometry; got "
                    f"{x.dtype}{x.shape} after {first.dtype}{first.shape}"
                )
        return spatial, complex_dtype_for(first.dtype)

    # -- the staged halves ----------------------------------------------

    def _real_plans(self, dtype: np.dtype, spatial: tuple):
        """The symmetric convention's pruned R2C/C2R pair, always along
        the last axis, checked and resolved once per (dtype, grid)."""
        pair = self._real.get((dtype, spatial))
        if pair is None:
            for n in spatial:
                _check_length(n)
            self._check_outer(spatial)
            n, m = spatial[-1], self._modes[-1]
            if m > n // 2:
                need = "modes <= X/2" if self.ndim == 1 else "modes_y <= Y/2"
                raise ValueError(
                    f"symmetric filtering needs {need}, got {m} on a "
                    f"length-{n} grid"
                )
            pair = _real_pair(self._plan_caches(), n, m, dtype,
                              f"symmetric {self.ndim}-D")
            self._real[(dtype, spatial)] = pair
        return pair

    def _planes(self, dtype: np.dtype, spatial: tuple, channels: int):
        """The plane drivers of a symmetric 2-D grid as ``(planes,
        kernels)``, or None where the staged halves run: 1-D or C2C
        executors, no channels, the NumPy fallback, and every geometry
        the drivers do not cover — an R2C strategy other than
        ``decomp``, or ``modes_x`` not a power of two below ``dim_x``.
        Staged once per (dtype, grid) after the pruned R2C/C2R pair
        (whose checks it raises)."""
        if self.ndim != 2 or not self.symmetric or not channels:
            return None
        plans = self._plan_caches()
        kernels = plans.kernels()
        if kernels is None:
            return None
        planes = self._plane_drivers.get((dtype, spatial))
        if planes is None:
            rfft, irfft = self._real_plans(dtype, spatial)
            dim_x, mx = spatial[0], self._modes[0]
            planes = False
            if (rfft.tables is not None and irfft.tables is not None
                    and mx < dim_x and not mx & (mx - 1)):
                planes = _SymPlanes(
                    rfft, irfft, plans.pruned(dim_x, mx, dtype, "trunc"),
                    plans.pruned(dim_x, mx, dtype, "itrunc"), self._modes,
                    spatial)
            self._plane_drivers[(dtype, spatial)] = planes
        return (planes, kernels) if planes else None

    def _analyse(self, xs: list, dtype: np.dtype) -> np.ndarray:
        """The forward half over the checked states ``xs`` (one dtype
        and geometry): their spectra in order, as one ``(rows, C,
        *modes)`` array.  Where the plane drivers cover the grid
        (:meth:`_planes`) one ``sym2d_analyse`` call reads every state
        where it lies; else :meth:`_analyse_staged` runs over the
        stacked states.  The same bytes either way."""
        drivers = self._planes(dtype, xs[0].shape[2:], xs[0].shape[1])
        if drivers is not None:
            planes, kernels = drivers
            return planes.analyse(kernels, xs)
        return self._analyse_staged(_stacked(xs), dtype)

    def _analyse_staged(self, x: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """The forward staged half: the truncated spectrum of a checked
        input — pruned R2C along the last axis then pruned C2C along the
        outer axis (symmetric), or pruned C2C along every axis in
        order."""
        if self.symmetric:
            rfft, _ = self._real_plans(dtype, x.shape[2:])
            flat = np.ascontiguousarray(
                x, dtype=rfft.real_dtype
            ).reshape(-1, x.shape[-1])
            sk = rfft.execute(flat).reshape(x.shape[:-1] + self._modes[-1:])
            outer = self._modes[:-1]
        else:
            sk, outer = x.astype(dtype, copy=False), self._modes
        for axis, m in enumerate(outer, 2):
            sk = truncated_fft_auto(sk, m, axis=axis,
                                    caches=self._plan_caches())
        return sk

    def _synthesise(self, spectra: np.ndarray, spatial: tuple,
                    sizes: list | None = None, keep: str = "last") -> list:
        """The inverse half: each stream's spatial states from its own
        rows of ``spectra`` — ``(rows, C, *modes)`` for ``keep="last"``,
        ``(steps, rows, C, *modes)`` for ``"all"``; ``sizes`` are the
        streams' row counts, one stream of every row by default — each
        in its own buffer.  Where the plane drivers cover the grid
        (:meth:`_planes`) one ``sym2d_synthesise`` call writes every
        result through its row table; else the staged half runs once
        per stream (:func:`_synthesise_streams`), so a stream's bits
        never depend on the streams grouped with it.  Checks the state's
        rank and kept modes against the executor."""
        frame = spectra[-1] if keep == "all" else spectra
        _check_spectrum(frame, self._modes)
        sizes = [len(frame)] if sizes is None else sizes
        dtype = complex_dtype_for(spectra.dtype)
        drivers = self._planes(dtype, spatial, frame.shape[1])
        if drivers is None:
            return _synthesise_streams(
                lambda rows, grid: self._synthesise_staged(rows, grid, dtype),
                spectra, sizes, keep, spatial)
        planes, kernels = drivers
        lead, tail = spectra.shape[:-3], spectra.shape[-3:-2] + spatial
        outs = [np.empty(lead[:-1] + (n,) + tail, planes.real)
                for n in sizes]
        # Entry order is row order: step-major for keep="all".
        table = (outs if keep == "last"
                 else [out[i] for i in range(len(spectra)) for out in outs])
        planes.synthesise(kernels, spectra.reshape((-1,) + frame.shape[1:]),
                          table)
        return outs

    def _synthesise_staged(self, yk: np.ndarray, spatial: tuple,
                           dtype: np.dtype) -> np.ndarray:
        """The inverse staged half of a checked state, mirroring
        :meth:`_analyse_staged`: pruned C2C inverse along the outer axis
        then pruned C2R along the last (symmetric, real output), or
        zero-padded C2C inverses along every axis, last first.  Checks
        the grid against the modes."""
        if self.symmetric:
            _, irfft = self._real_plans(dtype, spatial)
            sk, axes = np.ascontiguousarray(yk, dtype=dtype), self.ndim - 1
        else:
            if any(m > n for m, n in zip(self._modes, spatial)):
                raise self._out_of_range(spatial)
            sk, axes = yk.astype(dtype, copy=False), self.ndim
        for i in reversed(range(axes)):
            sk = padded_ifft_auto(sk, spatial[i], axis=2 + i,
                                  caches=self._plan_caches())
        if not self.symmetric:
            return sk
        flat = np.ascontiguousarray(sk, dtype=dtype).reshape(
            -1, self._modes[-1]
        )
        return irfft.execute(flat).reshape(sk.shape[:-1] + spatial[-1:])

    # -- spectrum-in / spectrum-out entry points (rollout serving) ------

    def forward_spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated ``(batch, C_in, *modes)`` spectrum of ``x`` — the
        state a spectrum-resident rollout
        (:meth:`repro.api.Session.rollout`) keeps between steps.

        ``inverse_spectrum(step_spectrum(forward_spectrum(x)), spatial)``
        computes the same convolution as ``self(x)`` without paying the
        inverse/forward transform pair between consecutive steps (byte
        for byte in the symmetric convention, whose ``__call__`` runs
        these very stages).
        """
        x = np.asarray(x)
        self._check_input(x)
        return self._analyse([x], complex_dtype_for(x.dtype))

    def step_spectrum(self, sk: np.ndarray) -> np.ndarray:
        """One spectral-conv application entirely in the spectrum: the
        k-panel CGEMM over the kept modes (the flattened corner in 2-D),
        no transforms.

        ``sk`` is a ``(batch, C_in, *modes)`` truncated spectrum; returns
        the ``(batch, C_out, *modes)`` spectrum of the convolved signal —
        exactly the quantity the fused pass accumulates before its
        inverse transform.
        """
        sk = np.asarray(sk)
        _check_spectrum(sk, self._modes, self.weight.shape[0])
        return self._step(sk, complex_dtype_for(sk.dtype))

    def inverse_spectrum(self, sk: np.ndarray, spatial) -> np.ndarray:
        """Spatial-domain signal of a ``(batch, C, *modes)`` spectral
        state on the grid ``spatial``: the pruned zero-padded inverse
        (complex output, like the fused pass), or — symmetric — the C2R
        half-spectrum inverse (real output)."""
        return self._synthesise(np.asarray(sk),
                                _check_spatial(spatial, self.ndim))[0]

    def reanalyze_spectrum(self, sk: np.ndarray, spatial=None) -> np.ndarray:
        """The output spectrum as the *next* step's forward analysis
        would see it — the exact linear map the skipped inverse/forward
        transform pair applies between rollout steps.  Identity for the
        paper's C2C convention (complex output, nothing discarded); the
        symmetric convention projects the DC bin real in 1-D, and in 2-D
        Hermitian-symmetrises the y-DC column, which depends on the
        padded X length and so needs ``spatial``."""
        if spatial is not None:
            spatial = _check_spatial(spatial, self.ndim)
        sk = np.asarray(sk)
        _check_spectrum(sk, self._modes)
        if not self.symmetric or self.ndim == 1:
            return self._project(sk, 0)
        if spatial is None:
            raise ValueError(
                "symmetric reanalysis needs the spatial shape (dim_x, dim_y)"
            )
        self._check_outer(spatial)
        return self._project(sk, spatial[0])

    def __call__(self, x: np.ndarray,
                 xk_trunc: np.ndarray | None = None) -> np.ndarray:
        """Run the convolution.  ``xk_trunc`` (symmetric mode only) is an
        optional precomputed truncated spectrum ``(batch, C_in, *modes)``
        — callers that already hold it (the training layers cache it for
        backward) skip the forward transforms."""
        x = np.asarray(x)
        spatial = self._check_input(x)
        if xk_trunc is not None and not self.symmetric:
            raise ValueError("xk_trunc applies to symmetric executors only")
        dtype = complex_dtype_for(x.dtype)
        if self.symmetric:
            sk = self._symmetric_spectrum(x, xk_trunc, dtype)
            return self._synthesise(self._step(sk, dtype), spatial)[0]
        if self.ndim == 1:
            return self._stage_for(dtype, spatial[0]).run_fused(x)
        batch, c_in, dim_x, dim_y = x.shape
        modes_x, c_out = self._modes[0], self.weight.shape[1]
        plans = self._plan_caches()
        # Width FFT with built-in truncation.
        xk_x = truncated_fft(
            x.astype(dtype, copy=False), modes_x, axis=2, caches=plans
        )
        # The 1-D fused stage along Y over (batch, kept-x-row) pencils.
        pencils = xk_x.transpose(0, 2, 1, 3).reshape(
            batch * modes_x, c_in, dim_y
        )
        out_pencils = self._stage_for(dtype, dim_y).run_fused(pencils)
        yk_x = out_pencils.reshape(
            batch, modes_x, c_out, dim_y
        ).transpose(0, 2, 1, 3)
        # Width iFFT with built-in zero padding.
        return truncated_ifft(yk_x, dim_x, axis=2, caches=plans)

    # -- a group of requests or rollout streams (Session serving) -------

    def _serve(self, xs: list, steps: int, profile: str,
               keep: str) -> list:
        """Serve the group ``xs`` (states of one dtype and geometry) for
        :class:`repro.api.Session`: ``steps`` applications of the
        operator per state, each output the next step's input.  Returns
        each state's last output, or its ``(steps, *shape)`` trajectory
        for ``keep="all"``, each in its own buffer (disjoint rows of one
        buffer where one pass writes the whole group).

        ``profile="exact"`` gives the bytes of the eager loop ``for _ in
        range(steps): x = self(x)`` per state.  A C2C 1-D step is one
        fused pass over the states where they lie (on the C backend one
        driver call, :meth:`_StagedFused1D.run_rows`); a C2C 2-D step is
        ``self`` over the stacked group.  A symmetric step is
        :meth:`_analyse` -> :meth:`_step` -> :meth:`_synthesise`, whose
        output the next step re-analyses; where the plane drivers cover
        the grid and the weight is square, that is one
        ``sym2d_analyse`` call, then per step one ``spectral_steps``
        call and one ``sym2d_synthesise`` call that writes only the
        kept outputs and re-analyses each plane it synthesises into the
        next state, so no intermediate state is ever written whole.

        ``profile="fast"`` analyses the group once, runs every step in
        :meth:`rollout_spectrum` and synthesises each state's kept
        outputs from its own rows of the kept spectra."""
        spatial, dtype = self._check_rows(xs, "a served group")
        sizes = [len(x) for x in xs]
        if profile == "fast":
            spectra = self.rollout_spectrum(self._analyse(xs, dtype), steps,
                                            spatial, keep)
            return self._synthesise(spectra, spatial, sizes, keep)
        c, c_out = self.weight.shape
        if steps > 1 and c != c_out:
            raise ValueError(
                f"rollout requires a shape-preserving model: a ({c}, "
                f"{c_out}) weight cannot feed its output to a further step"
            )
        drivers = self._planes(dtype, spatial, c) if c == c_out else None
        if drivers is not None:
            planes, kernels = drivers
            lead = (steps,) if keep == "all" else ()
            outs = [np.empty(lead + (n, c) + spatial, planes.real)
                    for n in sizes]
            ws = planes.workspace(kernels)
            sk = planes.analyse(kernels, xs, ws)
            y, nxt, work = (np.empty_like(sk), np.empty_like(sk),
                            np.empty_like(sk))
            weight, (mx, my) = self._weight_for(dtype), self._modes
            for step in range(steps):
                kernels.spectral_steps(sk, weight, work, y, len(sk), c, mx,
                                       my, self.k_tb, 1, spatial[0], "none",
                                       "last")
                last = step + 1 == steps
                table = ([out[step] for out in outs] if keep == "all"
                         else outs if last else None)
                planes.synthesise(kernels, y, table, None if last else nxt,
                                  ws)
                sk, nxt = nxt, sk
            return outs
        if self.symmetric:
            def apply(group):
                sk = self._step(self._analyse(group, dtype), dtype)
                return self._synthesise(sk, spatial, sizes)
        elif self.ndim == 1:
            apply = self._stage_for(dtype, spatial[0]).run_rows
        else:
            def apply(group):
                return _split(self(_stacked(group)), sizes)
        frames = []
        for _ in range(steps):
            xs = apply(xs)
            if keep == "all":
                frames.append(xs)
        return xs if keep == "last" else [np.stack(f) for f in zip(*frames)]


class CompiledSpectralConv1D(_SpectralExecutor):
    """Reusable executor for the fused 1-D spectral convolution.

    Build once per weight matrix; call with any ``(batch, C_in, X)``
    input.  Staging (weight casts, FFT plans, workspaces) is cached per
    (working dtype, X); outputs are byte-identical to
    :func:`repro.core.legacy.fused_fft_gemm_ifft_1d`.  Every method is
    :class:`_SpectralExecutor`'s, shared with
    :class:`CompiledSpectralConv2D`; this class adds only its
    constructor.

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

    # perfbench/tracer.py wraps the methods in each class's own
    # ``__dict__``, so each class names the shared entry points.
    __call__ = _SpectralExecutor.__call__
    forward_spectrum = _SpectralExecutor.forward_spectrum
    step_spectrum = _SpectralExecutor.step_spectrum
    inverse_spectrum = _SpectralExecutor.inverse_spectrum
    reanalyze_spectrum = _SpectralExecutor.reanalyze_spectrum


class CompiledSpectralConv2D(_SpectralExecutor):
    """Reusable executor for the fused 2-D spectral convolution: the 1-D
    executor's computation along Y plus the pruned pass along X, on the
    same shared implementation (:class:`_SpectralExecutor`).

    The width FFT and width inverse run through the cached pruned plans;
    the fused height pass is the 1-D fused stage over the
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

    # Named here for the tracer, as on CompiledSpectralConv1D.
    __call__ = _SpectralExecutor.__call__
    forward_spectrum = _SpectralExecutor.forward_spectrum
    step_spectrum = _SpectralExecutor.step_spectrum
    inverse_spectrum = _SpectralExecutor.inverse_spectrum
    reanalyze_spectrum = _SpectralExecutor.reanalyze_spectrum


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
