"""Compiled FFT plan executors: the package's analogue of cuFFT plans.

cuFFT amortises setup by splitting work into *plan creation* (twiddle
tables, workspace sizing, kernel selection — paid once) and *execution*
(paid per call).  The legacy functional path here paid everything per
call: every ``fft()`` re-cast its twiddle tables to the working dtype,
allocated a fresh ping-pong buffer per Stockham stage, and every pruned
transform re-cast its decomposition tables.  This module introduces the
same plan/execute split for the NumPy substrate:

:class:`CompiledFFTPlan`
    Keyed on ``(length, dtype, direction)``.  Owns the pre-cast,
    concatenated stage-twiddle table and reusable ping-pong workspaces,
    and executes the whole Stockham stage loop in one call — through the
    C executor kernels (:mod:`repro.fft._ckernels`) when a host compiler
    is available, through a buffered NumPy loop otherwise.

:class:`CompiledPrunedPlan`
    Keyed on ``(length, split, dtype, kind)`` for the three transform-
    decomposition variants (output truncation, input zero-padding, and
    the padded inverse).  Owns the pre-cast decomposition twiddles, the
    gather/expand workspaces, and the sub-transform's
    :class:`CompiledFFTPlan`.

:class:`CompiledRFFTPlan` / :class:`CompiledIRFFTPlan`
    Keyed on ``(length, dtype, direction)`` for real-input (R2C) and
    real-output (C2R) transforms.  Both use the packed-real trick: a
    real length-``n`` signal is viewed as a length-``n/2`` complex
    array, one *half-length* Stockham transform runs through the cached
    :class:`CompiledFFTPlan` machinery (same twiddle tables, ping-pong
    workspaces and optional C kernels), and a single Hermitian
    recombination stage produces the ``n/2 + 1`` non-redundant bins —
    half the butterfly work of the full C2C transform the legacy path
    computed, with no full Hermitian spectrum ever materialised.

:class:`CompiledPrunedRFFTPlan` / :class:`CompiledPrunedIRFFTPlan`
    Keyed on ``(length, part, dtype, direction)``: the compounding of
    the two families above.  Spectrum truncation (``part`` kept bins of
    the ``n/2 + 1``) is fused *into* the half-length packed-real
    decomposition, so the forward path runs sub-transforms of length
    ``q = next_pow2(part)`` and recombines only the kept bins, and the
    C2R adjoint synthesises a real signal from the truncated half
    spectrum without ever materialising the full Hermitian half.
    On the C backend the decomposition runs as one row-streaming
    driver call per execution.  ``part == n//2 + 1`` degenerates to the
    plain packed-real plans (bit-exact alias); ``part > n//4`` falls
    back to transform-then-slice (bit-exact vs
    :class:`CompiledRFFTPlan` plus a slice), since
    the decomposition only saves work once a whole sub-transform stage
    can be dropped.

Plans live in :class:`PlanCaches` — an *instantiable* set of the four
caches bound to one executor backend (``"auto"`` picks the C kernels
when available, ``"numpy"`` forces the fallback, ``"ckernels"``
requires the C layer).  A process-wide default set backs the
module-level getters (:func:`get_fft_plan`, :func:`get_pruned_plan`,
:func:`get_rfft_plan`, :func:`get_irfft_plan`): two requests with the
same key return the *same plan object*, so workspaces and tables are
shared exactly like cuFFT plan handles.  The functional API
(:mod:`repro.fft.stockham`, :mod:`repro.fft.pruned`,
:mod:`repro.fft.real`) is a thin wrapper over these caches, and an
execution context (:class:`repro.api.Session`) can install its own set
for the current thread with :func:`plan_cache_scope` — distinct cache
sets never share plans or workspaces.

Everything produced by a compiled plan is **byte-identical** to the
legacy per-call path (:mod:`repro.fft.legacy`): the C kernels replay
NumPy's exact floating-point recurrences (see ``_kernels.c``) and are
self-checked against NumPy at load time.  Property tests enforce the
bit-equality across dtypes, axes, layouts and truncation splits.

Plans serialise their execution with an internal lock (the C kernels
release the GIL), so sharing the global caches across threads is safe,
if not parallel.
"""

from __future__ import annotations

import math
import operator
import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.core.dtypes import complex_dtype_for
from repro.fft._ckernels import build_info, get_kernels, kernels_available
from repro.fft.twiddle import decomposition_twiddles, stage_twiddles

__all__ = [
    "BACKENDS",
    "CompiledFFTPlan",
    "CompiledPrunedPlan",
    "CompiledRFFTPlan",
    "CompiledIRFFTPlan",
    "CompiledPrunedRFFTPlan",
    "CompiledPrunedIRFFTPlan",
    "PrunedPartMismatchError",
    "PlanCaches",
    "current_plan_caches",
    "default_plan_caches",
    "plan_cache_scope",
    "get_fft_plan",
    "get_pruned_plan",
    "get_rfft_plan",
    "get_irfft_plan",
    "get_pruned_rfft_plan",
    "get_pruned_irfft_plan",
    "fft_plan_cache_info",
    "clear_fft_plan_cache",
    "kernels_available",
    "resolve_backend_kernels",
    "panel_contract",
    "decomp_reduce",
    "expand_mul",
    "transpose",
    "decomp_mirror",
    "expand_head_tail",
    "workspace_empty",
    "workspace_zeros",
]

#: Executor-backend spellings accepted everywhere a ``backend`` is taken.
BACKENDS = ("auto", "ckernels", "numpy")

#: Cached plans per (n, dtype, direction) / (n, part, dtype, kind).  A
#: full figure sweep touches a handful of lengths; 256 is generous.
FFT_PLAN_CACHE_SIZE = 256

#: Largest per-buffer workspace (bytes) a cached plan will *retain*.
#: Plans live in process-wide caches, so their workspaces outlive calls;
#: batches needing more than this get a fresh temporary instead, keeping
#: resident memory bounded no matter how large one call was.
WORKSPACE_RETAIN_BYTES = 64 * 1024 * 1024

#: Elements per block of the NumPy Stockham stage loop: the rows of a
#: block (128 KiB in complex64) stay in cache through every stage, where
#: a whole large batch would stream each stage through memory.
_NUMPY_BLOCK_ELEMS = 1 << 14


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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


# ---------------------------------------------------------------------------
# Kernel helpers with bit-exact NumPy fallbacks
# ---------------------------------------------------------------------------

def resolve_backend_kernels(backend: str):
    """Validate a backend spelling; return its pinned kernels (or None).

    ``"numpy"`` pins the pure-NumPy substrate (returns ``None``) and
    ``"ckernels"`` requires the C layer (returns it, or raises
    :class:`RuntimeError` when it cannot be loaded).  ``"auto"`` returns
    ``None`` *without* touching the kernel loader — auto resolution
    happens lazily at execution time (:meth:`PlanCaches.kernels`), so
    validating an auto backend (e.g. at ``import repro``) never invokes
    the C compiler.  Both substrates produce identical bits; the
    spelling only pins *which* one runs.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend in ("numpy", "auto"):
        return None
    kernels = get_kernels()
    if kernels is None:
        raise RuntimeError(
            f"backend='ckernels' requested but the C executor kernels are "
            f"unavailable ({build_info()})"
        )
    return kernels


#: Sentinel: helpers resolve kernels from the current plan-cache scope.
_SCOPED = object()


def panel_contract(
    a: np.ndarray, w: np.ndarray, acc: np.ndarray, kernels=_SCOPED
) -> None:
    """``acc += einsum("bkm,ko->bom", a, w)`` (contiguous operands)."""
    k = current_plan_caches().kernels() if kernels is _SCOPED else kernels
    bt, kt, m = a.shape
    o = w.shape[1]
    if k is not None:
        k.panel_contract(a, w, acc, bt, kt, m, o)
    else:
        acc += np.einsum("bkm,ko->bom", a, w)


def decomp_reduce(
    y: np.ndarray, wd: np.ndarray, out: np.ndarray, kernels=_SCOPED
) -> None:
    """``out[...] = einsum("bpk,pk->bk", y, wd)`` (contiguous operands)."""
    k = current_plan_caches().kernels() if kernels is _SCOPED else kernels
    batch, p, q = y.shape
    if k is not None:
        k.decomp_reduce(y, wd, out, batch, p, q)
    else:
        np.einsum("bpk,pk->bk", y, wd, out=out)


def expand_mul(
    x: np.ndarray, wd: np.ndarray, out: np.ndarray, kernels=_SCOPED
) -> None:
    """``out[...] = x[:, None, :] * wd`` (contiguous operands)."""
    k = current_plan_caches().kernels() if kernels is _SCOPED else kernels
    batch, q = x.shape
    s = wd.shape[0]
    if k is not None:
        k.expand_mul(x, wd, out, batch, s, q)
    else:
        np.multiply(x[:, None, :], wd, out=out)


# The pruned R2C/C2R plans' staging, in NumPy: the NumPy backend runs
# these, and they are the references the C staging kernels (and through
# them the row drivers) must match bit for bit.

def transpose(src: np.ndarray, dst: np.ndarray) -> None:
    """``dst[...] = np.swapaxes(src, -1, -2)`` for contiguous
    ``(batch, r, c)`` / ``(batch, c, r)`` operands."""
    dst[...] = np.swapaxes(src, -1, -2)


def decomp_mirror(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, out: np.ndarray,
) -> None:
    """``out[...] = (einsum("bpk,pk->bk", y, u) + einsum("bpk,pk->bk",
    conj(y[:, :, (q-k) % q]), v))[:, :m]`` (contiguous operands; ``out``
    is ``(batch, m)`` with ``m <= q``)."""
    batch, _, q = y.shape
    m = out.shape[1]
    yr = np.conjugate(np.take(y, (q - np.arange(q)) % q, axis=2))
    acc = np.empty((batch, q), y.dtype)
    decomp_reduce(y, u, acc, kernels=None)
    acc2 = np.empty((batch, q), y.dtype)
    decomp_reduce(yr, v, acc2, kernels=None)
    acc += acc2
    out[...] = acc[:, :m]


def expand_head_tail(
    x: np.ndarray, ch: np.ndarray, ct: np.ndarray, wdh: np.ndarray,
    wdt: np.ndarray, out: np.ndarray,
) -> None:
    """``out[...] = hb[:, None, :] * wdh + tb[:, None, :] * wdt`` for the
    head row ``hb[:, t] = x[:, t] * ch[t]`` (``t < m``, DC as
    ``x[:, 0].real * ch[0]``) and the tail row ``tb[:, q-r] =
    conj(x[:, r]) * ct[r-1]`` (``0 < r < m``), both zero elsewhere
    (contiguous operands; ``x`` is ``(batch, m)``, ``out`` is
    ``(batch, s, q)``)."""
    batch, m = x.shape
    q = wdh.shape[1]
    hb = np.zeros((batch, q), x.dtype)
    np.multiply(x, ch, out=hb[:, :m])
    hb[:, 0] = x[:, 0].real * ch[0]
    tb = np.zeros((batch, q), x.dtype)
    if m > 1:
        tb[:, q - np.arange(1, m)] = np.conj(x[:, 1:m]) * ct
    tail = np.empty_like(out)
    expand_mul(hb, wdh, out, kernels=None)
    expand_mul(tb, wdt, tail, kernels=None)
    out += tail


# ---------------------------------------------------------------------------
# FFT plans
# ---------------------------------------------------------------------------

class _WorkspaceOwner:
    """Named, grow-only per-plan workspaces of the plan's dtype.

    Buffers are retained across calls only below
    :data:`WORKSPACE_RETAIN_BYTES` (plans live in process-wide caches,
    so retained workspaces outlive calls); larger requests get one-shot
    temporaries.  Subclasses call :meth:`_init_workspaces` after setting
    ``self.dtype``.
    """

    def _init_workspaces(self) -> None:
        self._lock = threading.Lock()
        self._buffers: dict[str, np.ndarray] = {}

    def _ws(self, name: str, size: int) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = np.empty(size, self.dtype)
            if size * self.dtype.itemsize <= WORKSPACE_RETAIN_BYTES:
                self._buffers[name] = buf  # else: one-shot temporary
        return buf


class CompiledFFTPlan:
    """One direction of one transform length in one precision.

    Execution operates on a C-contiguous ``(rows, n)`` array of the
    plan's dtype and returns a new (or caller-provided) array of the
    same shape.  ``div_by``/``mul_by`` chain the inverse normalisation
    and the pruned-inverse rescale into the final stage — the same two
    roundings the legacy path applied in separate passes.
    """

    def __init__(self, n: int, dtype: np.dtype, inverse: bool,
                 backend: str = "auto"):
        if not _is_power_of_two(n):
            raise ValueError(f"n must be a power of two, got {n}")
        resolve_backend_kernels(backend)  # validate (and require ckernels)
        self.n = n
        self.dtype = np.dtype(dtype)
        self.inverse = inverse
        self.backend = backend
        # Per-stage tables (NumPy path) and their concatenation (C path),
        # pre-cast once at plan time.
        self._stage_tw: list[np.ndarray] = []
        span = 2
        while span <= n:
            w = stage_twiddles(span, inverse=inverse).astype(self.dtype)
            w.setflags(write=False)
            self._stage_tw.append(w)
            span *= 2
        if self._stage_tw:
            self._tw_concat = np.ascontiguousarray(
                np.concatenate(self._stage_tw)
            )
        else:  # n == 1
            self._tw_concat = np.zeros(0, self.dtype)
        self._lock = threading.Lock()
        self._scratch = np.zeros(0, self.dtype)

    @property
    def twiddles(self) -> np.ndarray:
        """The concatenated per-stage half tables the Stockham kernel
        reads."""
        return self._tw_concat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = "ifft" if self.inverse else "fft"
        return f"CompiledFFTPlan({d}, n={self.n}, {self.dtype.name})"

    def _scratch_for(self, size: int) -> np.ndarray:
        if self._scratch.size < size:
            if size * self.dtype.itemsize > WORKSPACE_RETAIN_BYTES:
                return np.empty(size, self.dtype)  # too big to keep
            self._scratch = np.empty(size, self.dtype)
        return self._scratch

    def execute(
        self,
        flat: np.ndarray,
        out: np.ndarray | None = None,
        div_by: float | None = None,
        mul_by: float | None = None,
    ) -> np.ndarray:
        """Transform every row of a contiguous ``(rows, n)`` array."""
        rows, n = flat.shape
        if out is None:
            out = np.empty((rows, n), self.dtype)
        with self._lock:
            kernels = None if self.backend == "numpy" else get_kernels()
            if kernels is not None:
                scratch = self._scratch_for(rows * n)
                kernels.stockham(
                    flat, out, scratch, self._tw_concat, rows, n,
                    div_by, mul_by,
                )
            else:
                self._execute_numpy(flat, out, div_by, mul_by)
        return out

    def _execute_numpy(self, flat, out, div_by, mul_by) -> None:
        """Buffered NumPy stage loop (bit-identical to the legacy path,
        minus the per-call twiddle casts and buffer churn), over blocks
        of rows small enough that every stage's operands stay in cache;
        rows are independent, so blocking never changes a bit."""
        step = max(1, _NUMPY_BLOCK_ELEMS // flat.shape[1])
        for r0 in range(0, flat.shape[0], step):
            self._execute_block(flat[r0: r0 + step], out[r0: r0 + step],
                                div_by, mul_by)

    def _execute_block(self, flat, out, div_by, mul_by) -> None:
        rows, n = flat.shape
        if n == 1:
            np.copyto(out, flat)
        else:
            cur = flat
            for s, w in enumerate(self._stage_tw):
                span = 2 << s
                half = span // 2
                r = n // span
                a = cur[:, : n // 2].reshape(rows, r, half)
                b = cur[:, n // 2 :].reshape(rows, r, half)
                wb = w * b
                nxt = out if s == len(self._stage_tw) - 1 else np.empty(
                    (rows, n), self.dtype
                )
                nv = nxt.reshape(rows, r, span)
                np.add(a, wb, out=nv[:, :, :half])
                np.subtract(a, wb, out=nv[:, :, half:])
                cur = nxt
        if div_by is not None:
            out /= div_by
        if mul_by is not None:
            out *= mul_by


# ---------------------------------------------------------------------------
# Pruned-transform plans
# ---------------------------------------------------------------------------

class CompiledPrunedPlan(_WorkspaceOwner):
    """One transform-decomposition split in one precision.

    ``kind`` selects the dataflow: ``"trunc"`` (first ``part`` outputs),
    ``"pad"`` (``part`` live inputs, zero-padded to ``n``) or
    ``"itrunc"`` (``part`` spectrum bins in, length-``n`` signal out).
    ``part == n`` degenerates to the plain transform.

    ``caches`` names the owning :class:`PlanCaches`: the sub-transform's
    plan is resolved from the same set (so a private cache set never
    leaks plans into — or out of — the process-wide default), and the
    helper kernels follow that set's backend.  ``fft`` is that
    length-``part`` sub-plan and ``wd`` the pre-cast ``(split, part)``
    decomposition twiddles (``None`` when ``part == n``): the tables the
    fused C2C driver reads too.
    """

    def __init__(self, n: int, part: int, dtype: np.dtype, kind: str,
                 caches: "PlanCaches"):
        if kind not in ("trunc", "pad", "itrunc"):
            raise ValueError(f"unknown pruned-plan kind {kind!r}")
        if not (_is_power_of_two(n) and _is_power_of_two(part)
                and part <= n):
            raise ValueError(
                f"a pruned plan needs powers of two part <= n, got "
                f"n={n}, part={part}"
            )
        self.n = n
        self.part = part
        self.dtype = np.dtype(dtype)
        self.kind = kind
        self.split = n // part  # P (trunc) or S (pad/itrunc)
        self._caches = caches
        inverse = kind == "itrunc"
        self.fft = caches.fft(part, dtype, inverse)
        if part < n:
            wd = decomposition_twiddles(n, self.split, part, inverse=inverse)
            self.wd = np.ascontiguousarray(wd.astype(self.dtype))
            self.wd.setflags(write=False)
        else:
            self.wd = None
        self._init_workspaces()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPrunedPlan({self.kind}, n={self.n}, part={self.part}, "
            f"{self.dtype.name})"
        )

    def _kernels(self):
        return self._caches.kernels()

    # -- axis-last entry point (callers have already done moveaxis) ----

    def apply(self, moved) -> np.ndarray:
        """Run the pruned transform over the last axis of ``moved``: one
        array, or a list of arrays stacked along their first axis.

        Each array is gathered (and cast) from where it lies into the
        plan's workspace, so a list is never concatenated; the
        workspaces are filled and read under the plan's lock."""
        if isinstance(moved, list):
            parts = moved
            lead = (sum(len(a) for a in parts), *parts[0].shape[1:-1])
        else:
            parts, lead = [moved], moved.shape[:-1]
        batch = math.prod(lead)
        n, part, split = self.n, self.part, self.split
        inverse = self.kind == "itrunc"
        if self.kind == "trunc" and split > 1:
            with self._lock:
                # The P subsequences: buf[b, p, k] = moved[b, k*P + p].
                buf = _gather(parts, self._ws("gather", batch * n), split)
                fbuf = self._ws("fft", batch * n)[: batch * n]
                self.fft.execute(buf.reshape(batch * split, part),
                                 out=fbuf.reshape(batch * split, part))
                out = np.empty((batch, part), self.dtype)
                decomp_reduce(fbuf.reshape(batch, split, part), self.wd, out,
                              kernels=self._kernels())
            return out.reshape(*lead, part)
        with self._lock:
            flat = _gather(parts, self._ws("gather", batch * part)).reshape(
                batch, part)
            if split == 1:  # part == n: the plain transform
                out = self.fft.execute(flat,
                                       div_by=float(n) if inverse else None)
                return out.reshape(*lead, n)
            sc = self._ws("scaled", batch * n)[: batch * n]
            expand_mul(flat, self.wd, sc.reshape(batch, split, part),
                       kernels=self._kernels())
            y = self.fft.execute(
                sc.reshape(batch * split, part),
                div_by=float(part) if inverse else None,
                mul_by=float(part / n) if inverse else None,
            )
        out = np.empty((*lead, n), self.dtype)
        # Interleave: out[..., s + S*t] = y[..., s, t].
        out.reshape(*lead, part, split)[...] = np.swapaxes(
            y.reshape(*lead, split, part), -1, -2
        )
        return out


def _gather(parts: list, buf: np.ndarray, split: int = 1) -> np.ndarray:
    """Copy (and cast) the arrays ``parts`` into consecutive elements of
    ``buf``; return the filled prefix.  ``split > 1`` gathers each last
    axis as ``split`` subsequences: ``[..., s, k] = [..., k*split + s]``."""
    off = 0
    for a in parts:
        *lead, width = a.shape
        dst = buf[off: off + a.size]
        if split == 1:
            dst.reshape(a.shape)[...] = a
        else:
            dst.reshape(*lead, split, width // split)[...] = np.swapaxes(
                a.reshape(*lead, width // split, split), -1, -2)
        off += a.size
    return buf[:off]


# ---------------------------------------------------------------------------
# Real-input / real-output plans (the packed-real trick)
# ---------------------------------------------------------------------------

def _real_dtype_of(cdtype: np.dtype) -> np.dtype:
    return np.dtype(np.float32 if np.dtype(cdtype) == np.complex64
                    else np.float64)


class CompiledRFFTPlan(_WorkspaceOwner):
    """R2C transform of one length in one precision.

    A real length-``n`` row is *viewed* as ``n/2`` complex samples
    ``z[m] = x[2m] + i x[2m+1]`` (a free reinterpretation of the
    contiguous buffer), one half-length forward transform runs through
    the cached :class:`CompiledFFTPlan`, and the Hermitian recombination

    ``X[k] = (Z[k] + conj(Z[h-k]))/2 - (i/2) W_n^k (Z[k] - conj(Z[h-k]))``

    (indices mod ``h = n/2``) yields the ``h + 1`` non-redundant bins.
    The recombination runs in NumPy under both executor backends, so
    outputs are bit-identical across the C-kernel and fallback paths
    (the sub-transform already is).
    """

    def __init__(self, n: int, dtype: np.dtype,
                 caches: "PlanCaches"):
        if not _is_power_of_two(n):
            raise ValueError(f"n must be a power of two, got {n}")
        self.n = n
        self.dtype = np.dtype(dtype)
        self.real_dtype = _real_dtype_of(self.dtype)
        self.half = n // 2
        if n > 1:
            self._sub = caches.fft(self.half, self.dtype, inverse=False)
            k = np.arange(self.half + 1)
            # W_n^k pre-folded with the -i/2 of the odd-part term.
            wm = (-0.5j * np.exp(-2j * np.pi * k / n)).astype(self.dtype)
            wm.setflags(write=False)
            self._wm = wm
            self._idx = k % self.half            # Z[k mod h]
            self._ridx = (self.half - k) % self.half  # Z[(h-k) mod h]
        self._init_workspaces()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledRFFTPlan(n={self.n}, {self.real_dtype.name})"

    def execute(self, flat: np.ndarray) -> np.ndarray:
        """Half spectrum of every row of a contiguous real ``(rows, n)``
        array; returns a new ``(rows, n//2 + 1)`` complex array."""
        rows, n = flat.shape
        if n != self.n:
            raise ValueError(f"expected rows of length {self.n}, got {n}")
        if flat.dtype != self.real_dtype or not flat.flags.c_contiguous:
            raise ValueError(
                f"expected contiguous {self.real_dtype.name} rows, "
                f"got {flat.dtype.name}"
            )
        if n == 1:
            return flat.astype(self.dtype)
        h = self.half
        with self._lock:
            z = flat.view(self.dtype)  # free (rows, h) packing
            zf = self._ws("fft", rows * h)[: rows * h].reshape(rows, h)
            self._sub.execute(z, out=zf)
            a = np.take(zf, self._idx, axis=1)
            b = np.conj(np.take(zf, self._ridx, axis=1))
            out = np.empty((rows, h + 1), self.dtype)
            np.add(a, b, out=out)
            out *= 0.5
            np.subtract(a, b, out=a)
            a *= self._wm
            out += a
        return out


class CompiledIRFFTPlan(_WorkspaceOwner):
    """C2R transform of one length in one precision.

    The adjoint of :class:`CompiledRFFTPlan`'s recombination rebuilds
    the packed half-length spectrum ``Z`` from the ``h + 1`` input bins,
    one half-length *inverse* transform (with its ``1/h`` normalisation
    chained into the final stage) recovers ``z``, and the real/imag
    parts interleave straight into the even/odd output samples — the
    full Hermitian spectrum the legacy ``hermitian_pad`` path built is
    never materialised.  The imaginary parts of the DC and Nyquist bins
    are discarded, matching ``numpy.fft.irfft`` and the legacy
    take-the-real-part semantics.
    """

    def __init__(self, n: int, dtype: np.dtype,
                 caches: "PlanCaches"):
        if not _is_power_of_two(n):
            raise ValueError(f"n must be a power of two, got {n}")
        self.n = n
        self.dtype = np.dtype(dtype)
        self.real_dtype = _real_dtype_of(self.dtype)
        self.half = n // 2
        if n > 1:
            self._sub = caches.fft(self.half, self.dtype, inverse=True)
            k = np.arange(self.half)
            # conj(W_n^k) pre-folded with the +i/2 of the odd-part term.
            wj = (0.5j * np.exp(+2j * np.pi * k / n)).astype(self.dtype)
            wj.setflags(write=False)
            self._wj = wj
        self._init_workspaces()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledIRFFTPlan(n={self.n}, {self.real_dtype.name})"

    def execute(self, flat: np.ndarray) -> np.ndarray:
        """Real signal of every row of a contiguous ``(rows, n//2 + 1)``
        complex array; returns a new real ``(rows, n)`` array."""
        rows, bins = flat.shape
        if bins != self.half + 1:
            raise ValueError(
                f"expected {self.half + 1} half-spectrum bins, got {bins}"
            )
        if flat.dtype != self.dtype:
            raise ValueError(
                f"expected {self.dtype.name} bins, got {flat.dtype.name}"
            )
        if self.n == 1:
            return np.ascontiguousarray(flat.real.astype(self.real_dtype))
        h = self.half
        with self._lock:
            a = np.array(flat[:, :h])
            a[:, 0] = flat[:, 0].real  # drop Im(DC)
            b = np.conj(flat[:, h:0:-1])
            b[:, 0] = flat[:, h].real  # drop Im(Nyquist)
            zk = a + b
            zk *= 0.5
            d = a - b
            d *= self._wj
            zk += d
            zbuf = self._ws("fft", rows * h)[: rows * h].reshape(rows, h)
            self._sub.execute(zk, out=zbuf, div_by=float(h))
            out = np.empty((rows, self.n), self.real_dtype)
            out.view(self.dtype)[...] = zbuf  # unpack: even=Re, odd=Im
        return out


# ---------------------------------------------------------------------------
# Pruned real-transform plans (truncation fused into the packed-real trick)
# ---------------------------------------------------------------------------

class PrunedPartMismatchError(ValueError):
    """A truncated half spectrum's bin count disagrees with the plan's
    ``part``.

    Raised by the pruned-R2C/C2R plans when an executed array does not
    carry exactly ``part`` bins, and by the symmetric spectral-conv
    executors when a caller-supplied truncation width disagrees with
    the plan they staged — the typed replacement for what was
    previously an unchecked slice-after-transform assumption.
    """


def _next_pow2(m: int) -> int:
    return 1 << (max(int(m), 1) - 1).bit_length()


def _validate_rfft_part(n: int, part: int) -> int:
    if not _is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    bins = n // 2 + 1
    if not 1 <= part <= bins:
        raise ValueError(
            f"part must be in [1, {bins}] (the non-redundant half-"
            f"spectrum bins of n={n}), got {part}"
        )
    return bins


class CompiledPrunedRFFTPlan(_WorkspaceOwner):
    """R2C transform keeping only the first ``part`` half-spectrum bins.

    The packed-real trick needs *two* spectra of the length-``h = n/2``
    packing ``z[m] = x[2m] + i x[2m+1]``: ``Z[k]`` and the reversed
    conjugate ``conj(Z[(h-k) mod h])``.  Both come from one shared set
    of Sorensen sub-transforms — with ``q = next_pow2(part)`` and
    ``P = h/q``, the length-``q`` spectra ``Y[p] = FFT_q(z[p::P])``
    give ``Z[k] = sum_p W_h^{pk} Y[p, k]`` and (because
    ``conj(Z[(h-k) mod h]) = FFT_h(conj z)[k]``) the mirror series
    ``sum_p W_h^{pk} conj(Y[p, (q-k) mod q])``.  Folding the Hermitian
    recombination weights into the decomposition twiddles turns the
    whole forward path into one gather (:func:`transpose`), one
    half-length-``q`` Stockham batch, and one mirrored contraction pair
    (:func:`decomp_mirror`):

    ``X[k] = sum_p U[p,k] Y[p,k] + sum_p V[p,k] conj(Y[p,(q-k)%q])``

    with ``U = W_h^{pk} (1/2 + w_m[k])``, ``V = W_h^{pk} (1/2 - w_m[k])``
    and ``w_m[k] = -(i/2) W_n^k`` — only the kept bins are ever
    recombined, and the sub-transforms stop ``log2(h/q)`` stages early.

    On the C backend the whole ``decomp`` strategy is one call to the
    row driver ``pruned_rfft_rows``: each row streams through the
    gather, the Stockham batch over its P sub-rows and the mirrored
    recombination in workspaces of ``h`` elements each, so its working
    set stays in L1 and no ``rows * h`` intermediate is retained.  The
    NumPy backend runs the same three stages over the whole batch, and
    the driver must match that staged sequence bit for bit.

    ``part == n//2 + 1`` delegates to the plain
    :class:`CompiledRFFTPlan` (bit-exact alias); ``q > h/2`` (no whole
    stage to drop) falls back to transform-then-slice, bit-exact versus
    the full plan plus a slice.  Outputs are bit-identical across
    executor backends and repeat executions; versus the full transform
    the decomposition reassociates, so equality with ``rfft`` + slice
    is to working precision (like every pruned family).
    """

    def __init__(self, n: int, part: int, dtype: np.dtype,
                 caches: "PlanCaches"):
        bins = _validate_rfft_part(n, part)
        self.n = n
        self.part = part
        self.dtype = np.dtype(dtype)
        self.real_dtype = _real_dtype_of(self.dtype)
        self.half = n // 2
        self._caches = caches
        h = self.half
        self._full = None
        self._sub = None
        if part == bins or n == 1:
            self._strategy = "full"
            self._full = caches.rfft(n, self.dtype)
        elif _next_pow2(part) > h // 2:
            self._strategy = "slice"
            self._full = caches.rfft(n, self.dtype)
        else:
            self._strategy = "decomp"
            q = _next_pow2(part)
            p = h // q
            self._q = q
            self._split = p
            self._sub = caches.fft(q, self.dtype, inverse=False)
            wd = decomposition_twiddles(h, p, q, inverse=False)
            k = np.arange(q)
            wm = -0.5j * np.exp(-2j * np.pi * k / n)
            u = np.ascontiguousarray((wd * (0.5 + wm)).astype(self.dtype))
            v = np.ascontiguousarray((wd * (0.5 - wm)).astype(self.dtype))
            u.setflags(write=False)
            v.setflags(write=False)
            self._u = u
            self._v = v
        self._init_workspaces()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPrunedRFFTPlan(n={self.n}, part={self.part}, "
            f"{self.real_dtype.name}, {self._strategy})"
        )

    def _kernels(self):
        return self._caches.kernels()

    def execute(self, flat: np.ndarray) -> np.ndarray:
        """First ``part`` half-spectrum bins of every row of a
        contiguous real ``(rows, n)`` array; returns a new
        ``(rows, part)`` complex array."""
        rows, n = flat.shape
        if n != self.n:
            raise ValueError(f"expected rows of length {self.n}, got {n}")
        if self._strategy == "full":
            return self._full.execute(flat)
        if self._strategy == "slice":
            full = self._full.execute(flat)
            return np.ascontiguousarray(full[:, : self.part])
        if flat.dtype != self.real_dtype or not flat.flags.c_contiguous:
            raise ValueError(
                f"expected contiguous {self.real_dtype.name} rows, "
                f"got {flat.dtype.name}"
            )
        h, q, p = self.half, self._q, self._split
        kernels = self._kernels()
        out = np.empty((rows, self.part), self.dtype)
        with self._lock:
            z = flat.view(self.dtype)  # free (rows, h) packing
            if kernels is not None:
                work = self._ws("row", 3 * h)
                kernels.pruned_rfft_rows(
                    z, self._u, self._v, self._sub.twiddles, work[:h],
                    work[h:2 * h], work[2 * h:3 * h], out, rows, self.n, q,
                    self.part,
                )
                return out
            # Gather the P subsequences: g[b, p, t] = z[b, t*P + p].
            g = self._ws("gather", rows * h)[: rows * h].reshape(rows, p, q)
            transpose(z.reshape(rows, q, p), g)
            y = self._ws("fft", rows * h)[: rows * h].reshape(rows * p, q)
            self._sub.execute(g.reshape(rows * p, q), out=y)
            decomp_mirror(y.reshape(rows, p, q), self._u, self._v, out)
        return out


class CompiledPrunedIRFFTPlan(_WorkspaceOwner):
    """C2R transform synthesising from ``part`` half-spectrum bins.

    The adjoint of :class:`CompiledPrunedRFFTPlan`: the packed spectrum
    ``Z`` rebuilt from a truncated half spectrum is supported on just
    two blocks — ``Z[j] = (1/2 + w_j[j]) X[j]`` for ``j < part`` (head)
    and ``Z[h-r] = (1/2 - w_j[h-r]) conj(X[r])`` for ``0 < r < part``
    (tail), with ``w_j[j] = (i/2) W_n^{-j}`` and Im(DC) dropped — so
    the input-pruned inverse decomposition scatters those ``2*part - 1``
    live bins into ``S = h/q`` weighted length-``q`` rows
    (:func:`expand_head_tail`: ``W_h^{+s t}`` for the head,
    ``W_h^{+s (t - q)}`` for the tail aliases), runs the sub-inverse
    batch with the ``1/h`` normalisation chained in, interleaves
    (:func:`transpose`), and unpacks even=Re / odd=Im into the real
    output.  The full Hermitian
    half is never materialised and the inverse butterflies stop
    ``log2(h/q)`` stages early.  On the C backend the row driver
    ``pruned_irfft_rows`` runs expansion, sub-inverse and interleave
    one row at a time in ``h``-element workspaces, straight into the
    output; the NumPy backend runs the same stages over the whole
    batch.

    Degenerate/fallback strategies and the bit-identity contract mirror
    the forward plan (``part == n//2 + 1`` aliases
    :class:`CompiledIRFFTPlan` bit-exactly; large ``part`` falls back
    to zero-pad + full C2R, bit-exact versus that composition).
    """

    def __init__(self, n: int, part: int, dtype: np.dtype,
                 caches: "PlanCaches"):
        bins = _validate_rfft_part(n, part)
        self.n = n
        self.part = part
        self.dtype = np.dtype(dtype)
        self.real_dtype = _real_dtype_of(self.dtype)
        self.half = n // 2
        self._caches = caches
        h = self.half
        self._full = None
        self._sub = None
        if part == bins or n == 1:
            self._strategy = "full"
            self._full = caches.irfft(n, self.dtype)
        elif _next_pow2(part) > h // 2:
            self._strategy = "pad"
            self._full = caches.irfft(n, self.dtype)
        else:
            self._strategy = "decomp"
            q = _next_pow2(part)
            s = h // q
            self._q = q
            self._split = s
            self._sub = caches.fft(q, self.dtype, inverse=True)
            j = np.arange(part)
            wj = 0.5j * np.exp(+2j * np.pi * j / n)
            ch = (0.5 + wj).astype(self.dtype)       # head: Z[j] = ch[j] X[j]
            r = np.arange(1, part)
            wjt = 0.5j * np.exp(+2j * np.pi * (h - r) / n)
            ct = (0.5 - wjt).astype(self.dtype)  # tail: Z[h-r] = ct conj(X[r])
            ch.setflags(write=False)
            ct.setflags(write=False)
            self._ch = ch
            self._ct = ct  # tail bin r lands at t = (h - r) mod q = q - r
            ss, t = np.ogrid[0:s, 0:q]
            wdh = np.exp(+2j * np.pi * ss * t / h)
            wdt = np.exp(+2j * np.pi * ss * (t - q) / h)
            self._wdh = np.ascontiguousarray(wdh.astype(self.dtype))
            self._wdt = np.ascontiguousarray(wdt.astype(self.dtype))
            self._wdh.setflags(write=False)
            self._wdt.setflags(write=False)
        self._init_workspaces()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPrunedIRFFTPlan(n={self.n}, part={self.part}, "
            f"{self.real_dtype.name}, {self._strategy})"
        )

    def _kernels(self):
        return self._caches.kernels()

    def _check_bins(self, flat: np.ndarray) -> None:
        rows, bins = flat.shape
        if bins != self.part:
            raise PrunedPartMismatchError(
                f"expected {self.part} truncated half-spectrum bins, "
                f"got {bins}"
            )
        if flat.dtype != self.dtype:
            raise ValueError(
                f"expected {self.dtype.name} bins, got {flat.dtype.name}"
            )

    def _padded_full(self, flat: np.ndarray) -> np.ndarray:
        rows = flat.shape[0]
        pad = np.zeros((rows, self.half + 1), self.dtype)
        pad[:, : self.part] = flat
        return self._full.execute(pad)

    def execute(self, flat: np.ndarray) -> np.ndarray:
        """Real signal of every row of a ``(rows, part)`` truncated
        half spectrum (bins ``part..n//2`` implicitly zero); returns a
        new real ``(rows, n)`` array."""
        self._check_bins(flat)
        if self._strategy == "full":
            return self._full.execute(flat)
        if self._strategy == "pad":
            return self._padded_full(flat)
        rows = flat.shape[0]
        flat = np.ascontiguousarray(flat)
        h, q, s = self.half, self._q, self._split
        kernels = self._kernels()
        out = np.empty((rows, self.n), self.real_dtype)
        z = out.view(self.dtype)  # packed (rows, h): even=Re, odd=Im
        with self._lock:
            if kernels is not None:
                work = self._ws("row", 3 * h)
                kernels.pruned_irfft_rows(
                    flat, self._ch, self._ct, self._wdh, self._wdt,
                    self._sub.twiddles, work[:h], work[h:2 * h],
                    work[2 * h:3 * h], z, rows, self.n, q, self.part,
                )
                return out
            # Head block hb[b, t] = ch[t] X[b, t] (t < part, Im(DC)
            # dropped) and tail block tb[b, q-r] = ct[r] conj(X[b, r])
            # (r in [1, part)), scattered into the S weighted sub-rows.
            sc = self._ws("scaled", rows * h)[: rows * h].reshape(rows, s, q)
            expand_head_tail(flat, self._ch, self._ct, self._wdh, self._wdt,
                             sc)
            y = self._ws("fft", rows * h)[: rows * h].reshape(rows * s, q)
            self._sub.execute(
                sc.reshape(rows * s, q), out=y,
                div_by=float(q), mul_by=float(q / h),
            )
            # Interleave: z[b, ss + S*t] = y[b, ss, t].
            transpose(y.reshape(rows, s, q), z.reshape(rows, q, s))
        return out


# ---------------------------------------------------------------------------
# Plan caches: one instantiable set per execution context
# ---------------------------------------------------------------------------

class PlanCaches:
    """One set of FFT/pruned/R2C/C2R/pruned-R2C plan caches bound to
    one backend.

    The cuFFT analogue of a *context*: plans requested through one set
    are private to it — sub-plans (a pruned plan's half-length
    transform, the packed-real plans' sub-FFT) resolve from the same
    set, so two sets never share plan objects or workspaces.  A
    process-wide default set (:func:`default_plan_caches`) backs the
    module-level getters; :class:`repro.api.Session` owns a set per
    session and installs it for the current thread with
    :func:`plan_cache_scope`.

    ``backend`` pins the executor substrate for every plan in the set:
    ``"auto"`` (C kernels when available), ``"ckernels"`` (required; a
    missing C layer raises at construction) or ``"numpy"`` (forced
    fallback).  Outputs are byte-identical across backends.
    """

    #: Names of :meth:`cache_info`'s entries, in its order.
    CACHE_NAMES = ("fft", "pruned", "real", "pruned_real")

    def __init__(self, backend: str = "auto",
                 maxsize: int = FFT_PLAN_CACHE_SIZE):
        resolve_backend_kernels(backend)  # validate spelling/availability
        self.backend = backend
        self._fft_cached = lru_cache(maxsize=maxsize)(self._build_fft)
        self._pruned_cached = lru_cache(maxsize=maxsize)(self._build_pruned)
        self._real_cached = lru_cache(maxsize=maxsize)(self._build_real)
        self._pruned_real_cached = lru_cache(maxsize=maxsize)(
            self._build_pruned_real
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanCaches(backend={self.backend!r})"

    # -- builders (one per cache; keys are already normalised) ----------

    def _build_fft(self, n, dtype, inverse) -> CompiledFFTPlan:
        return CompiledFFTPlan(n, dtype, inverse, backend=self.backend)

    def _build_pruned(self, n, part, dtype, kind) -> CompiledPrunedPlan:
        return CompiledPrunedPlan(n, part, dtype, kind, caches=self)

    def _build_real(self, n, dtype, inverse):
        cls = CompiledIRFFTPlan if inverse else CompiledRFFTPlan
        return cls(n, dtype, caches=self)

    def _build_pruned_real(self, n, part, dtype, inverse):
        cls = CompiledPrunedIRFFTPlan if inverse else CompiledPrunedRFFTPlan
        return cls(n, part, dtype, caches=self)

    # -- lookups --------------------------------------------------------

    def fft(self, n: int, dtype=np.complex64,
            inverse: bool = False) -> CompiledFFTPlan:
        """The cached plan for a length-``n`` transform (see
        :func:`get_fft_plan`)."""
        return self._fft_cached(_integer("n", n), complex_dtype_for(dtype),
                                bool(inverse))

    def pruned(self, n: int, part: int, dtype=np.complex64,
               kind: str = "trunc") -> CompiledPrunedPlan:
        """The cached plan for one pruned-transform split."""
        return self._pruned_cached(
            _integer("n", n), _integer("part", part),
            complex_dtype_for(dtype), kind,
        )

    def rfft(self, n: int, dtype=np.float32) -> CompiledRFFTPlan:
        """The cached R2C plan for a length-``n`` real transform."""
        return self._real_cached(_integer("n", n), complex_dtype_for(dtype),
                                 False)

    def irfft(self, n: int, dtype=np.complex64) -> CompiledIRFFTPlan:
        """The cached C2R plan for a length-``n`` real output."""
        return self._real_cached(_integer("n", n), complex_dtype_for(dtype),
                                 True)

    def pruned_rfft(self, n: int, part: int,
                    dtype=np.float32) -> CompiledPrunedRFFTPlan:
        """The cached truncated-R2C plan (first ``part`` bins)."""
        return self._pruned_real_cached(
            _integer("n", n), _integer("part", part),
            complex_dtype_for(dtype), False,
        )

    def pruned_irfft(self, n: int, part: int,
                     dtype=np.complex64) -> CompiledPrunedIRFFTPlan:
        """The cached truncated-C2R plan (``part`` bins in)."""
        return self._pruned_real_cached(
            _integer("n", n), _integer("part", part),
            complex_dtype_for(dtype), True,
        )

    def kernels(self):
        """The kernel bindings this set's backend resolves to (or None)."""
        if self.backend == "numpy":
            return None
        return get_kernels()

    # -- management -----------------------------------------------------

    def cache_info(self):
        """Cache statistics: (fft plans, pruned plans, r2c/c2r plans,
        pruned r2c/c2r plans), named by :attr:`CACHE_NAMES`."""
        return (
            self._fft_cached.cache_info(),
            self._pruned_cached.cache_info(),
            self._real_cached.cache_info(),
            self._pruned_real_cached.cache_info(),
        )

    def clear(self) -> None:
        """Drop every cached plan and its workspaces."""
        self._fft_cached.cache_clear()
        self._pruned_cached.cache_clear()
        self._real_cached.cache_clear()
        self._pruned_real_cached.cache_clear()


#: The process-wide default set, shared by every caller that does not
#: install its own scope (the seed behaviour).
_DEFAULT_PLAN_CACHES = PlanCaches("auto")

_scope_tls = threading.local()


def default_plan_caches() -> PlanCaches:
    """The process-wide default plan-cache set."""
    return _DEFAULT_PLAN_CACHES


def current_plan_caches() -> PlanCaches:
    """The plan-cache set active on this thread.

    The innermost :func:`plan_cache_scope` wins; with no scope active
    this is :func:`default_plan_caches` — i.e. the seed behaviour.
    """
    stack = getattr(_scope_tls, "stack", None)
    return stack[-1] if stack else _DEFAULT_PLAN_CACHES


@contextmanager
def plan_cache_scope(caches: PlanCaches):
    """Route this thread's plan lookups through ``caches`` while active.

    Everything downstream of the module-level getters — the functional
    FFT API, the training layers, throwaway executors — resolves plans
    from the scoped set, which is how a :class:`repro.api.Session`
    injects its caches and backend without threading a parameter
    through every call site.  Scopes nest; each thread has its own
    stack.
    """
    stack = getattr(_scope_tls, "stack", None)
    if stack is None:
        stack = _scope_tls.stack = []
    stack.append(caches)
    try:
        yield caches
    finally:
        stack.pop()


def get_fft_plan(
    n: int, dtype=np.complex64, inverse: bool = False
) -> CompiledFFTPlan:
    """The cached plan for a length-``n`` transform.

    ``dtype`` may be any input dtype; it is normalised to the complex
    working precision, so e.g. float32 and complex64 share one plan.
    Served from the current thread's plan-cache set
    (:func:`current_plan_caches`).
    """
    return current_plan_caches().fft(n, dtype, inverse)


def get_pruned_plan(
    n: int, part: int, dtype=np.complex64, kind: str = "trunc"
) -> CompiledPrunedPlan:
    """The cached plan for one pruned-transform split (see class docs)."""
    return current_plan_caches().pruned(n, part, dtype, kind)


def get_rfft_plan(n: int, dtype=np.float32) -> CompiledRFFTPlan:
    """The cached R2C plan for a length-``n`` real transform.

    ``dtype`` may be real or complex; it is normalised to the working
    precision, so e.g. float32 and complex64 share one plan.
    """
    return current_plan_caches().rfft(n, dtype)


def get_irfft_plan(n: int, dtype=np.complex64) -> CompiledIRFFTPlan:
    """The cached C2R plan for a length-``n`` real output."""
    return current_plan_caches().irfft(n, dtype)


def get_pruned_rfft_plan(
    n: int, part: int, dtype=np.float32
) -> CompiledPrunedRFFTPlan:
    """The cached truncated-R2C plan: the first ``part`` of the
    ``n//2 + 1`` half-spectrum bins, truncation fused into the
    packed-real decomposition.  ``dtype`` may be real or complex; it is
    normalised to the working precision."""
    return current_plan_caches().pruned_rfft(n, part, dtype)


def get_pruned_irfft_plan(
    n: int, part: int, dtype=np.complex64
) -> CompiledPrunedIRFFTPlan:
    """The cached truncated-C2R plan: a real length-``n`` signal from
    ``part`` half-spectrum bins (the rest implicitly zero)."""
    return current_plan_caches().pruned_irfft(n, part, dtype)


def fft_plan_cache_info():
    """Cache statistics of the current set: (fft, pruned, r2c/c2r,
    pruned r2c/c2r)."""
    return current_plan_caches().cache_info()


def clear_fft_plan_cache() -> None:
    """Drop every plan (and workspace) of the current thread's set."""
    current_plan_caches().clear()


# ---------------------------------------------------------------------------
# Workspace arena (reusable scratch for staged pipelines)
# ---------------------------------------------------------------------------

#: Scratch buffers keyed on (shape, dtype), LRU-bounded and *per
#: thread* (so reentrant callers can never hand two threads the same
#: buffer).  For pipeline stages whose temporaries never escape (e.g.
#: the baseline's truncation copy and zero-pad buffer).  Buffers are
#: reused across calls: never return one to a caller and never hold one
#: across another request of the same key.
_ARENA_MAX_ENTRIES = 16
_arena_tls = threading.local()


def workspace_empty(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A reusable uninitialised buffer of the requested geometry.

    ``tag`` names the usage site: two buffers live simultaneously only
    if their tags differ, so every concurrent temporary of one pipeline
    needs its own tag.  Arenas are thread-local.
    """
    arena = getattr(_arena_tls, "bufs", None)
    if arena is None:
        arena = _arena_tls.bufs = {}
    key = (tag, tuple(shape), np.dtype(dtype))
    buf = arena.pop(key, None)
    if buf is None:
        buf = np.empty(key[1], key[2])
        if len(arena) >= _ARENA_MAX_ENTRIES:
            # Evict the stalest entry (insertion order = recency).
            arena.pop(next(iter(arena)), None)
    arena[key] = buf
    return buf


def workspace_zeros(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A reusable zero-filled buffer of the requested geometry."""
    buf = workspace_empty(tag, shape, dtype)
    buf[...] = 0
    return buf


# ---------------------------------------------------------------------------
# Functional execution (the bodies of repro.fft.stockham / .pruned)
# ---------------------------------------------------------------------------

def execute_fft(
    x: np.ndarray, axis: int, inverse: bool,
    caches: PlanCaches | None = None,
) -> np.ndarray:
    """Plan-backed ``fft``/``ifft`` along ``axis`` (validation upstream)."""
    plans = caches if caches is not None else current_plan_caches()
    n = x.shape[axis]
    dtype = complex_dtype_for(x.dtype)
    moved = np.moveaxis(x, axis, -1)
    flat = np.ascontiguousarray(moved.reshape(-1, n)).astype(dtype, copy=False)
    plan = plans.fft(n, dtype, inverse)
    out = plan.execute(flat, div_by=float(n) if inverse else None)
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def execute_pruned(
    x: np.ndarray, n: int, part: int, axis: int, kind: str,
    caches: PlanCaches | None = None,
) -> np.ndarray:
    """Plan-backed pruned transform along ``axis`` (validation upstream)."""
    plans = caches if caches is not None else current_plan_caches()
    plan = plans.pruned(n, part, x.dtype, kind)
    moved = np.moveaxis(x, axis, -1)
    out = plan.apply(moved)
    return np.moveaxis(out, -1, axis)


def execute_rfft(
    x: np.ndarray, axis: int, caches: PlanCaches | None = None
) -> np.ndarray:
    """Plan-backed ``rfft`` along ``axis`` (validation upstream)."""
    plans = caches if caches is not None else current_plan_caches()
    n = x.shape[axis]
    plan = plans.rfft(n, x.dtype)
    moved = np.moveaxis(x, axis, -1)
    flat = np.ascontiguousarray(moved, dtype=plan.real_dtype).reshape(-1, n)
    out = plan.execute(flat)
    return np.moveaxis(
        out.reshape(*moved.shape[:-1], n // 2 + 1), -1, axis
    )


def execute_irfft(
    xk: np.ndarray, n: int, axis: int, caches: PlanCaches | None = None
) -> np.ndarray:
    """Plan-backed ``irfft`` along ``axis`` (validation upstream)."""
    plans = caches if caches is not None else current_plan_caches()
    plan = plans.irfft(n, xk.dtype)
    moved = np.moveaxis(xk, axis, -1)
    flat = np.ascontiguousarray(moved, dtype=plan.dtype).reshape(
        -1, moved.shape[-1]
    )
    out = plan.execute(flat)
    return np.moveaxis(out.reshape(*moved.shape[:-1], n), -1, axis)


def execute_pruned_rfft(
    x: np.ndarray, part: int, axis: int, caches: PlanCaches | None = None
) -> np.ndarray:
    """Plan-backed truncated ``rfft`` along ``axis`` (validation
    upstream)."""
    plans = caches if caches is not None else current_plan_caches()
    n = x.shape[axis]
    plan = plans.pruned_rfft(n, part, x.dtype)
    moved = np.moveaxis(x, axis, -1)
    flat = np.ascontiguousarray(moved, dtype=plan.real_dtype).reshape(-1, n)
    out = plan.execute(flat)
    return np.moveaxis(out.reshape(*moved.shape[:-1], part), -1, axis)


def execute_pruned_irfft(
    xk: np.ndarray, n: int, axis: int, caches: PlanCaches | None = None
) -> np.ndarray:
    """Plan-backed truncated-half-spectrum ``irfft`` along ``axis``
    (validation upstream)."""
    plans = caches if caches is not None else current_plan_caches()
    moved = np.moveaxis(xk, axis, -1)
    part = moved.shape[-1]
    plan = plans.pruned_irfft(n, part, xk.dtype)
    flat = np.ascontiguousarray(moved, dtype=plan.dtype).reshape(-1, part)
    out = plan.execute(flat)
    return np.moveaxis(out.reshape(*moved.shape[:-1], n), -1, axis)
