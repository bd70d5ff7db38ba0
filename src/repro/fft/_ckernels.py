"""Build and load the compiled FFT executor kernels.

The C kernels in ``_kernels.c`` are compiled on first use with the host C
compiler into a content-addressed cache directory and loaded via
:mod:`ctypes`.  Everything degrades gracefully: no compiler, a failed
build, or a host whose NumPy exhibits different floating-point semantics
all result in :func:`get_kernels` returning ``None`` and the plan layer
falling back to the pure-NumPy execution path (same bytes, less speed).

Because the kernels promise *byte-identical* results to the legacy NumPy
path, the loader validates them at load time (:func:`_self_check`) and
rejects the library on any mismatch:

* ``stockham`` against the legacy NumPy stage loop, forward and
  inverse, with and without the chained ``/ div_by`` and ``* mul_by``
  (NumPy's complex ufuncs, fed signed zeros as well);
* ``panel_contract`` and ``decomp_reduce`` against their einsums (naive
  sequential contraction) across a full tile or register block plus
  tails, and ``expand_mul`` against the ufunc's FMA complex multiply;
* the pruned R2C/C2R staging kernels (``transpose``, ``decomp_mirror``,
  ``expand_head_tail``) against the NumPy compositions they replace,
  across full vector blocks of bins plus a scalar tail and with one row
  and one tail bin;
* the pruned R2C/C2R row drivers ``pruned_rfft_rows`` and
  ``pruned_irfft_rows`` against the staged kernel sequence, across a
  full block plus a tail, in a call of a chunk of rows and one row more
  and (C2R) the one-row ``m = 2`` call;
* the fused C2C tile driver ``fused_tile_c2c_1d`` against the same tile
  composed from the per-stage kernels above, for ``p = 1`` and
  ``p > 1``, a ragged tail panel and a partial last tile, in one call
  whose row table holds every tile (and an empty entry) as its own
  array;
* the rollout step driver ``spectral_steps`` against the executors'
  Python step loop (``panel_contract`` per copied k-panel, then the
  NumPy reanalysis): a 2-D Hermitian case with a k-panel tail and
  overlapping mirror bins, and the 1-D DC case with signed zeros;
* the symmetric 2-D plane drivers ``sym2d_analyse`` and
  ``sym2d_synthesise`` against the staged kernel sequence of the
  executor's halves (the row stages over the whole batch, then the
  X-axis pass over every sub-column), in one call whose row table holds
  two states and an empty one, across a full AVX2 block of kept bins
  plus a tail; the re-analysis the synthesis writes must equal the
  analysis of its output, with or without an output table.

Every probe runs in both precisions, at the vector tier the library
picked for this process; a library failing at ``avx512`` but passing
at ``avx2`` is kept, pinned at ``avx2`` for good.

The ``fma-target`` build runs its vector kernels (``stockham``,
``panel_contract``, ``decomp_mirror`` and the C2R head/tail expansion)
at one of two tiers: ``avx2``, with 256-bit registers, or ``avx512``,
with 512-bit registers (two Stockham rows per register, blocks of 16
modes or bins, 8 in double).  The library picks the tier itself, once
per process, from CPUID and XCR0 (``avx512f``, ``avx512dq`` and
``avx512vl`` supported by the CPU and saved by the OS); the ``generic``
build runs the ``scalar`` loops.  There is no public switch: every lane
runs the same operations at either tier, so the bytes do not depend on
it.  :func:`build_info` names it, e.g. ``loaded (fma-target, avx512)``.

Environment knobs
-----------------
``REPRO_NO_CKERNELS=1``
    Disable the C layer entirely (pure-NumPy fallback).
``REPRO_CKERNEL_DIR``
    Override the build cache directory (default: a per-user directory
    under the system temp dir).
``REPRO_CKERNELS_SANITIZE=1``
    Compile every flag variant with AddressSanitizer + UBSan and the
    full warning set promoted to errors (``-fsanitize=address,undefined
    -fno-sanitize-recover=all -Wall -Wextra -Werror``).  CI runs the
    FFT oracle suites under this mode so C-side memory bugs fail loudly
    instead of corrupting bits.  Loading an ASan-instrumented library
    into an uninstrumented Python requires the ASan runtime first in
    the process — run with ``LD_PRELOAD=$(gcc -print-file-name=
    libasan.so)`` (and typically ``ASAN_OPTIONS=detect_leaks=0``, since
    CPython itself is not leak-clean).  ASan *aborts the process* when
    it initialises late, so the loader refuses to even attempt the
    ``dlopen`` unless an ASan runtime is visible in ``LD_PRELOAD``; it
    falls back to NumPy instead — never to silently-unsanitized
    kernels.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

__all__ = ["get_kernels", "kernels_available", "build_info"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")

#: (extra cflags, description) variants tried in order.  The first set
#: enables the per-function FMA/AVX2 target attribute on x86-64 (and
#: the AVX-512 tier's, which runs only where the CPU has it); the
#: second compiles everything generically (explicit fma()/fmaf() calls
#: then go through libm, which is slower but bit-exact).
_FLAG_VARIANTS = [
    (["-DREPRO_TARGET_FMA", "-mavx2"], "fma-target"),
    ([], "generic"),
]
_BASE_CFLAGS = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]

#: The sanitized tier: ASan + UBSan with no recovery, full warnings as
#: errors, and debug info for usable reports.  ``-ffp-contract=off``
#: from the base flags still applies, so bit-identity holds under the
#: sanitizers too and the oracle suites can run unchanged.
_SANITIZE_CFLAGS = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-Wall",
    "-Wextra",
    "-Werror",
    "-g",
]


def _flag_variants() -> list[tuple[list[str], str]]:
    """The flag variants to try, honouring ``REPRO_CKERNELS_SANITIZE``.

    Sanitized builds get a distinct cache tag so a sanitize run never
    reuses (or poisons) the plain build cache.
    """
    if not os.environ.get("REPRO_CKERNELS_SANITIZE"):
        return _FLAG_VARIANTS
    return [
        (extra + _SANITIZE_CFLAGS, f"{tag}-sanitize")
        for extra, tag in _FLAG_VARIANTS
    ]

_state: dict = {"kernels": None, "tried": False, "info": "not loaded"}


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: "any")()
    return os.path.join(tempfile.gettempdir(), f"repro-ckernels-{uid}")


def _find_cc() -> str | None:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def _compile(cc: str, extra: list[str], tag: str) -> str | None:
    """Compile the kernel source; return the .so path or None."""
    with open(_SOURCE, "rb") as f:
        source = f.read()
    key = hashlib.sha256(
        source + " ".join(extra).encode() + cc.encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{tag}_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache, exist_ok=True)
        tmp = lib_path + f".tmp{os.getpid()}"
        cmd = [cc, *_BASE_CFLAGS, *extra, "-o", tmp, _SOURCE]
        res = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if res.returncode != 0:
            return None
        os.replace(tmp, lib_path)  # atomic vs concurrent builders
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None


#: The reanalysis kinds of ``spectral_steps`` and their C codes: the
#: C2C identity, the symmetric 1-D DC bin made real, and the symmetric
#: 2-D Hermitian y-DC column.
SPECTRAL_PROJECTIONS = {"none": 0, "dc_real": 1, "herm_x": 2}

#: The vector tiers of a kernel library by their C codes
#: (``vector_tier`` in ``_kernels.c``): the ``generic`` build runs
#: ``scalar``; the ``fma-target`` build runs ``avx2``, or ``avx512``
#: where the CPU and OS support avx512f/dq/vl.  The bytes do not depend
#: on the tier.
TIERS = ("scalar", "avx2", "avx512")

#: Kernel-name suffix per supported element type.
_SUFFIX = {np.dtype(np.complex64): "f32", np.dtype(np.complex128): "f64"}

#: The real dtype of each supported element type (the plane drivers'
#: spatial states).
_REAL_DTYPE = {np.dtype(np.complex64): np.dtype(np.float32),
               np.dtype(np.complex128): np.dtype(np.float64)}

#: The NumPy dtype of a C ``long`` (a row table's row counts).
_C_LONG = np.dtype(f"i{ctypes.sizeof(ctypes.c_long)}")


def _address(arr: np.ndarray) -> int:
    """The address of a C-contiguous array's first element."""
    if arr.nbytes and arr.flags.writeable:
        # A fifth of the cost of ``arr.ctypes.data``, which builds the
        # array interface dict; it needs a writable, non-empty buffer.
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _bad_entry(name: str, role: str, i: int, arr, dtype: np.dtype,
               want: str) -> ValueError:
    what = (f"{arr.dtype}{arr.shape}" if isinstance(arr, np.ndarray)
            else f"a {type(arr).__name__}")
    writable = ", writable" if role != "input" else ""
    return ValueError(
        f"{name}: {role} entry {i} {what} is not a C-contiguous, "
        f"aligned{writable} {dtype} {want}"
    )


def _buffer_entry(name: str, role: str, arr, dtype: np.dtype,
                  count: int, spans: list | None = None) -> int:
    """Check a one-array table operand of at least ``count`` elements
    (writable unless ``role`` is ``"input"``); return its address (0
    when ``count`` is 0: C never touches it), and add the touched byte
    range to ``spans`` if given."""
    if (not isinstance(arr, np.ndarray) or arr.dtype != dtype
            or not arr.flags.c_contiguous or not arr.flags.aligned
            or (role != "input" and not arr.flags.writeable)
            or arr.size < count):
        raise _bad_entry(name, role, 0, arr, dtype,
                         f"buffer of {count} elements")
    if not count:
        return 0
    base = _address(arr)
    if spans is not None:
        spans.append((base, base + count * dtype.itemsize, role != "input"))
    return base


def _table_entries(name: str, role: str, arrs, dtype: np.dtype, tail: tuple,
                   spans: list, bt: int | None = None) -> tuple[list, list]:
    """Check a list of ``(rows, *tail)`` table entries, whose rows must
    sum to ``bt`` if given; return their base addresses (0 for an empty
    entry) and row counts, and add each entry's touched byte range to
    ``spans``."""
    bases, counts = [], []
    row = math.prod(tail) * dtype.itemsize
    is_out = role == "output"
    for i, arr in enumerate(arrs):
        if not isinstance(arr, np.ndarray):
            raise _bad_entry(name, role, i, arr, dtype, "array")
        shape, flags = arr.shape, arr.flags
        if (arr.dtype != dtype or shape[1:] != tail
                or not flags.c_contiguous or not flags.aligned
                or (is_out and not flags.writeable)):
            want = ", ".join(map(str, ("rows",) + tail))
            raise _bad_entry(name, role, i, arr, dtype,
                             f"array of shape ({want})")
        n, base = shape[0], 0
        if n:
            # The inline form of _address: this loop runs per request.
            base = (ctypes.addressof(ctypes.c_char.from_buffer(arr))
                    if flags.writeable else arr.ctypes.data)
            spans.append((base, base + n * row, is_out))
        bases.append(base)
        counts.append(n)
    if bt is not None and sum(counts) != bt:
        raise ValueError(
            f"{name}: the entries hold {sum(counts)} rows, not bt={bt}"
        )
    return bases, counts


def _check_overlap(name: str, spans: list) -> None:
    """Sweep the touched byte ranges ``(start, end, is_out)`` in address
    order: an output must start past every earlier range, an input past
    every earlier output.  A driver writes each row as it goes, so an
    output overlapping an input or another output would feed it its own
    results."""
    spans.sort()
    reach_any = reach_out = 0
    for start, end, is_out in spans:
        if start < (reach_any if is_out else reach_out):
            raise ValueError(
                f"{name}: an output entry overlaps an input or another "
                f"output"
            )
        reach_any = max(reach_any, end)
        if is_out:
            reach_out = max(reach_out, end)


def _row_tables(name: str, x, out, bt: int, dtype: np.dtype, c_in: int,
                c_out: int, dim_x: int) -> tuple[list[int], list[int]]:
    """Check and build the row tables of a fused driver call: the
    entries' source and destination base addresses, and their row
    counts (see :meth:`_Kernels.fused_tile_c2c_1d`).  No output may
    overlap an input or another output (:func:`_check_overlap`)."""
    spans: list = []
    if isinstance(x, np.ndarray):
        srcs = [_buffer_entry(name, "input", x, dtype, bt * c_in * dim_x,
                              spans)]
        counts = [bt]
    else:
        srcs, counts = _table_entries(name, "input", x, dtype,
                                      (c_in, dim_x), spans, bt)
    if isinstance(out, np.ndarray):
        # One buffer receives every entry's rows, in entry order.
        row = c_out * dim_x * dtype.itemsize
        base = _buffer_entry(name, "output", out, dtype, bt * c_out * dim_x,
                             spans)
        dsts, off = [], 0
        for n in counts:
            dsts.append(base + off * row if n else 0)
            off += n
    else:
        dsts, rows = _table_entries(name, "output", out, dtype,
                                    (c_out, dim_x), spans)
        if rows != counts:
            raise ValueError(
                f"{name}: output entries of {rows} rows for input entries "
                f"of {counts}"
            )
    _check_overlap(name, spans)
    return srcs + dsts, counts


class _Kernels:
    """ctypes bindings for one loaded kernel library.

    Array operands cross as ``void*`` addresses (:func:`_address`), a
    fraction of the cost of ``data_as`` — it matters once a small
    contraction runs in a few microseconds, or a row table lists a
    whole micro-batch.  The C side trusts its sizes, so every operand is
    checked first (:meth:`_bind`, :func:`_row_tables`).
    """

    def __init__(self, lib_path: str, variant: str):
        lib = ctypes.CDLL(lib_path)
        self.path = lib_path
        self.variant = variant
        self._fn = {}
        self._tier, self._cap = lib.vector_tier, lib.vector_tier_cap
        for fn in (self._tier, self._cap):
            fn.argtypes = [ctypes.c_long]
            fn.restype = ctypes.c_long
        ptr = ctypes.c_void_p
        for suffix, ct in (("f32", ctypes.c_float), ("f64", ctypes.c_double)):
            fn = getattr(lib, f"stockham_{suffix}")
            fn.argtypes = [ptr, ptr, ptr, ptr, ctypes.c_long, ctypes.c_long,
                           ctypes.c_int, ct, ctypes.c_int, ct]
            fn.restype = None
            self._fn["stockham", suffix] = fn
            for name, nptr, nlong in (
                    ("panel_contract", 3, 4), ("decomp_reduce", 3, 3),
                    ("expand_mul", 3, 3), ("transpose", 2, 3),
                    ("decomp_mirror", 4, 4), ("expand_head_tail", 6, 4),
                    ("fused_tile_c2c_1d", 13, 6),
                    ("pruned_rfft_rows", 6, 5),
                    ("pruned_irfft_rows", 8, 5),
                    ("spectral_steps", 4, 9),
                    ("sym2d_analyse", 9, 8),
                    ("sym2d_synthesise", 17, 8)):
                fn = getattr(lib, f"{name}_{suffix}")
                fn.argtypes = [ptr] * nptr + [ctypes.c_long] * nlong
                fn.restype = None
                self._fn[name, suffix] = fn

    @property
    def tier(self) -> str:
        """The vector tier the kernels run at (one of :data:`TIERS`)."""
        return TIERS[self._tier(-1)]

    @contextlib.contextmanager
    def _forced_tier(self, tier: str):
        """Run the kernels at ``tier`` inside the block, for tests that
        compare the tiers.  The tier is the library's, so it holds for
        every binding of the same file in the process; it is restored
        on exit.  Raises ValueError when this build or CPU lacks it."""
        before = self._tier(-1)
        try:
            if TIERS[self._tier(TIERS.index(tier))] != tier:
                raise ValueError(
                    f"vector tier {tier!r} is not available in the "
                    f"{self.variant} build on this CPU"
                )
            yield self
        finally:
            self._tier(before)

    def _bind(self, name: str, *operands, dtype=None):
        """The ``name`` kernel for ``dtype`` (default: the first operand's),
        and each operand's address.  Every ``(array, count)`` must be a
        C-contiguous array of that dtype holding at least ``count``
        elements; anything else raises before C could read or write past
        a buffer."""
        if dtype is None:
            dtype = operands[0][0].dtype
        suffix = _SUFFIX.get(dtype)
        if suffix is None:
            raise TypeError(f"{name}: unsupported dtype {dtype}")
        addresses = []
        for arr, count in operands:
            if (arr.dtype != dtype or not arr.flags.c_contiguous
                    or arr.size < count):
                raise ValueError(
                    f"{name}: operand {arr.dtype}{arr.shape} is not a "
                    f"C-contiguous {dtype} buffer of {count} elements"
                )
            addresses.append(_address(arr))
        return self._fn[name, suffix], addresses

    def stockham(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 tw: np.ndarray, rows: int, n: int,
                 div_by: float | None, mul_by: float | None) -> None:
        fn, ptrs = self._bind("stockham", (x, rows * n), (out, rows * n),
                              (scratch, rows * n), (tw, n - 1))
        fn(*ptrs, rows, n,
           div_by is not None, 0.0 if div_by is None else float(div_by),
           mul_by is not None, 0.0 if mul_by is None else float(mul_by))

    def panel_contract(self, a: np.ndarray, w: np.ndarray, acc: np.ndarray,
                       bt: int, kt: int, m: int, o: int) -> None:
        fn, ptrs = self._bind("panel_contract", (a, bt * kt * m),
                              (w, kt * o), (acc, bt * o * m))
        fn(*ptrs, bt, kt, m, o)

    def decomp_reduce(self, y: np.ndarray, wd: np.ndarray, out: np.ndarray,
                      batch: int, p: int, q: int) -> None:
        fn, ptrs = self._bind("decomp_reduce", (y, batch * p * q),
                              (wd, p * q), (out, batch * q))
        fn(*ptrs, batch, p, q)

    def expand_mul(self, x: np.ndarray, w: np.ndarray, out: np.ndarray,
                   batch: int, s: int, q: int) -> None:
        fn, ptrs = self._bind("expand_mul", (x, batch * q), (w, s * q),
                              (out, batch * s * q))
        fn(*ptrs, batch, s, q)

    def transpose(self, src: np.ndarray, dst: np.ndarray,
                  batch: int, r: int, c: int) -> None:
        fn, ptrs = self._bind("transpose", (src, batch * r * c),
                              (dst, batch * r * c))
        fn(*ptrs, batch, r, c)

    def decomp_mirror(self, y: np.ndarray, u: np.ndarray, v: np.ndarray,
                      out: np.ndarray, batch: int, p: int, q: int,
                      m: int) -> None:
        if not 0 <= m <= q:
            raise ValueError(f"decomp_mirror: m={m} outside [0, {q}]")
        fn, ptrs = self._bind("decomp_mirror", (y, batch * p * q),
                              (u, p * q), (v, p * q), (out, batch * m))
        fn(*ptrs, batch, p, q, m)

    def expand_head_tail(self, x: np.ndarray, ch: np.ndarray,
                         ct: np.ndarray, wdh: np.ndarray, wdt: np.ndarray,
                         out: np.ndarray, batch: int, m: int, s: int,
                         q: int) -> None:
        if not 1 <= m <= q:
            raise ValueError(f"expand_head_tail: m={m} outside [1, {q}]")
        fn, ptrs = self._bind("expand_head_tail", (x, batch * m), (ch, m),
                              (ct, m - 1), (wdh, s * q), (wdt, s * q),
                              (out, batch * s * q))
        fn(*ptrs, batch, m, s, q)

    def fused_tile_c2c_1d(self, x, w: np.ndarray, tw_fwd: np.ndarray,
                          tw_inv: np.ndarray, wd_fwd: np.ndarray,
                          wd_inv: np.ndarray, gather: np.ndarray,
                          fftbuf: np.ndarray, scratch: np.ndarray,
                          spec: np.ndarray, acc: np.ndarray, out, bt: int,
                          c_in: int, c_out: int, dim_x: int, modes: int,
                          k_tb: int) -> None:
        """``bt`` signal rows of the fused 1-D C2C pass, read from ``x``
        and written to ``out`` with the ``(c_in, c_out)`` weight ``w``,
        with ``dim_x = p * modes`` (see ``_kernels.c``).

        ``x`` and ``out`` give the row tables.  ``x`` is a sequence of
        arrays, entry ``i`` reading the ``rows_i`` signals of ``x[i]``
        of shape ``(rows_i, c_in, dim_x)``, with ``bt`` the sum of the
        ``rows_i``; or one array, a one-entry table of ``bt`` rows that
        need only hold that many elements.  ``out`` is a sequence of
        arrays, entry ``i`` writing ``out[i]`` of shape ``(rows_i,
        c_out, dim_x)``; or one array holding at least ``bt * c_out *
        dim_x`` elements that receives every entry's rows in entry
        order.  The binding builds the tables of base addresses and row
        counts itself: every entry must be a C-contiguous, aligned
        array of the working dtype, every output writable, and no output
        may overlap an input or another output.

        ``tw_*`` are the Stockham stage tables of length ``modes``,
        ``wd_*`` the ``(p, modes)`` decomposition twiddles (unused, and
        may be empty, when ``p == 1``); the workspaces hold one signal
        row: ``gather``, ``fftbuf`` and ``scratch`` ``max(k_tb, c_out) *
        dim_x`` elements, ``spec`` ``k_tb * modes`` (``p > 1``) and
        ``acc`` ``c_out * modes``."""
        name = "fused_tile_c2c_1d"
        if modes < 1 or modes & (modes - 1):
            raise ValueError(f"{name}: modes={modes} is not a power of two")
        p = dim_x // modes
        if p < 1 or dim_x != p * modes:
            raise ValueError(
                f"{name}: dim_x={dim_x} is not a multiple of modes={modes}"
            )
        if k_tb < 1:
            raise ValueError(f"{name}: k_tb={k_tb} is not >= 1")
        if bt < 0 or c_in < 1 or c_out < 1:
            raise ValueError(
                f"{name}: bad extents bt={bt}, c_in={c_in}, c_out={c_out}"
            )
        row = max(k_tb, c_out) * dim_x
        wd = p * modes if p > 1 else 0
        dtype = x.dtype if isinstance(x, np.ndarray) else w.dtype
        fn, ptrs = self._bind(
            name, (w, c_in * c_out), (tw_fwd, modes - 1),
            (tw_inv, modes - 1), (wd_fwd, wd), (wd_inv, wd), (gather, row),
            (fftbuf, row), (scratch, row),
            (spec, k_tb * modes if p > 1 else 0), (acc, c_out * modes),
            dtype=dtype)
        bases, counts = _row_tables(name, x, out, bt, dtype, c_in, c_out,
                                    dim_x)
        n = len(counts)
        bases = np.array(bases, np.uintp)
        counts = np.array(counts, _C_LONG)
        table = _address(bases)
        fn(table, table + n * bases.itemsize, _address(counts), *ptrs, n,
           c_in, c_out, dim_x, modes, k_tb)

    def spectral_steps(self, sk: np.ndarray, w: np.ndarray, work: np.ndarray,
                       out: np.ndarray, bt: int, c: int, mx: int, my: int,
                       k_tb: int, steps: int, dim_x: int, projection: str,
                       keep: str) -> None:
        """``steps`` spectrum-resident rollout steps of the square
        ``(c, c)`` weight ``w`` from the state ``sk[bt, c, mx*my]`` (see
        ``_kernels.c``): each step a ``k_tb``-panel contraction, every
        step but the last followed by the ``projection`` (one of
        :data:`SPECTRAL_PROJECTIONS`) over a column padded to ``dim_x``
        bins.  ``out`` receives every step's output (``keep="all"``,
        ``steps * bt*c*mx*my`` elements) or the last one (``"last"``);
        ``work`` holds one state.  No two of ``sk``, ``work`` and
        ``out`` may overlap."""
        kind = SPECTRAL_PROJECTIONS.get(projection)
        if kind is None:
            raise ValueError(
                f"spectral_steps: unknown projection {projection!r}; "
                f"expected one of {tuple(SPECTRAL_PROJECTIONS)}"
            )
        if keep not in ("last", "all"):
            raise ValueError(f"spectral_steps: unknown keep {keep!r}")
        if steps < 1 or k_tb < 1:
            raise ValueError(
                f"spectral_steps: steps={steps} and k_tb={k_tb} must be >= 1"
            )
        if bt < 0 or c < 1 or mx < 1 or my < 1 or not mx <= dim_x:
            raise ValueError(
                f"spectral_steps: bad extents bt={bt}, c={c}, mx={mx}, "
                f"my={my}, dim_x={dim_x}"
            )
        n = bt * c * mx * my
        fn, ptrs = self._bind(
            "spectral_steps", (sk, n), (w, c * c), (work, n),
            (out, (steps if keep == "all" else 1) * n))
        for a, b in ((sk, work), (sk, out), (work, out)):
            if np.may_share_memory(a, b):
                raise ValueError("spectral_steps: operands overlap")
        fn(*ptrs, bt, c, mx, my, k_tb, steps, dim_x, kind, keep == "all")

    @staticmethod
    def _split(name: str, rows: int, n: int, q: int, m: int) -> int:
        """Check a pruned real plan's geometry; return its split ``n/2 /
        q``, at least 2 as every row stage's Stockham call needs."""
        if q < 1 or q & (q - 1):
            raise ValueError(f"{name}: q={q} is not a power of two")
        split = n // 2 // q
        if split < 2 or n != 2 * split * q:
            raise ValueError(
                f"{name}: n={n} is not 2 * split * q={q} with split >= 2"
            )
        if not 1 <= m <= q:
            raise ValueError(f"{name}: m={m} outside [1, {q}]")
        if rows < 0:
            raise ValueError(f"{name}: rows={rows} is negative")
        return split

    @staticmethod
    def row_chunk(dtype, h: int) -> int:
        """Rows per kernel call of a pruned R2C/C2R row stage on rows of
        ``h`` complex values: as many as fit 8 KB per buffer (L1), or 1."""
        return max(1, 8192 // (np.dtype(dtype).itemsize * h))

    @classmethod
    def row_workspace(cls, dtype, n: int) -> int:
        """Elements of a row driver's workspace on real rows of length n."""
        return 3 * cls.row_chunk(dtype, n // 2) * (n // 2)

    def pruned_rfft_rows(self, z: np.ndarray, u: np.ndarray, v: np.ndarray,
                         tw: np.ndarray, ws: np.ndarray, out: np.ndarray,
                         rows: int, n: int, q: int, m: int) -> None:
        """The pruned R2C plan's decomp strategy over ``rows`` real rows
        of length ``n``, packed as complex ``z[rows, n/2]``: the first
        ``m`` recombined bins into ``out[rows, m]`` (see ``_kernels.c``).
        ``u``/``v`` are the ``(n/2/q, q)`` recombination weights, ``tw``
        the length-``q`` forward stage table; ``ws`` holds
        :meth:`row_workspace` elements."""
        p = self._split("pruned_rfft_rows", rows, n, q, m)
        h, chunk = p * q, self.row_chunk(z.dtype, p * q)
        fn, ptrs = self._bind(
            "pruned_rfft_rows", (z, rows * h), (u, h), (v, h), (tw, q - 1),
            (ws, 3 * chunk * h), (out, rows * m))
        fn(*ptrs, rows, p, q, m, chunk)

    def pruned_irfft_rows(self, x: np.ndarray, ch: np.ndarray,
                          ct: np.ndarray, wdh: np.ndarray, wdt: np.ndarray,
                          tw: np.ndarray, ws: np.ndarray, out: np.ndarray,
                          rows: int, n: int, q: int, m: int) -> None:
        """The pruned C2R plan's decomp strategy: real rows of length
        ``n``, packed as complex ``out[rows, n/2]``, from the ``m`` kept
        bins ``x[rows, m]`` (see ``_kernels.c``).  ``ch``/``ct`` are the
        head and tail weights, ``wdh``/``wdt`` the ``(n/2/q, q)``
        expansion twiddles, ``tw`` the length-``q`` inverse stage table;
        ``ws`` holds :meth:`row_workspace` elements."""
        s = self._split("pruned_irfft_rows", rows, n, q, m)
        h, chunk = s * q, self.row_chunk(x.dtype, s * q)
        fn, ptrs = self._bind(
            "pruned_irfft_rows", (x, rows * m), (ch, m), (ct, m - 1),
            (wdh, h), (wdt, h), (tw, q - 1), (ws, 3 * chunk * h),
            (out, rows * h))
        fn(*ptrs, rows, s, q, m, chunk)

    @classmethod
    def sym2d_workspace(cls, dim_x: int, dim_y: int, mx: int, my: int,
                        dtype) -> int:
        """Elements of a plane driver's workspace: the row stages', then
        column buffers, corner and held plane (see ``_kernels.c``)."""
        return (cls.row_workspace(dtype, dim_y) + dim_x * (dim_y // 2)
                + 4 * dim_x * my + mx * my)

    def _sym2d_bind(self, name: str, tables, ws: np.ndarray, spans: list,
                    bt: int, c: int, dim_x: int, dim_y: int, mx: int,
                    my: int, q: int):
        """Check a plane driver's geometry, its plan tables and its
        workspace; return the kernel, the tables' addresses, the
        workspace's, the row split ``p = dim_y/2 / q`` and the chunk.
        ``tables`` is the forward ``(u, v, tw_y, tw_x, wd_x)`` or the
        inverse ``(ch, ct, wdh, wdt, tw_y, tw_x, wd_x)``."""
        if bt < 0 or c < 1:
            raise ValueError(f"{name}: bad extents bt={bt}, c={c}")
        p = self._split(name, bt, dim_y, q, my)
        if mx < 1 or mx & (mx - 1):
            raise ValueError(f"{name}: mx={mx} is not a power of two")
        split = dim_x // mx
        if split < 2 or dim_x != split * mx:
            raise ValueError(
                f"{name}: dim_x={dim_x} is not split * mx={mx} with "
                f"split >= 2"
            )
        h = p * q
        sizes = ((h, h, q - 1) if len(tables) == 5
                 else (my, my - 1, h, h, q - 1))
        sizes += (mx - 1, split * mx)
        if len(tables) != len(sizes):
            raise ValueError(f"{name}: expected {len(sizes)} plan tables")
        dtype = tables[0].dtype
        fn, ptrs = self._bind(name, *zip(tables, sizes), dtype=dtype)
        wsp = _buffer_entry(name, "workspace", ws, dtype,
                            self.sym2d_workspace(dim_x, dim_y, mx, my,
                                                 dtype), spans)
        return fn, ptrs, wsp, p, self.row_chunk(dtype, h)

    def sym2d_analyse(self, xs, sk: np.ndarray, fwd, ws: np.ndarray,
                      bt: int, c: int, dim_x: int, dim_y: int, mx: int,
                      my: int, q: int) -> None:
        """The symmetric 2-D forward half, one ``(b, c)`` plane at a
        time (see ``_kernels.c``): the states ``xs``, a sequence of real
        ``(rows_i, c, dim_x, dim_y)`` arrays whose rows sum to ``bt``,
        into their kept corners ``sk[bt, c, mx, my]`` in entry order.
        ``fwd`` is ``(u, v, tw_y, tw_x, wd_x)``: the pruned R2C plan's
        ``(dim_y/2/q, q)`` recombination weights and length-``q`` stage
        table, then the pruned C2C plan's length-``mx`` stage table and
        ``(dim_x/mx, mx)`` decomposition twiddles; ``ws`` holds
        :meth:`sym2d_workspace` elements.  Every entry must be a
        C-contiguous, aligned array of the real dtype, and neither
        ``sk`` nor ``ws`` may overlap an input or each other."""
        name = "sym2d_analyse"
        spans: list = []
        fn, ptrs, wsp, p, chunk = self._sym2d_bind(name, fwd, ws, spans, bt,
                                                   c, dim_x, dim_y, mx, my, q)
        dtype = fwd[0].dtype
        bases, counts = _table_entries(name, "input", xs,
                                       _REAL_DTYPE[dtype],
                                       (c, dim_x, dim_y), spans, bt)
        out = _buffer_entry(name, "output", sk, dtype, bt * c * mx * my,
                            spans)
        _check_overlap(name, spans)
        bases = np.array(bases, np.uintp)
        counts = np.array(counts, _C_LONG)
        fn(_address(bases), _address(counts), out, *ptrs, wsp, len(counts),
           c, dim_x, p, q, my, mx, chunk)

    def sym2d_synthesise(self, sk: np.ndarray, out, nxt, inv, fwd,
                         ws: np.ndarray, bt: int, c: int, dim_x: int,
                         dim_y: int, mx: int, my: int, q: int) -> None:
        """The symmetric 2-D inverse half, one plane at a time (see
        ``_kernels.c``): the kept corners ``sk[bt, c, mx, my]`` into the
        real planes of ``out``, a sequence of ``(rows_i, c, dim_x,
        dim_y)`` arrays whose rows sum to ``bt`` (entry order), or, with
        ``out=None``, into the workspace only.  Given ``nxt`` (``bt * c
        * mx * my`` elements), each written plane is analysed again into
        it with the forward tables ``fwd`` (see :meth:`sym2d_analyse`).
        ``inv`` is ``(ch, ct, wdh, wdt, tw_y, tw_x, wd_x)``: the pruned
        C2R plan's head and tail weights, ``(dim_y/2/q, q)`` expansion
        twiddles and inverse stage table, then the pruned C2C inverse's.
        No output, ``nxt`` or ``ws`` may overlap ``sk`` or another."""
        name = "sym2d_synthesise"
        spans: list = []
        fn, ptrs, wsp, p, chunk = self._sym2d_bind(name, inv, ws, spans, bt,
                                                   c, dim_x, dim_y, mx, my, q)
        dtype = inv[0].dtype
        corner = bt * c * mx * my
        src = _buffer_entry(name, "input", sk, dtype, corner, spans)
        if out is None:
            bases, counts = [0], [bt]
        else:
            bases, counts = _table_entries(name, "output", out,
                                           _REAL_DTYPE[dtype],
                                           (c, dim_x, dim_y), spans, bt)
        fptrs, dst = [0] * 5, 0
        if nxt is not None:
            if fwd is None:
                raise ValueError(f"{name}: nxt needs the forward tables")
            fptrs = self._sym2d_bind(name, fwd, ws, [], bt, c, dim_x, dim_y,
                                     mx, my, q)[1]
            dst = _buffer_entry(name, "output", nxt, dtype, corner, spans)
        _check_overlap(name, spans)
        bases = np.array(bases, np.uintp)
        counts = np.array(counts, _C_LONG)
        fn(src, 0 if out is None else _address(bases), _address(counts),
           dst, *ptrs, *fptrs, wsp, len(counts), c, dim_x, p, q, my, mx,
           chunk)


#: (n, rows, inverse, div_by, mul_by) full-transform probes of the
#: Stockham kernel.  Together they reach every pass kind of the vector
#: tiers in both dtypes, each over pairs of rows and an odd last row
#: (the AVX-512 tier's paired path and its AVX2 leftover): the
#: register-resident rows of n = 4W (16 float, 8 double), the first
#: stage pair (half = 1 and 2, narrower than a vector) of longer rows,
#: later pairs with one and several vectors per row, the odd last
#: radix-2 stage, and the scalar fallback for shorter rows (n < 16
#: float, n < 8 double); forward and inverse tables; div-only and
#: div+mul scaling of a last pair and of a last radix-2 stage.
_STOCKHAM_PROBES = [
    (2, 3, False, None, None),
    (4, 3, True, 4.0, None),
    (8, 5, False, 8.0, 0.5),
    (16, 3, True, 16.0, None),
    (32, 3, True, 32.0, 0.375),
    (64, 3, False, 64.0, None),
]

#: The signed values of the scaling probe.
_SIGNED = (0.0, -0.0, 1.0, -1.0)


#: (batch, c_in, c_out, modes, p, k_tb, tile) probes of the
#: fused C2C tile driver, each one call with a row-table entry per tile:
#: p = 1 and p > 1, each with a ragged tail panel (c_in = 5 at k_tb = 2)
#: and a partial last tile (3 rows in tiles of 2).
_FUSED_TILE_PROBES = [
    (3, 5, 3, 16, 1, 2, 2),
    (3, 5, 3, 16, 4, 2, 2),
]


def _stage_table(n: int, dtype, inverse: bool) -> np.ndarray:
    """The concatenated per-stage half tables a compiled plan passes."""
    from repro.fft.twiddle import stage_twiddles

    return np.concatenate([np.zeros(0, dtype)] + [
        stage_twiddles(2 << s, inverse=inverse).astype(dtype)
        for s in range(n.bit_length() - 1)
    ])


def _fused_tile_by_stages(k: _Kernels, x: np.ndarray, w: np.ndarray,
                          tables, modes: int, k_tb: int) -> np.ndarray:
    """One tile of the fused C2C pass composed from the per-stage
    kernels, one ``k_tb`` panel at a time with NumPy gathers and scatters,
    as the executor's Python stage loop runs it: the driver's oracle.
    ``tables`` is ``(tw_fwd, tw_inv, wd_fwd, wd_inv)``."""
    tw_fwd, tw_inv, wd_fwd, wd_inv = tables
    bt, c_in, dim_x = x.shape
    c_out, p = w.shape[1], dim_x // modes
    acc = np.zeros((bt, c_out, modes), x.dtype)
    for k0 in range(0, c_in, k_tb):
        kt = min(k_tb, c_in - k0)
        rows = bt * kt * p
        gat = np.ascontiguousarray(
            x[:, k0:k0 + kt].reshape(bt, kt, modes, p).swapaxes(2, 3)
        )
        a = np.empty((rows, modes), x.dtype)
        k.stockham(gat, a, np.empty_like(a), tw_fwd, rows, modes,
                   None, None)
        if p > 1:
            f, a = a, np.empty((bt * kt, modes), x.dtype)
            k.decomp_reduce(f, wd_fwd, a, bt * kt, p, modes)
        k.panel_contract(a, np.ascontiguousarray(w[k0:k0 + kt]), acc,
                         bt, kt, modes, c_out)
    rows = bt * c_out * p
    e = np.empty((rows, modes), x.dtype)
    if p > 1:
        k.expand_mul(acc, wd_inv, e, bt * c_out, p, modes)
    else:
        e[...] = acc.reshape(rows, modes)
    y = np.empty_like(e)
    k.stockham(e, y, np.empty_like(e), tw_inv, rows, modes, float(modes),
               float(modes / dim_x) if p > 1 else None)
    return y.reshape(bt, c_out, p, modes).swapaxes(2, 3).reshape(
        bt, c_out, dim_x
    )


def _rfft_rows_by_stages(k: _Kernels, z: np.ndarray, u: np.ndarray,
                         v: np.ndarray, tw: np.ndarray,
                         m: int) -> np.ndarray:
    """The pruned R2C plan's staged kernel sequence over the whole batch
    of packed rows ``z[rows, p*q]``: the row driver's oracle."""
    rows, (p, q) = z.shape[0], u.shape
    g = np.empty((rows, p, q), z.dtype)
    k.transpose(z, g, rows, q, p)
    f = np.empty_like(g)
    k.stockham(g, f, np.empty_like(g), tw, rows * p, q, None, None)
    out = np.empty((rows, m), z.dtype)
    k.decomp_mirror(f, u, v, out, rows, p, q, m)
    return out


def _irfft_rows_by_stages(k: _Kernels, x: np.ndarray, ch: np.ndarray,
                          ct: np.ndarray, wdh: np.ndarray, wdt: np.ndarray,
                          tw: np.ndarray) -> np.ndarray:
    """The pruned C2R plan's staged kernel sequence over the whole batch
    ``x[rows, m]``, returning packed rows ``(rows, s*q)``: the row
    driver's oracle."""
    (rows, m), (s, q) = x.shape, wdh.shape
    e = np.empty((rows, s, q), x.dtype)
    k.expand_head_tail(x, ch, ct, wdh, wdt, e, rows, m, s, q)
    f = np.empty_like(e)
    k.stockham(e, f, np.empty_like(e), tw, rows * s, q, float(q), 1.0 / s)
    out = np.empty((rows, s * q), x.dtype)
    k.transpose(f, out, rows, s, q)
    return out


def _spectral_steps_by_kernels(k: _Kernels, sk: np.ndarray, w: np.ndarray,
                               k_tb: int, steps: int, dim_x: int,
                               projection: str, keep: str) -> np.ndarray:
    """``spectral_steps`` as the executors' Python rollout loop runs it:
    per step, one ``panel_contract`` per copied ``k_tb`` panel of the
    state's channels into a zeroed output, then (but after the last
    step) the NumPy reanalysis.  ``sk`` is ``(bt, c, *modes)``: the
    driver's oracle."""
    from repro.core.compiled import _project_dc_real, _project_herm_x

    project = {
        "none": lambda y: y,
        "dc_real": _project_dc_real,
        "herm_x": lambda y: _project_herm_x(y, dim_x),
    }[projection]
    bt, c = sk.shape[:2]
    kept = []
    for step in range(steps):
        flat = sk.reshape(bt, c, -1)
        acc = np.zeros_like(flat)
        for k0 in range(0, c, k_tb):
            k1 = min(k0 + k_tb, c)
            k.panel_contract(np.ascontiguousarray(flat[:, k0:k1]),
                             np.ascontiguousarray(w[k0:k1]), acc, bt,
                             k1 - k0, flat.shape[2], c)
        kept.append(acc.reshape(sk.shape))
        if step + 1 < steps:
            sk = project(kept[-1])
    return np.stack(kept) if keep == "all" else kept[-1]


def _sym2d_analyse_by_stages(k: _Kernels, x: np.ndarray, fwd,
                             mx: int, my: int) -> np.ndarray:
    """The symmetric 2-D forward half as the executor's staged path runs
    it on the C kernels: the R2C row stages over every row of the real
    states ``x[bt, c, X, Y]``, then the pruned C2C plan's stages over
    every sub-column; returns ``sk[bt, c, mx, my]``.  ``fwd`` is
    ``(u, v, tw_y, tw_x, wd_x)``: the plane driver's oracle."""
    u, v, tw_y, tw_x, wd_x = fwd
    bt, c, dim_x, dim_y = x.shape
    split, lead = dim_x // mx, bt * c * my
    rows = _rfft_rows_by_stages(k, x.reshape(-1, dim_y).view(u.dtype), u, v,
                                tw_y, my)
    cols = rows.reshape(bt * c, dim_x, my).swapaxes(1, 2)
    g = np.ascontiguousarray(
        cols.reshape(lead, mx, split).swapaxes(1, 2))  # [., j, t] = [., tP+j]
    f = np.empty_like(g)
    k.stockham(g, f, np.empty_like(g), tw_x, lead * split, mx, None, None)
    red = np.empty((lead, mx), u.dtype)
    k.decomp_reduce(f, wd_x, red, lead, split, mx)
    return np.ascontiguousarray(red.reshape(bt, c, my, mx).swapaxes(2, 3))


def _sym2d_synthesise_by_stages(k: _Kernels, sk: np.ndarray, inv,
                                dim_x: int, dim_y: int) -> np.ndarray:
    """The symmetric 2-D inverse half as the staged path runs it: the
    pruned C2C inverse's stages over every sub-column of ``sk[bt, c,
    mx, my]``, then the C2R row stages over every row; returns the real
    ``(bt, c, dim_x, dim_y)`` states.  ``inv`` is ``(ch, ct, wdh, wdt,
    tw_y, tw_x, wd_x)``: the plane driver's oracle."""
    ch, ct, wdh, wdt, tw_y, tw_x, wd_x = inv
    bt, c, mx, my = sk.shape
    split, lead = dim_x // mx, bt * c * my
    flat = np.ascontiguousarray(sk.swapaxes(2, 3)).reshape(lead, mx)
    e = np.empty((lead, split, mx), sk.dtype)
    k.expand_mul(flat, wd_x, e, lead, split, mx)
    y = np.empty_like(e)
    k.stockham(e, y, np.empty_like(e), tw_x, lead * split, mx, float(mx),
               mx / dim_x)
    cols = y.swapaxes(1, 2).reshape(bt, c, my, dim_x)  # [., tP+s] = [., s, t]
    rows = np.ascontiguousarray(cols.swapaxes(2, 3)).reshape(-1, my)
    z = _irfft_rows_by_stages(k, rows, ch, ct, wdh, wdt, tw_y)
    return z.view(_REAL_DTYPE[sk.dtype]).reshape(bt, c, dim_x, dim_y)


def _unfused_tail_probe(dtype) -> tuple[np.ndarray, ...]:
    """``expand_head_tail`` operands ``(x, ch, ct, wdh, wdt)`` for one
    row and one tail bin, the shape whose tail product NumPy forms
    without FMA, chosen so that FMA would change the output.

    With ``e = 2**-(nmant//2 + 2)`` the tail product ``conj(x[1]) *
    ct[0] = (1+e + 1i) * (1+e + (1+2e)i)`` has real part ``(1+e)**2 -
    (1+2e)``: ``e**2`` when fused, ``0`` unfused (``(1+e)**2`` rounds to
    ``1+2e``).  A zero head bin and a unit tail twiddle pass it straight
    to ``out[:, :, 1]``.
    """
    e = np.ldexp(1.0, -(np.finfo(dtype).nmant // 2 + 2))
    x = np.array([[0.75 + 0.5j, (1 + e) - 1j]], dtype)
    ch = np.array([0.5 + 0.5j, 0], dtype)
    ct = np.array([(1 + e) + (1 + 2 * e) * 1j], dtype)
    wdh = np.array([[1, 1], [1, -1j]], dtype)
    wdt = np.array([[1, 1], [-1j, 1]], dtype)
    return x, ch, ct, wdh, wdt


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal as unsigned integers, so ``-0.0`` is not ``0.0``."""
    ints = np.dtype(f"u{a.real.dtype.itemsize}")
    return np.array_equal(a.view(ints), b.view(ints))


def _stockham_matches(k: _Kernels, x: np.ndarray, inverse: bool,
                      div_by: float | None, mul_by: float | None) -> bool:
    """The kernel over every row of ``x`` against the legacy stage loop
    followed by the NumPy fallback's in-place ``/=`` and ``*=``."""
    from repro.fft.legacy import _stockham_last_axis

    rows, n = x.shape
    ref = _stockham_last_axis(x, inverse=inverse).copy()
    if div_by is not None:
        ref /= div_by
    if mul_by is not None:
        ref *= mul_by
    out, scratch = np.empty_like(x), np.empty_like(x)
    k.stockham(x, out, scratch, _stage_table(n, x.dtype, inverse), rows, n,
               div_by, mul_by)
    return _same_bits(ref, out)


def _self_check(k: _Kernels) -> bool:
    """Validate every kernel's FP semantics against NumPy on probe data.

    The promise of the compiled layer is byte identity with the NumPy
    path; any deviation (a toolchain that contracts differently, a NumPy
    build with different complex-multiply loops) must disable it.
    """
    from repro.fft import compiled
    from repro.fft.twiddle import decomposition_twiddles

    rng = np.random.default_rng(0xC0FFEE)
    for dtype in (np.complex64, np.complex128):
        cplx = lambda *s: (
            rng.standard_normal(s) + 1j * rng.standard_normal(s)
        ).astype(dtype)
        # stockham: full transforms against the legacy NumPy stage loop,
        # scaled after the loop as the kernel's chained last stage does.
        for n, rows, inverse, div_by, mul_by in _STOCKHAM_PROBES:
            if not _stockham_matches(k, cplx(rows, n), inverse, div_by,
                                     mul_by):
                return False
        # Signed zeros through the scaling, whose signs NumPy's complex
        # /= and *= set: every (re, im) of {+-0, +-1} as one-bin rows
        # (the scalar path) and as constant rows of 16 (vector passes).
        grid = np.array([complex(re, im) for re in _SIGNED for im in _SIGNED],
                        dtype)
        for x in (grid[:, None], np.repeat(grid[:, None], 16, axis=1)):
            if not _stockham_matches(k, x, True, float(x.shape[1]), 0.375):
                return False
        # The contraction kernels tile the unit-stride index: probe a
        # full tile plus a tail (m = 64 + 14, q = 16 + 6).  The panel
        # probe also runs the vector tiers' register blocks of modes by
        # 4 channels with both tails: m = 78 is four 16-mode AVX-512
        # blocks, one 8-mode AVX2 block and 6 modes in float (nine
        # 8-mode blocks, one 4-mode block and 2 in double); o = 5
        # leaves one channel.
        # panel contract == acc += einsum
        a, w, acc0 = cplx(3, 4, 78), cplx(4, 5), cplx(3, 5, 78)
        ref = acc0 + np.einsum("bkm,ko->bom", a, w)
        got = acc0.copy()
        k.panel_contract(a, w, got, 3, 4, 78, 5)
        if not _same_bits(ref, got):
            return False
        # decomp reduce == einsum "...pk,pk->...k"
        y, wd = cplx(4, 3, 22), cplx(3, 22)
        ref = np.einsum("...pk,pk->...k", y, wd)
        got = np.empty((4, 22), dtype)
        k.decomp_reduce(y, wd, got, 4, 3, 22)
        if not _same_bits(ref, got):
            return False
        # expand mul == x[..., None, :] * w
        x2, w2 = cplx(4, 6), cplx(3, 6)
        ref = x2[..., None, :] * w2
        got = np.empty((4, 3, 6), dtype)
        k.expand_mul(x2, w2, got, 4, 3, 6)
        if not _same_bits(ref, got):
            return False
        # The pruned R2C/C2R staging kernels against the NumPy
        # compositions they replace: a transpose; the mirrored pair
        # across full tiles plus a tail of kept bins (m = 32 + 11 of
        # q = 48: in float two AVX-512 blocks of 16, one AVX2 block of 8
        # and 3 scalar bins, in double five blocks of 8 and 3); the
        # head/tail expansion across a full 64-bin tile (head, mixed and
        # tail blocks) plus a 6-bin scalar tail (q = 70), and with one
        # row and one tail bin.
        src = cplx(3, 5, 7)
        got = np.empty((3, 7, 5), dtype)
        k.transpose(src, got, 3, 5, 7)
        if not _same_bits(np.ascontiguousarray(np.swapaxes(src, 1, 2)), got):
            return False
        y, u, v = cplx(4, 3, 48), cplx(3, 48), cplx(3, 48)
        ref, got = np.empty((4, 43), dtype), np.empty((4, 43), dtype)
        compiled.decomp_mirror(y, u, v, ref)
        k.decomp_mirror(y, u, v, got, 4, 3, 48, 43)
        if not _same_bits(ref, got):
            return False
        x3, ch, ct = cplx(3, 37), cplx(37), cplx(36)
        for ops in ((x3, ch, ct, cplx(2, 70), cplx(2, 70)),
                    _unfused_tail_probe(dtype)):
            (batch, m), (s, q) = ops[0].shape, ops[3].shape
            ref = np.empty((batch, s, q), dtype)
            got = np.empty((batch, s, q), dtype)
            compiled.expand_head_tail(*ops, ref)
            k.expand_head_tail(*ops, got, batch, m, s, q)
            if not _same_bits(ref, got):
                return False
        # The pruned R2C/C2R row drivers against their staged kernel
        # sequences: 11 kept bins of q = 16 (a full AVX2 block plus a
        # tail) over split 2, in one call of a chunk and one row more
        # (a last chunk of one row), and the one-row, one-tail-bin C2R
        # call.
        tw_f, tw_i = (_stage_table(16, dtype, inv) for inv in (False, True))
        rows = k.row_chunk(dtype, 32) + 1
        z, u, v = cplx(rows, 32), cplx(2, 16), cplx(2, 16)
        got = np.empty((rows, 11), dtype)
        ws = np.empty(k.row_workspace(dtype, 64), dtype)
        k.pruned_rfft_rows(z, u, v, tw_f, ws, got, rows, 64, 16, 11)
        if not _same_bits(_rfft_rows_by_stages(k, z, u, v, tw_f, 11), got):
            return False
        x1, *probe = _unfused_tail_probe(dtype)
        x1[0, 0] = 0  # a zero head bin keeps the tail product's bits
        for ops, tw in (((cplx(rows, 11), cplx(11), cplx(10), cplx(2, 16),
                          cplx(2, 16)), tw_i),
                        ((x1, *probe), _stage_table(2, dtype, True))):
            (rows, m), (s, q) = ops[0].shape, ops[3].shape
            got = np.empty((rows, s * q), dtype)
            ws = np.empty(k.row_workspace(dtype, 2 * s * q), dtype)
            k.pruned_irfft_rows(*ops, tw, ws, got, rows, 2 * s * q, q, m)
            if not _same_bits(_irfft_rows_by_stages(k, *ops, tw), got):
                return False
        # The fused C2C tile driver against the per-stage composition:
        # one row-table call whose entries are the probe's tiles, each
        # copied to its own input and output array, with an empty entry
        # between the first two.
        for (batch, c_in, c_out, modes, p, k_tb,
             tile) in _FUSED_TILE_PROBES:
            dim_x = p * modes
            x, w = cplx(batch, c_in, dim_x), cplx(c_in, c_out)
            tables = [_stage_table(modes, dtype, inv) for inv in (False, True)]
            tables += [np.ascontiguousarray(decomposition_twiddles(
                dim_x, p, modes, inverse=inv).astype(dtype))
                for inv in (False, True)]
            row = max(k_tb, c_out) * dim_x
            work = [np.empty(size, dtype) for size in
                    (row, row, row, k_tb * modes, c_out * modes)]
            xs = [x[b0:b0 + tile].copy() for b0 in range(0, batch, tile)]
            xs.insert(1, x[:0].copy())
            outs = [np.empty((len(t), c_out, dim_x), dtype) for t in xs]
            k.fused_tile_c2c_1d(xs, w, *tables, *work, outs, batch, c_in,
                                c_out, dim_x, modes, k_tb)
            for xt, got in zip(xs, outs):
                ref = _fused_tile_by_stages(k, xt, w, tables, modes, k_tb)
                if not _same_bits(ref, got):
                    return False
        # The rollout step driver against the Python step loop: a 2-D
        # Hermitian column with a k-panel tail (c = 5 at k_tb = 2) and
        # mirror bins inside the kept corner (mx = 3 of dim_x = 4), all
        # steps kept; and the 1-D DC projection on signed zeros.
        signed = np.array([complex(re, im) for re in _SIGNED
                          for im in _SIGNED], dtype)
        for sk, w, k_tb, dim_x, projection, keep in (
                (cplx(2, 5, 3, 4), cplx(5, 5), 2, 4, "herm_x", "all"),
                (signed[:12].reshape(1, 3, 4), signed[4:13].reshape(3, 3), 2,
                 8, "dc_real", "last")):
            bt, c, mx = sk.shape[:3]
            my = sk.shape[3] if sk.ndim == 4 else 1
            got = np.empty((3 if keep == "all" else 1,) + sk.shape, dtype)
            k.spectral_steps(sk, w, np.empty_like(sk), got, bt, c, mx, my,
                             k_tb, 3, dim_x, projection, keep)
            ref = _spectral_steps_by_kernels(k, sk, w, k_tb, 3, dim_x,
                                             projection, keep)
            if not _same_bits(ref, got.reshape(ref.shape)):
                return False
        if not _sym2d_matches(k, cplx, dtype):
            return False
    return True


def _sym2d_matches(k: _Kernels, cplx, dtype) -> bool:
    """The plane drivers against their staged oracles on one probe:
    planes of 8 x 64 (X split 2 of mx = 4; 11 kept bins of q = 16 over
    row split 2, a full AVX2 block plus a tail), one channel, three
    states in a row table with an empty entry, random tables.  The
    synthesis writes through a table and re-analyses every plane, which
    must equal the (checked) analysis of what it wrote; without a table
    (the plane held in the workspace only) its re-analysis must be the
    same."""
    dim_x, dim_y, mx, my, q = 8, 64, 4, 11, 16
    fwd = (cplx(2, q), cplx(2, q), cplx(q - 1), cplx(mx - 1), cplx(2, mx))
    inv = (cplx(my), cplx(my - 1), cplx(2, q), cplx(2, q), cplx(q - 1),
           cplx(mx - 1), cplx(2, mx))
    real = _REAL_DTYPE[np.dtype(dtype)]
    xs = [cplx(n, 1, dim_x, dim_y // 2).view(real) for n in (2, 0, 1)]
    ws = np.empty(k.sym2d_workspace(dim_x, dim_y, mx, my, dtype), dtype)
    geometry = (dim_x, dim_y, mx, my, q)
    sk, again = (np.empty((3, 1, mx, my), dtype) for _ in range(2))
    k.sym2d_analyse(xs, sk, fwd, ws, 3, 1, *geometry)
    outs, nxt = [np.empty_like(x) for x in xs], np.empty_like(sk)
    k.sym2d_synthesise(sk, outs, nxt, inv, fwd, ws, 3, 1, *geometry)
    k.sym2d_analyse(outs, again, fwd, ws, 3, 1, *geometry)
    held = np.empty_like(sk)
    k.sym2d_synthesise(sk, None, held, inv, fwd, ws, 3, 1, *geometry)
    state = np.concatenate(xs)
    return (_same_bits(_sym2d_analyse_by_stages(k, state, fwd, mx, my), sk)
            and _same_bits(_sym2d_synthesise_by_stages(k, sk, inv, dim_x,
                                                       dim_y),
                           np.concatenate(outs))
            and _same_bits(again, nxt) and _same_bits(held, nxt))


def _build_blocker() -> str | None:
    """Why this process must not build or load the kernels, or None."""
    if os.environ.get("REPRO_NO_CKERNELS"):
        return "disabled via REPRO_NO_CKERNELS"
    if _find_cc() is None:
        return "no C compiler found"
    if os.environ.get("REPRO_CKERNELS_SANITIZE") and (
        "asan" not in os.environ.get("LD_PRELOAD", "")
    ):
        # dlopen-ing an ASan-instrumented library into a process whose
        # runtime initialised without ASan doesn't raise — ASan aborts
        # the whole interpreter.  Refuse up front and fall back to
        # NumPy (never to silently-unsanitized kernels).
        return (
            "REPRO_CKERNELS_SANITIZE=1 but no ASan runtime in LD_PRELOAD; "
            "run with LD_PRELOAD=$(gcc -print-file-name=libasan.so)"
        )
    return None


def _passes_self_check(kernels: _Kernels) -> bool:
    """Whether ``kernels`` pass :func:`_self_check` at the picked tier or,
    failing at ``avx512``, at ``avx2``, where the library then stays."""
    if _self_check(kernels):
        return True
    if kernels.tier != "avx512":
        return False
    kernels._cap(TIERS.index("avx2"))
    return _self_check(kernels)


def get_kernels() -> _Kernels | None:
    """The loaded, validated kernel bindings — or None (NumPy fallback)."""
    if _state["tried"]:
        return _state["kernels"]
    _state["tried"] = True
    blocker = _build_blocker()
    if blocker is not None:
        _state["info"] = blocker
        return None
    cc = _find_cc()
    for extra, tag in _flag_variants():
        lib_path = _compile(cc, extra, tag)
        if lib_path is None:
            continue
        try:
            kernels = _Kernels(lib_path, tag)
        except OSError:
            continue
        picked = kernels.tier
        if _passes_self_check(kernels):
            _state["kernels"] = kernels
            _state["info"] = f"loaded ({tag}, {kernels.tier}) from {lib_path}"
            if kernels.tier != picked:
                _state["info"] += f"; its {picked} tier failed the self-check"
            return kernels
        _state["info"] = f"variant {tag} failed the bit-exactness self-check"
    return _state["kernels"]


def kernels_available() -> bool:
    """True when the C executor layer is active."""
    return get_kernels() is not None


def build_info() -> str:
    """Human-readable status of the kernel build (for benchmarks/debug)."""
    get_kernels()
    return _state["info"]


def _reset_for_tests() -> None:
    """Forget the loaded state so tests can exercise both paths."""
    _state.update(kernels=None, tried=False, info="not loaded")
