"""Plan-time tile autotuning for the compiled spectral-conv executors.

The compiled executors' fused C2C dataflow (the 1-D executor and the
2-D executor's per-pencil stage) inherited the legacy loops' fixed
tiling — ``signal_tile=16`` signals per tile, ``k_tb=8`` channels per
accumulation panel — but the measured contraction throughput depends on
the geometry: small-channel serving workloads want large signal tiles
(Python/ctypes dispatch amortisation), large accumulators want small
ones (the ``(signal_tile, C_out, modes)`` C tile must stay cache
resident), and multi-panel weights want wider *staging* blocks (one
gather/FFT/decomposition pass feeding several accumulation panels).
This is the CPU-substrate mirror of the paper's shared-memory occupancy
reasoning — a tile is fast when its working set fits the staging memory
— and of cuFFT/FFTW plan-time autotuning: measure a small grid of
candidates once, remember the winner.

Crucially the search is **free of correctness risk**: every candidate
this module proposes changes only *where* operands live, never one
floating-point operation.  Signal tiles partition row-independent
work, and the staging ``k_tb`` is constrained to whole multiples of the
executor's accumulation width, so the ``panel_contract`` accumulation
order — the only tiling-sensitive arithmetic in the stack — is replayed
verbatim.  Autotuned executors are byte-identical to the default-tile
executors and the :mod:`repro.core.legacy` oracle (property-tested in
``tests/test_autotune_differential.py``).

Pieces
------
:class:`Tiles`
    One candidate: ``(signal_tile, k_tb)``.  ``signal_tile`` is the
    batch tile in signals; ``k_tb`` is the *staging* block in channels,
    a whole multiple of the accumulation panel width.
:func:`candidate_tiles`
    The search grid for one geometry, ordered by
    :func:`predicted_cost` — an analytic cache-footprint model built on
    :class:`repro.gpu.sharedmem.StagingOccupancy` — so measurement
    visits the most promising candidates first.
:class:`TuneStore`
    The persistent winner cache: one versioned JSON file under
    ``~/.cache/repro`` (override with ``REPRO_TUNE_CACHE``).  Corrupt
    files, version mismatches and malformed entries are silently
    ignored; unwritable locations degrade to in-memory storage.
:class:`Tuner`
    The in-session front end: memoises winners per tune key, counts
    hits/misses (surfaced by :meth:`repro.api.Session.stats`), and runs
    the timed search on a miss.

Fused executors consult a tuner when built with ``tiles="auto"``
(:mod:`repro.core.compiled`); symmetric executors are untiled and never
do.  A :class:`repro.api.Session` created with ``autotune=True`` owns
one tuner for all its pooled executors, and the ``python -m repro
tune`` command warms the persistent store offline.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.gpu.sharedmem import StagingOccupancy

try:
    import fcntl
except ImportError:  # pragma: no cover - no advisory locks on this OS
    fcntl = None

__all__ = [
    "TUNE_STORE_VERSION",
    "Tiles",
    "TuneKey",
    "TuneStore",
    "Tuner",
    "batch_bucket",
    "candidate_tiles",
    "default_tune_store",
    "default_tuner",
    "predicted_cost",
    "tune_store_path",
]

#: Store-format version; bumped whenever the meaning of a stored entry
#: changes.  Entries written by any other version are ignored (stale).
TUNE_STORE_VERSION = 1

#: Cache budget (bytes) the analytic model assumes one tile's working
#: set should fit in.  CPython gives no portable cache introspection;
#: 1 MiB is a conservative per-core L2 figure and only *orders* the
#: candidate grid — measurement always has the final word.
CACHE_BUDGET_BYTES = 1 << 20

#: Signal-tile candidates (filtered to the batch bucket per geometry).
SIGNAL_TILE_CANDIDATES = (4, 8, 16, 32, 64, 128)

#: Staging-block multipliers of the accumulation panel width.
K_BLOCK_MULTIPLIERS = (1, 2, 4, 8)

#: Candidates measured per tune (the model-ordered grid is truncated to
#: this; the default tiles are always kept as the safety baseline).
MAX_MEASURED_CANDIDATES = 10

#: Probe batches are capped here: beyond it, larger signal tiles are
#: indistinguishable while probe cost and memory keep growing.
PROBE_BATCH_CAP = 128

#: Timing repeats per candidate (min-of); the probe runs once extra to
#: warm lazily-staged workspaces before the clock starts.
MEASURE_REPEATS = 2


class Tiles(NamedTuple):
    """One tiling configuration of the fused dataflow.

    ``signal_tile``: signals per batch tile (at least 1).  ``k_tb``:
    channels staged per gather/FFT pass — a whole multiple of the
    accumulation panel width, so accumulation order (and therefore
    every output bit) is independent of the choice.
    """

    signal_tile: int
    k_tb: int


def batch_bucket(batch: int) -> int:
    """Coarse batch class a tune result is keyed on.

    Winners depend on the batch only through "how many signal tiles fit"
    — bucketing to the next power of two (floor 32, cap 256) keeps one
    serving stream from re-tuning per micro-batch size while still
    separating small-batch from large-batch regimes.
    """
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    bucket = 32
    while bucket < batch and bucket < 256:
        bucket *= 2
    return bucket


def bucket_ladder(batch: int) -> list[int]:
    """Every batch bucket a workload of up to ``batch`` signals can
    resolve to — what :meth:`repro.api.Session.warmup` pre-tunes, so a
    serving stream whose micro-batches are *smaller* than the warmed
    problem batch still never searches inline."""
    top = batch_bucket(batch)
    ladder, bucket = [], 32
    while bucket <= top:
        ladder.append(bucket)
        bucket *= 2
    return ladder


@dataclass(frozen=True)
class TuneKey:
    """Everything a tile winner is allowed to depend on.

    Winners belong to the one tiled dataflow, the fused 1-D pass (also
    the 2-D executor's per-pencil fused stage); its store keys keep the
    ``"fused1d"`` prefix they always had, so stored winners still hit.
    ``k_tb`` is the executor's *accumulation* panel width (winners are
    measured under one accumulation grouping and constrain the staging
    width to its multiples — executors with different ``k_tb`` must
    never share a winner); ``backend`` is the *resolved* substrate
    (``"ckernels"``/``"numpy"``, never ``"auto"``), because the two
    substrates have different dispatch costs and therefore different
    winners.
    """

    spatial: tuple[int, ...]
    modes: tuple[int, ...]
    c_in: int
    c_out: int
    k_tb: int
    batch_bucket: int
    dtype: str
    backend: str

    def as_string(self) -> str:
        """The store key: stable, human-readable, one line."""
        return "|".join((
            "fused1d",
            "x".join(map(str, self.spatial)),
            "m" + "x".join(map(str, self.modes)),
            f"cin{self.c_in}",
            f"cout{self.c_out}",
            f"ktb{self.k_tb}",
            f"b{self.batch_bucket}",
            self.dtype,
            self.backend,
        ))


# ---------------------------------------------------------------------------
# The analytic seed model
# ---------------------------------------------------------------------------

def _working_set_bytes(tiles: Tiles, *, c_in: int, c_out: int, modes: int,
                       p: int, itemsize: int) -> int:
    """Bytes live across one signal tile of the fused dataflow.

    Mirrors ``_StagedFused1D``'s staging exactly: the gather/FFT
    ping-pong pair sized for the wider of the staging block and the
    epilogue, the C accumulator, the decomposition buffer, and the
    pre-cast weight panels (all panels are touched every tile).
    """
    st = tiles.signal_tile
    rows = st * max(tiles.k_tb, c_out) * p
    gather_pair = 2 * rows * modes * itemsize
    acc = st * c_out * modes * itemsize
    dec = st * tiles.k_tb * modes * itemsize if p > 1 else 0
    panels = c_in * c_out * itemsize
    return gather_pair + acc + dec + panels


def predicted_cost(tiles: Tiles, *, batch: int, c_in: int, c_out: int,
                   modes: int, p: int = 1, itemsize: int = 8,
                   cache_bytes: int = CACHE_BUDGET_BYTES) -> float:
    """Analytic cost proxy used to *order* the candidate grid.

    Two competing terms, the same trade the paper's shared-memory
    occupancy analysis balances on the GPU:

    * **dispatch** — every signal tile pays a fixed Python/ctypes
      dispatch cost per staged pass (gather, FFT, decomposition) and per
      accumulation panel; fewer, larger tiles amortise it;
    * **spill** — the per-tile traffic is inflated by
      :meth:`StagingOccupancy.spill_factor` once the tile's working set
      exceeds the cache budget, so oversized tiles lose what they saved
      on dispatch.

    The absolute value is meaningless; only the ordering is consumed
    (measurement decides the winner).
    """
    st = tiles.signal_tile
    n_tiles = -(-batch // st)
    n_panels = max(1, -(-c_in // 8))  # panel count is k_tb-invariant
    n_groups = max(1, -(-(c_in) // max(tiles.k_tb, 1)))
    dispatch = n_tiles * (3.0 * n_groups + 1.0 * n_panels + 2.0)
    traffic = float(
        batch * (c_in + 2 * c_out) * modes * p * itemsize
    )
    occupancy = StagingOccupancy(cache_bytes)
    spill = occupancy.spill_factor(_working_set_bytes(
        tiles, c_in=c_in, c_out=c_out, modes=modes, p=p, itemsize=itemsize
    ))
    # One dispatch unit ~ the traffic of a few cache lines; the constant
    # only balances the two terms' scales for ordering purposes.
    return dispatch * 4096.0 + traffic * spill


def candidate_tiles(*, batch: int, c_in: int, c_out: int, modes: int,
                    p: int = 1, k_tb: int = 8, itemsize: int = 8,
                    max_candidates: int = MAX_MEASURED_CANDIDATES,
                    default: Tiles | None = None) -> list[Tiles]:
    """The model-ordered candidate grid for one geometry.

    ``k_tb`` is the executor's accumulation panel width: staging-block
    candidates are its whole multiples (clamped to the panel-covering
    width of ``c_in``), so every candidate is bit-identical by
    construction.  ``default`` (when given)
    always survives the truncation, as the measured safety baseline.
    """
    if k_tb < 1:
        raise ValueError(f"k_tb must be positive, got {k_tb}")
    covering = -(-max(c_in, 1) // k_tb) * k_tb
    k_cands = sorted({
        min(k_tb * mult, covering) for mult in K_BLOCK_MULTIPLIERS
    })
    st_cands = [st for st in SIGNAL_TILE_CANDIDATES if st <= max(batch, 1)]
    if not st_cands:
        st_cands = [1]
    grid = {Tiles(st, kb) for st in st_cands for kb in k_cands}
    if default is not None:
        grid.add(default)
    ordered = sorted(
        grid,
        key=lambda t: (predicted_cost(
            t, batch=batch, c_in=c_in, c_out=c_out, modes=modes, p=p,
            itemsize=itemsize,
        ), t),
    )
    if max_candidates is not None and len(ordered) > max_candidates:
        kept = ordered[:max_candidates]
        if default is not None and default not in kept:
            kept[-1] = default
        ordered = kept
    return ordered


# ---------------------------------------------------------------------------
# The persistent store
# ---------------------------------------------------------------------------

def tune_store_path() -> pathlib.Path:
    """Where the persistent tune store lives.

    ``REPRO_TUNE_CACHE`` overrides (a file path, or a directory to hold
    the default file name); otherwise ``~/.cache/repro/autotune.json``.
    Resolved per call, so tests and deployments can redirect it at any
    time.
    """
    override = os.environ.get("REPRO_TUNE_CACHE")
    if override:
        path = pathlib.Path(override)
        if path.is_dir():
            return path / "autotune.json"
        return path
    return pathlib.Path.home() / ".cache" / "repro" / "autotune.json"


def _valid_entry(entry) -> Tiles | None:
    """Parse one stored entry; None for anything malformed."""
    if not isinstance(entry, dict):
        return None
    st, ktb = entry.get("signal_tile"), entry.get("k_tb")
    if isinstance(st, bool) or isinstance(ktb, bool):
        return None
    if not isinstance(st, int) or not isinstance(ktb, int):
        return None
    if st < 1 or ktb < 1:
        return None
    return Tiles(st, ktb)


@contextmanager
def _store_lock(path: pathlib.Path):
    """Hold an advisory exclusive ``flock`` on ``path``'s sidecar
    ``.lock`` file for the block.  Where locking is unavailable (no
    ``fcntl``, a read-only directory) the block runs unlocked."""
    fd = None
    if fcntl is not None:
        try:
            fd = os.open(f"{path}.lock", os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            if fd is not None:
                os.close(fd)
            fd = None
    try:
        yield
    finally:
        if fd is not None:
            os.close(fd)  # releases the lock


class TuneStore:
    """The on-disk winner cache: one versioned JSON file.

    Robustness contract (property-tested): a corrupt file, a version
    mismatch, or a malformed entry reads as *empty* — never an
    exception; an unwritable path degrades writes to in-memory storage
    (the session keeps its winners, the disk is left alone).  Writes are
    atomic (tempfile + rename) so concurrent processes can share one
    store without torn files, and a write's read-merge-replace holds an
    advisory lock on a sidecar ``<store>.lock`` file, so winners written
    concurrently by several processes are all kept.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self._fixed_path = pathlib.Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._mem: dict[str, dict] = {}

    @property
    def path(self) -> pathlib.Path:
        return (self._fixed_path if self._fixed_path is not None
                else tune_store_path())

    def _read_entries(self) -> dict:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        if raw.get("version") != TUNE_STORE_VERSION:
            return {}  # stale format: ignored wholesale
        entries = raw.get("entries")
        return entries if isinstance(entries, dict) else {}

    def get(self, key: str) -> Tiles | None:
        """The stored winner for ``key`` (None: absent or malformed).
        Entries whose disk write failed are served from memory."""
        with self._lock:
            entry = self._read_entries().get(key)
            if entry is None:
                entry = self._mem.get(key)
        return _valid_entry(entry)

    def put(self, key: str, tiles: Tiles, extra: dict | None = None) -> None:
        """Record a winner.  Disk failures are absorbed: the entry stays
        readable from this store instance either way."""
        entry = {"signal_tile": int(tiles.signal_tile),
                 "k_tb": int(tiles.k_tb)}
        if extra:
            entry.update(extra)
        with self._lock:
            self._mem[key] = entry
            path = self.path
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError:
                return  # read-only location: in-memory fallback
            with _store_lock(path):
                entries = self._read_entries()
                entries.update(self._mem)
                payload = json.dumps(
                    {"version": TUNE_STORE_VERSION, "entries": entries},
                    indent=2, sort_keys=True,
                )
                try:
                    fd, tmp = tempfile.mkstemp(
                        dir=str(path.parent), prefix=path.name,
                        suffix=".tmp",
                    )
                    try:
                        with os.fdopen(fd, "w") as fh:
                            fh.write(payload + "\n")
                        os.replace(tmp, path)
                    except BaseException:
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
                        raise
                except OSError:
                    return  # read-only location: in-memory fallback
            # Flushed to disk: the memory copy would otherwise shadow
            # the file if the store path is later redirected.
            self._mem.clear()

    def entries(self) -> dict[str, Tiles]:
        """Every valid entry visible to this store (disk + memory)."""
        with self._lock:
            merged = self._read_entries()
            merged.update(self._mem)
        out = {}
        for key, entry in merged.items():
            tiles = _valid_entry(entry)
            if tiles is not None:
                out[key] = tiles
        return out


_default_store = TuneStore()


def default_tune_store() -> TuneStore:
    """The process-wide persistent store (path resolved per access)."""
    return _default_store


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------

class Tuner:
    """Resolves tile winners: memo -> persistent store -> timed search.

    Thread-safe; every :meth:`tiles_for` call counts exactly one hit
    (memo or store, including threads that waited out another thread's
    in-flight search of the same key) or one miss (this call ran a
    search).  The lock guards only the bookkeeping — the timed search
    itself runs *outside* it behind a per-key in-flight guard, so a
    cold geometry being tuned never stalls hot geometries resolving
    their memoised winners.  A session owns one tuner so its serving
    stats stay per-session; standalone ``tiles="auto"`` executors share
    :func:`default_tuner`.
    """

    def __init__(self, store: TuneStore | None = None):
        self.store = store if store is not None else default_tune_store()
        self._lock = threading.Lock()
        self._memo: dict[str, Tiles] = {}
        self._pending: dict[str, threading.Event] = {}
        self._hits = 0
        self._misses = 0

    def tiles_for(
        self,
        key: TuneKey,
        default: Tiles,
        candidates: Sequence[Tiles] | Callable[[], Sequence[Tiles]],
        measure: Callable[[Tiles], float],
        is_valid: Callable[[Tiles], bool] | None = None,
        retune: bool = False,
    ) -> Tiles:
        """The winning tiles for ``key``.

        ``candidates`` is the search grid, or a zero-argument callable
        building it; like ``measure``, which times one candidate
        (seconds, lower is better), it runs only on a miss, so a hit
        costs no grid construction.  ``is_valid`` guards entries recalled from
        the memo/store against a caller whose constraints changed (an
        incompatible recalled entry is treated as a miss and re-tuned).
        ``retune`` forces a fresh search, overwriting the stored winner
        (a search another thread has in flight satisfies it).
        """
        ks = key.as_string()
        ok = is_valid if is_valid is not None else (lambda _t: True)
        while True:
            check_store = False
            with self._lock:
                if not retune:
                    tiles = self._memo.get(ks)
                    if tiles is not None and ok(tiles):
                        self._hits += 1
                        return tiles
                    check_store = tiles is None
            if check_store:
                tiles = self.store.get(ks)
                if tiles is not None and ok(tiles):
                    with self._lock:
                        self._memo[ks] = tiles
                        self._hits += 1
                    return tiles
            with self._lock:
                if not retune:
                    # another thread may have finished while we read
                    # the store
                    tiles = self._memo.get(ks)
                    if tiles is not None and ok(tiles):
                        self._hits += 1
                        return tiles
                pending = self._pending.get(ks)
                if pending is None:
                    pending = self._pending[ks] = threading.Event()
                    self._misses += 1
                    break  # this call owns the search
            # Wait out the in-flight search, then re-resolve from the
            # memo (counted as a hit; also satisfies a retune request).
            pending.wait()
            retune = False
        try:
            if callable(candidates):
                candidates = candidates()
            best, best_t, default_t = default, None, None
            for cand in candidates:
                if not ok(cand):
                    continue
                seconds = measure(cand)
                if cand == default:
                    default_t = seconds
                if best_t is None or seconds < best_t:
                    best, best_t = cand, seconds
            with self._lock:
                self._memo[ks] = best
            extra = {}
            if best_t is not None:
                extra["ms"] = round(best_t * 1e3, 4)
            if default_t is not None:
                extra["default_ms"] = round(default_t * 1e3, 4)
            self.store.put(ks, best, extra)
            return best
        finally:
            with self._lock:
                self._pending.pop(ks, None)
            pending.set()

    def clear_memo(self) -> None:
        """Evict every in-session winner (the persistent store stays)."""
        with self._lock:
            self._memo.clear()

    def stats(self) -> dict:
        """JSON-ready counters: hits, misses, memoised entries."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._memo),
            }


_default_tuner: Tuner | None = None
_default_tuner_lock = threading.Lock()


def default_tuner() -> Tuner:
    """The process-wide tuner behind standalone ``tiles="auto"``
    executors (sessions own their own)."""
    global _default_tuner
    if _default_tuner is None:
        with _default_tuner_lock:
            if _default_tuner is None:
                _default_tuner = Tuner()
    return _default_tuner


# ---------------------------------------------------------------------------
# Measurement helpers (shared by executors, the CLI and the benchmark)
# ---------------------------------------------------------------------------

def measure_seconds(fn: Callable[[], object],
                    repeats: int = MEASURE_REPEATS) -> float:
    """Min-of-``repeats`` wall-clock seconds of ``fn()`` after one
    untimed warmup call (lazy staging must not bill the first
    candidate)."""
    fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def probe_batch(bucket: int) -> int:
    """Synthetic probe batch for one tune: the batch bucket, capped."""
    return min(bucket, PROBE_BATCH_CAP)


def probe_signal(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A deterministic synthetic probe input (values are irrelevant to
    timing; determinism keeps tune results reproducible)."""
    rng = np.random.default_rng(0)
    dtype = np.dtype(dtype)
    if dtype.kind == "c":
        real = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return real.astype(dtype)
    return rng.standard_normal(shape).astype(dtype)
