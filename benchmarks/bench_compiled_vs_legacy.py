#!/usr/bin/env python
"""Compiled plan executors vs the legacy per-call paths.

Measures the three hot paths the compiled layer targets and records the
before/after series under ``benchmarks/results/``:

1. the fused 1-D spectral convolution (prebuilt
   :class:`repro.core.compiled.CompiledSpectralConv1D` vs the frozen
   seed loops in :mod:`repro.core.legacy`),
2. the fused 2-D spectral convolution (likewise),
3. a warm fig14+fig19 heatmap sweep (census-cached, optionally
   process-pooled, vs the seed behaviour of re-censusing every plan).

Every numeric case hard-asserts ``np.array_equal`` between the compiled
and legacy outputs — the compiled layer's contract is byte identity.

Exit status is the CI gate: non-zero when the compiled path is slower
than legacy on the 1-D fused case (tolerance 0.85x when the C kernels
are unavailable and both paths run the same NumPy substrate, where the
residual difference is staging overhead vs noise).  The gate's two
sides are timed in alternating pairs and it reads the median of the
pairs' speedups, so host drift between two separately timed blocks
cannot fail it on unchanged code.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiled_vs_legacy.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

import repro.core.pipeline_model as pipeline_model
import repro.fft.plan as fft_plan_mod
from repro.analysis import figures
from repro.api import clear_plan_cache, default_workers
from repro.core import legacy as core_legacy
from repro.core.compiled import CompiledSpectralConv1D, CompiledSpectralConv2D
from repro.fft._ckernels import build_info, kernels_available
from repro.fft.opcount import census

RESULTS = pathlib.Path(__file__).parent / "results"

#: (batch, hidden K, out dim N, X, modes) — the paper's FP32 1-D regime.
CASES_1D = {
    "quick": [(128, 32, 32, 128, 64)],
    "full": [(256, 64, 64, 128, 64), (1024, 16, 16, 128, 64),
             (512, 16, 16, 256, 128)],
}
#: (batch, K, N, X, Y, modes_x, modes_y).
CASES_2D = {
    "quick": [(4, 32, 32, 128, 64, 64, 32)],
    "full": [(8, 64, 64, 128, 64, 64, 32), (16, 32, 32, 256, 128, 64, 64)],
}


def _timeit(fn, repeats: int) -> float:
    fn()  # warm
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _paired(legacy, compiled, pairs: int) -> tuple[float, float, float]:
    """Time ``legacy`` and ``compiled`` in ``pairs`` alternating pairs
    (which side runs first alternates too); return each side's median
    and the median of the pairs' ``legacy / compiled`` ratios."""
    legacy()
    compiled()  # warm
    t_leg, t_cmp = [], []
    sides = [(legacy, t_leg), (compiled, t_cmp)]
    for i in range(pairs):
        for fn, times in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    ratio = statistics.median(a / b for a, b in zip(t_leg, t_cmp))
    return statistics.median(t_leg), statistics.median(t_cmp), ratio


def bench_fused_1d(cases, repeats, rng):
    rows = []
    for (batch, k, n, dim_x, modes) in cases:
        x = rng.standard_normal((batch, k, dim_x), dtype=np.float32)
        w = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
             ).astype(np.complex64)
        conv = CompiledSpectralConv1D(w, modes)
        ref = core_legacy.fused_fft_gemm_ifft_1d(x, w, modes)
        got = conv(x)
        if not np.array_equal(ref, got):
            raise SystemExit("1-D compiled output != legacy output")
        t_leg, t_cmp, speedup = _paired(
            lambda: core_legacy.fused_fft_gemm_ifft_1d(x, w, modes),
            lambda: conv(x), 2 * repeats + 1)
        rows.append({
            "case": f"BS={batch} K={k} N={n} X={dim_x} modes={modes}",
            "legacy_ms": t_leg * 1e3,
            "compiled_ms": t_cmp * 1e3,
            "speedup": speedup,
            "outputs_equal": True,
        })
    return rows


def bench_fused_2d(cases, repeats, rng):
    rows = []
    for (batch, k, n, dim_x, dim_y, mx, my) in cases:
        x = rng.standard_normal((batch, k, dim_x, dim_y), dtype=np.float32)
        w = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
             ).astype(np.complex64)
        conv = CompiledSpectralConv2D(w, mx, my)
        ref = core_legacy.fused_fft_gemm_ifft_2d(x, w, mx, my)
        got = conv(x)
        if not np.array_equal(ref, got):
            raise SystemExit("2-D compiled output != legacy output")
        t_leg = _timeit(
            lambda: core_legacy.fused_fft_gemm_ifft_2d(x, w, mx, my), repeats
        )
        t_cmp = _timeit(lambda: conv(x), repeats)
        rows.append({
            "case": f"BS={batch} K={k} N={n} grid={dim_x}x{dim_y} "
                    f"modes={mx}x{my}",
            "legacy_ms": t_leg * 1e3,
            "compiled_ms": t_cmp * 1e3,
            "speedup": t_leg / t_cmp,
            "outputs_equal": True,
        })
    return rows


def _run_sweep(dense: bool, workers: int | None):
    clear_plan_cache()
    return figures.fig14(dense=dense, workers=workers) + figures.fig19(
        dense=dense, workers=workers
    )


def bench_sweep(dense: bool, repeats: int, workers: int):
    """Warm fig14+fig19 regeneration: seed behaviour vs compiled caches.

    'Warm' = the process (imports, twiddles) is warm; each measured
    round regenerates every panel from a cold *plan* cache, which is the
    work a sweep actually does.  Legacy rounds additionally bypass the
    census cache the way the seed did (every plan re-censuses its
    pruning fractions).

    Both paths are measured serially — the headline ``speedup`` isolates
    the caching win and never credits process parallelism.  When
    ``workers > 1`` the pooled compiled round is measured as well and
    reported separately (``compiled_parallel_ms``).
    """
    uncached = census.__wrapped__
    patched = [(pipeline_model, "census"), (fft_plan_mod, "census")]

    def legacy_round():
        for mod, name in patched:
            setattr(mod, name, uncached)
        try:
            return _run_sweep(dense, workers=None)
        finally:
            for mod, name in patched:
                setattr(mod, name, census)

    compiled_serial = lambda: _run_sweep(dense, workers=None)

    ref = legacy_round()
    got = compiled_serial()
    equal = all(
        np.array_equal(a.values, b.values) for a, b in zip(ref, got)
    )
    if not equal:
        raise SystemExit("sweep compiled values != legacy values")
    t_leg = _timeit(legacy_round, repeats)
    t_cmp = _timeit(compiled_serial, repeats)
    row = {
        "case": f"fig14+fig19 {'dense' if dense else 'default'} grids, "
                f"serial vs serial",
        "legacy_ms": t_leg * 1e3,
        "compiled_ms": t_cmp * 1e3,
        "speedup": t_leg / t_cmp,
        "outputs_equal": True,
    }
    if workers > 1:
        par = _run_sweep(dense, workers)
        if not all(np.array_equal(a.values, b.values)
                   for a, b in zip(ref, par)):
            raise SystemExit("parallel sweep values != legacy values")
        t_par = _timeit(lambda: _run_sweep(dense, workers), repeats)
        row["compiled_parallel_ms"] = t_par * 1e3
        row["compiled_parallel_workers"] = workers
        row["parallel_speedup"] = t_leg / t_par
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small cases + sparse sweep grids (the CI gate)")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--workers", type=int, default=None,
                    help="process-pool width for the sweep case "
                         "(default: cpu count)")
    ap.add_argument("--out", default=str(RESULTS / "compiled_vs_legacy.json"))
    args = ap.parse_args(argv)

    mode = "quick" if args.quick else "full"
    repeats = args.repeats or (3 if args.quick else 5)
    workers = args.workers if args.workers is not None else default_workers()
    rng = np.random.default_rng(0)

    report = {
        "meta": {
            "mode": mode,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "ckernels": kernels_available(),
            "ckernels_info": build_info(),
        },
        "fused_1d": bench_fused_1d(CASES_1D[mode], repeats, rng),
        "fused_2d": bench_fused_2d(CASES_2D[mode], repeats, rng),
        "sweep": bench_sweep(dense=not args.quick, repeats=repeats,
                             workers=workers),
    }

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"# compiled vs legacy ({mode}; C kernels: "
          f"{report['meta']['ckernels_info']})")
    for section in ("fused_1d", "fused_2d"):
        for row in report[section]:
            print(f"  {section}  {row['case']}: "
                  f"{row['legacy_ms']:8.1f} ms -> {row['compiled_ms']:8.1f} ms "
                  f"({row['speedup']:.2f}x)")
    row = report["sweep"]
    print(f"  sweep     {row['case']}: {row['legacy_ms']:8.1f} ms -> "
          f"{row['compiled_ms']:8.1f} ms ({row['speedup']:.2f}x)")

    # CI gate: the compiled 1-D fused path must not be slower than legacy.
    floor = 1.0 if report["meta"]["ckernels"] else 0.85
    worst = min(r["speedup"] for r in report["fused_1d"])
    if worst < floor:
        print(f"FAIL: compiled 1-D fused path at {worst:.2f}x < {floor:.2f}x "
              f"of legacy", file=sys.stderr)
        return 1
    print(f"OK: compiled 1-D fused path >= {floor:.2f}x legacy "
          f"(worst {worst:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
