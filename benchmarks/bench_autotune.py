#!/usr/bin/env python
"""Autotuned executor tiles vs the fixed legacy tiling.

Measures the tentpole of the tiling-autotune PR: compiled spectral-conv
executors built with ``tiles="auto"`` — plan-time tile search over a
small ``(signal_tile, k_tb)`` candidate grid, seeded by the analytic
cache-footprint model and cached in the tune store — against the same
executors on the inherited fixed tiling (``signal_tile=16``,
``k_tb=8``).

The search space is bit-exact by construction (signal tiles partition
row-independent work; staging ``k_tb`` is a whole multiple of the
accumulation width), and this benchmark **hard-asserts** it: every
autotuned output must be byte-identical to the default-tile output and
to the frozen :mod:`repro.core.legacy` oracle.  Symmetric
(half-spectrum) executors are untiled, so they have no row here.  Tune
time is reported separately: it is plan-time cost, paid once per
(geometry, dtype, backend, batch bucket) and amortised by the persistent
store.

Exit status is the CI gate: non-zero unless the geomean autotuned
speedup over the gated (fused) cases reaches the floor on at least one
backend — tiling autotune must pay for itself somewhere, on every
runner.

Usage::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core import legacy
from repro.core.autotune import TuneStore, Tuner, probe_signal
from repro.core.compiled import compile_spectral_conv
from repro.fft._ckernels import build_info, kernels_available
from repro.fft.compiled import PlanCaches

RESULTS = pathlib.Path(__file__).parent / "results"

#: (kind, batch, hidden K = C_in = C_out, spatial, modes, gated).
#: Serving-shaped geometries — many signals over few channels — where
#: the fixed signal_tile=16 leaves dispatch amortisation on the table,
#: plus a channel-heavy case and (full mode) a 2-D case.  ``gated``
#: marks the cases the geomean gate runs over.
CASES = {
    "quick": [
        ("fused1d", 512, 8, (64,), (32,), True),
        ("fused1d", 256, 16, (64,), (32,), True),
    ],
    "full": [
        ("fused1d", 512, 8, (64,), (32,), True),
        ("fused1d", 256, 16, (64,), (32,), True),
        ("fused1d", 384, 8, (128,), (32,), True),
        ("fused1d", 256, 32, (128,), (64,), True),
        ("fused2d", 32, 8, (32, 64), (8, 32), True),
    ],
}

#: Geomean floor for the CI gate (best backend over the gated cases).
GEOMEAN_FLOOR = 1.10


def _timeit(fn, repeats: int) -> float:
    fn()  # warm: lazy staging must not bill the timed path
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _oracle(kind, x, weight, modes):
    if kind == "fused1d":
        return legacy.fused_fft_gemm_ifft_1d(x, weight, modes[0])
    return legacy.fused_fft_gemm_ifft_2d(x, weight, *modes)


def bench_case(case, plans, tuner, repeats, rng):
    kind, batch, hidden, spatial, modes, gated = case
    weight = (
        (rng.standard_normal((hidden, hidden))
         + 1j * rng.standard_normal((hidden, hidden))) / hidden
    ).astype(np.complex64)
    x = probe_signal((batch, hidden, *spatial), np.float32)
    modes_arg = modes if len(modes) > 1 else modes[0]

    default_ex = compile_spectral_conv(weight, modes_arg, plans=plans)
    tuned_ex = compile_spectral_conv(
        weight, modes_arg, plans=plans, tiles="auto", tuner=tuner,
    )
    t0 = time.perf_counter()
    tiles = tuned_ex.resolve_tiles(batch, spatial, dtype=np.float32)
    tune_s = time.perf_counter() - t0

    ref = default_ex(x)
    got = tuned_ex(x)
    if got.dtype != ref.dtype or not np.array_equal(got, ref):
        raise SystemExit(
            f"FATAL: autotuned output != default-tile output ({kind})"
        )
    if not np.array_equal(got, _oracle(kind, x, weight, modes)):
        raise SystemExit(
            f"FATAL: autotuned output != core.legacy oracle ({kind})"
        )

    t_default = _timeit(lambda: default_ex(x), repeats)
    t_tuned = _timeit(lambda: tuned_ex(x), repeats)
    return {
        "case": (
            f"{kind} B={batch} K={hidden} "
            f"spatial={'x'.join(map(str, spatial))} "
            f"modes={'x'.join(map(str, modes))}"
        ),
        "kind": kind,
        "gated": gated,
        "tiles": list(tiles),
        "default_ms": t_default * 1e3,
        "tuned_ms": t_tuned * 1e3,
        "speedup": t_default / t_tuned,
        "tune_seconds": tune_s,
        "outputs_equal": True,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small grid (the CI gate)")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--out", default=str(RESULTS / "autotune.json"))
    args = ap.parse_args(argv)

    mode = "quick" if args.quick else "full"
    repeats = args.repeats or (3 if args.quick else 5)
    rng = np.random.default_rng(0)

    backends = ["numpy"] + (["auto"] if kernels_available() else [])
    by_backend = {}
    for backend in backends:
        plans = PlanCaches(backend=backend)
        # An isolated throwaway store: the benchmark must measure a
        # fresh search, not recall winners from the developer's cache.
        store = TuneStore(
            pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-tune-"))
            / "autotune.json"
        )
        tuner = Tuner(store=store)
        rows = [
            bench_case(case, plans, tuner, repeats, rng)
            for case in CASES[mode]
        ]
        gated = [r["speedup"] for r in rows if r["gated"]]
        geomean = math.exp(sum(math.log(s) for s in gated) / len(gated))
        by_backend[backend] = {
            "rows": rows,
            "geomean_gated": geomean,
            "tuner": tuner.stats(),
        }

    report = {
        "meta": {
            "mode": mode,
            "repeats": repeats,
            "geomean_floor": GEOMEAN_FLOOR,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "ckernels": kernels_available(),
            "ckernels_info": build_info(),
            "backends": backends,
        },
        "autotune": by_backend,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"# executor tile autotune ({mode}; C kernels: "
          f"{report['meta']['ckernels_info']})")
    for backend, data in by_backend.items():
        for row in data["rows"]:
            st, ktb = row["tiles"]
            gate = "*" if row["gated"] else " "
            print(f" {gate}[{backend:>6s}] {row['case']:<44s} "
                  f"tiles=(st={st}, k_tb={ktb}) "
                  f"{row['default_ms']:8.2f} -> {row['tuned_ms']:8.2f} ms "
                  f"({row['speedup']:.2f}x; tune {row['tune_seconds']:.2f}s)")
        print(f"  [{backend:>6s}] geomean over gated cases: "
              f"{data['geomean_gated']:.3f}x")

    # CI gate: autotune must pay for itself on at least one backend.
    best = max(d["geomean_gated"] for d in by_backend.values())
    if best < GEOMEAN_FLOOR:
        print(f"FAIL: best-backend geomean {best:.3f}x < "
              f"{GEOMEAN_FLOOR:.2f}x floor", file=sys.stderr)
        return 1
    print(f"OK: autotuned geomean >= {GEOMEAN_FLOOR:.2f}x on at least one "
          f"backend (best {best:.3f}x); byte identity asserted on every "
          f"case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
