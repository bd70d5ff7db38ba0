#!/usr/bin/env python
"""Session batched inference vs the per-request ``spectral_conv`` path.

Measures the serving path the ``repro.api.Session`` tentpole adds: a
mixed-geometry stream of Fourier-layer inference requests served three
ways —

1. **per-call** — ``api.spectral_conv(x, w, modes)``
   per request: the pre-session hot path, which restages a throwaway
   executor (weight casts, plan lookups) on every call;
2. **session, cold** — the first ``session.infer_many`` pass on a fresh
   session: pays executor compilation and FFT-plan construction once;
3. **session, warm** — ``session.infer_many`` on the warmed session:
   geometry micro-batching over the pooled compiled executors.

Every backend is measured in-process via ``Session(backend=...)`` —
per-session configuration, no environment flag needed — and every case
hard-asserts ``np.array_equal`` between the batched results, the serial
``session.infer`` loop, and the per-call reference: micro-batching must
not change a single bit, on either substrate.

Exit status is the CI gate: non-zero when warm batched serving is
slower than the per-call path (floor 1.0 with the C kernels, 0.9 on
the pure-NumPy fallback where both paths share the same substrate and
the residual margin is staging overhead vs noise).

Usage::

    PYTHONPATH=src python benchmarks/bench_session_infer.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro import api
from repro.fft._ckernels import build_info, kernels_available

RESULTS = pathlib.Path(__file__).parent / "results"

#: (signal batch per request, hidden K, [(dim_x, modes), ...], requests).
#: Serving-shaped traffic: many small requests over few geometries.
CASES = {
    "quick": [(1, 32, [(128, 64), (256, 64)], 96)],
    "full": [
        (1, 32, [(128, 64), (256, 64)], 384),
        (2, 64, [(128, 64), (256, 128)], 192),
        (1, 16, [(128, 32), (256, 64), (512, 128)], 576),
    ],
}


def _timeit(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _build_requests(signal_batch, hidden, geometries, n_requests, rng):
    weight = (
        (rng.standard_normal((hidden, hidden))
         + 1j * rng.standard_normal((hidden, hidden))) / hidden
    ).astype(np.complex64)
    # One model per modes count (weights shared), round-robin geometries.
    models = {m: api.SpectralModel(weight, m) for _, m in geometries}
    requests = []
    for i in range(n_requests):
        dim_x, modes = geometries[i % len(geometries)]
        x = (
            rng.standard_normal((signal_batch, hidden, dim_x))
            + 1j * rng.standard_normal((signal_batch, hidden, dim_x))
        ).astype(np.complex64)
        requests.append((models[modes], x))
    return weight, requests


def bench_case(case, backend, max_batch, workers, repeats, rng):
    signal_batch, hidden, geometries, n_requests = case
    weight, requests = _build_requests(
        signal_batch, hidden, geometries, n_requests, rng
    )

    # Cold: a fresh session pays plan + executor staging inside the call.
    cold_session = api.Session(backend=backend, private_caches=True)
    t0 = time.perf_counter()
    cold = cold_session.infer_many(requests, max_batch=max_batch)
    t_cold = time.perf_counter() - t0
    cold_session.close()

    session = api.Session(backend=backend, private_caches=True)

    def per_call():
        # The pre-session hot path *on the same warm session/substrate*:
        # one functional spectral_conv per request, restaging a
        # throwaway executor each call (FFT plans come from the
        # session's caches via the activation scope).
        with session.activate():
            return [
                api.spectral_conv(x, model.weight, model.modes[0])
                for model, x in requests
            ]

    ref = per_call()
    warm0 = session.infer_many(requests, max_batch=max_batch)  # warm it
    serial = [session.infer(model, x) for model, x in requests]
    batched = session.infer_many(requests, max_batch=max_batch)
    threaded = session.infer_many(
        requests, max_batch=max_batch, workers=workers
    )
    for got, name in ((cold, "cold"), (warm0, "warm#0"), (serial, "serial"),
                      (batched, "warm"), (threaded, "threaded")):
        if not all(np.array_equal(a, b) for a, b in zip(ref, got)):
            raise SystemExit(
                f"session {name} outputs != per-call outputs "
                f"(backend={backend})"
            )

    t_per_call = _timeit(per_call, repeats)
    t_warm = _timeit(
        lambda: session.infer_many(requests, max_batch=max_batch), repeats
    )
    stats = session.stats()
    session.close()
    n = len(requests)
    return {
        "case": (
            f"BS={signal_batch} K={hidden} "
            f"geoms={'/'.join(f'{d}:{m}' for d, m in geometries)} "
            f"requests={n}"
        ),
        "backend": backend,
        "per_call_ms": t_per_call * 1e3,
        "cold_ms": t_cold * 1e3,
        "warm_ms": t_warm * 1e3,
        "per_call_rps": n / t_per_call,
        "cold_rps": n / t_cold,
        "warm_rps": n / t_warm,
        "speedup_vs_per_call": t_per_call / t_warm,
        "micro_batches": stats["batches"],
        "outputs_equal": True,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small cases (the CI gate)")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--max-batch", type=int, default=16)
    ap.add_argument("--workers", type=int, default=4,
                    help="threads for the threaded-equality check")
    ap.add_argument("--out", default=str(RESULTS / "session_infer.json"))
    args = ap.parse_args(argv)

    mode = "quick" if args.quick else "full"
    repeats = args.repeats or (3 if args.quick else 5)
    rng = np.random.default_rng(0)

    backends = ["numpy"] + (["auto"] if kernels_available() else [])
    rows = [
        bench_case(case, backend, args.max_batch, args.workers, repeats, rng)
        for case in CASES[mode]
        for backend in backends
    ]

    report = {
        "meta": {
            "mode": mode,
            "repeats": repeats,
            "max_batch": args.max_batch,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "ckernels": kernels_available(),
            "ckernels_info": build_info(),
            "backends": backends,
        },
        "serve": rows,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"# session batched inference ({mode}; C kernels: "
          f"{report['meta']['ckernels_info']})")
    for row in rows:
        print(f"  [{row['backend']:>6s}] {row['case']}: "
              f"per-call {row['per_call_rps']:7.1f} req/s -> "
              f"warm batched {row['warm_rps']:7.1f} req/s "
              f"({row['speedup_vs_per_call']:.2f}x; "
              f"cold {row['cold_rps']:7.1f} req/s)")

    # CI gate: warm batched serving must beat the per-call path.
    failed = False
    for row in rows:
        floor = 1.0 if (row["backend"] == "auto") else 0.9
        if row["speedup_vs_per_call"] < floor:
            print(f"FAIL: [{row['backend']}] warm batched at "
                  f"{row['speedup_vs_per_call']:.2f}x < {floor:.2f}x of "
                  f"per-call", file=sys.stderr)
            failed = True
    if failed:
        return 1
    worst = min(r["speedup_vs_per_call"] for r in rows)
    print(f"OK: warm batched serving >= per-call on every backend "
          f"(worst {worst:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
