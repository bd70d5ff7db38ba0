#!/usr/bin/env python
"""Multi-process serving demo: `repro.api.ServePool`.

Serves a mixed-geometry stream of Fourier-layer inference requests
through a pool of shared-nothing worker processes — one warm
`repro.api.Session` per worker, requests routed by a stable geometry
hash so each worker's executor caches stay hot, tensors carried
through shared-memory ring segments — and verifies the pooled results
are *bit-identical* to a serial one-worker session.

Run with::

    PYTHONPATH=src python examples/serve_demo.py

`ServePool(workers=None)` sizes the pool from `REPRO_WORKERS` (or the
CPU count); this demo pins `workers=4` so the shard map is stable.
"""

import numpy as np

from repro import api

WORKERS = 4
HIDDEN = 8

rng = np.random.default_rng(7)
weight = (
    (rng.standard_normal((HIDDEN, HIDDEN))
     + 1j * rng.standard_normal((HIDDEN, HIDDEN))) / HIDDEN
).astype(np.complex64)


def request(dim_x: int, modes: int, batch: int = 2):
    x = (
        rng.standard_normal((batch, HIDDEN, dim_x))
        + 1j * rng.standard_normal((batch, HIDDEN, dim_x))
    ).astype(np.complex64)
    return ((weight, modes), x)


# A stream mixing FFT sizes and mode counts — the traffic shape the
# geometry-hash router spreads across workers.
requests = [
    request(dim_x, modes)
    for _ in range(8)
    for dim_x in (512, 1024, 2048)
    for modes in (64, 128, 256)
]

# Reference: the serial in-process serving path (PR 4).
with_session = api.Session(backend="numpy")
reference = with_session.infer_many(requests, max_batch=16)
with_session.close()

# The pool: N processes, each owning one warm Session.  Submission
# blocks when a worker's queue or ring is full (backpressure); pass
# saturation="raise" to get PoolSaturated instead, and
# max_requests_per_worker=... to recycle workers with warmup handoff.
with api.ServePool(workers=WORKERS, backend="numpy", max_batch=16) as pool:
    results = pool.infer_many(requests, timeout=120)

    identical = all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in zip(reference, results)
    )
    print(f"{len(requests)} requests over {WORKERS} workers; "
          f"bit-identical to serial session: {identical}")

    stats = pool.stats()
    print(f"\nper-geometry shard affinity "
          f"(admission: {stats['admission']}):")
    for geometry, entry in sorted(stats["per_geometry"].items()):
        print(f"  {geometry:>24s} -> worker {entry['worker']}  "
              f"({entry['requests']} requests, "
              f"{entry['requests_per_s']:.0f} req/s)")

    print("\nper-worker serving state:")
    for row in stats["per_worker"]:
        session_stats = row["session"] or {}
        print(f"  worker {row['shard']} (pid {row['pid']}): "
              f"served {row['served']} requests in "
              f"{session_stats.get('batches', '?')} micro-batches")

if not identical:
    raise SystemExit("pooled outputs diverged from the serial session")
print("\npool closed; all shared-memory segments unlinked:",
      pool.live_segment_names() == [])
