"""Per-layer metrics of the traced run.

Derived from the :class:`tracer.Tracer` table of the traced phase plus
``stats()`` snapshots taken around it.  Every metric is emitted on every
workload; a layer a workload does not reach reads 0 there (the pool's
kernels, for instance, run in worker processes this run does not trace).

Shares are self seconds over the traced wall time: the summed duration
of the traced calls.  ``breakdown.*.share`` instead splits the five
paper stages among themselves, so it compares directly with the
modelled ``model_share`` of ``analysis.figures.fig01c()``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.figures import fig01c

KERNELS = ("stockham", "panel_contract", "decomp_reduce", "expand_mul")
PLANS = ("fft_fwd", "fft_inv", "pruned", "pruned_rfft", "pruned_irfft")
#: Names of ``PlanCaches.cache_info()``'s four entries, in its order.
CACHES = ("fft", "pruned", "real", "pruned_real")
EXECUTOR = ("call", "forward_spectrum", "step_spectrum",
            "inverse_spectrum", "reanalyze_spectrum")
#: Paper stage -> (measured span, modelled Figure 1(c) kernel).  The
#: FFT stages are the ``stockham`` spans under a forward / inverse plan.
STAGES = {
    "fft": (("kernel.stockham", "plan.fft_fwd"), "cufft_fwd"),
    "truncate": ("kernel.decomp_reduce", "truncate_copy"),
    "cgemm": ("kernel.panel_contract", "cublas_cgemm"),
    "pad": ("kernel.expand_mul", "pad_copy"),
    "ifft": (("kernel.stockham", "plan.fft_inv"), "cufft_inv"),
}


def by_name(table: dict) -> dict:
    """Collapse ``(name, parent)`` entries to ``name -> [calls, total_s,
    self_s, *extras]``."""
    out: dict = {}
    for (name, _parent), entry in table.items():
        into = out.get(name)
        if into is None:
            out[name] = list(entry)
        else:
            for i, value in enumerate(entry):
                into[i] += value
    return out


def _pct_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def session_layer(before: dict, after: dict) -> dict:
    """Batch counters over the traced phase from two ``Session.stats()``
    snapshots; percentiles from the later one's reservoir."""
    batches = after["batches"] - before["batches"]
    latency = after["latency"]
    return {
        "session.batches": batches,
        "session.rows_per_batch": _ratio(
            after["requests"] - before["requests"], batches),
        "session.batch_p50_ms": (latency["p50"] or 0.0) * 1e3,
        "session.batch_p99_ms": (latency["p99"] or 0.0) * 1e3,
    }


def pool_layer(before: dict, after: dict) -> dict:
    """Worker and admission counters over the traced phase from two
    ``ServePool.stats()`` snapshots."""
    def per_worker(stats):
        return {w["shard"]: w for w in stats["per_worker"]}

    def count(worker, key):
        session = worker.get("session") or {}
        return session.get(key, 0)

    old, new = per_worker(before), per_worker(after)
    active = batches = rows = 0
    for shard, worker in new.items():
        prev = old.get(shard, {})
        active += (worker.get("served") or 0) > (prev.get("served") or 0)
        batches += count(worker, "batches") - count(prev, "batches")
        rows += count(worker, "requests") - count(prev, "requests")

    def admitted(key):
        return after["admission"][key] - before["admission"][key]

    return {
        "pool.shards_active": active,
        "pool.worker_batches": batches,
        "pool.worker_rows_per_batch": _ratio(rows, batches),
        "pool.retries": admitted("retried"),
        "pool.crashes": admitted("crashes"),
        "pool.saturated": admitted("rejected"),
    }


def metrics(table: dict, *, wall: float, untraced_wall: float,
            cache_info=None, session: dict | None = None,
            pool: dict | None = None, lateness=(), latencies=()) -> dict:
    """Every per-layer metric value, by name."""
    names = by_name(table)
    zero = [0, 0.0, 0.0, 0, 0]

    def get(name):
        return names.get(name, zero)

    out: dict[str, float] = {}
    for k in KERNELS:
        calls, _, self_s, flops, nbytes = get(f"kernel.{k}")
        out.update({
            f"kernel.{k}.calls": calls, f"kernel.{k}.self_s": self_s,
            f"kernel.{k}.share": _ratio(self_s, wall),
            f"kernel.{k}.flops": flops, f"kernel.{k}.bytes": nbytes,
            f"kernel.{k}.gflops": _ratio(flops, self_s) / 1e9,
        })
    for p in PLANS:
        calls, _, self_s = get(f"plan.{p}")[:3]
        out.update({f"plan.{p}.calls": calls, f"plan.{p}.self_s": self_s,
                    f"plan.{p}.share": _ratio(self_s, wall)})
    infos = cache_info if cache_info is not None else [None] * len(CACHES)
    for c, info in zip(CACHES, infos):
        out[f"plan.cache.{c}.hit_ratio"] = (
            0.0 if info is None else _ratio(info.hits, info.hits + info.misses)
        )
    for e in EXECUTOR:
        calls, _, self_s = get(f"executor.{e}")[:3]
        out.update({f"executor.{e}.calls": calls,
                    f"executor.{e}.self_s": self_s})
    call = get("executor.call")  # [calls, total_s, self_s, rows]
    out["executor.call.rows_mean"] = _ratio(call[3], call[0])
    session_self = get("session")[2]
    out["session.self_s"] = session_self
    out["session.share"] = _ratio(session_self, wall)
    out.update(session or {"session.batches": 0, "session.rows_per_batch": 0.0,
                           "session.batch_p50_ms": 0.0,
                           "session.batch_p99_ms": 0.0})
    out["pool.submit_s"] = get("pool.submit")[1]
    out["pool.wait_s"] = get("pool.wait")[1]
    out.update(pool or {"pool.shards_active": 0, "pool.worker_batches": 0,
                        "pool.worker_rows_per_batch": 0.0, "pool.retries": 0,
                        "pool.crashes": 0, "pool.saturated": 0})
    out["pool.latency_p50_ms"] = _pct_ms(latencies, 50)
    out["pool.latency_p99_ms"] = _pct_ms(latencies, 99)
    out["generator.late_p99_ms"] = _pct_ms(lateness, 99)
    out["tracer.overhead"] = _ratio(wall, untraced_wall) - 1.0
    out.update(breakdown(table))
    return out


def breakdown(table: dict) -> dict:
    """Measured and modelled shares of the five paper stages."""
    names = by_name(table)
    measured = {}
    for stage, (span, _) in STAGES.items():
        entry = table.get(span) if isinstance(span, tuple) else names.get(span)
        measured[stage] = entry[2] if entry else 0.0
    total = sum(measured.values())
    modelled = dict(fig01c().pytorch.kernel_times)
    model_total = sum(modelled[kernel] for _, kernel in STAGES.values())
    out = {}
    for stage, (_, kernel) in STAGES.items():
        out[f"breakdown.{stage}.share"] = _ratio(measured[stage], total)
        out[f"breakdown.{stage}.model_share"] = modelled[kernel] / model_total
    return out
