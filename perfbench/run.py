#!/usr/bin/env python3
"""The benchmark of the spectral-conv serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer_c2c_1d --seed 1 \\
        --seconds 20 --trace 0 [--out results.jsonl]

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; why
each workload exists is in ``perfbench/NOTES.md``.  A run

1. builds (or reuses) the C kernels under ``.bench_build/`` and refuses
   to measure when they do not load, so it never times the NumPy
   fallback;
2. makes its inputs from ``--seed`` and computes the oracle outputs;
3. with ``--trace 0`` measures ``SERVERS`` fresh servers (``Session``
   or ``ServePool``) for an equal slice of ``--seconds`` each, sets up
   ``SETUPS_PER_SERVER`` more before each, times every set-up from
   construction to the first verified result set, and reports the
   end-to-end metrics;
4. with ``--trace 1`` serves one server: a fixed number of calls
   untraced, the same under the span tracer, and again untraced, and
   reports the per-layer metrics.

Every output is checked against the oracle outside the timed region.
The last line of stdout is the JSON result; ``--out`` also appends a
record with the environment fingerprint, which ``perfbench/compare.py``
compares.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
#: Fresh servers per run, each measured for an equal slice.
SERVERS = 8
#: Throw-away set-ups before each measured server; ``setup_s`` is the
#: median over these and the measured servers' own set-ups.
SETUPS_PER_SERVER = 2


def prepare() -> None:
    """Point the library at this checkout: its sources, and kernel and
    tune caches inside ``.bench_build/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no package at {src / 'repro'}; run from the root "
            f"of a full checkout"
        )
    os.environ["REPRO_CKERNEL_DIR"] = str(BUILD_DIR / "ckernels")
    os.environ["REPRO_TUNE_CACHE"] = str(BUILD_DIR / "autotune.json")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_kernels():
    """The loaded C kernels; exits when they are unavailable."""
    from repro.fft._ckernels import build_info, get_kernels

    kernels = get_kernels()
    if kernels is None:
        raise SystemExit(
            f"perfbench: C kernels unavailable ({build_info()}); refusing "
            f"to measure the NumPy fallback"
        )
    return kernels


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(kernels) -> dict:
    """What must match for two results to be comparable."""
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "kernels": kernels.variant,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _peak_rss_kb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    if pid == "self":  # no /proc: ru_maxrss is in KiB on Linux
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0.0


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory of ``pids`` (``"self"`` included)."""
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024


def _worker_pids(server) -> list[int]:
    from repro.api.serve import ServePool

    if not isinstance(server, ServePool):
        return []
    return [pid for pid in server.worker_pids() if pid is not None]


def open_server(wl, tally):
    """A fresh server and its set-up time: from construction to the
    first result set, which is then verified (outside the timing)."""
    t0 = time.perf_counter()
    server = wl.open()
    try:
        outputs = wl.first(server)
    except BaseException:
        wl.close(server)
        raise
    setup = time.perf_counter() - t0
    wl.verify_first(outputs, tally)
    return server, setup


def closed_loop(wl, server, tally, seconds=None, count=None) -> list[float]:
    """Back-to-back calls for ``seconds`` (at least one call) or exactly
    ``count`` calls; returns each call's duration.  Outputs are verified
    between calls, outside the timed spans; a call that raises counts
    all its items as failed and ends the loop."""
    durations: list[float] = []
    end = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while count is None or i < count:
        if end is not None and durations and time.perf_counter() >= end:
            break
        t0 = time.perf_counter()
        try:
            outputs = wl.call(server, i)
        except Exception:  # noqa: BLE001 - reported, counted as failed
            traceback.print_exc()
            tally.fail(wl.items_per_call)
            break
        durations.append(time.perf_counter() - t0)
        wl.verify(outputs, i, tally)
        i += 1
    return durations


def _throughput(wl, durations) -> float:
    """Work per second at the fastest call.  Interference from other
    tenants of a shared host only ever slows calls and comes and goes
    within a run, so the fastest call tracks the program's own speed far
    more steadily than the median does; a slower program slows its
    fastest call too."""
    return wl.work_per_call / min(durations) if durations else 0.0


def end_to_end(wl, tally, seconds: float) -> tuple:
    """The untraced run.  ``SERVERS`` fresh servers in turn are each
    measured for an equal slice of ``seconds`` (the pool: half closed
    loop, half open loop), so effects that differ per server average
    out.  Before each, ``SETUPS_PER_SERVER`` throw-away servers are set
    up and closed; ``setup_s`` is the median over their set-ups and the
    measured servers' own, so it samples the whole run rather than the
    phase of the host its first second fell into.  Peak memory is read
    at one fixed point, after the first measured slice: each pool
    created grows the parent a little, and later pools fork from it.
    Returns ``(metrics, notes)``; notes are printed but carry no
    bound."""
    setups = []
    durations, latencies, lateness = [], [], []
    rss = None
    part = seconds / SERVERS
    for _ in range(SERVERS):
        for _ in range(SETUPS_PER_SERVER):
            server, setup = open_server(wl, tally)
            wl.close(server)
            setups.append(setup)
        server, setup = open_server(wl, tally)
        setups.append(setup)
        try:
            if hasattr(wl, "open_loop"):
                durations += closed_loop(wl, server, tally, seconds=part / 2)
                lat, late = wl.open_loop(server, part / 2, tally)
                latencies += lat
                lateness += late
            else:
                durations += closed_loop(wl, server, tally, seconds=part)
            if rss is None:
                rss = peak_rss_mb(["self", *_worker_pids(server)])
        finally:
            wl.close(server)
    notes = {"calls": len(durations)}
    if hasattr(wl, "open_loop"):
        notes["pool_latency_p50_ms"] = _pct_ms(latencies, 50)
        notes["pool_latency_p99_ms"] = _pct_ms(latencies, 99)
        notes["late_p99_ms"] = _pct_ms(lateness, 99)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": _throughput(wl, durations),
        "peak_rss_mb": rss,
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
    }
    return metrics, notes


def _pct_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _snapshot(server):
    from repro.api.serve import ServePool

    if isinstance(server, ServePool):
        return server.stats(timeout=30.0)
    return server.stats()


def per_layer(wl, server, tally, seconds: float) -> tuple:
    """The traced run: after one warm-up call, the same number of calls
    untraced, traced, and untraced again; tracer overhead compares the
    traced wall time with the mean of the two untraced ones, which
    cancels a steady drift.  Returns ``(metrics, notes)``."""
    import layers
    from repro.api.serve import ServePool
    from tracer import Tracer, instrumented

    is_pool = isinstance(server, ServePool)
    share = seconds / 4 if is_pool else seconds / 3
    closed_loop(wl, server, tally, count=1)
    base = closed_loop(wl, server, tally, seconds=share)
    before = _snapshot(server)
    tracer = Tracer()
    with instrumented(tracer):
        traced = closed_loop(wl, server, tally, count=len(base))
    after = _snapshot(server)
    again = closed_loop(wl, server, tally, count=len(base))
    latencies, lateness = (wl.open_loop(server, share, tally) if is_pool
                           else ((), ()))
    table = tracer.table()
    metrics = layers.metrics(
        table, wall=sum(traced), untraced_wall=(sum(base) + sum(again)) / 2,
        cache_info=None if is_pool else server.plan_caches.cache_info(),
        session=None if is_pool else layers.session_layer(before, after),
        pool=layers.pool_layer(before, after) if is_pool else None,
        lateness=lateness, latencies=latencies,
    )
    notes = {
        "calls": len(traced),
        "traced_wall_s": sum(traced),
        "traced_self_s": sum(entry[2] for entry in table.values()),
    }
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: ``{"correct", "attempted", "failed", "metrics",
    "notes"}`` with bare metric values."""
    from workloads import WORKLOADS, Tally

    wl = WORKLOADS[workload](seed)
    tally = Tally()
    wl.oracle()
    if trace:
        server, _ = open_server(wl, tally)
        try:
            metrics, notes = per_layer(wl, server, tally, seconds)
        finally:
            wl.close(server)
    else:
        metrics, notes = end_to_end(wl, tally, seconds)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "notes": notes,
    }


def declared_units(trace: bool) -> dict:
    """``name -> unit`` of the metrics BENCHMARK.json declares for this
    kind of run."""
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the spectral-conv serving stack.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="append the full record (with fingerprint) "
                             "to this JSON-lines file")
    args = parser.parse_args(argv)
    prepare()
    kernels = load_kernels()
    from workloads import THROUGHPUT_NAMES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    trace = bool(args.trace)
    units = declared_units(trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    if set(result["metrics"]) != set(units):
        raise SystemExit(
            f"perfbench: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(units))}"
        )
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(kernels),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
        "notes": result["notes"],
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, m in metrics.items():
        alias = (f"  ({THROUGHPUT_NAMES[args.workload]})"
                 if name == "throughput_per_s" else "")
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{alias}")
    for name, value in result["notes"].items():
        print(f"  note {name:<31} {value:>14.6g}")
    print(f"  error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} attempted)")
    if args.out is not None:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def stop_children() -> None:
    """Stop every process this run started and wait until each has
    ended: pool workers a failed close left behind, and the
    ``multiprocessing`` resource tracker that the pool's shared-memory
    rings start, which would otherwise outlive the run unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
