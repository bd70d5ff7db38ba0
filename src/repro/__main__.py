"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures [--dense] [--out DIR] [--workers N]``
    Regenerate every paper figure/table and write rendered reports
    (``--workers`` shards the fig14/fig19 heatmap grids over a process
    pool).
``ladder [--dim {1,2}] [--k K] [--batch BS] [--fft-x NX] [--fft-y NY]
[--modes N] [--device NAME] [--json]``
    Print the Table 2 stage ladder for one problem (``--json`` for a
    machine-readable report built from ``ExecutionPlan.to_dict()``).
``claims [--json]``
    Print the exact-arithmetic paper claims (Figs. 5/7/8) and their
    reproduced values.
``serve-bench [--requests N] [--max-batch B] [--workers W] [--procs P]
[--backend {auto,ckernels,numpy}] [--json]``
    Micro-benchmark the serving paths: a mixed-geometry stream of
    Fourier-layer inference requests runs once per request (the
    unbatched path) and once through ``session.infer_many`` (geometry
    micro-batching over pooled compiled executors), asserting
    bit-identical outputs and reporting requests/sec for both.
    ``--procs P`` additionally drives the same stream through a
    ``repro.api.ServePool`` of P shared-nothing worker processes
    (geometry-hash sharded, shared-memory tensors) and reports its
    requests/sec — still hard-asserted bit-identical.  ``--backend``
    pins the executor substrate — per-session configuration where the
    seed only had the process-global ``REPRO_NO_CKERNELS``.
``rollout [--streams N] [--steps S] [--profile {exact,fast}] [--procs P]
[--backend {auto,ckernels,numpy}] [--json]``
    Micro-benchmark autoregressive rollout serving: N concurrent
    streams step S times through an eager per-step inference loop and
    through ``session.rollout`` (state kept resident, streams
    micro-batched by geometry), hard-asserting bit-identical final
    states on the default ``exact`` profile and reporting steps/sec
    plus p50/p95/p99 step latency.  ``--procs P`` additionally serves
    the same streams through a ``repro.api.ServePool`` (each stream
    pinned to its geometry shard).  ``--profile fast`` opts into the
    spectrum-resident stepping loop (inverse/forward transform pairs
    between steps elided).
``chaos-soak [--requests N] [--workers W] [--seed S] [--backend B]
[--faults SPEC] [--quick] [--json]``
    Drive a seeded chaos soak through a ``repro.api.ServePool``: a
    mixed-geometry request stream under a scripted fault plan
    (crashes, hangs, latency, ring-allocation failures, corrupted
    headers — ``FaultPlan.chaos(seed, N)`` by default, or an explicit
    ``--faults "kind@index[:seconds][!];..."`` spec) with a short hang
    timeout and a sprinkle of already-expired deadlines.  Exits
    non-zero unless the three acceptance invariants hold: every future
    resolves (result or typed error), every shared-memory segment
    unlinks at close, and every successful result is bit-identical to
    a serial one-worker session.  ``--quick`` is the CI-sized run.
``lint [--json] [--rule NAME] [--root DIR] [--list-rules]``
    Run the project-invariant static analyzer (:mod:`repro.tools.lint`):
    AST-based rules enforcing the determinism, cache-scope,
    shared-memory-lifecycle, lock-order, typed-failure and
    worker-protocol contracts, gated at zero findings in CI.  Exits
    non-zero on any finding.

Commands resolve problems through the :mod:`repro.api` facade; ``ladder``'s
``--device h100`` (or any name added with ``repro.api.register_device``)
re-asks its question of a different part.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import figures, render_heatmap, render_series

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweeps = {
        "fig10": figures.fig10, "fig11": figures.fig11,
        "fig12": figures.fig12, "fig13": figures.fig13,
        "fig15": figures.fig15, "fig16": figures.fig16,
        "fig17": figures.fig17, "fig18": figures.fig18,
    }
    for name, builder in sweeps.items():
        panels = builder(dense=args.dense)
        (out / f"{name}.txt").write_text(
            "\n\n".join(render_series(p) for p in panels) + "\n"
        )
        print(f"wrote {out / name}.txt")
    for name, builder in {"fig14": figures.fig14, "fig19": figures.fig19}.items():
        panels = builder(dense=args.dense, workers=args.workers)
        (out / f"{name}.txt").write_text(
            "\n\n".join(render_heatmap(h) for h in panels) + "\n"
        )
        print(f"wrote {out / name}.txt")
    return 0


def _ladder_problem(args: argparse.Namespace):
    """Resolve the problem geometry from the CLI flags.

    ``--fft`` remains a deprecated alias: it sets the 1-D FFT size, or the
    DimY size in 2-D (the pre-facade behavior, where DimX was hardcoded).
    """
    from repro.core.config import FNO1DProblem, FNO2DProblem

    def pick(*values: int | None) -> int:
        # First explicitly-passed value wins; 0 still reaches the problem
        # validators instead of silently falling through to the default.
        return next(v for v in values if v is not None)

    if args.dim == 1:
        if args.fft_y is not None:
            raise ValueError(
                "--fft-y only applies to --dim 2; use --fft-x for the 1-D "
                "FFT size"
            )
        dim_x = pick(args.fft_x, args.fft, 128)
        return FNO1DProblem(batch=args.batch, hidden=args.k, dim_x=dim_x,
                            modes=args.modes)
    dim_x = pick(args.fft_x, 256)
    dim_y = pick(args.fft_y, args.fft, 128)
    return FNO2DProblem(batch=args.batch, hidden=args.k, dim_x=dim_x,
                        dim_y=dim_y, modes_x=args.modes, modes_y=args.modes)


def _cmd_ladder(args: argparse.Namespace) -> int:
    from repro.api import Runner
    from repro.core.stages import FusionStage

    try:
        runner = Runner(device=args.device)
        prob = _ladder_problem(args)
    except ValueError as exc:  # unknown device / bad geometry: clean error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = runner.plan(prob, FusionStage.PYTORCH)

    if args.json:
        payload = {
            "device": runner.device.name,
            "stages": [
                runner.plan(prob, stage).to_dict()
                for stage in (FusionStage.PYTORCH, *FusionStage.ladder())
            ],
        }
        best = runner.best(prob)
        payload["best_stage"] = best.stage.value
        print(json.dumps(payload, indent=2))
        return 0

    print(base.report().breakdown())
    for stage in FusionStage.ladder():
        p = runner.plan(prob, stage)
        print(
            f"stage {stage.value}: {p.total_time * 1e3:8.4f} ms "
            f"({p.launch_count} kernels) "
            f"speedup {p.speedup_vs_baseline():+6.1f}%"
        )
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.analysis import figures

    rows = figures.fig05(())
    if args.json:
        payload = {
            "fig05": [
                {"n": r.n, "keep": r.keep, "ops": r.ops,
                 "total_ops": r.total_ops, "fraction": r.fraction}
                for r in rows
            ],
            "fig07": figures.fig07(),
            "fig08": figures.fig08(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("Figure 5 (butterfly pruning, 4-pt FFT):")
    for r in rows:
        print(f"  keep {r.keep}/4: {r.ops}/{r.total_ops} ops = {r.fraction:.1%}"
              "  (paper: 37.5% / 75%)" if r.keep == 1 else
              f"  keep {r.keep}/4: {r.ops}/{r.total_ops} ops = {r.fraction:.1%}")
    print("Figure 7/8 (shared-memory bank utilization):")
    for k, v in {**figures.fig07(), **figures.fig08()}.items():
        print(f"  {k:<26s} {v:>7.2%}")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.api import Session, SpectralModel

    try:
        session = Session(backend=args.backend)
    except (ValueError, RuntimeError) as exc:  # bad/unavailable backend
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    hidden = args.k
    weight = (
        (rng.standard_normal((hidden, hidden))
         + 1j * rng.standard_normal((hidden, hidden))) / hidden
    ).astype(np.complex64)
    # A mixed-geometry request stream: two FFT sizes, shared weights —
    # the shape of traffic the executor pool and micro-batcher target.
    geometries = ((128, 64), (256, 64))
    models = {
        (n, m): SpectralModel(weight, m) for (n, m) in geometries
    }
    requests = []
    for i in range(args.requests):
        dim_x, modes = geometries[i % len(geometries)]
        x = (
            rng.standard_normal((args.signal_batch, hidden, dim_x))
            + 1j * rng.standard_normal((args.signal_batch, hidden, dim_x))
        ).astype(np.complex64)
        requests.append((models[(dim_x, modes)], x))

    session.warmup([])  # no-op geometry warmup; executors warm below
    warm = session.infer_many(requests, max_batch=args.max_batch)

    t0 = time.perf_counter()
    unbatched = [session.infer(model, x) for model, x in requests]
    t_unbatched = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = session.infer_many(
        requests, max_batch=args.max_batch, workers=args.workers
    )
    t_batched = time.perf_counter() - t0

    if not all(
        np.array_equal(a, b)
        for a, b in zip(unbatched, batched)
    ) or not all(np.array_equal(a, b) for a, b in zip(warm, batched)):
        print("error: batched outputs != per-request outputs",
              file=sys.stderr)
        return 1

    n = len(requests)
    payload = {
        "backend": session.backend,
        "requests": n,
        "max_batch": args.max_batch,
        "workers": args.workers,
        "unbatched_rps": n / t_unbatched,
        "batched_rps": n / t_batched,
        "speedup": t_unbatched / t_batched,
        "stats": session.stats(),
    }

    if args.procs:
        from repro.api import ServePool

        with ServePool(
            workers=args.procs, backend=args.backend,
            max_batch=args.max_batch,
        ) as pool:
            pool.infer_many(requests)  # warm every shard
            t0 = time.perf_counter()
            pooled = pool.infer_many(requests)
            t_pool = time.perf_counter() - t0
            pool_stats = pool.stats()
        if not all(np.array_equal(a, b) for a, b in zip(batched, pooled)):
            print("error: pooled outputs != in-process outputs",
                  file=sys.stderr)
            return 1
        payload["procs"] = args.procs
        payload["pool_rps"] = n / t_pool
        payload["pool_speedup"] = t_unbatched / t_pool
        payload["pool_stats"] = pool_stats

    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"serve-bench: {n} requests, backend={session.backend}, "
          f"max_batch={args.max_batch}")
    print(f"  per-request : {payload['unbatched_rps']:8.1f} req/s")
    print(f"  micro-batched: {payload['batched_rps']:8.1f} req/s "
          f"({payload['speedup']:.2f}x)  [bit-identical]")
    if args.procs:
        print(f"  pool x{args.procs:<4d}  : {payload['pool_rps']:8.1f} req/s "
              f"({payload['pool_speedup']:.2f}x)  [bit-identical]")
    return 0


def _cmd_rollout(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.api import Session, SpectralModel

    try:
        session = Session(backend=args.backend)
    except (ValueError, RuntimeError) as exc:  # bad/unavailable backend
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    hidden = args.k
    weight = (
        (rng.standard_normal((hidden, hidden))
         + 1j * rng.standard_normal((hidden, hidden))) / hidden
    ).astype(np.complex64)
    model = SpectralModel(weight, args.modes)
    streams = [
        (model, rng.standard_normal(
            (args.signal_batch, hidden, args.fft_x)
        ).astype(np.float32))
        for _ in range(args.streams)
    ]

    # Warm the pooled executor, then: eager per-step loop vs the
    # state-resident stepping loop over the same streams.
    session.rollout(streams=streams, steps=1)
    t0 = time.perf_counter()
    eager = []
    for m, x0 in streams:
        state = x0
        for _ in range(args.steps):
            state = session.infer(m, state)
        eager.append(state)
    t_eager = time.perf_counter() - t0

    t0 = time.perf_counter()
    rolled = session.rollout(streams=streams, steps=args.steps,
                             profile=args.profile)
    t_rollout = time.perf_counter() - t0

    if args.profile == "exact":
        if not all(np.array_equal(a, b) for a, b in zip(eager, rolled)):
            print("error: rollout outputs != eager per-step outputs",
                  file=sys.stderr)
            return 1

    total_steps = args.streams * args.steps
    payload = {
        "backend": session.backend,
        "streams": args.streams,
        "steps": args.steps,
        "profile": args.profile,
        "eager_steps_per_s": total_steps / t_eager,
        "rollout_steps_per_s": total_steps / t_rollout,
        "speedup": t_eager / t_rollout,
        "stats": session.stats(),
    }

    if args.procs:
        from repro.api import ServePool

        with ServePool(
            workers=args.procs, backend=args.backend,
        ) as pool:
            pool.rollout_many(streams, steps=1)  # warm every shard
            t0 = time.perf_counter()
            pooled = pool.rollout_many(streams, steps=args.steps,
                                       profile=args.profile)
            t_pool = time.perf_counter() - t0
            pool_stats = pool.stats()
        if args.profile == "exact":
            if not all(np.array_equal(a, b)
                       for a, b in zip(rolled, pooled)):
                print("error: pooled rollout != in-process rollout",
                      file=sys.stderr)
                return 1
        payload["procs"] = args.procs
        payload["pool_steps_per_s"] = total_steps / t_pool
        payload["pool_speedup"] = t_eager / t_pool
        payload["pool_stats"] = pool_stats

    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    tag = "[bit-identical]" if args.profile == "exact" else "[fast profile]"
    print(f"rollout: {args.streams} streams x {args.steps} steps, "
          f"backend={session.backend}, profile={args.profile}")
    print(f"  eager loop  : {payload['eager_steps_per_s']:8.1f} steps/s")
    print(f"  rollout     : {payload['rollout_steps_per_s']:8.1f} steps/s "
          f"({payload['speedup']:.2f}x)  {tag}")
    if args.procs:
        print(f"  pool x{args.procs:<5d} : {payload['pool_steps_per_s']:8.1f}"
              f" steps/s ({payload['pool_speedup']:.2f}x)  {tag}")
    p = payload["stats"]["latency"]
    if p["count"]:
        print(f"  step latency: p50={p['p50'] * 1e3:.3f} ms "
              f"p95={p['p95'] * 1e3:.3f} ms p99={p['p99'] * 1e3:.3f} ms")
    return 0


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    from repro.api.serve import FaultPlan, run_soak

    requests = 60 if args.quick else args.requests
    workers = 2 if args.quick else args.workers
    plan = None
    if args.faults is not None:
        try:
            plan = FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = run_soak(
        requests=requests, workers=workers, seed=args.seed,
        backend=args.backend, hang_timeout=args.hang_timeout, plan=plan,
    )
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(f"chaos-soak: {report['requests']} requests, "
              f"{report['workers']} workers, seed={report['seed']}, "
              f"{report['faults']['planned']} planned faults")
        print(f"  outcomes : {report['outcomes']}")
        adm = report["admission"]
        print(f"  recovery : crashes={adm['crashes']} hangs={adm['hangs']} "
              f"retried={adm['retried']} corrupted={adm['corrupted']} "
              f"expired={adm['expired']} degraded={adm['degraded']}")
        print(f"  segments : created={report['segments']['created']} "
              f"leaked={report['segments']['leaked']}")
        for violation in report["violations"]:
            print(f"  VIOLATION: {violation}")
        print("  PASS: every future resolved, no leaked segments, "
              "successes bit-identical" if report["ok"] else "  FAIL")
    return 0 if report["ok"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.tools.lint import main as lint_main

    argv = []
    if args.json:
        argv.append("--json")
    if args.list_rules:
        argv.append("--list-rules")
    if args.root is not None:
        argv += ["--root", args.root]
    for rule in args.rule or []:
        argv += ["--rule", rule]
    return lint_main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate all paper figures")
    p_fig.add_argument("--dense", action="store_true")
    p_fig.add_argument("--out", default="paper_report")
    p_fig.add_argument("--workers", type=int, default=None,
                       help="shard the fig14/fig19 heatmap grids over a "
                            "process pool (default: serial)")
    p_fig.set_defaults(func=_cmd_figures)

    p_lad = sub.add_parser("ladder", help="stage ladder for one problem")
    p_lad.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p_lad.add_argument("--k", type=int, default=64)
    p_lad.add_argument("--batch", type=int, default=8192)
    p_lad.add_argument("--fft-x", type=int, default=None,
                       help="FFT size along DimX (1-D: 128, 2-D: 256)")
    p_lad.add_argument("--fft-y", type=int, default=None,
                       help="FFT size along DimY, 2-D only (default 128)")
    p_lad.add_argument("--fft", type=int, default=None,
                       help="deprecated: 1-D FFT size / 2-D DimY size")
    p_lad.add_argument("--modes", type=int, default=64)
    p_lad.add_argument("--device", default=None,
                       help="registered device name (a100, h100)")
    p_lad.add_argument("--json", action="store_true",
                       help="machine-readable ExecutionPlan reports")
    p_lad.set_defaults(func=_cmd_ladder)

    p_cl = sub.add_parser("claims", help="exact paper claims")
    p_cl.add_argument("--json", action="store_true",
                      help="machine-readable claim values")
    p_cl.set_defaults(func=_cmd_claims)

    p_sv = sub.add_parser("serve-bench",
                          help="session batched-inference micro-benchmark")
    p_sv.add_argument("--requests", type=int, default=64,
                      help="number of inference requests (default 64)")
    p_sv.add_argument("--signal-batch", type=int, default=4,
                      help="signals per request (default 4)")
    p_sv.add_argument("--k", type=int, default=32,
                      help="hidden/channel dimension (default 32)")
    p_sv.add_argument("--max-batch", type=int, default=16,
                      help="micro-batch size in requests (default 16)")
    p_sv.add_argument("--workers", type=int, default=None,
                      help="threads draining the micro-batch queue")
    p_sv.add_argument("--procs", type=int, default=None,
                      help="also run the stream through a ServePool of "
                           "this many worker processes")
    p_sv.add_argument("--backend", default="auto",
                      choices=("auto", "ckernels", "numpy"),
                      help="session executor backend (default auto)")
    p_sv.add_argument("--seed", type=int, default=0)
    p_sv.add_argument("--json", action="store_true",
                      help="machine-readable report incl. session stats")
    p_sv.set_defaults(func=_cmd_serve_bench)

    p_ro = sub.add_parser(
        "rollout",
        help="autoregressive rollout serving micro-benchmark",
    )
    p_ro.add_argument("--streams", type=int, default=8,
                      help="concurrent rollout streams (default 8)")
    p_ro.add_argument("--steps", type=int, default=16,
                      help="autoregressive steps per stream (default 16)")
    p_ro.add_argument("--signal-batch", type=int, default=4,
                      help="signals per stream (default 4)")
    p_ro.add_argument("--k", type=int, default=32,
                      help="hidden/channel dimension (default 32)")
    p_ro.add_argument("--fft-x", type=int, default=128,
                      help="spatial grid size (default 128)")
    p_ro.add_argument("--modes", type=int, default=32,
                      help="kept spectral modes (default 32)")
    p_ro.add_argument("--profile", default="exact",
                      choices=("exact", "fast"),
                      help="stepping profile (exact: bit-identical to the "
                           "eager loop; fast: spectrum-resident)")
    p_ro.add_argument("--procs", type=int, default=None,
                      help="also serve the streams through a ServePool of "
                           "this many worker processes")
    p_ro.add_argument("--backend", default="auto",
                      choices=("auto", "ckernels", "numpy"),
                      help="session executor backend (default auto)")
    p_ro.add_argument("--seed", type=int, default=0)
    p_ro.add_argument("--json", action="store_true",
                      help="machine-readable report incl. latency stats")
    p_ro.set_defaults(func=_cmd_rollout)

    p_cs = sub.add_parser(
        "chaos-soak",
        help="fault-injection soak of the multi-process serving pool",
    )
    p_cs.add_argument("--requests", type=int, default=300,
                      help="requests in the soak stream (default 300)")
    p_cs.add_argument("--workers", type=int, default=4,
                      help="pool worker processes (default 4)")
    p_cs.add_argument("--seed", type=int, default=0,
                      help="seeds both the stream and the chaos plan")
    p_cs.add_argument("--backend", default="numpy",
                      choices=("auto", "ckernels", "numpy"),
                      help="worker session backend (default numpy)")
    p_cs.add_argument("--hang-timeout", type=float, default=2.0,
                      help="health-monitor hang timeout in seconds")
    p_cs.add_argument("--faults", default=None,
                      help="explicit fault spec 'kind@index[:seconds][!];...'"
                           " (default: FaultPlan.chaos(seed, requests))")
    p_cs.add_argument("--quick", action="store_true",
                      help="CI-sized run (60 requests, 2 workers)")
    p_cs.add_argument("--json", action="store_true",
                      help="machine-readable soak report")
    p_cs.set_defaults(func=_cmd_chaos_soak)

    p_li = sub.add_parser(
        "lint",
        help="project-invariant static analysis (CI gate: zero findings)",
    )
    p_li.add_argument("--rule", action="append", default=None,
                      metavar="NAME",
                      help="run only this rule (repeatable)")
    p_li.add_argument("--root", default=None,
                      help="tree to lint (default: this repo)")
    p_li.add_argument("--list-rules", action="store_true",
                      help="print the rule registry and exit")
    p_li.add_argument("--json", action="store_true",
                      help="machine-readable findings report")
    p_li.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
