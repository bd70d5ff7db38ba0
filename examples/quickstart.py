"""Quickstart: one session — plan, warmup, batched inference, sweep.

Everything goes through one ``repro.api.Session``, the stateful
execution context that owns the plan cache, the FFT-plan caches and the
compiled-executor pool:

* ``session.plan(problem, stage=...)`` — compile one execution strategy
  into an ``ExecutionPlan`` (kernel pipeline + modelled report).
  ``stage`` defaults to BEST, so ``session.plan(problem).stage`` names
  the winning rung of the Table 2 ladder.
* ``session.warmup(problems)`` — pre-compile the plans and FFT plans a
  geometry will need, so the first real request pays nothing.
* ``session.infer(model, x)`` / ``session.infer_many(requests)`` — the
  serving path: requests are micro-batched by geometry and each batch
  runs one pooled compiled executor, bit-identical to per-request
  execution.
* ``api.Runner(session=...)`` — map plans over many problems or stages
  through the session's cache.
* ``backend="auto" | "ckernels" | "numpy"`` pins the executor substrate
  per session (outputs are byte-identical across backends); devices are
  named, so a second session can re-ask every question of an H100.

The module-level ``api.plan`` remains available as a thin wrapper over
a default session; ``api.spectral_conv`` runs one layer through a
compiled executor built for the call.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import FNO1DProblem, FusionStage, api


def main() -> None:
    rng = np.random.default_rng(0)

    # A paper-shaped layer: batch of 8 signals, hidden dim 64, 128-point
    # grid, keep the low 64 frequency bins.
    batch, hidden, dim_x, modes = 8, 64, 128, 64
    problem = FNO1DProblem.from_m_spatial(2**20, hidden=hidden,
                                          dim_x=dim_x, modes=modes)
    weight = ((rng.standard_normal((hidden, hidden))
               + 1j * rng.standard_normal((hidden, hidden))) / hidden
              ).astype(np.complex64)

    with api.Session() as session:
        print("== plan: what does fusion buy on an A100? ==")
        baseline = session.plan(problem, FusionStage.PYTORCH)
        print(baseline.report().breakdown())
        for stage in FusionStage.ladder():
            p = session.plan(problem, stage)
            print(
                f"  stage {stage.value}: {p.total_time * 1e3:7.3f} ms "
                f"({p.launch_count} kernels)  speedup "
                f"{p.speedup_vs_baseline():+6.1f}%  -- {stage.description}"
            )
        best = session.plan(problem)  # stage defaults to BEST
        print(f"  stage E resolves to stage {best.stage.value} on this problem")

        print("\n== warmup -> infer: the serving path ==")
        print(f"  warmup: {session.warmup([problem])}")
        model = api.SpectralModel(weight, modes)
        requests = []
        for i in range(16):
            n = dim_x if i % 2 == 0 else 2 * dim_x  # mixed geometries
            x = (rng.standard_normal((batch, hidden, n))
                 + 1j * rng.standard_normal((batch, hidden, n))
                 ).astype(np.complex64)
            requests.append((model, x))
        outs = session.infer_many(requests, max_batch=8)
        one = session.infer(model, requests[0][1])
        print(f"  infer_many: {len(outs)} results, first {outs[0].shape}; "
              f"bit-identical to infer: {np.array_equal(outs[0], one)}")
        stats = session.stats()
        print(f"  stats: {stats['requests']} requests in "
              f"{stats['batches']} micro-batches, "
              f"executor pool size {stats['executor_pool']}")

        print("\n== sweep: many problems through the session's cache ==")
        runner = api.Runner(session=session)
        probs = [FNO1DProblem.from_m_spatial(2**20, k, dim_x, modes)
                 for k in (32, 64, 128)]
        for prob, speed in zip(probs, runner.map_speedups(probs)):
            print(f"  K={prob.hidden:<4d} best-stage speedup {speed:+6.1f}%")

    print("\n== same question, H100-class device ==")
    with api.Session(device="h100") as h100:
        best_h = h100.plan(problem)
        print(
            f"  {h100.device.name}: best stage {best_h.stage.value}, "
            f"{best_h.total_time * 1e3:7.3f} ms, "
            f"speedup {best_h.speedup_vs_baseline():+6.1f}%"
        )


if __name__ == "__main__":
    main()
