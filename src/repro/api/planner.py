"""``plan()``: the cached front door from problems to kernel pipelines.

One call — ``plan(problem, stage=..., config=..., device=...)`` — replaces
the dimension-suffixed ``build_pipeline_1d`` / ``build_pipeline_2d`` /
``best_stage_*`` trio.  The returned :class:`ExecutionPlan` bundles the
compiled :class:`repro.gpu.timeline.Pipeline` with its problem, stage,
config and device, and memoises the modelled
:class:`~repro.gpu.timeline.PipelineReport`.

Plans are cached in an LRU keyed on ``(problem, stage, config, device)``
(all frozen dataclasses, so the key *is* the geometry).  The cache is
owned by a :class:`repro.api.Session` — the module-level :func:`plan`,
:func:`plan_cache_info` and :func:`clear_plan_cache` are thin wrappers
over the process-default session, preserving the original facade API
verbatim.  Dense figure sweeps hammer this cache hard: Figs. 11-13
sweep the same problem grids with growing stage sets, and every stage-E
(BEST) resolution re-uses the A-D plans the ladder already built.
Cached plans are shared — treat a plan's ``pipeline`` as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.problem import Problem, describe_problem
from repro.api.registry import pipeline_builder_for
from repro.core.config import TurboFNOConfig
from repro.core.stages import FusionStage
from repro.gpu.device import DeviceSpec
from repro.gpu.timeline import Pipeline, PipelineReport, speedup_percent

__all__ = [
    "ExecutionPlan",
    "build_plan",
    "plan",
    "plan_cache_info",
    "clear_plan_cache",
]

#: LRU capacity: a dense fig14 + fig19 regeneration materialises ~3.7k
#: distinct (problem, stage) pairs; 8192 holds two full dense sweeps.
PLAN_CACHE_SIZE = 8192


@dataclass(eq=False)
class ExecutionPlan:
    """One compiled execution strategy for one problem on one device.

    ``stage`` is always a concrete rung — asking :func:`plan` for
    ``FusionStage.BEST`` returns the winning stage's plan, so
    ``plan(p).stage`` tells you *which* rung won.

    Plans model; executors compute.  :meth:`compile_executor` attaches
    the numeric side: a build-once/execute-many compiled spectral-conv
    executor for this plan's problem geometry (plan once -> execute
    many, like a cuFFT plan handle).
    """

    problem: Problem
    stage: FusionStage
    config: TurboFNOConfig
    device: DeviceSpec
    pipeline: Pipeline
    _report: PipelineReport | None = field(default=None, repr=False)
    _speedup: float | None = field(default=None, repr=False)
    #: The owning session (None for plans built outside any session);
    #: sibling lookups (the baseline) and executor compilation route
    #: through it so they share its caches and backend.
    _session: object | None = field(default=None, repr=False)

    def report(self) -> PipelineReport:
        """Modelled execution report on this plan's device (memoised)."""
        if self._report is None:
            self._report = self.pipeline.report(self.device)
        return self._report

    @property
    def total_time(self) -> float:
        """Modelled wall-clock seconds of the pipeline."""
        return self.report().total_time

    @property
    def launch_count(self) -> int:
        return self.report().launch_count

    def _live_session(self):
        """The owning session while it is open — plans outlive their
        session (falling back to the default-session facade), matching
        the standalone behaviour module-level plans always had."""
        session = self._session
        if session is not None and not session._closed:
            return session
        return None

    def baseline(self) -> "ExecutionPlan":
        """The PyTorch-baseline plan for the same problem/config/device."""
        session = self._live_session()
        plan_fn = session.plan if session is not None else plan
        return plan_fn(self.problem, FusionStage.PYTORCH, self.config,
                       self.device)

    def speedup_vs_baseline(self) -> float:
        """Speedup over the PyTorch baseline in the paper's units
        (percent; 0 = parity).  Memoised: sweeps ask every cached plan
        for this repeatedly, and cached plans are shared."""
        if self.stage is FusionStage.PYTORCH:
            return 0.0
        if self._speedup is None:
            self._speedup = speedup_percent(
                self.baseline().total_time, self.total_time
            )
        return self._speedup

    def compile_executor(self, weight, symmetric: bool = False):
        """Build the compiled numeric executor for this plan's geometry.

        ``weight`` is the complex ``(C_in, C_out)`` spectral weight
        matrix; ``C_in`` must match the problem's hidden dimension.
        Returns a :class:`repro.core.compiled.CompiledSpectralConv1D` or
        ``...2D`` whose staging (weight casts, FFT plans, workspaces) is
        paid once, so ``plan -> compile -> execute many`` amortises all
        per-call setup.  The executor uses the default k-tiling, so its
        output is byte-identical to ``repro.api.spectral_conv``; pass a
        custom ``k_tb`` to
        :func:`repro.core.compiled.compile_spectral_conv` directly if you
        want the accumulation grouped differently.

        ``symmetric=True`` compiles the original-FNO rfft/irfft filter
        convention instead: real input, half spectrum through the cached
        packed-real R2C/C2R plans, real output (the training-stack hot
        path of :mod:`repro.nn`).

        Plans built by a :class:`repro.api.Session` compile executors
        against that session's plan caches and backend.
        """
        from repro.core.compiled import compile_spectral_conv

        weight = np.asarray(weight)
        hidden = getattr(self.problem, "hidden", None)
        if hidden is not None and weight.shape[0] != hidden:
            raise ValueError(
                f"weight C_in={weight.shape[0]} does not match the "
                f"problem's hidden dimension {hidden}"
            )
        session = self._live_session()
        plans = session.plan_caches if session is not None else None
        return compile_spectral_conv(
            weight, tuple(self.problem.modes_shape), symmetric=symmetric,
            plans=plans,
        )

    def to_dict(self) -> dict:
        """JSON-ready summary (problem geometry, stage, device, timings)."""
        rep = self.report()
        return {
            "problem": describe_problem(self.problem),
            "stage": self.stage.value,
            "stage_description": self.stage.description,
            "device": self.device.name,
            "pipeline": self.pipeline.name,
            "total_time_ms": rep.total_time * 1e3,
            "kernel_launches": rep.launch_count,
            "kernels": [
                {"name": name, "time_ms": t * 1e3}
                for name, t in rep.kernel_times
            ],
            "global_bytes": rep.counters.global_bytes,
            "flops": rep.counters.flops,
            "speedup_vs_baseline_percent": self.speedup_vs_baseline(),
        }


def build_plan(
    cached,
    problem: Problem,
    stage: FusionStage,
    config: TurboFNOConfig,
    device: DeviceSpec,
    session: object | None = None,
) -> ExecutionPlan:
    """Construct one plan (the body behind every session's plan cache).

    ``cached`` is the memoised lookup of the owning cache — BEST
    resolution recurses through it so a ladder sweep that already built
    A-D pays nothing extra.  Arguments are pre-resolved (concrete stage,
    config, device); :meth:`repro.api.Session.plan` does the spelling
    and default resolution.
    """
    if stage is FusionStage.BEST:
        # Stage E: the fastest of A-D, resolved through the same cache so
        # a ladder sweep that already built A-D pays nothing extra.  Ladder
        # order + strict '<' replicates best_stage_{1,2}d tie-breaking.
        best: ExecutionPlan | None = None
        for rung in FusionStage.ladder():
            cand = cached(problem, rung, config, device)
            if best is None or cand.total_time < best.total_time:
                best = cand
        if best is None:
            raise RuntimeError("FusionStage.ladder() is empty")
        return best
    builder = pipeline_builder_for(problem)
    pipeline = builder(problem, stage, config)
    return ExecutionPlan(
        problem=problem, stage=stage, config=config, device=device,
        pipeline=pipeline, _session=session,
    )


def plan(
    problem: Problem,
    stage: FusionStage | str = FusionStage.BEST,
    config: TurboFNOConfig | None = None,
    device: DeviceSpec | str | None = None,
) -> ExecutionPlan:
    """Compile (or fetch from cache) the execution plan for ``problem``.

    A thin wrapper over the default :class:`repro.api.Session` — plans
    land in (and are served from) its cache.  Hold your own session to
    isolate caches, pin a backend, or batch inference.

    Parameters
    ----------
    problem:
        Any :class:`repro.api.Problem` — ``FNO1DProblem``, ``FNO2DProblem``,
        or a workload whose dimensionality has a registered builder.
    stage:
        A Table 2 rung (enum or spelling like ``"A"``/``"pytorch"``).
        The default ``BEST`` resolves stage E and returns the winner.
    config:
        Kernel parameters / model knobs; default :class:`TurboFNOConfig`.
    device:
        A :class:`DeviceSpec`, a registered name (``"a100"``, ``"h100"``),
        or ``None`` for the paper's A100.
    """
    from repro.api.session import default_session

    return default_session().plan(problem, stage, config, device)


def plan_cache_info():
    """``functools.lru_cache`` statistics of the default session's plan
    cache."""
    from repro.api.session import default_session

    return default_session().plan_cache_info()


def clear_plan_cache() -> None:
    """Drop every plan cached by the default session (tests and
    memory-sensitive callers).  :func:`repro.api.clear_all_caches` also
    drops the FFT/rfft plan caches and the compiled-executor pool."""
    from repro.api.session import default_session

    default_session().clear_plan_cache()
