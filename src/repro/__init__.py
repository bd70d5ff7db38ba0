"""TurboFNO reproduction.

A from-scratch Python reproduction of *TurboFNO: High-Performance Fourier
Neural Operator with Fused FFT-GEMM-iFFT on GPU* (Wu et al., SC 2025,
arXiv:2504.11681), built on an analytic A100 execution model in place of
the paper's CUDA kernels (see DESIGN.md for the substitution argument).

Layout
------
``repro.api``
    **The front door.**  The stateful ``Session`` execution context
    (plan cache + FFT-plan caches + compiled-executor pool + batched
    ``infer``/``infer_many`` serving, per-session backend/dtype
    policy), a dimension-agnostic ``Problem`` protocol,
    ``plan(problem, stage=..., config=..., device=...)`` returning cached
    ``ExecutionPlan`` objects (a thin wrapper over the default session),
    a batch ``Runner`` for sweeps, and the device/stage/pipeline-builder
    registries.  New code goes through here; everything below is the
    machinery the facade compiles against.
``repro.gpu``
    Execution-model substrate: device specs (A100 default, H100-class
    registered), occupancy, shared-memory bank conflicts, roofline kernel
    timing, pipelines.
``repro.fft``
    Stockham FFT, pruned (truncated / zero-padded) transforms, exact
    butterfly op census.
``repro.gemm``
    Blocked complex GEMM with the paper's Table 1 tiling.
``repro.baselines``
    cuFFT / cuBLAS / memcpy library models and the PyTorch-style staged
    spectral convolution.
``repro.core``
    The paper's contribution: fused FFT-CGEMM-iFFT operators (numerically
    exact), problem geometries, and the stage A-E pipeline compilers the
    facade dispatches to per dimensionality.
``repro.nn`` / ``repro.pde``
    A trainable FNO (hand-written backward passes) and the PDE workload
    generators (Burgers, Darcy, Navier-Stokes) the paper's introduction
    motivates.
``repro.analysis``
    Parameter sweeps and per-figure series builders, all routed through
    ``repro.api`` so repeated geometries hit the plan cache.
"""

from repro import api
from repro.api import ExecutionPlan, Runner, Session, plan, spectral_conv
from repro.core import (
    FNO1DProblem,
    FNO2DProblem,
    FusionStage,
    TurboFNOConfig,
)
from repro.gpu import A100_SPEC, H100_SPEC, DeviceSpec

__version__ = "1.1.0"

__all__ = [
    "api",
    "plan",
    "Session",
    "Runner",
    "ExecutionPlan",
    "spectral_conv",
    "FNO1DProblem",
    "FNO2DProblem",
    "FusionStage",
    "TurboFNOConfig",
    "A100_SPEC",
    "H100_SPEC",
    "DeviceSpec",
    "__version__",
]
