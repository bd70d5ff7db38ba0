"""TurboFNO core: the paper's contribution.

* :mod:`repro.core.config` — problem descriptions (1D/2D Fourier layers)
  and the TurboFNO configuration (truncation, kernel parameters, fusion
  stage, model penalties).
* :mod:`repro.core.stages` — the optimization ladder of Table 2
  (A: FFT pruning/truncation/padding, B: +fused FFT-CGEMM, C: +fused
  CGEMM-iFFT, D: fully fused FFT-CGEMM-iFFT, E: best-of).
* :mod:`repro.core.fft_variant` — the k-loop FFT variant: the second FFT
  stage re-interpreted along the hidden dimension so a thread block's
  iteration order matches CGEMM's k-loop (Figure 6).
* :mod:`repro.core.compiled` — the numerically exact fused operator:
  build-once/execute-many spectral-conv executors over the compiled FFT
  plan layer, the one path every shared-weight Fourier layer executes
  on (plus the stage-B/C partial fusions of Table 2);
  :mod:`repro.core.legacy` preserves the original loops as oracle and
  benchmark baseline.
* :mod:`repro.core.dtypes` — the shared complex-precision policy.
* :mod:`repro.core.pipeline_model` — compiles every stage (and the
  PyTorch baseline) into :class:`repro.gpu.timeline.Pipeline` kernel
  sequences; this is what regenerates the paper's figures.
"""

from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    compile_spectral_conv,
)
from repro.core.config import FNO1DProblem, FNO2DProblem, TurboFNOConfig
from repro.core.dtypes import complex_dtype_for
from repro.core.pipeline_model import build_pipeline_1d, build_pipeline_2d
from repro.core.stages import FusionStage

__all__ = [
    "FNO1DProblem",
    "FNO2DProblem",
    "TurboFNOConfig",
    "FusionStage",
    "CompiledSpectralConv1D",
    "CompiledSpectralConv2D",
    "compile_spectral_conv",
    "complex_dtype_for",
    "build_pipeline_1d",
    "build_pipeline_2d",
]
