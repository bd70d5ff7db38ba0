"""Cross-package integration tests.

These exercise the full stack: PDE data generation -> FNO training through
the fused TurboFNO dataflow -> evaluation; and the execution model driven
by the same problem geometry the numerics ran.
"""

import numpy as np
import pytest

from repro import api
from repro.core.config import FNO1DProblem
from repro.core.pipeline_model import build_pipeline_1d
from repro.core.stages import FusionStage
from repro.nn import Adam, CosineLR, FNO1d, clip_grad_norm, train
from repro.nn.trainer import evaluate
from repro.pde import burgers_dataset


class TestFusedTrainingPath:
    """Training with per_mode=False runs the fused operator every step."""

    def test_shared_weight_fno_learns_burgers(self):
        u0, ut = burgers_dataset(40, n=32, t_final=0.3, nu=0.05, seed=1,
                                 n_steps=96)
        x = u0[:, None, :]
        y = ut[:, None, :]
        model = FNO1d(1, 1, width=12, modes=8, depth=2, proj_width=16,
                      per_mode=False, seed=2)
        opt = Adam(list(model.parameters()), lr=3e-3)
        hist = train(model, opt, x[:32], y[:32], epochs=12, batch_size=8)
        assert hist.final_train < 0.7 * hist.train_loss[0]
        test_err = evaluate(model, x[32:], y[32:])
        assert test_err < 1.0

    def test_scheduler_and_clipping_in_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 1, 16))
        y = 0.5 * x
        model = FNO1d(1, 1, width=6, modes=4, depth=1, proj_width=8)
        opt = Adam(list(model.parameters()), lr=1e-2)
        sched = CosineLR(opt, t_max=5)
        from repro.nn.losses import mse_loss

        losses = []
        for _ in range(5):
            opt.zero_grad()
            loss, grad = mse_loss(model(x), y)
            model.backward(grad)
            clip_grad_norm(list(model.parameters()), max_norm=1.0)
            opt.step()
            sched.step()
            losses.append(loss)
        assert losses[-1] < losses[0]
        assert opt.lr == pytest.approx(0.0, abs=1e-12)


class TestNumericsMeetModel:
    """The same layer geometry drives the numerics and the cost model."""

    @pytest.mark.parametrize("modes", [16, 32, 64])
    def test_problem_shapes_consistent(self, rng, modes):
        batch, hidden, dim_x = 4, 16, 64
        x = rng.standard_normal((batch, hidden, dim_x)) + 0j
        w = np.eye(hidden, dtype=complex)
        y = api.spectral_conv(x, w, modes)
        assert y.shape == (batch, hidden, dim_x)

        prob = FNO1DProblem(batch=batch, hidden=hidden, dim_x=dim_x,
                            modes=modes)
        pipe = build_pipeline_1d(prob, FusionStage.FUSED_ALL)
        c = pipe.counters()
        # The model's output write equals the tensor the numerics produced.
        assert c.global_bytes_written == pytest.approx(y.size * 8)

    def test_truncation_shrinks_both_sides_together(self, rng):
        """Fewer modes => numerics produce a smaller spectrum AND the model
        moves proportionally fewer intermediate bytes."""
        from repro.core.compiled import fused_fft_gemm_1d

        batch, hidden, dim_x = 4, 16, 64
        x = rng.standard_normal((batch, hidden, dim_x)) + 0j
        w = np.eye(hidden, dtype=complex)

        sizes = {}
        writes = {}
        for modes in (16, 32):
            spec = fused_fft_gemm_1d(x, w, modes)
            sizes[modes] = spec.size
            prob = FNO1DProblem(batch=batch, hidden=hidden, dim_x=dim_x,
                                modes=modes)
            pipe = build_pipeline_1d(prob, FusionStage.FUSED_FFT_GEMM)
            writes[modes] = pipe.kernels[0].counters.global_bytes_written
        assert sizes[32] == 2 * sizes[16]
        assert writes[32] == pytest.approx(2 * writes[16])


class TestCalibration:
    def test_sensitivity_study_structure(self):
        from repro.analysis.calibration import CONCLUSIONS, sensitivity_study

        results = sensitivity_study()
        assert set(results) == {c.name for c in CONCLUSIONS}
        for points in results.values():
            assert len(points) >= 15  # every band point evaluated
            assert all(isinstance(ok, bool) for ok in points.values())

    def test_headline_conclusions_hold_at_default_point(self):
        from repro.analysis.calibration import CONCLUSIONS
        from repro.core.config import TurboFNOConfig
        from repro.gpu.device import A100_SPEC

        for c in CONCLUSIONS:
            assert c.check(A100_SPEC, TurboFNOConfig()), c.name
