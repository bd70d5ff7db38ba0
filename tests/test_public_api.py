"""Public-API surface tests: everything a downstream user imports exists."""

import numpy as np
import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_workflow(self):
        """The README's quickstart snippet, condensed — via the facade."""
        from repro import FNO1DProblem, FusionStage, api
        from repro.baselines import pytorch_like_spectral_conv_1d

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 32)).astype(np.complex64)
        w = (np.eye(8) + 0j).astype(np.complex64)
        y1 = api.spectral_conv(x, w, modes=8)
        y2 = pytorch_like_spectral_conv_1d(x, w, 8)
        assert np.allclose(y1, y2, atol=1e-4)

        prob = FNO1DProblem.from_m_spatial(2**16, 64, 128, 64)
        base = api.plan(prob, FusionStage.PYTORCH).total_time
        fused = api.plan(prob, FusionStage.FUSED_ALL).total_time
        assert fused < base

    def test_legacy_workflow_from_home_modules(self):
        """The pre-facade pipeline builders still work, imported from
        the module that defines them."""
        from repro import FNO1DProblem, FusionStage
        from repro.core.pipeline_model import build_pipeline_1d

        prob = FNO1DProblem.from_m_spatial(2**16, 64, 128, 64)
        pipe = build_pipeline_1d(prob, FusionStage.FUSED_ALL)
        assert pipe.total_time() > 0

    def test_numpy_radix4_is_gone(self):
        """The NumPy radix-4 FFT had no runtime caller and was removed:
        neither the module nor its ``repro.fft`` export remains."""
        import importlib

        import repro.fft

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.fft.radix")
        assert not hasattr(repro.fft, "fft_radix4")
        assert "fft_radix4" not in repro.fft.__all__

    def test_engine_switch_modules_are_gone(self):
        """``repro.core.spectral`` (the ``engine=`` switch) and
        ``repro.core.fused`` (wrappers over the compiled executors) were
        removed: neither module nor their ``repro.core`` exports
        remain."""
        import importlib

        import repro.core

        for module in ("repro.core.spectral", "repro.core.fused"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        for name in ("spectral_conv_1d", "spectral_conv_2d",
                     "fused_fft_gemm_ifft_1d", "fused_fft_gemm_ifft_2d"):
            assert not hasattr(repro.core, name), name
            assert name not in repro.core.__all__


class TestSubpackageExports:
    @pytest.mark.parametrize("module,names", [
        ("repro.fft", ["fft", "ifft", "fft2", "truncated_fft", "rfft",
                       "FFTPlan", "butterfly_ops"]),
        ("repro.gemm", ["blocked_cgemm", "GemmParams", "TABLE1_CGEMM",
                        "gemm_counters"]),
        ("repro.gpu", ["A100_SPEC", "DeviceSpec", "KernelSpec", "Pipeline",
                       "SharedMemoryBankModel"]),
        ("repro.core", ["CompiledSpectralConv1D", "compile_spectral_conv",
                        "FusionStage", "TurboFNOConfig"]),
        ("repro.nn", ["FNO1d", "FNO2d", "Adam", "SGD", "StepLR", "CosineLR",
                      "clip_grad_norm", "train"]),
        ("repro.pde", ["grf_1d", "grf_2d", "solve_burgers", "solve_darcy",
                       "solve_navier_stokes"]),
        ("repro.analysis", ["figures", "render_series", "render_heatmap",
                            "pipeline_roofline", "ridge_point"]),
        ("repro.api", ["Problem", "describe_problem", "ExecutionPlan",
                       "plan", "plan_cache_info", "clear_plan_cache",
                       "clear_all_caches", "Session", "SpectralModel",
                       "default_session",
                       "Runner", "spectral_conv", "get_device",
                       "register_device", "list_devices", "resolve_stage",
                       "list_stages", "register_pipeline_builder",
                       "supported_ndims", "DEFAULT_DEVICE"]),
        ("repro.baselines", ["cufft_kernel", "cublas_cgemm_kernel",
                             "pytorch_like_spectral_conv_1d"]),
    ])
    def test_exports(self, module, names):
        import importlib

        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_docstrings_on_public_callables(self):
        """Every public function/class in the core packages is documented."""
        import importlib
        import inspect

        for module in ("repro.fft.stockham", "repro.fft.pruned",
                       "repro.gemm.blocked", "repro.core.compiled",
                       "repro.gpu.kernel",
                       "repro.nn.modules", "repro.pde.burgers",
                       "repro.api.planner", "repro.api.registry",
                       "repro.api.runner", "repro.api.ops",
                       "repro.api.session"):
            mod = importlib.import_module(module)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    assert obj.__doc__, f"{module}.{name} lacks a docstring"
