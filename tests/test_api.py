"""Tests for the ``repro.api`` planning facade.

Covers the Problem protocol, plan-cache hit/miss behavior, registry
lookups, the Runner sweep drivers, byte-identical agreement with the
legacy ``build_pipeline_{1,2}d`` paths, and the package root's
attribute surface.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import repro
from repro import api
from repro.core.config import FNO1DProblem, FNO2DProblem, TurboFNOConfig
from repro.core.pipeline_model import (
    best_stage_1d,
    best_stage_2d,
    build_pipeline_1d,
    build_pipeline_2d,
)
from repro.baselines.pytorch_fno import (
    pytorch_like_spectral_conv_1d,
    pytorch_like_spectral_conv_2d,
)
from repro.core.compiled import CompiledSpectralConv1D, CompiledSpectralConv2D
from repro.core.stages import FusionStage
from repro.gpu.device import A100_SPEC, H100_SPEC, DeviceSpec
from repro.gpu.timeline import Pipeline, speedup_percent

PROB_1D = FNO1DProblem.from_m_spatial(2**16, 64, 128, 64)
PROB_2D = FNO2DProblem(batch=8, hidden=32, dim_x=256, dim_y=128,
                       modes_x=64, modes_y=64)


class TestProblemProtocol:
    def test_fno_problems_implement_protocol(self):
        assert isinstance(PROB_1D, api.Problem)
        assert isinstance(PROB_2D, api.Problem)

    def test_arbitrary_object_does_not(self):
        assert not isinstance(object(), api.Problem)

    def test_geometry_properties(self):
        assert PROB_1D.ndim == 1
        assert PROB_1D.spatial_shape == (128,)
        assert PROB_1D.modes_shape == (64,)
        assert PROB_2D.ndim == 2
        assert PROB_2D.spatial_shape == (256, 128)
        assert PROB_2D.modes_shape == (64, 64)

    def test_describe_problem_is_json_ready(self):
        payload = api.describe_problem(PROB_2D)
        json.dumps(payload)
        assert payload["ndim"] == 2
        assert payload["spatial_shape"] == [256, 128]


class TestPlanCache:
    def test_hit_and_miss_accounting(self):
        api.clear_plan_cache()
        before = api.plan_cache_info()
        assert before.currsize == 0
        p1 = api.plan(PROB_1D, FusionStage.FFT_OPT)
        after_miss = api.plan_cache_info()
        assert after_miss.misses == before.misses + 1
        p2 = api.plan(PROB_1D, FusionStage.FFT_OPT)
        after_hit = api.plan_cache_info()
        assert after_hit.hits == after_miss.hits + 1
        assert p1 is p2  # cached plans are shared objects

    def test_distinct_keys_miss(self):
        api.clear_plan_cache()
        api.plan(PROB_1D, FusionStage.FFT_OPT)
        base = api.plan_cache_info().currsize
        # Different stage, config, device or geometry -> new entries.
        api.plan(PROB_1D, FusionStage.FUSED_ALL)
        api.plan(PROB_1D, FusionStage.FFT_OPT, TurboFNOConfig(fused_n_tb=128))
        api.plan(PROB_1D, FusionStage.FFT_OPT, device="h100")
        api.plan(FNO1DProblem.from_m_spatial(2**17, 64, 128, 64),
                 FusionStage.FFT_OPT)
        assert api.plan_cache_info().currsize == base + 4

    def test_equal_geometry_hits_across_instances(self):
        """Equal frozen dataclasses are one cache key, not two."""
        api.clear_plan_cache()
        api.plan(FNO1DProblem(batch=64, hidden=32, dim_x=128, modes=64),
                 FusionStage.FUSED_ALL)
        misses = api.plan_cache_info().misses
        api.plan(FNO1DProblem(batch=64, hidden=32, dim_x=128, modes=64),
                 FusionStage.FUSED_ALL)
        info = api.plan_cache_info()
        assert info.misses == misses
        assert info.hits >= 1

    def test_best_resolution_reuses_ladder_plans(self):
        api.clear_plan_cache()
        runner = api.Runner()
        for stage in FusionStage.ladder():
            runner.plan(PROB_1D, stage)
        misses = api.plan_cache_info().misses
        best = runner.best(PROB_1D)
        # Resolving BEST after the ladder adds exactly one entry (the BEST
        # key itself); every rung evaluation is a cache hit.
        assert api.plan_cache_info().misses == misses + 1
        assert best.stage in FusionStage.ladder()


class TestPlan:
    def test_best_matches_legacy_best_stage(self):
        p = api.plan(PROB_1D)  # stage defaults to BEST
        assert (p.stage, p.total_time) == best_stage_1d(PROB_1D)
        p2 = api.plan(PROB_2D)
        assert (p2.stage, p2.total_time) == best_stage_2d(PROB_2D)

    def test_stage_spellings(self):
        by_enum = api.plan(PROB_1D, FusionStage.FUSED_ALL)
        assert api.plan(PROB_1D, "D") is by_enum
        assert api.plan(PROB_1D, "fused_all") is by_enum
        assert api.plan(PROB_1D, "d") is by_enum

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion stage"):
            api.plan(PROB_1D, "Z")

    def test_report_and_to_dict(self):
        p = api.plan(PROB_1D, "D")
        rep = p.report()
        assert rep is p.report()  # memoised
        d = p.to_dict()
        json.dumps(d)
        assert d["stage"] == "D"
        assert d["device"] == A100_SPEC.name
        assert d["total_time_ms"] == pytest.approx(rep.total_time * 1e3)
        assert len(d["kernels"]) == rep.launch_count

    def test_speedup_vs_baseline(self):
        base = api.plan(PROB_1D, FusionStage.PYTORCH)
        fused = api.plan(PROB_1D, FusionStage.FUSED_ALL)
        assert base.speedup_vs_baseline() == 0.0
        expected = speedup_percent(base.total_time, fused.total_time)
        assert fused.speedup_vs_baseline() == expected

    def test_unsupported_ndim_rejected(self):
        @dataclass(frozen=True)
        class Fake3D:
            batch: int = 1
            hidden: int = 8
            ndim: int = 99

        with pytest.raises(ValueError, match="no pipeline builder"):
            api.plan(Fake3D(), FusionStage.FFT_OPT)


class TestRegistries:
    def test_device_lookup(self):
        assert api.get_device("a100") is A100_SPEC
        assert api.get_device("H100") is H100_SPEC  # case-insensitive
        assert api.get_device(None) is api.DEFAULT_DEVICE
        spec = DeviceSpec(name="toy", num_sms=4)
        assert api.get_device(spec) is spec  # specs pass through

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            api.get_device("tpu-v5")

    def test_register_device_and_collision(self):
        name = "test-toy-device"
        spec = DeviceSpec(name="toy", num_sms=4)
        try:
            api.register_device(name, spec)
            assert api.get_device(name) is spec
            assert name in api.list_devices()
            with pytest.raises(ValueError, match="already registered"):
                api.register_device(name, spec)
            api.register_device(name, A100_SPEC, overwrite=True)
            assert api.get_device(name) is A100_SPEC
        finally:
            from repro.api import registry
            registry._DEVICES.pop(name, None)

    def test_stage_resolution(self):
        assert api.resolve_stage("A") is FusionStage.FFT_OPT
        assert api.resolve_stage("pytorch") is FusionStage.PYTORCH
        assert api.resolve_stage("BEST") is FusionStage.BEST
        assert api.resolve_stage(FusionStage.FUSED_ALL) is FusionStage.FUSED_ALL
        assert api.list_stages()[0] is FusionStage.PYTORCH
        assert api.list_stages()[-1] is FusionStage.BEST

    def test_pipeline_builder_registry_opens_new_ndim(self):
        @dataclass(frozen=True)
        class Toy3DProblem:
            batch: int = 2
            hidden: int = 8
            ndim: int = 3

        def toy_builder(problem, stage, cfg):
            pipe = Pipeline("toy-3d")
            pipe.add(build_pipeline_1d(PROB_1D, FusionStage.FUSED_ALL,
                                       cfg).kernels[0])
            return pipe

        from repro.api import registry
        assert 3 not in api.supported_ndims()
        try:
            api.register_pipeline_builder(3, toy_builder)
            assert 3 in api.supported_ndims()
            with pytest.raises(ValueError, match="already registered"):
                api.register_pipeline_builder(3, toy_builder)
            p = api.plan(Toy3DProblem(), FusionStage.FUSED_ALL)
            assert p.pipeline.name == "toy-3d"

            def other_builder(problem, stage, cfg):
                pipe = toy_builder(problem, stage, cfg)
                pipe.name = "toy-3d-v2"
                return pipe

            # Overwriting a builder drops the plan cache: the same
            # geometry must re-compile through the new builder.
            api.register_pipeline_builder(3, other_builder, overwrite=True)
            p2 = api.plan(Toy3DProblem(), FusionStage.FUSED_ALL)
            assert p2.pipeline.name == "toy-3d-v2"
        finally:
            registry._BUILDERS.pop(3, None)
            api.clear_plan_cache()

    def test_default_builders_cover_1d_and_2d(self):
        assert set(api.supported_ndims()) >= {1, 2}


class TestRunner:
    def test_ladder_matches_inlined_legacy_computation(self):
        """Runner.ladder (and the analysis wrapper over it) reproduces the
        pre-facade driver computation exactly."""
        from repro.analysis.sweeps import ladder_speedups_1d

        cfg = TurboFNOConfig()
        stages = (*FusionStage.ladder(), FusionStage.BEST)
        base = build_pipeline_1d(PROB_1D, FusionStage.PYTORCH,
                                 cfg).total_time(A100_SPEC)
        expected = {}
        for s in stages:
            if s is FusionStage.BEST:
                _, t = best_stage_1d(PROB_1D, cfg, A100_SPEC)
            else:
                t = build_pipeline_1d(PROB_1D, s, cfg).total_time(A100_SPEC)
            expected[s] = speedup_percent(base, t)
        assert api.Runner().ladder(PROB_1D, stages) == expected
        assert ladder_speedups_1d(PROB_1D, stages) == expected

    def test_map_returns_one_plan_per_problem(self):
        probs = [FNO1DProblem(batch=b, hidden=32, dim_x=128, modes=64)
                 for b in (16, 64, 256)]
        plans = api.Runner().map(probs, "D")
        assert [p.problem for p in plans] == probs
        assert all(p.stage is FusionStage.FUSED_ALL for p in plans)

    def test_sweep_series_shape(self):
        probs = [FNO1DProblem(batch=b, hidden=32, dim_x=128, modes=64)
                 for b in (16, 64)]
        series = api.Runner().sweep(probs, ("A", "D"))
        assert set(series) == {FusionStage.FFT_OPT, FusionStage.FUSED_ALL}
        assert all(len(v) == len(probs) for v in series.values())

    def test_sweep_dedups_stage_spellings(self):
        """Two spellings of one stage must not double-append its series."""
        probs = [FNO1DProblem(batch=16, hidden=32, dim_x=128, modes=64)]
        series = api.Runner().sweep(probs, ("A", "fft_opt", FusionStage.FFT_OPT))
        assert list(series) == [FusionStage.FFT_OPT]
        assert len(series[FusionStage.FFT_OPT]) == len(probs)

    def test_device_context(self):
        a100 = api.Runner()
        h100 = api.Runner(device="h100")
        assert a100.device is A100_SPEC and h100.device is H100_SPEC
        t_a = a100.plan(PROB_1D, "D").total_time
        t_h = h100.plan(PROB_1D, "D").total_time
        assert t_h < t_a  # H100 has more of everything

    def test_mixed_dimensionality_sweep(self):
        series = api.Runner().sweep([PROB_1D, PROB_2D], ("D",))
        assert len(series[FusionStage.FUSED_ALL]) == 2


class TestLegacyEquivalence:
    """repro.api reproduces the old paths bit-for-bit (acceptance gate)."""

    CFG = TurboFNOConfig()

    def _legacy_series_1d(self, problems, stages):
        out = {s: [] for s in stages}
        for prob in problems:
            base = build_pipeline_1d(prob, FusionStage.PYTORCH,
                                     self.CFG).total_time(A100_SPEC)
            for s in stages:
                if s is FusionStage.BEST:
                    _, t = best_stage_1d(prob, self.CFG, A100_SPEC)
                else:
                    t = build_pipeline_1d(prob, s, self.CFG).total_time(A100_SPEC)
                out[s].append(speedup_percent(base, t))
        return out

    def _legacy_series_2d(self, problems, stages):
        out = {s: [] for s in stages}
        for prob in problems:
            base = build_pipeline_2d(prob, FusionStage.PYTORCH,
                                     self.CFG).total_time(A100_SPEC)
            for s in stages:
                if s is FusionStage.BEST:
                    _, t = best_stage_2d(prob, self.CFG, A100_SPEC)
                else:
                    t = build_pipeline_2d(prob, s, self.CFG).total_time(A100_SPEC)
                out[s].append(speedup_percent(base, t))
        return out

    def test_1d_series_byte_identical(self):
        problems = [FNO1DProblem.from_m_spatial(2**16, k, 128, 64)
                    for k in (16, 64, 136)]
        stages = (*FusionStage.ladder(), FusionStage.BEST)
        legacy = self._legacy_series_1d(problems, stages)
        new = api.Runner(config=self.CFG).sweep(problems, stages)
        assert new == legacy  # exact float equality, not approx

    def test_2d_series_byte_identical(self):
        problems = [FNO2DProblem(batch=bs, hidden=64, dim_x=256, dim_y=128,
                                 modes_x=64, modes_y=64)
                    for bs in (4, 48, 96)]
        stages = (*FusionStage.ladder(), FusionStage.BEST)
        legacy = self._legacy_series_2d(problems, stages)
        new = api.Runner(config=self.CFG).sweep(problems, stages)
        assert new == legacy

    def test_figure_builder_series_unchanged(self):
        """fig10's api-routed panels equal a hand-rolled legacy sweep."""
        from repro.analysis import figures

        panel = figures.fig10()[0]  # K sweep at M=2^20
        problems = [FNO1DProblem.from_m_spatial(2**20, int(k), 128, 64)
                    for k in panel.x]
        legacy = self._legacy_series_1d(problems, (FusionStage.FFT_OPT,))
        assert panel.series[FusionStage.FFT_OPT] == legacy[FusionStage.FFT_OPT]


class TestSpectralConvFacade:
    def test_1d_dispatch(self, rng):
        x = (rng.standard_normal((2, 8, 32)) + 0j).astype(np.complex64)
        w = (np.eye(8) + 0j).astype(np.complex64)
        assert np.array_equal(api.spectral_conv(x, w, 8),
                              CompiledSpectralConv1D(w, 8)(x))

    def test_2d_dispatch_int_and_tuple_modes(self, rng):
        x = (rng.standard_normal((2, 4, 16, 16)) + 0j).astype(np.complex64)
        w = (np.eye(4) + 0j).astype(np.complex64)
        expected = CompiledSpectralConv2D(w, 8, 4)(x)
        assert np.array_equal(api.spectral_conv(x, w, (8, 4)), expected)
        assert np.array_equal(api.spectral_conv(x, w, 8),
                              CompiledSpectralConv2D(w, 8, 8)(x))

    def test_numpy_integer_modes(self, rng):
        """modes from numpy arithmetic (sweep arrays) must dispatch as
        scalars, not crash in tuple()."""
        x = (rng.standard_normal((2, 8, 32)) + 0j).astype(np.complex64)
        w = (np.eye(8) + 0j).astype(np.complex64)
        assert np.array_equal(api.spectral_conv(x, w, np.int64(8)),
                              CompiledSpectralConv1D(w, 8)(x))
        x2 = (rng.standard_normal((2, 4, 16, 16)) + 0j).astype(np.complex64)
        w2 = (np.eye(4) + 0j).astype(np.complex64)
        assert np.array_equal(api.spectral_conv(x2, w2, np.int64(8)),
                              CompiledSpectralConv2D(w2, 8, 8)(x2))

    def test_engine_keyword_is_gone(self, rng):
        """One operator, one path: the ``engine=`` switch was removed, so
        passing it is a plain ``TypeError``, not a silent no-op."""
        x = (rng.standard_normal((2, 8, 32)) + 0j).astype(np.complex64)
        w = (np.eye(8) + 0j).astype(np.complex64)
        with pytest.raises(TypeError, match="engine"):
            api.spectral_conv(x, w, 8, engine="turbo")
        with pytest.raises(TypeError):
            api.spectral_conv(x, w, 8, "pytorch")

    def test_non_integral_modes_rejected(self, rng):
        x = (rng.standard_normal((2, 8, 32)) + 0j).astype(np.complex64)
        with pytest.raises(ValueError, match="integer"):
            api.spectral_conv(x, np.eye(8), 8.0)

    @pytest.mark.parametrize("modes,spatial",
                             [(True, (32,)), ((True, 4), (32, 8))])
    def test_bool_modes_rejected(self, modes, spatial):
        """A bool is a flag, not a mode count: it is not taken as 1."""
        x = np.ones((2, 8) + spatial, np.complex64)
        with pytest.raises(ValueError, match="integer"):
            api.spectral_conv(x, np.eye(8), modes)

    def test_bad_rank_rejected(self, rng):
        with pytest.raises(ValueError, match="ndim=2"):
            api.spectral_conv(np.zeros((4, 4)), np.eye(4), 2)


class TestSpectralConvMatchesBaseline1D:
    @pytest.fixture
    def case(self, rng):
        x = rng.standard_normal((3, 10, 64)) + 1j * rng.standard_normal((3, 10, 64))
        w = (rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))) / 4
        return x, w

    def test_matches_pytorch_baseline(self, case):
        x, w = case
        out = api.spectral_conv(x, w, 16)
        assert np.allclose(out, pytorch_like_spectral_conv_1d(x, w, 16),
                           atol=1e-9)

    def test_output_shape(self, case):
        x, w = case
        assert api.spectral_conv(x, w, 16).shape == (3, 8, 64)

    def test_real_input_accepted(self, rng):
        x = rng.standard_normal((2, 4, 32))
        w = np.eye(4, dtype=complex)
        out = api.spectral_conv(x, w, 8)
        ref = pytorch_like_spectral_conv_1d(x + 0j, w, 8)
        assert np.allclose(out, ref, atol=1e-9)

    def test_identity_weight_is_lowpass(self, rng):
        x = rng.standard_normal((1, 2, 64)) + 0j
        w = np.eye(2, dtype=complex)
        out = api.spectral_conv(x, w, 64)  # keep everything
        assert np.allclose(out, x, atol=1e-9)


class TestSpectralConvMatchesBaseline2D:
    @pytest.fixture
    def case(self, rng):
        x = rng.standard_normal((2, 6, 16, 32)) + 0j
        w = (rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))) / 3
        return x, w

    def test_matches_pytorch_baseline(self, case):
        x, w = case
        out = api.spectral_conv(x, w, (4, 8))
        assert np.allclose(out, pytorch_like_spectral_conv_2d(x, w, 4, 8),
                           atol=1e-9)

    def test_output_shape(self, case):
        x, w = case
        assert api.spectral_conv(x, w, (4, 8)).shape == (2, 5, 16, 32)

    def test_full_modes_identity(self, rng):
        x = rng.standard_normal((1, 3, 16, 16)) + 0j
        w = np.eye(3, dtype=complex)
        out = api.spectral_conv(x, w, (16, 16))
        assert np.allclose(out, x, atol=1e-9)


class TestDeprecationShims:
    """The package root resolves only its exports; the removed legacy
    shims leave no warning behind."""

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="frobnicate"):
            repro.frobnicate

    @pytest.mark.parametrize("name,home", [
        ("build_pipeline_1d", "repro.core.pipeline_model"),
        ("build_pipeline_2d", "repro.core.pipeline_model"),
        ("best_stage_1d", "repro.core.pipeline_model"),
        ("best_stage_2d", "repro.core.pipeline_model"),
    ])
    def test_legacy_name_lives_only_at_home(self, name, home):
        """A pre-facade name is no longer a root attribute — plain
        AttributeError, no warning — but stays importable, silently,
        from the module that defines it."""
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)
            assert callable(getattr(importlib.import_module(home), name))
        assert name not in repro.__all__

    @pytest.mark.parametrize("name", ["spectral_conv_1d", "spectral_conv_2d"])
    def test_engine_switch_name_is_gone(self, name):
        """The ``engine=`` front ends went with their module: neither the
        package root, ``repro.core``, nor a ``repro.core.spectral``
        module provides them any more."""
        import importlib

        import repro.core

        with pytest.raises(AttributeError, match=name):
            getattr(repro, name)
        assert not hasattr(repro.core, name)
        assert name not in repro.core.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.spectral")

    def test_core_imports_do_not_warn(self):
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.core.pipeline_model import build_pipeline_1d  # noqa: F401
            for gone in ("repro.core.spectral", "repro.core.fused"):
                with pytest.raises(ModuleNotFoundError):
                    importlib.import_module(gone)

    def test_star_import_does_not_warn(self):
        """`from repro import *` stays silent under -W error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro import *", {})
