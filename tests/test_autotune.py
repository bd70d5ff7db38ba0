"""Unit tests for the tile-autotune subsystem (``repro.core.autotune``).

Covers the candidate grid and the analytic seed model, the persistent
tune store's robustness contract (corrupt/stale/read-only inputs never
raise, ``REPRO_TUNE_CACHE`` overrides the location), the tuner's
hit/miss/retune semantics, the executor ``tiles=`` argument validation,
the session integration (``Session(autotune=...)``, stats counters,
cache eviction, warmup pre-tuning) and the ``tune`` CLI command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import api
from repro.core.autotune import (
    TUNE_STORE_VERSION,
    Tiles,
    TuneKey,
    TuneStore,
    Tuner,
    batch_bucket,
    candidate_tiles,
    default_tune_store,
    predicted_cost,
    tune_store_path,
)
from repro.core.compiled import (
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    compile_spectral_conv,
)
from repro.core.config import FNO1DProblem
from repro.gpu.sharedmem import StagingOccupancy


def _weight(rng, c_in=8, c_out=8):
    return ((rng.standard_normal((c_in, c_out))
             + 1j * rng.standard_normal((c_in, c_out))) / c_in
            ).astype(np.complex64)


def _key(**overrides) -> TuneKey:
    base = dict(spatial=(32,), modes=(16,), c_in=8, c_out=8, k_tb=8,
                batch_bucket=32, dtype="complex64", backend="numpy")
    base.update(overrides)
    return TuneKey(**base)


# ---------------------------------------------------------------------------
# batch bucketing, candidate grid, seed model
# ---------------------------------------------------------------------------

class TestGridAndModel:
    def test_batch_bucket_floor_and_cap(self):
        assert batch_bucket(1) == 32
        assert batch_bucket(32) == 32
        assert batch_bucket(33) == 64
        assert batch_bucket(200) == 256
        assert batch_bucket(10_000) == 256
        with pytest.raises(ValueError):
            batch_bucket(0)

    def test_candidates_are_bit_exact_by_construction(self):
        cands = candidate_tiles(batch=64, c_in=20, c_out=8, modes=16,
                                k_tb=8, max_candidates=None)
        for t in cands:
            assert t.signal_tile >= 1
            # staging width: whole multiple of k_tb, clamped to the
            # panel-covering width of c_in (24 for c_in=20)
            assert t.k_tb % 8 == 0
            assert t.k_tb <= 24
            assert t.signal_tile <= 64

    def test_default_survives_truncation(self):
        default = Tiles(16, 8)
        cands = candidate_tiles(batch=256, c_in=64, c_out=64, modes=64,
                                k_tb=8, max_candidates=4, default=default)
        assert len(cands) == 4
        assert default in cands

    def test_model_penalises_cache_spill(self):
        # Same dispatch structure, working set far beyond the budget:
        # the spilled tile must cost more.
        small = predicted_cost(Tiles(4, 8), batch=64, c_in=8, c_out=8,
                               modes=64)
        huge = predicted_cost(Tiles(4, 8), batch=64, c_in=8, c_out=8,
                              modes=64, cache_bytes=1)
        assert huge > small

    def test_model_prefers_fewer_dispatches_when_both_fit(self):
        tiny_tile = predicted_cost(Tiles(1, 8), batch=256, c_in=8,
                                   c_out=8, modes=16)
        big_tile = predicted_cost(Tiles(64, 8), batch=256, c_in=8,
                                  c_out=8, modes=16)
        assert big_tile < tiny_tile

    def test_staging_occupancy_model(self):
        occ = StagingOccupancy(1024)
        assert occ.fits(1024) and not occ.fits(1025)
        assert occ.occupancy(512) == 1.0
        assert occ.occupancy(2048) == 0.5
        assert occ.spill_factor(512) == 1.0
        assert occ.spill_factor(2048) == 1.5
        with pytest.raises(ValueError):
            StagingOccupancy(0)

    def test_tune_key_string_is_stable(self):
        key = _key()
        assert key.as_string() == \
            "fused1d|32|m16|cin8|cout8|ktb8|b32|complex64|numpy"

    def test_tune_key_separates_accumulation_widths(self):
        # Executors with different accumulation k_tb measure different
        # arithmetic groupings: their winners must never collide.
        assert _key(k_tb=8).as_string() != _key(k_tb=12).as_string()

    def test_bucket_ladder_covers_every_reachable_bucket(self):
        from repro.core.autotune import bucket_ladder

        assert bucket_ladder(1) == [32]
        assert bucket_ladder(32) == [32]
        assert bucket_ladder(100) == [32, 64, 128]
        assert bucket_ladder(10_000) == [32, 64, 128, 256]


# ---------------------------------------------------------------------------
# tune store robustness
# ---------------------------------------------------------------------------

class TestTuneStore:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "store.json"
        TuneStore(path).put("k1", Tiles(64, 16), {"ms": 1.25})
        fresh = TuneStore(path)
        assert fresh.get("k1") == Tiles(64, 16)
        assert fresh.entries() == {"k1": Tiles(64, 16)}

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({
            "version": TUNE_STORE_VERSION + 1,
            "entries": {"k1": {"signal_tile": 4, "k_tb": 8}},
        }))
        store = TuneStore(path)
        assert store.get("k1") is None
        # a write replaces the stale file with the current version
        store.put("k2", Tiles(8, 8))
        raw = json.loads(path.read_text())
        assert raw["version"] == TUNE_STORE_VERSION
        assert "k1" not in raw["entries"]

    @pytest.mark.parametrize("content", [
        "{not json",
        '"a bare string"',
        json.dumps({"version": TUNE_STORE_VERSION, "entries": "nope"}),
    ])
    def test_corrupt_file_reads_as_empty(self, tmp_path, content):
        path = tmp_path / "store.json"
        path.write_text(content)
        store = TuneStore(path)
        assert store.get("anything") is None
        store.put("k", Tiles(16, 8))  # and stays writable
        assert TuneStore(path).get("k") == Tiles(16, 8)

    @pytest.mark.parametrize("entry", [
        "not-a-dict",
        {"signal_tile": 4},                      # missing k_tb
        {"signal_tile": "4", "k_tb": 8},         # wrong type
        {"signal_tile": True, "k_tb": 8},        # bool is not a tile
        {"signal_tile": -1, "k_tb": 8},          # out of range
        {"signal_tile": 0, "k_tb": 8},           # no untiled winners
        {"signal_tile": 4, "k_tb": 0},
    ])
    def test_malformed_entries_ignored(self, tmp_path, entry):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({
            "version": TUNE_STORE_VERSION,
            "entries": {"bad": entry,
                        "good": {"signal_tile": 4, "k_tb": 8}},
        }))
        store = TuneStore(path)
        assert store.get("bad") is None
        assert store.get("good") == Tiles(4, 8)

    def test_env_override_file_and_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "custom.json"
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(target))
        assert tune_store_path() == target
        default_tune_store().put("env-k", Tiles(32, 8))
        assert json.loads(target.read_text())["entries"]["env-k"] == {
            "signal_tile": 32, "k_tb": 8,
        }
        # a directory override holds the default file name
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path))
        assert tune_store_path() == tmp_path / "autotune.json"
        monkeypatch.delenv("REPRO_TUNE_CACHE")
        assert tune_store_path().name == "autotune.json"
        assert ".cache" in str(tune_store_path())

    def test_unwritable_location_falls_back_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed")
        # the parent "directory" is a file: every disk write must fail
        store = TuneStore(blocker / "sub" / "store.json")
        store.put("k", Tiles(8, 16))
        assert store.get("k") == Tiles(8, 16)  # served from memory
        assert store.entries() == {"k": Tiles(8, 16)}
        assert not (tmp_path / "sub").exists()

    def test_concurrent_writers_lose_no_update(self, tmp_path):
        """Four processes writing ten distinct winners each, released
        together: the store's read-merge-replace runs under a file lock,
        so all forty survive.  A thousand existing entries make each
        write slow enough for unlocked writers to overlap."""
        path, go = tmp_path / "store.json", tmp_path / "go"
        filler = {f"old-{i}": Tiles(4, 8) for i in range(1000)}
        path.write_text(json.dumps({
            "version": TUNE_STORE_VERSION,
            "entries": {k: {"signal_tile": t.signal_tile, "k_tb": t.k_tb}
                        for k, t in filler.items()},
        }))
        child = (
            "import os, sys, time\n"
            "from repro.core.autotune import Tiles, TuneStore\n"
            "store = TuneStore(sys.argv[1])\n"
            "while not os.path.exists(sys.argv[2]):\n"
            "    time.sleep(0.001)\n"
            "for i in range(10):\n"
            "    store.put(f'w{sys.argv[3]}-{i}', Tiles(4 + i, 8))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        procs = [subprocess.Popen([sys.executable, "-c", child, str(path),
                                   str(go), str(w)], env=env)
                 for w in range(4)]
        time.sleep(0.5)  # let every writer import and start polling
        go.touch()
        assert [p.wait(timeout=120) for p in procs] == [0] * 4
        assert TuneStore(path).entries() == filler | {
            f"w{w}-{i}": Tiles(4 + i, 8) for w in range(4) for i in range(10)
        }


# ---------------------------------------------------------------------------
# tuner semantics
# ---------------------------------------------------------------------------

class TestTuner:
    def test_miss_measures_then_memo_hits(self, tmp_path):
        tuner = Tuner(store=TuneStore(tmp_path / "s.json"))
        calls = []

        def measure(t):
            calls.append(t)
            return 0.001 if t == Tiles(64, 8) else 0.002

        cands = [Tiles(16, 8), Tiles(64, 8)]
        got = tuner.tiles_for(_key(), Tiles(16, 8), cands, measure)
        assert got == Tiles(64, 8)
        assert calls == cands
        assert tuner.stats() == {"hits": 0, "misses": 1, "entries": 1}
        again = tuner.tiles_for(_key(), Tiles(16, 8), cands, measure)
        assert again == got and len(calls) == 2  # no re-measure
        assert tuner.stats()["hits"] == 1

    def test_store_hit_skips_measurement(self, tmp_path):
        store = TuneStore(tmp_path / "s.json")
        Tuner(store=store).tiles_for(
            _key(), Tiles(16, 8), [Tiles(4, 8)], lambda t: 0.001
        )
        fresh = Tuner(store=store)
        got = fresh.tiles_for(
            _key(), Tiles(16, 8), [Tiles(4, 8)],
            lambda t: pytest.fail("must not measure on a store hit"),
        )
        assert got == Tiles(4, 8)
        assert fresh.stats() == {"hits": 1, "misses": 0, "entries": 1}

    def test_invalid_recalled_entry_triggers_retune(self, tmp_path):
        store = TuneStore(tmp_path / "s.json")
        store.put(_key().as_string(), Tiles(16, 12))  # incompatible k
        tuner = Tuner(store=store)
        got = tuner.tiles_for(
            _key(), Tiles(16, 8), [Tiles(8, 8)], lambda t: 0.001,
            is_valid=lambda t: t.k_tb % 8 == 0,
        )
        assert got == Tiles(8, 8)
        assert tuner.stats()["misses"] == 1

    def test_retune_overwrites(self, tmp_path):
        tuner = Tuner(store=TuneStore(tmp_path / "s.json"))
        timings = {Tiles(16, 8): 0.001, Tiles(64, 8): 0.002}
        cands = list(timings)
        assert tuner.tiles_for(
            _key(), Tiles(16, 8), cands, lambda t: timings[t]
        ) == Tiles(16, 8)
        timings[Tiles(64, 8)] = 0.0001  # the machine changed its mind
        assert tuner.tiles_for(
            _key(), Tiles(16, 8), cands, lambda t: timings[t], retune=True
        ) == Tiles(64, 8)
        assert tuner.stats()["misses"] == 2

    def test_clear_memo_keeps_store(self, tmp_path):
        store = TuneStore(tmp_path / "s.json")
        tuner = Tuner(store=store)
        tuner.tiles_for(_key(), Tiles(16, 8), [Tiles(8, 8)],
                        lambda t: 0.001)
        tuner.clear_memo()
        assert tuner.stats()["entries"] == 0
        assert store.get(_key().as_string()) == Tiles(8, 8)

    def test_concurrent_cold_key_searches_once(self, tmp_path):
        """Threads racing one cold key: exactly one runs the timed
        search (the others wait it out and memo-hit), and a search in
        flight never blocks resolutions of other, already-warm keys."""
        import threading

        tuner = Tuner(store=TuneStore(tmp_path / "s.json"))
        warm_key, cold_key = _key(spatial=(64,)), _key()
        tuner.tiles_for(warm_key, Tiles(16, 8), [Tiles(8, 8)],
                        lambda t: 0.001)
        in_search = threading.Event()
        release = threading.Event()
        warm_resolved_mid_search = threading.Event()

        def slow_measure(t):
            in_search.set()
            release.wait(timeout=5)
            return 0.001

        def cold(n):
            tuner.tiles_for(cold_key, Tiles(16, 8), [Tiles(8, 8)],
                            slow_measure)

        threads = [threading.Thread(target=cold, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        assert in_search.wait(timeout=5)
        # the cold search is mid-measure: a warm key must still resolve
        tuner.tiles_for(warm_key, Tiles(16, 8), [Tiles(8, 8)],
                        lambda t: pytest.fail("warm key re-measured"))
        warm_resolved_mid_search.set()
        release.set()
        for t in threads:
            t.join()
        stats = tuner.stats()
        assert warm_resolved_mid_search.is_set()
        # 5 resolutions: 1 warm miss, 1 cold miss, 3 hits
        assert stats["misses"] == 2
        assert stats["hits"] == 3


# ---------------------------------------------------------------------------
# executor tiles= argument
# ---------------------------------------------------------------------------

class TestExecutorTilesArgument:
    def test_rejects_unknown_spellings_and_illegal_pairs(self, rng):
        w = _weight(rng)
        with pytest.raises(ValueError, match="tiles mode"):
            CompiledSpectralConv1D(w, 4, tiles="fastest")
        with pytest.raises(ValueError, match="signal_tile"):
            CompiledSpectralConv1D(w, 4, tiles=(0, 8))
        with pytest.raises(ValueError, match="whole multiple"):
            CompiledSpectralConv1D(w, 4, tiles=(16, 12))
        with pytest.raises(ValueError, match="whole multiple"):
            CompiledSpectralConv1D(w, 4, tiles=(16, 4))  # below k_tb
        with pytest.raises(ValueError, match="untiled"):
            CompiledSpectralConv1D(w, 4, symmetric=True, tiles=(16, 16))
        with pytest.raises(ValueError):
            compile_spectral_conv(w, (4, 4), tiles=(16, 12))

    @pytest.mark.parametrize("tiles", [(0, 8), (7, 8), (16, 8)])
    def test_symmetric_rejects_concrete_tiles(self, rng, tiles):
        w = _weight(rng)
        with pytest.raises(ValueError, match="untiled"):
            CompiledSpectralConv1D(w, 4, symmetric=True, tiles=tiles)
        with pytest.raises(ValueError, match="untiled"):
            CompiledSpectralConv2D(w, 4, 4, symmetric=True, tiles=tiles)

    def test_symmetric_auto_never_consults_the_tuner(self, tmp_path, rng):
        w = _weight(rng)
        tuner = Tuner(store=TuneStore(tmp_path / "t.json"))
        x1 = rng.standard_normal((6, 8, 32)).astype(np.float32)
        x2 = rng.standard_normal((3, 8, 16, 32)).astype(np.float32)
        for modes, x, spatial in [((8,), x1, 32), ((4, 8), x2, (16, 32))]:
            conv = compile_spectral_conv(w, modes, symmetric=True,
                                         tiles="auto", tuner=tuner)
            plain = compile_spectral_conv(w, modes, symmetric=True)
            assert np.array_equal(conv(x), plain(x))
            assert conv.resolve_tiles(32, spatial) is None
            assert conv.warm_tiles(256, spatial) == 0
        assert tuner.stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert not (tmp_path / "t.json").exists()

    def test_auto_hit_builds_no_candidate_grid(self, tmp_path, monkeypatch,
                                               rng):
        """A memoised winner is recalled without rebuilding (and
        re-costing) the candidate grid: warm calls only hit."""
        from repro.core import compiled

        built = []
        real = compiled.candidate_tiles

        def counting(**kwargs):
            built.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(compiled, "candidate_tiles", counting)
        tuner = Tuner(store=TuneStore(tmp_path / "t.json"))
        w = _weight(rng)
        conv = CompiledSpectralConv1D(w, 16, tiles="auto", tuner=tuner)
        x = rng.standard_normal((8, 8, 32)).astype(np.float32)
        conv(x)  # the one search
        assert len(built) == 1
        hits = tuner.stats()["hits"]
        for _ in range(5):
            conv(x)
        assert len(built) == 1
        assert tuner.stats()["hits"] == hits + 5
        assert tuner.stats()["misses"] == 1

    def test_staging_cached_per_tiles(self, rng):
        w = _weight(rng)
        conv = CompiledSpectralConv1D(w, 8, tiles=(4, 8))
        x = rng.standard_normal((6, 8, 16)).astype(np.float32)
        conv(x)
        conv(x)
        assert len(conv._staged) == 1

    def test_resolve_tiles_default_and_explicit(self, rng):
        w = _weight(rng)
        assert CompiledSpectralConv1D(w, 8).resolve_tiles(32, 32) == \
            Tiles(16, 8)
        assert CompiledSpectralConv1D(
            w, 8, symmetric=True
        ).resolve_tiles(32, 32) is None
        assert CompiledSpectralConv1D(
            w, 8, tiles=(64, 16)
        ).resolve_tiles(32, 32) == Tiles(64, 16)
        assert CompiledSpectralConv2D(w, 4, 8).resolve_tiles(
            4, (16, 32)
        ) == Tiles(16, 8)

    def test_auto_uses_default_tuner_when_none_given(self, tmp_path,
                                                     monkeypatch, rng):
        from repro.core import autotune

        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        monkeypatch.setattr(autotune, "_default_tuner", None)
        w = _weight(rng)
        conv = CompiledSpectralConv1D(w, 8, tiles="auto")
        x = rng.standard_normal((8, 8, 16)).astype(np.float32)
        ref = CompiledSpectralConv1D(w, 8)(x)
        assert np.array_equal(conv(x), ref)
        assert autotune.default_tuner().stats()["misses"] == 1
        assert (tmp_path / "t.json").exists()


# ---------------------------------------------------------------------------
# session integration
# ---------------------------------------------------------------------------

class TestSessionAutotune:
    def test_spelling_validation(self):
        api.Session(autotune="on").close()
        api.Session(autotune="off").close()
        with pytest.raises(ValueError, match="autotune"):
            api.Session(autotune="sometimes")

    def test_default_off_and_stats_shape(self, rng):
        with api.Session() as s:
            st = s.stats()["autotune"]
            assert st == {"enabled": False, "hits": 0, "misses": 0,
                          "entries": 0}

    def test_autotuned_serving_bit_identical(self, tmp_path, monkeypatch,
                                             rng):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        w = _weight(rng)
        x = (rng.standard_normal((8, 8, 32))
             + 1j * rng.standard_normal((8, 8, 32))).astype(np.complex64)
        with api.Session(autotune=True) as tuned, api.Session() as plain:
            a = tuned.infer((w, 8), x)
            b = plain.infer((w, 8), x)
            assert np.array_equal(a, b)
            st = tuned.stats()["autotune"]
            assert st["enabled"] and st["misses"] == 1

    def test_clear_all_caches_evicts_tune_memo(self, tmp_path,
                                               monkeypatch, rng):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        w = _weight(rng)
        x = np.ones((4, 8, 16), np.float32)
        with api.Session(autotune=True) as s:
            s.infer((w, 8), x)
            assert s.stats()["autotune"]["entries"] == 1
            s.clear_all_caches()
            assert s.stats()["autotune"]["entries"] == 0
            # the persistent store still has the winner: next call hits
            hits_before = s.stats()["autotune"]["hits"]
            s.infer((w, 8), x)
            assert s.stats()["autotune"]["hits"] == hits_before + 1
            assert s.stats()["autotune"]["misses"] == 1

    def test_warmup_pretunes_problem_geometries(self, tmp_path,
                                                monkeypatch, rng):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        prob = FNO1DProblem(batch=16, hidden=8, dim_x=32, modes=16)
        with api.Session(autotune=True) as s:
            info = s.warmup([prob])
            # one bucket (<=32) of the fused dataflow; symmetric
            # executors are untiled
            assert info["tuned"] == 1
            misses = s.stats()["autotune"]["misses"]
            assert misses == 1
            # serving the warmed geometry — at the problem batch AND at
            # smaller micro-batch sizes — never searches inline
            w = _weight(rng)
            for batch in (16, 3):
                s.infer((w, 16), np.ones((batch, 8, 32), np.float32))
            s.infer((w, 16, True), np.ones((4, 8, 32), np.float32))
            assert s.stats()["autotune"]["misses"] == misses

    def test_warmup_without_autotune_reports_zero(self):
        with api.Session() as s:
            assert s.warmup([FNO1DProblem(batch=8, hidden=8, dim_x=32,
                                          modes=16)])["tuned"] == 0

    def test_plan_compile_executor_follows_session_autotune(
            self, tmp_path, monkeypatch, rng):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        prob = FNO1DProblem(batch=8, hidden=8, dim_x=32, modes=8)
        w = _weight(rng)
        with api.Session(autotune=True) as s:
            conv = s.plan(prob).compile_executor(w)
            assert conv.tiles == "auto"
            x = np.ones((8, 8, 32), np.float32)
            ref = CompiledSpectralConv1D(w, 8)(x)
            assert np.array_equal(conv(x), ref)
            assert s.stats()["autotune"]["misses"] == 1
        with api.Session() as s:
            assert s.plan(prob).compile_executor(w).tiles == "default"
            assert s.plan(prob).compile_executor(
                w, tiles=(4, 8)
            ).tiles == Tiles(4, 8)


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

class TestTuneCLI:
    def test_tune_quick_json(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        assert main(["tune", "--grid", "quick", "--backend", "numpy",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "numpy"
        assert payload["store"] == str(tmp_path / "t.json")
        assert payload["tuner"]["misses"] == len(payload["results"])
        for row in payload["results"]:
            assert row["outputs_equal"] is True
            st, ktb = row["tiles"]
            assert st >= 0 and ktb >= 8
        assert (tmp_path / "t.json").exists()

    def test_tune_rejects_unavailable_backend(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.__main__ import main
        from repro.fft import _ckernels

        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        monkeypatch.setitem(_ckernels._state, "kernels", None)
        monkeypatch.setitem(_ckernels._state, "tried", True)
        assert main(["tune", "--backend", "ckernels"]) == 2
        assert "error" in capsys.readouterr().err
