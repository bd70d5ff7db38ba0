"""Tests for ``repro.tools.lint``: the project-invariant analyzer.

Every rule gets a fixture pair — a known-bad snippet it must flag and a
known-good one it must not — built as miniature ``src/repro/...`` trees
under ``tmp_path`` so the path-scoping, allowlist, and inline
suppression mechanics are exercised exactly as they run against the
real repo.  The suite ends with the self-run gate: the repository this
file lives in must lint clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.tools.lint import RULES, Finding, rule_names, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def _rules_hit(root: Path, rule: str | None = None) -> set[str]:
    findings = run_lint(root, [rule] if rule else None)
    return {f.rule for f in findings}


class TestDeterminism:
    def test_flags_wallclock_and_unseeded_rng(self, tmp_path):
        _write(tmp_path, "src/repro/fft/bad.py", """\
            import time
            import numpy as np

            def f():
                t = time.perf_counter()
                rng = np.random.default_rng()
                return t, rng
            """)
        findings = run_lint(tmp_path, ["determinism"])
        messages = " ".join(f.message for f in findings)
        assert "wall-clock" in messages
        assert "unseeded" in messages

    def test_flags_stdlib_random_and_legacy_globals(self, tmp_path):
        _write(tmp_path, "src/repro/core/bad.py", """\
            import random
            import numpy as np

            def g():
                np.random.seed(0)
                return random.random()
            """)
        findings = run_lint(tmp_path, ["determinism"])
        assert len(findings) == 2  # the import and the np.random.seed call

    def test_seeded_rng_and_out_of_scope_paths_pass(self, tmp_path):
        _write(tmp_path, "src/repro/nn/good.py", """\
            import numpy as np

            def f():
                return np.random.default_rng(123).standard_normal(4)
            """)
        # pde/ is sampling API territory, outside the bit-identity scope.
        _write(tmp_path, "src/repro/pde/sampler.py", """\
            import numpy as np

            def sample(rng=None):
                if rng is None:
                    rng = np.random.default_rng()
                return rng.standard_normal(4)
            """)
        assert run_lint(tmp_path, ["determinism"]) == []

    def test_rule_has_no_allowlist(self, tmp_path):
        """No module in the bit-identity scope may read the clock: the
        rule has no allowlist entry, so a timed probe anywhere in
        ``core/`` is a finding."""
        assert RULES["determinism"].allow == ()
        _write(tmp_path, "src/repro/core/probe.py", """\
            import time

            def measure():
                return time.perf_counter()
            """)
        assert len(run_lint(tmp_path, ["determinism"])) == 1


class TestRngTruthiness:
    def test_flags_or_default_rng(self, tmp_path):
        _write(tmp_path, "src/repro/pde/bad.py", """\
            import numpy as np

            def f(rng=None):
                rng = rng or np.random.default_rng()
                return rng
            """)
        findings = run_lint(tmp_path, ["rng-truthiness"])
        assert len(findings) == 1
        assert "Generator truthiness" in findings[0].message

    def test_is_none_check_passes(self, tmp_path):
        _write(tmp_path, "src/repro/pde/good.py", """\
            import numpy as np

            def f(rng=None):
                if rng is None:
                    rng = np.random.default_rng()
                return rng
            """)
        assert run_lint(tmp_path, ["rng-truthiness"]) == []


class TestCacheScope:
    def test_flags_global_cache_import_and_attribute(self, tmp_path):
        _write(tmp_path, "src/repro/core/bad.py", """\
            from repro.fft.compiled import default_plan_caches

            def f():
                return default_plan_caches().clear()
            """)
        _write(tmp_path, "src/repro/nn/bad2.py", """\
            from repro.fft import compiled

            def g():
                return compiled._DEFAULT_PLAN_CACHES
            """)
        findings = run_lint(tmp_path, ["cache-scope"])
        assert {f.path for f in findings} == {
            "src/repro/core/bad.py", "src/repro/nn/bad2.py",
        }

    def test_owner_module_and_scope_api_pass(self, tmp_path):
        # compiled.py itself owns the global; session.py is allowlisted.
        _write(tmp_path, "src/repro/fft/compiled.py", """\
            _DEFAULT_PLAN_CACHES = object()

            def default_plan_caches():
                return _DEFAULT_PLAN_CACHES
            """)
        _write(tmp_path, "src/repro/api/session.py", """\
            from repro.fft.compiled import default_plan_caches

            def make():
                return default_plan_caches()
            """)
        _write(tmp_path, "src/repro/core/good.py", """\
            from repro.fft.compiled import current_plan_caches

            def f():
                return current_plan_caches()
            """)
        assert run_lint(tmp_path, ["cache-scope"]) == []


class TestShmLifecycle:
    def test_flags_direct_construction_outside_shm(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/rogue.py", """\
            from multiprocessing import shared_memory

            def f():
                return shared_memory.SharedMemory(create=True, size=64)
            """)
        findings = run_lint(tmp_path, ["shm-lifecycle"])
        assert len(findings) == 2  # the import and the construction

    def test_flags_registry_without_close_all(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/leaky.py", """\
            from repro.api.serve.shm import SegmentRegistry

            def f():
                return SegmentRegistry()
            """)
        findings = run_lint(tmp_path, ["shm-lifecycle"])
        assert len(findings) == 1
        assert "close_all" in findings[0].message

    def test_shm_module_excluded_and_paired_registry_passes(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/shm.py", """\
            from multiprocessing import shared_memory

            def create(size):
                return shared_memory.SharedMemory(create=True, size=size)
            """)
        _write(tmp_path, "src/repro/api/serve/clean.py", """\
            from repro.api.serve.shm import SegmentRegistry

            def f():
                reg = SegmentRegistry()
                try:
                    return reg
                finally:
                    reg.close_all()
            """)
        assert run_lint(tmp_path, ["shm-lifecycle"]) == []


class TestLockOrder:
    def test_flags_nested_inversion(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/bad.py", """\
            class Pool:
                def f(self):
                    with self._stats_lock:
                        with self._lock:
                            pass
            """)
        findings = run_lint(tmp_path, ["lock-order"])
        assert len(findings) == 1
        assert "_stats_lock" in findings[0].message

    def test_flags_explicit_acquire_inversion(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/bad2.py", """\
            class Pool:
                def f(self):
                    with self._stats_lock:
                        self._lock.acquire()
            """)
        assert len(run_lint(tmp_path, ["lock-order"])) == 1

    def test_documented_order_passes(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/good.py", """\
            class Pool:
                def f(self):
                    with self._lock:
                        with self._stats_lock:
                            pass
            """)
        assert run_lint(tmp_path, ["lock-order"]) == []


class TestWorkspaceLock:
    def test_flags_workspace_taken_before_the_lock(self, tmp_path):
        _write(tmp_path, "src/repro/fft/compiled.py", """\
            class Plan:
                def apply(self, x):
                    buf = self._ws("gather", x.size)
                    with self._lock:
                        def later():
                            return self._scratch_for(x.size)
                        return later, buf
            """)
        findings = run_lint(tmp_path, ["workspace-lock"])
        assert [f.line for f in findings] == [3, 6]
        assert "self._ws" in findings[0].message

    def test_workspace_under_the_lock_passes(self, tmp_path):
        _write(tmp_path, "src/repro/fft/compiled.py", """\
            class Plan:
                def apply(self, x):
                    with self._lock:
                        buf = self._ws("gather", x.size)
                        return self._scratch_for(x.size), buf
            """)
        _write(tmp_path, "src/repro/fft/other.py", """\
            class Plan:
                def apply(self, x):
                    return self._ws("gather", x.size)
            """)
        assert run_lint(tmp_path, ["workspace-lock"]) == []


class TestServeExcept:
    def test_flags_unannotated_broad_handler(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/bad.py", """\
            def f():
                try:
                    work()
                except Exception:
                    return None
            """)
        findings = run_lint(tmp_path, ["serve-except"])
        assert len(findings) == 1

    def test_typed_reraise_annotation_and_narrow_pass(self, tmp_path):
        _write(tmp_path, "src/repro/api/serve/good.py", """\
            def typed():
                try:
                    work()
                except Exception as exc:
                    raise ServeError(str(exc)) from exc

            def annotated():
                try:
                    work()
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass

            def narrow():
                try:
                    work()
                except (OSError, ValueError):
                    pass
            """)
        assert run_lint(tmp_path, ["serve-except"]) == []

    def test_scope_is_serve_only(self, tmp_path):
        _write(tmp_path, "src/repro/core/elsewhere.py", """\
            def f():
                try:
                    work()
                except Exception:
                    return None
            """)
        assert run_lint(tmp_path, ["serve-except"]) == []


_PROTO_WORKER = """\
    def worker_main(request_queue, body):
        while True:
            msg = request_queue.get()
            kind = msg[0]
            if kind in ("req", "roll"):
                body.send(("res", 1, 2))
            elif kind == "model":
                pass
            elif kind == "stats":
                body.send(("stats", msg[1], {{}}))

    def heartbeat(body):
        body.send(("hb", 0, None)){extra_send}
    """

_PROTO_POOL = """\
    def _collect(self, msg):
        kind = msg[0]
        if kind == "res":
            pass
        elif kind == "hb":
            pass
        elif kind == "stats":
            pass{extra_handler}

    def _dispatch(self, handle, rollout):
        if rollout:
            kind = "roll"
        else:
            kind = "req"
        handle.queue.put((kind, 1, 2))
        handle.queue.put(("model", 3))
        handle.queue.put(("stats", 4))
        self._fallback_queue.put(("not", "a", "wire", "tag"))
    """


class TestWorkerProtocol:
    def _tree(self, tmp_path, extra_send="", extra_handler=""):
        _write(tmp_path, "src/repro/api/serve/worker.py",
               _PROTO_WORKER.format(extra_send=extra_send))
        _write(tmp_path, "src/repro/api/serve/pool.py",
               _PROTO_POOL.format(extra_handler=extra_handler))

    def test_matched_protocol_passes(self, tmp_path):
        self._tree(tmp_path)
        assert run_lint(tmp_path, ["worker-protocol"]) == []

    def test_unhandled_worker_tag_flagged(self, tmp_path):
        self._tree(tmp_path, extra_send='\n        body.send(("exp", 9))')
        findings = run_lint(tmp_path, ["worker-protocol"])
        assert len(findings) == 1
        assert "'exp'" in findings[0].message
        assert "never handled" in findings[0].message

    def test_unreachable_pool_handler_flagged(self, tmp_path):
        self._tree(tmp_path,
                   extra_handler='\n        elif kind == "warmed":\n'
                                 '            pass')
        findings = run_lint(tmp_path, ["worker-protocol"])
        assert len(findings) == 1
        assert "'warmed'" in findings[0].message
        assert "never emitted" in findings[0].message

    def test_kind_variable_resolution_covers_dispatch(self, tmp_path):
        """The parent->worker direction sees through ``kind = "req"``
        assignments; dropping the worker's "roll" branch must flag."""
        worker = _PROTO_WORKER.replace('("req", "roll")', '("req",)')
        _write(tmp_path, "src/repro/api/serve/worker.py",
               worker.format(extra_send=""))
        _write(tmp_path, "src/repro/api/serve/pool.py",
               _PROTO_POOL.format(extra_handler=""))
        findings = run_lint(tmp_path, ["worker-protocol"])
        assert len(findings) == 1
        assert "'roll'" in findings[0].message


class TestNoAssert:
    def test_flags_library_and_example_asserts(self, tmp_path):
        _write(tmp_path, "src/repro/core/bad.py", """\
            def f(x):
                assert x > 0
                return x
            """)
        _write(tmp_path, "examples/demo.py", """\
            assert 1 + 1 == 2
            """)
        findings = run_lint(tmp_path, ["no-assert"])
        assert {f.path for f in findings} == {
            "src/repro/core/bad.py", "examples/demo.py",
        }

    def test_explicit_raise_passes(self, tmp_path):
        _write(tmp_path, "src/repro/core/good.py", """\
            def f(x):
                if x <= 0:
                    raise ValueError("x must be positive")
                return x
            """)
        assert run_lint(tmp_path, ["no-assert"]) == []


class TestMechanics:
    def test_inline_suppression(self, tmp_path):
        _write(tmp_path, "src/repro/core/suppressed.py", """\
            def f(x):
                assert x > 0  # lint: allow[no-assert]
                return x
            """)
        assert run_lint(tmp_path, ["no-assert"]) == []

    def test_inline_suppression_is_per_rule(self, tmp_path):
        _write(tmp_path, "src/repro/core/wrong_tag.py", """\
            def f(x):
                assert x > 0  # lint: allow[determinism]
                return x
            """)
        assert len(run_lint(tmp_path, ["no-assert"])) == 1

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(tmp_path, ["not-a-rule"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        _write(tmp_path, "src/repro/core/broken.py", "def f(:\n")
        findings = run_lint(tmp_path, ["no-assert"])
        assert [f.rule for f in findings] == ["syntax"]

    def test_findings_sorted_and_serializable(self, tmp_path):
        _write(tmp_path, "src/repro/core/b.py", "assert True\n")
        _write(tmp_path, "src/repro/core/a.py", "assert True\n")
        findings = run_lint(tmp_path, ["no-assert"])
        assert [f.path for f in findings] == [
            "src/repro/core/a.py", "src/repro/core/b.py",
        ]
        payload = findings[0].as_dict()
        assert payload["rule"] == "no-assert"
        assert ":" in findings[0].format()

    def test_registry_names_match(self):
        assert rule_names() == sorted(RULES)
        assert len(RULES) >= 6  # the issue's floor
        for rule in RULES.values():
            assert rule.check is not None or rule.project_check is not None


class TestSelfRun:
    def test_repository_lints_clean(self):
        """The CI gate: zero findings on this repository."""
        findings = run_lint(REPO_ROOT)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_every_rule_runs_against_the_repo(self):
        """No rule silently scoped out of existence: each per-file rule
        applies to at least one real file, and the allowlisted owners
        exist."""
        from repro.tools.lint import _iter_files

        rel_paths = [
            p.relative_to(REPO_ROOT).as_posix()
            for p in _iter_files(REPO_ROOT)
        ]
        for rule in RULES.values():
            if rule.check is not None:
                assert any(rule.applies(p) for p in rel_paths), rule.name
            for pattern, _reason in rule.allow:
                assert (REPO_ROOT / pattern).exists(), (
                    f"{rule.name} allowlists {pattern}, which is gone"
                )
