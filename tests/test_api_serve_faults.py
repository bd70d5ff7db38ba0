"""Tests for serving failure semantics: faults, health, degradation.

Everything the chaos layer makes deterministically reachable:

* :class:`FaultPlan` — the ``REPRO_FAULTS`` grammar, env activation,
  seeded-chaos determinism, and the injector's one-shot/always/retry
  firing rules;
* :class:`CircuitBreaker` — closed/open/half-open transitions under an
  injectable clock;
* recovery paths through a real pool, provoked *without raw signals*:
  scripted crashes before/after execution (retry, bit-identical), a
  hang the health monitor must detect and escalate, deadline expiry on
  both the parent and worker side, corrupted response headers
  (checksum rejection, retry-or-typed-fail), ``ResultTimeout`` +
  ``cancel()`` slab release, breaker-open degradation to the in-parent
  fallback (still bit-identical) and half-open recovery, and the
  worker-start ckernels->numpy backend fallback;
* the close budget (``close(timeout=)`` bounds a saturated shutdown)
  and a miniature :func:`run_soak` asserting the three acceptance
  invariants end to end.

Pools stay small (1-2 workers, numpy backend) and are never shared
between tests.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import Session
from repro.api.serve import (
    Cancelled,
    ChaosInjector,
    CircuitBreaker,
    CorruptedHeader,
    DeadlineExceeded,
    FALLBACK,
    Fault,
    FaultPlan,
    HealthPolicy,
    ResultTimeout,
    RouteTable,
    ServeError,
    ServePool,
    WorkerCrashed,
    header_checksum,
    run_soak,
)
from repro.api.serve.faults import HANG_FOREVER

RNG = np.random.default_rng(20260808)


def _weight(k=4):
    return ((RNG.standard_normal((k, k)) + 1j * RNG.standard_normal((k, k)))
            / k).astype(np.complex64)


def _signal(shape):
    return (RNG.standard_normal(shape)
            + 1j * RNG.standard_normal(shape)).astype(np.complex64)


def _ref(model, x):
    session = Session(backend="numpy")
    try:
        return session.infer(model, x)
    finally:
        session.close()


# ---------------------------------------------------------------------------
# FaultPlan / ChaosInjector
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_roundtrip(self):
        spec = "crash_before@3;hang@7;latency@5:0.05;corrupt_header@11!"
        plan = FaultPlan.parse(spec)
        assert len(plan) == 4
        assert plan.lookup("crash_before", 3).kind == "crash_before"
        assert plan.lookup("latency", 5).seconds == pytest.approx(0.05)
        assert plan.lookup("corrupt_header", 11).always
        assert plan.lookup("hang", 7).seconds == HANG_FOREVER
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()

    def test_parse_spawn_and_errors(self):
        plan = FaultPlan.parse("backend_fail@1")
        assert plan.lookup_spawn("backend_fail", 1) is not None
        assert plan.lookup_spawn("backend_fail", 0) is None
        with pytest.raises(ValueError, match="kind"):
            FaultPlan.parse("frobnicate@3")
        with pytest.raises(ValueError, match="kind@index"):
            FaultPlan.parse("crash_before")
        with pytest.raises(ValueError):
            Fault("backend_fail", 3)  # spawn faults target a shard
        with pytest.raises(ValueError):
            Fault("crash_before", shard=0)  # request faults need a rid

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
        plan = FaultPlan.from_env({"REPRO_FAULTS": "crash_before@0"})
        assert len(plan) == 1

    def test_chaos_is_deterministic(self):
        a = FaultPlan.chaos(7, 200)
        b = FaultPlan.chaos(7, 200)
        assert a.spec() == b.spec()
        assert len(a) > 0
        assert a.spec() != FaultPlan.chaos(8, 200).spec()

    def test_injector_one_shot_and_retry_filter(self):
        plan = FaultPlan([Fault("crash_before", 5),
                          Fault("latency", 6, seconds=0.1, always=True)])
        inj = ChaosInjector(plan)
        assert bool(inj)
        assert inj.fire("crash_before", 5) is not None
        assert inj.fire("crash_before", 5) is None  # one-shot: spent
        assert inj.fire("crash_before", 4) is None  # not scripted
        # retried requests skip non-always faults entirely...
        inj2 = ChaosInjector(plan)
        assert inj2.fire("crash_before", 5, retries=1) is None
        # ...but always-faults refire on every attempt.
        assert inj2.fire("latency", 6) is not None
        assert inj2.fire("latency", 6, retries=2) is not None

    def test_empty_injector_is_falsy(self):
        assert not ChaosInjector(None)
        assert ChaosInjector(None).fire("crash_before", 0) is None


# ---------------------------------------------------------------------------
# CircuitBreaker / RouteTable / HealthPolicy units
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_transitions(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=2, cooldown=10.0,
                            clock=lambda: clock[0])
        assert br.state == "closed"
        assert br.allow_worker()
        assert not br.record_failure()  # 1 of 2
        assert br.record_failure()  # opens
        assert br.state == "open"
        assert not br.allow_worker()
        clock[0] = 5.0
        assert not br.allow_worker()  # still cooling down
        clock[0] = 10.0
        assert br.state == "half_open"
        assert br.allow_worker()  # the single probe
        assert not br.allow_worker()  # second caller: still degraded
        br.record_success()
        assert br.state == "closed"
        assert br.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=1, cooldown=10.0,
                            clock=lambda: clock[0])
        assert br.record_failure()
        clock[0] = 10.0
        assert br.allow_worker()  # probe
        assert br.record_failure()  # probe died: re-open, restart cooldown
        assert br.state == "open"
        clock[0] = 19.0
        assert not br.allow_worker()
        clock[0] = 20.0
        assert br.allow_worker()

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=3, cooldown=1.0)
        br.record_failure()
        br.record_failure()
        br.record_success()
        assert br.consecutive_failures == 0
        assert not br.record_failure()  # the streak restarted

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1)


class TestRouteTable:
    def test_degrade_reroutes_only_that_shard(self):
        table = RouteTable(4)
        w = _weight()
        from repro.api.serve import geometry_key
        from repro.api.session import SpectralModel

        key = geometry_key(SpectralModel(w, 16), _signal((2, 4, 128)))
        shard = table.shard(key)
        assert table.route(key) == shard
        table.degrade(shard)
        assert table.route(key) == FALLBACK
        assert table.shard(key) == shard  # ownership never moves
        assert table.degraded == (shard,)
        other = (shard + 1) % 4
        table.degrade(other)
        table.restore(shard)
        assert table.route(key) == shard
        assert table.degraded == (other,)


class TestHealthPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(heartbeat_interval=0)
        with pytest.raises(ValueError):
            HealthPolicy(hang_timeout=0)
        with pytest.raises(ValueError):
            HealthPolicy(sweep_interval=0)
        assert HealthPolicy().as_dict()["hang_timeout"] == 30.0


def test_header_checksum_detects_field_changes():
    fields = (3, (2, 4, 64), "complex64", 4096)
    good = header_checksum(fields)
    assert header_checksum(fields) == good  # stable
    assert header_checksum((3, (2, 4, 64), "complex64", 4097)) != good


# ---------------------------------------------------------------------------
# Scripted crash recovery (no raw signals anywhere below)
# ---------------------------------------------------------------------------

class TestScriptedCrashes:
    @pytest.mark.parametrize("kind", ["crash_before", "crash_after"])
    def test_crash_retry_is_bit_identical(self, kind):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault(kind, 0)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="retry") as pool:
            y = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["crashes"] == 1
        assert stats["admission"]["retried"] >= 1
        assert np.array_equal(y, _ref((w, 16), x))

    def test_crash_with_fail_policy_is_typed(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("crash_before", 0)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="fail") as pool:
            fut = pool.submit((w, 16), x)
            with pytest.raises(WorkerCrashed):
                fut.result(120)
            # The shard recovered: the next request serves normally.
            y = pool.infer((w, 16), x, timeout=120)
        assert np.array_equal(y, _ref((w, 16), x))

    def test_env_var_activates_faults(self, monkeypatch):
        w, x = _weight(), _signal((2, 4, 128))
        monkeypatch.setenv("REPRO_FAULTS", "crash_before@0")
        with ServePool(workers=1, backend="numpy") as pool:
            y = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["crashes"] == 1
        assert stats["faults"] == "crash_before@0"
        assert np.array_equal(y, _ref((w, 16), x))


class TestReplacementDiesBeforeWarm:
    """A replacement worker that exits before its ``"warmed"`` reply
    fails the warmup handoff as soon as its pipe closes, not after the
    120 s lifecycle timeout."""

    @pytest.fixture
    def warm_dies_once(self, monkeypatch, tmp_path):
        """The first worker to receive a warmup directive exits; later
        ones warm normally (workers fork from the patched parent)."""
        import os

        from repro.api.serve import worker

        flag = tmp_path / "warm-died"
        original = worker._WorkerBody.warm

        def warm(self, model_specs, geometries):
            if not flag.exists():
                flag.touch()
                os._exit(72)
            original(self, model_specs, geometries)

        monkeypatch.setattr(worker._WorkerBody, "warm", warm)
        return flag

    def test_crash_handoff_fails_fast_and_retries(self, warm_dies_once):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("crash_before", 0)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="retry", max_retries=2,
                       start_method="fork") as pool:
            t0 = time.monotonic()
            y = pool.infer((w, 16), x, timeout=120)
            elapsed = time.monotonic() - t0
            stats = pool.stats(timeout=10)
        assert warm_dies_once.exists()
        assert elapsed < 20
        assert stats["admission"]["crashes"] == 2
        assert stats["admission"]["retried"] >= 1
        assert np.array_equal(y, _ref((w, 16), x))

    def test_crash_handoff_fails_fast_with_fail_policy(self, warm_dies_once):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("crash_before", 0)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="fail", start_method="fork") as pool:
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashed):
                pool.submit((w, 16), x).result(120)
            assert time.monotonic() - t0 < 20
            # Once the dead replacement's own crash is handled, a second
            # replacement warms normally and serves.
            deadline = time.monotonic() + 60
            while (pool._admission["crashes"] < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            y = pool.infer((w, 16), x, timeout=120)
        assert warm_dies_once.exists()
        assert np.array_equal(y, _ref((w, 16), x))

    def test_recycle_keeps_the_old_worker_serving(self, warm_dies_once):
        w, x = _weight(), _signal((2, 4, 128))
        with ServePool(workers=1, backend="numpy",
                       max_requests_per_worker=1,
                       start_method="fork") as pool:
            want = pool.infer((w, 16), x, timeout=120)
            pid = pool.worker_pids()[0]
            t0 = time.monotonic()
            y = pool.infer((w, 16), x, timeout=120)
            assert time.monotonic() - t0 < 20
            assert pool.worker_pids()[0] == pid  # recycle was abandoned
            z = pool.infer((w, 16), x, timeout=120)
            assert pool.worker_pids()[0] != pid  # the next one succeeds
            stats = pool.stats(timeout=10)
        assert warm_dies_once.exists()
        assert stats["admission"]["recycles"] == 1
        assert stats["admission"]["crashes"] == 0
        assert np.array_equal(y, want) and np.array_equal(z, want)


class TestHangDetection:
    def test_hung_worker_is_killed_and_request_retried(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("hang", 0)])  # sleeps ~forever
        with ServePool(workers=1, backend="numpy", faults=plan,
                       health=HealthPolicy(hang_timeout=1.0)) as pool:
            t0 = time.monotonic()
            y = pool.infer((w, 16), x, timeout=120)
            elapsed = time.monotonic() - t0
            stats = pool.stats(timeout=10)
        assert stats["admission"]["hangs"] >= 1
        assert stats["admission"]["crashes"] >= 1  # escalated as a crash
        assert np.array_equal(y, _ref((w, 16), x))
        assert elapsed < 60  # detection, not the 3600s sleep

    def test_short_hang_under_timeout_is_latency(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("hang", 0, seconds=0.3)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       health=HealthPolicy(hang_timeout=30.0)) as pool:
            y = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["hangs"] == 0  # never escalated
        assert np.array_equal(y, _ref((w, 16), x))


class TestDeadlines:
    def test_expired_deadline_fails_typed_before_dispatch(self):
        w, x = _weight(), _signal((2, 4, 128))
        with ServePool(workers=1, backend="numpy") as pool:
            fut = pool.submit((w, 16), x, deadline=0.0)
            with pytest.raises(DeadlineExceeded):
                fut.result(30)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["expired"] >= 1
        assert stats["admission"]["completed"] == 0

    def test_deadline_expires_in_flight(self):
        # Request 0 stalls the worker for 0.6s; request 1's 0.2s budget
        # lapses while queued behind it.  Whichever side notices first —
        # the parent's sweep or the worker's skip — the caller sees one
        # typed DeadlineExceeded and the slabs drain.
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("latency", 0, seconds=0.6)])
        with ServePool(workers=1, backend="numpy", faults=plan) as pool:
            slow = pool.submit((w, 16), x)
            doomed = pool.submit((w, 16), x, deadline=0.2)
            assert np.array_equal(slow.result(120), _ref((w, 16), x))
            with pytest.raises(DeadlineExceeded):
                doomed.result(120)
            time.sleep(0.3)  # let the worker's answer drain the slabs
            stats = pool.stats(timeout=10)
            handle = pool._handles[0]
            assert handle.req_arena.in_flight == 0
            assert handle.resp_arena.in_flight == 0
        assert stats["admission"]["expired"] >= 1

    def test_negative_deadline_rejected(self):
        w, x = _weight(), _signal((2, 4, 128))
        with ServePool(workers=1, backend="numpy") as pool:
            with pytest.raises(ValueError, match="deadline"):
                pool.submit((w, 16), x, deadline=-1.0)


class TestResultTimeoutAndCancel:
    def test_result_timeout_is_typed_and_backcompat(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("latency", 0, seconds=0.5)])
        with ServePool(workers=1, backend="numpy", faults=plan) as pool:
            fut = pool.submit((w, 16), x)
            with pytest.raises(ResultTimeout):
                fut.result(0.05)
            # ResultTimeout subclasses both ServeError and TimeoutError.
            assert issubclass(ResultTimeout, ServeError)
            assert issubclass(ResultTimeout, TimeoutError)
            # The request is still in flight: waiting again succeeds.
            assert np.array_equal(fut.result(120), _ref((w, 16), x))

    def test_cancel_releases_slabs_when_worker_answers(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("latency", 0, seconds=0.5)])
        with ServePool(workers=1, backend="numpy", faults=plan) as pool:
            fut = pool.submit((w, 16), x)
            assert fut.cancel()
            assert fut.cancelled()
            assert not fut.cancel()  # already resolved: no-op
            with pytest.raises(Cancelled):
                fut.result(0)
            deadline = time.monotonic() + 30
            handle = pool._handles[0]
            while handle.req_arena.in_flight and time.monotonic() < deadline:
                time.sleep(0.05)
            assert handle.req_arena.in_flight == 0
            assert handle.resp_arena.in_flight == 0
            stats = pool.stats(timeout=10)
        assert stats["admission"]["cancelled"] == 1

    def test_cancel_after_completion_returns_false(self):
        w, x = _weight(), _signal((2, 4, 128))
        with ServePool(workers=1, backend="numpy") as pool:
            fut = pool.submit((w, 16), x)
            fut.result(120)
            assert not fut.cancel()


class TestCorruptedHeaders:
    def test_corrupt_response_retries_to_success(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("corrupt_header", 0)])  # one-shot
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="retry") as pool:
            y = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["corrupted"] == 1
        assert stats["admission"]["retried"] == 1
        assert np.array_equal(y, _ref((w, 16), x))

    def test_corrupt_response_without_retries_is_typed(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("corrupt_header", 0, always=True)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="fail") as pool:
            fut = pool.submit((w, 16), x)
            with pytest.raises(CorruptedHeader):
                fut.result(120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["corrupted"] >= 1
        assert stats["admission"]["failed"] >= 1

    def test_injected_ring_failure_is_pool_saturated(self):
        from repro.api.serve import PoolSaturated

        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("ring_fail", 0)])
        with ServePool(workers=1, backend="numpy", faults=plan) as pool:
            with pytest.raises(PoolSaturated, match="injected"):
                pool.submit((w, 16), x)
            stats = pool.stats(timeout=10)
            # Recovery: the fault was one-shot, the next submit lands.
            y = pool.infer((w, 16), x, timeout=120)
            after = pool.stats(timeout=10)
        assert stats["admission"]["rejected"] == 1
        assert np.array_equal(y, _ref((w, 16), x))
        # The rejected first request never shipped the model, so the
        # next one must: a worker sent a request for a model it does not
        # hold would die on it.
        assert after["admission"]["crashes"] == 0


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_breaker_opens_degrades_and_recovers(self):
        w, x = _weight(), _signal((2, 4, 128))
        # Two scripted deaths (retry budget 0 keeps each terminal) open
        # the threshold-2 breaker; later requests have no faults.
        plan = FaultPlan([Fault("crash_before", 0, always=True),
                          Fault("crash_before", 1, always=True)])
        ref = _ref((w, 16), x)
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="fail", breaker_threshold=2,
                       breaker_cooldown=0.5) as pool:
            for _ in range(2):
                with pytest.raises(WorkerCrashed):
                    pool.submit((w, 16), x).result(120)
            stats = pool.stats(timeout=10)
            assert stats["degraded"]["breakers"]["0"]["state"] == "open"
            assert stats["degraded"]["open_shards"] == [0]
            # Open breaker: traffic reroutes in-parent, bit-identical.
            y_degraded = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
            assert stats["admission"]["degraded"] >= 1
            assert stats["degraded"]["fallback_active"]
            assert stats["admission"]["breaker_opens"] >= 1
            # After the cooldown the half-open probe hits the (healthy)
            # replacement worker and closes the breaker.
            time.sleep(0.6)
            y_probe = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
            assert stats["degraded"]["breakers"]["0"]["state"] == "closed"
            assert stats["degraded"]["open_shards"] == []
        assert np.array_equal(y_degraded, ref)
        assert np.array_equal(y_probe, ref)

    def test_backend_fallback_on_spawn_fault(self):
        w, x = _weight(), _signal((2, 4, 128))
        plan = FaultPlan([Fault("backend_fail", shard=0)])
        with ServePool(workers=1, backend="auto", faults=plan) as pool:
            y = pool.infer((w, 16), x, timeout=120)
            stats = pool.stats(timeout=10)
        # The worker degraded to the numpy substrate instead of
        # crash-looping — and numpy bits equal every other backend's.
        assert stats["per_worker"][0]["backend"] == "numpy"
        assert np.array_equal(y, _ref((w, 16), x))


# ---------------------------------------------------------------------------
# Grouped admission: a burst's group succeeds or fails as one header
# ---------------------------------------------------------------------------

class TestGroupedFailures:
    def test_deadline_zero_fails_every_request_of_the_burst(self):
        w = _weight()
        reqs = [((w, 16), _signal((1 + i % 2, 4, 128 if i % 3 else 64)))
                for i in range(7)]
        with ServePool(workers=2, backend="numpy") as pool:
            with pytest.raises(DeadlineExceeded):
                pool.infer_many(reqs, timeout=30, deadline=0.0)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["submitted"] == len(reqs)
        assert stats["admission"]["expired"] == len(reqs)
        assert stats["admission"]["completed"] == 0
        assert sum(g["expired"]
                   for g in stats["per_geometry"].values()) == len(reqs)

    @pytest.mark.parametrize("kind", ["crash_before", "crash_after"])
    def test_scripted_crash_retries_the_whole_group(self, kind):
        w = _weight()
        reqs = [((w, 16), _signal((1 + i % 3, 4, 128))) for i in range(5)]
        plan = FaultPlan([Fault(kind, 0)])  # header 0 carries the group
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="retry") as pool:
            outs = pool.infer_many(reqs, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["crashes"] == 1
        assert stats["admission"]["retried"] == len(reqs)
        for (model, x), y in zip(reqs, outs, strict=True):
            assert np.array_equal(y, _ref(model, x))

    def test_scripted_crash_fails_each_request_of_the_group(self):
        w = _weight()
        reqs = [((w, 16), _signal((2, 4, 128))) for _ in range(5)]
        plan = FaultPlan([Fault("crash_before", 0)])
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="fail") as pool:
            with pytest.raises(WorkerCrashed):
                pool.infer_many(reqs, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["admission"]["failed"] == len(reqs)
        assert stats["per_geometry"]["1d:128:m16:complex64"]["failed"] == 5

    def test_degraded_shard_serves_groups_bit_identically(self):
        """With the breaker open, groups run on the in-parent fallback
        session: concatenated, served, split back per request."""
        w = _weight()
        plan = FaultPlan([Fault("crash_before", 0, always=True),
                          Fault("crash_before", 1, always=True)])
        reqs = [((w, 16), _signal((1 + i % 2, 4, 128 if i % 3 else 64)))
                for i in range(7)]
        with ServePool(workers=1, backend="numpy", faults=plan,
                       on_crash="fail", breaker_threshold=2,
                       breaker_cooldown=600.0) as pool:
            for _ in range(2):
                with pytest.raises(WorkerCrashed):
                    pool.submit(*reqs[0]).result(120)
            outs = pool.infer_many(reqs, timeout=120)
            stats = pool.stats(timeout=10)
        assert stats["degraded"]["open_shards"] == [0]
        assert stats["admission"]["degraded"] == len(reqs)
        assert stats["admission"]["completed"] == len(reqs)
        for (model, x), y in zip(reqs, outs, strict=True):
            assert np.array_equal(y, _ref(model, x))

    def test_first_failing_request_raises_in_request_order(self):
        """Request 1's group is admitted after request 2's (which fills
        at ``max_batch``); both fail, and request 1's error is raised."""
        from repro.api.serve import UnknownModel
        from repro.api.session import SpectralModel

        known = SpectralModel(_weight(), 16)
        ghost1 = SpectralModel(_weight(), 16)
        ghost2 = SpectralModel(_weight(), 16)
        x = _signal((1, 4, 64))
        reqs = [(known, x), (ghost1, x), (ghost2, x), (ghost2, x),
                (known, x)]
        with ServePool(workers=1, backend="numpy", max_batch=2) as pool:
            want = pool.infer(known, x, timeout=120)
            # Mark both ghosts pushed without sending them: the worker
            # answers their headers UnknownModel.
            mids = [pool._model_id(g)[0] for g in (ghost1, ghost2)]
            pool._handles[0].pushed.update(mids)
            with pytest.raises(UnknownModel, match=f"model {mids[0]} "):
                pool.infer_many(reqs, timeout=120)
            stats = pool.stats(timeout=10)
            # The failures stayed with their groups: the shard serves on.
            outs = pool.infer_many([reqs[0], reqs[4]], timeout=120)
        assert stats["admission"]["failed"] == 3
        assert stats["admission"]["completed"] == 3
        assert all(np.array_equal(y, want) for y in outs)


# ---------------------------------------------------------------------------
# Close budget
# ---------------------------------------------------------------------------

class TestCloseBudget:
    def test_close_of_hung_pool_respects_budget(self):
        w, x = _weight(), _signal((2, 4, 128))
        # The worker sleeps ~forever and never drains its queue; the
        # long hang_timeout keeps the monitor out of the way, so close
        # must escalate (sentinel -> join -> terminate) on its own
        # budget rather than a hardcoded per-step constant.
        plan = FaultPlan([Fault("hang", 0)])
        pool = ServePool(workers=1, backend="numpy", faults=plan,
                         health=HealthPolicy(hang_timeout=300.0))
        fut = pool.submit((w, 16), x)
        time.sleep(0.3)  # let the worker enter the hang
        t0 = time.monotonic()
        pool.close(timeout=2.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0  # budget + per-worker floor, not 300s
        with pytest.raises(ServeError):
            fut.result(0)  # resolved, not lost
        assert pool.live_segment_names() == []


# ---------------------------------------------------------------------------
# The soak harness (the acceptance invariants, CI-sized)
# ---------------------------------------------------------------------------

class TestChaosSoak:
    def test_mini_soak_holds_all_invariants(self):
        report = run_soak(requests=60, workers=2, seed=0,
                          hang_timeout=2.0, result_timeout=120.0)
        assert report["violations"] == []
        assert report["ok"]
        assert report["outcomes"]["ok"] > 0
        assert report["segments"]["leaked"] == 0
        # The seed-0 quick plan provokes real recovery work.
        assert report["faults"]["planned"] > 0
        adm = report["admission"]
        assert adm["crashes"] + adm["corrupted"] + adm["expired"] > 0

    def test_soak_cli_quick(self, capsys):
        from repro.__main__ import main

        assert main(["chaos-soak", "--quick", "--seed", "1", "--json"]) == 0
        report = __import__("json").loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["violations"] == []
