"""Tests for ``repro.tools.locks``: the runtime lock-order detector.

The centrepiece reconstructs the PR 8 ``default_session``
double-checked-locking race *shape* — two threads taking the same pair
of locks in opposite orders — and asserts the recorder catches it as
both a cycle and a forbidden edge.  The integration test instruments a
real ``ServePool`` and drives mixed traffic through it, asserting the
pool's documented order (``_lock`` before ``_stats_lock``) actually
holds at runtime, not just in the static lint pass.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.tools.locks import (
    POOL_LOCK_ORDER,
    InstrumentedLock,
    LockOrderError,
    LockOrderRecorder,
    instrument_pool,
)

RNG = np.random.default_rng(20260808)


class TestRecorder:
    def test_ordered_acquisition_records_one_edge(self):
        rec = LockOrderRecorder()
        a = rec.wrap(threading.Lock(), "a")
        b = rec.wrap(threading.Lock(), "b")
        with a:
            with b:
                pass
        assert rec.edges() == {("a", "b")}
        assert rec.has_edge("a", "b")
        assert not rec.has_edge("b", "a")
        assert rec.cycles() == []
        rec.assert_clean()

    def test_pr8_race_shape_detected(self):
        """Two threads, same lock pair, opposite orders — the PR 8
        ``default_session`` deadlock shape.  Each thread runs alone (no
        actual contention) yet the graph still convicts the pair."""
        rec = LockOrderRecorder(forbidden=[("b", "a")])
        a = rec.wrap(threading.RLock(), "a")
        b = rec.wrap(threading.Lock(), "b")

        def forward():
            with a:
                with b:
                    pass

        def inverted():
            with b:
                with a:
                    pass

        for target in (forward, inverted):
            t = threading.Thread(target=target)
            t.start()
            t.join()

        assert rec.has_edge("a", "b") and rec.has_edge("b", "a")
        cycles = rec.cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b"}
        problems = rec.violations()
        assert any("cycle" in p for p in problems)
        assert any("forbidden edge" in p for p in problems)
        with pytest.raises(LockOrderError, match="acquisition cycle"):
            rec.assert_clean()

    def test_forbidden_edge_fails_without_a_cycle(self):
        """An order inversion is a violation even before a compliant
        thread ever races it — no cycle required."""
        rec = LockOrderRecorder(forbidden=[("b", "a")])
        a = rec.wrap(threading.Lock(), "a")
        b = rec.wrap(threading.Lock(), "b")
        with b:
            with a:
                pass
        assert rec.cycles() == []
        with pytest.raises(LockOrderError, match="forbidden edge"):
            rec.assert_clean()

    def test_rlock_reentry_is_not_an_edge(self):
        rec = LockOrderRecorder()
        a = rec.wrap(threading.RLock(), "a")
        with a:
            with a:  # re-entry: held set already contains "a"
                pass
        assert rec.edges() == set()
        rec.assert_clean()

    def test_three_lock_cycle_detected(self):
        rec = LockOrderRecorder()
        locks = {name: rec.wrap(threading.Lock(), name) for name in "abc"}
        for first, second in (("a", "b"), ("b", "c"), ("c", "a")):
            with locks[first]:
                with locks[second]:
                    pass
        cycles = rec.cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b", "c"}

    def test_per_thread_held_stacks(self):
        """Locks held by *different* threads never form an edge — only
        nesting within one thread does."""
        rec = LockOrderRecorder()
        a = rec.wrap(threading.Lock(), "a")
        b = rec.wrap(threading.Lock(), "b")
        a_held = threading.Event()
        release_a = threading.Event()

        def holder():
            with a:
                a_held.set()
                release_a.wait(5)

        t = threading.Thread(target=holder)
        t.start()
        assert a_held.wait(5)
        with b:  # main thread holds nothing else: no edge
            pass
        release_a.set()
        t.join()
        assert rec.edges() == set()

    def test_wrapper_preserves_lock_semantics(self):
        rec = LockOrderRecorder()
        lock = rec.wrap(threading.Lock(), "a")
        assert lock.acquire()
        assert lock.locked()
        assert not lock.acquire(blocking=False)  # held: non-blocking fails
        lock.release()
        assert not lock.locked()
        assert "InstrumentedLock" in repr(lock)


class TestInstrumentPool:
    def test_instrument_swaps_and_is_idempotent(self):
        class FakePool:
            def __init__(self):
                self._lock = threading.RLock()
                self._stats_lock = threading.Lock()

        pool = FakePool()
        rec = instrument_pool(pool)
        assert isinstance(pool._lock, InstrumentedLock)
        assert isinstance(pool._stats_lock, InstrumentedLock)
        first = pool._lock
        again = instrument_pool(pool, rec)
        assert again is rec
        assert pool._lock is first  # not double-wrapped

    def test_serve_pool_traffic_respects_documented_order(self):
        """Drive real mixed traffic through an instrumented ServePool:
        the documented order must hold — no cycles, and never
        ``_stats_lock`` -> ``_lock``."""
        from repro.api import ServePool
        from repro.api.session import SpectralModel

        hidden = 4
        w = ((RNG.standard_normal((hidden, hidden))
              + 1j * RNG.standard_normal((hidden, hidden)))
             / hidden).astype(np.complex64)
        requests = []
        for i in range(24):
            n = (32, 64)[i % 2]
            x = (RNG.standard_normal((2, hidden, n))
                 + 1j * RNG.standard_normal((2, hidden, n))
                 ).astype(np.complex64)
            requests.append((SpectralModel(w, 8), x))

        with ServePool(workers=2, backend="numpy") as pool:
            rec = instrument_pool(pool)
            pool.infer_many(requests)
            pool.stats()
        # The instrumented locks carried real traffic...
        assert rec.total_acquisitions() > 0
        # ...and the order held: no inversion edge, no cycle.  (The pool
        # in fact never nests the two — an empty edge set — which is
        # the strongest form of compliance.)
        inverted = POOL_LOCK_ORDER[::-1]
        assert not rec.has_edge(*inverted)
        rec.assert_clean()

    def test_grouped_admission_counters_respect_documented_order(self):
        """Grouped ``infer_many``, single ``submit``, ``cancel()`` and a
        deadline expiry all update per-group counters under
        ``_stats_lock``; none may nest it outside ``_lock``."""
        from repro.api import ServePool
        from repro.api.serve import (
            Cancelled, DeadlineExceeded, Fault, FaultPlan,
        )
        from repro.api.session import SpectralModel

        hidden = 4
        w = ((RNG.standard_normal((hidden, hidden))
              + 1j * RNG.standard_normal((hidden, hidden)))
             / hidden).astype(np.complex64)
        model = SpectralModel(w, 8)

        def x(n=32):
            return (RNG.standard_normal((2, hidden, n))
                    + 1j * RNG.standard_normal((2, hidden, n))
                    ).astype(np.complex64)

        burst = [(model, x((32, 64)[i % 2])) for i in range(24)]
        # Request 0 stalls in the worker, so its cancel() always lands
        # while it is in flight.
        plan = FaultPlan([Fault("latency", 0, seconds=0.3)])
        with ServePool(workers=1, backend="numpy", max_batch=8,
                       faults=plan) as pool:
            rec = instrument_pool(pool)
            doomed = pool.submit(model, x())
            assert doomed.cancel()
            with pytest.raises(Cancelled):
                doomed.result(0)
            pool.infer_many(burst)
            pool.submit(model, x()).result(120)
            with pytest.raises(DeadlineExceeded):
                pool.infer_many(burst[:3], deadline=0.0)
            stats = pool.stats()
        assert stats["admission"]["completed"] == 25
        assert stats["admission"]["cancelled"] == 1
        assert stats["admission"]["expired"] == 3
        assert rec.total_acquisitions() > 0
        assert not rec.has_edge(*POOL_LOCK_ORDER[::-1])
        rec.assert_clean()
