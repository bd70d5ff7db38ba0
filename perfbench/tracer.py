"""Span tracer for the traced benchmark run.

Spans are recorded from this directory only: :func:`instrumented`
wraps the public entry points of each layer of the stack for the
duration of a ``with`` block and restores the originals afterwards, so
the library itself carries no clock reads.  The layers, outermost
first:

* ``pool``     -- ``ServePool.submit`` and ``ServeFuture.result``
  (parent side only; worker processes run untraced);
* ``session``  -- ``Session.infer_many`` and ``Session.rollout``;
* ``executor`` -- ``CompiledSpectralConv1D/2D`` calls and their
  spectrum-resident entry points;
* ``plan``     -- ``execute``/``apply`` of the pruned and packed-real
  FFT plan families and of the plain C2C plan, split by direction;
* ``kernel``   -- the four methods of the loaded ``_Kernels`` instance.

The tracer aggregates as it goes: per ``(span, parent span)`` pair it
keeps the call count, total and self seconds (self = duration minus
the direct children's durations) and any per-call quantities computed
from the arguments, such as a kernel's operation count.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager

from repro.api.serve import ServeFuture, ServePool
from repro.api.session import Session
from repro.core.compiled import CompiledSpectralConv1D, CompiledSpectralConv2D
from repro.fft._ckernels import get_kernels
from repro.fft.compiled import (
    CompiledFFTPlan,
    CompiledPrunedIRFFTPlan,
    CompiledPrunedPlan,
    CompiledPrunedRFFTPlan,
)


# -- per-call costs, computed from the kernel arguments ---------------------
# Each returns (flops, bytes): complex multiply-add = 8 flops, complex
# multiply = 6, radix-2 FFT = 5 n log2 n per row; bytes count each
# operand read once and each output written once (acc: read + write).

def _stockham_cost(x, out, _work, tw, rows, n, *_):
    flops = 5 * rows * n * math.log2(n) if n > 1 else 0
    return flops, (2 * rows * n + tw.size) * x.dtype.itemsize


def _panel_contract_cost(a, w, acc, bt, kt, m, o):
    return 8 * bt * kt * m * o, (
        bt * kt * m + kt * o + 2 * bt * o * m
    ) * a.dtype.itemsize


def _decomp_reduce_cost(y, wd, out, batch, p, q):
    return 8 * batch * p * q, (batch * p * q + p * q + batch * q) * (
        y.dtype.itemsize
    )


def _expand_mul_cost(x, w, out, batch, s, q):
    return 6 * batch * s * q, (batch * q + s * q + batch * s * q) * (
        x.dtype.itemsize
    )


KERNEL_COSTS = {
    "stockham": _stockham_cost,
    "panel_contract": _panel_contract_cost,
    "decomp_reduce": _decomp_reduce_cost,
    "expand_mul": _expand_mul_cost,
}

#: Plan spans: (class, method, span name or callable(self) -> name).
PLAN_SPANS = (
    (CompiledFFTPlan, "execute",
     lambda plan: "plan.fft_inv" if plan.inverse else "plan.fft_fwd"),
    (CompiledPrunedPlan, "apply", "plan.pruned"),
    (CompiledPrunedRFFTPlan, "execute", "plan.pruned_rfft"),
    (CompiledPrunedIRFFTPlan, "execute", "plan.pruned_irfft"),
)

EXECUTOR_METHODS = {
    "__call__": "executor.call",
    "forward_spectrum": "executor.forward_spectrum",
    "step_spectrum": "executor.step_spectrum",
    "inverse_spectrum": "executor.inverse_spectrum",
    "reanalyze_spectrum": "executor.reanalyze_spectrum",
}


def _executor_rows(_executor, x, *_args, **_kwargs):
    return (x.shape[0],)


class Tracer:
    """Aggregating span recorder, safe to use from several threads.

    Each thread keeps its own span stack and table; :meth:`table`
    merges them.  Table entries are keyed ``(name, parent)`` (parent
    ``None`` for a top-level span) and hold ``[calls, total_s, self_s,
    *extras]``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name, fn, extras=None):
        """``fn`` wrapped in a span.  ``name`` may be a callable of the
        first argument (the instance, when ``fn`` is an unbound method)
        to name the span per call; ``extras(*args, **kwargs)`` returns
        numbers summed into the entry after the timings."""
        clock = time.perf_counter
        thread_state = self._thread_state
        named = callable(name)

        def traced(*args, **kwargs):
            stack, table = thread_state()
            span = name(args[0]) if named else name
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                key = (span, parent[0] if parent is not None else None)
                extra = () if extras is None else extras(*args, **kwargs)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0, 0.0] + [0] * len(extra)
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                for i, value in enumerate(extra, 3):
                    entry[i] += value

        return traced

    def table(self) -> dict:
        """Every thread's entries merged into one ``{(name, parent):
        [calls, total_s, self_s, *extras]}`` table."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, entry in table.items():
                into = merged.get(key)
                if into is None:
                    merged[key] = list(entry)
                else:
                    for i, value in enumerate(entry):
                        into[i] += value
        return merged


@contextmanager
def instrumented(tracer: Tracer):
    """Route every layer's entry points through ``tracer`` while active."""
    kernels = get_kernels()
    if kernels is None:
        raise RuntimeError("C kernels are not loaded; nothing to trace")
    patched: list[tuple[object, str, object]] = []

    def patch_method(cls, attr, name, extras=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, extras))
        patched.append((cls, attr, original))

    try:
        for attr, cost in KERNEL_COSTS.items():
            # Instance attributes shadow the class methods of this one
            # loaded library; deleting them restores the originals.
            setattr(kernels, attr, tracer.wrap(
                f"kernel.{attr}", getattr(kernels, attr), cost,
            ))
        for cls, attr, name in PLAN_SPANS:
            patch_method(cls, attr, name)
        for cls in (CompiledSpectralConv1D, CompiledSpectralConv2D):
            for attr, name in EXECUTOR_METHODS.items():
                patch_method(cls, attr, name,
                             _executor_rows if attr == "__call__" else None)
        patch_method(Session, "infer_many", "session")
        patch_method(Session, "rollout", "session")
        patch_method(ServePool, "submit", "pool.submit")
        patch_method(ServeFuture, "result", "pool.wait")
        yield tracer
    finally:
        for attr in KERNEL_COSTS:
            kernels.__dict__.pop(attr, None)
        for cls, attr, original in reversed(patched):
            setattr(cls, attr, original)
