"""Geometry-hash request routing: the shard-affinity policy.

The pool's whole performance story rests on one invariant: *a given
geometry always lands on the same worker*.  Each worker owns one warm
:class:`repro.api.Session`, and everything expensive in the stack —
compiled executors and FFT/rfft plan families — is keyed on geometry,
so stable routing means every worker's caches stay hot and no plan is
ever built twice across the pool.

The routing key is ``(ndim, spatial_shape, modes, dtype)`` — exactly the
tuple the plan caches key on (conf_sc_WuZDZHC25's plan/execute split is
what makes "route by geometry, reuse the plan" work at all; this
mirrors how cuFFT deployments pin plan caches per device context).  The hash is :func:`hashlib.blake2b`-based — stable
across processes, interpreter runs and ``PYTHONHASHSEED``, unlike
builtin ``hash()`` — so a recycled or restarted pool shards
identically.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "geometry_key",
    "geometry_hash",
    "shard_for",
    "format_geometry",
    "FALLBACK",
    "RouteTable",
]

#: Sentinel shard index: "serve this in the parent's fallback session".
FALLBACK = -1


def geometry_key(model, x: np.ndarray) -> tuple:
    """The routing key of one ``(model, x)`` request.

    ``(ndim, spatial_shape, modes, dtype)``: the spatial axes are
    everything past ``(batch, channels)``, matching the executor/plan
    cache keys.  Two requests with equal keys hit the same compiled
    executor geometry, so they must (and will) shard together.
    """
    spatial = tuple(int(s) for s in x.shape[2:])
    return (len(spatial), spatial, tuple(model.modes), str(np.dtype(x.dtype)))


def geometry_hash(key: tuple) -> int:
    """A stable 64-bit hash of a :func:`geometry_key`.

    Deterministic across processes and runs (``repr`` of the key tuple
    through blake2b), so shard assignment is a pure function of the
    geometry — never of interpreter state.
    """
    digest = hashlib.blake2b(repr(key).encode("ascii"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def shard_for(key: tuple, workers: int) -> int:
    """The worker index serving ``key`` in a ``workers``-wide pool."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return geometry_hash(key) % workers


class RouteTable:
    """Shard assignment with per-shard degradation overrides.

    The pure hash (:func:`shard_for`) never changes — a degraded shard
    keeps *owning* its geometries, so its worker's caches describe
    exactly what to re-warm when the shard recovers.  The table only
    answers the *routing* question: while a shard is marked degraded
    (its circuit breaker is open), :meth:`route` reroutes that shard's
    geometries to :data:`FALLBACK`, the in-parent fallback session.
    Results are bit-identical either way; only throughput degrades.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._degraded: set[int] = set()

    def shard(self, key: tuple) -> int:
        """The owning shard (ignores degradation; pure hash)."""
        return shard_for(key, self.workers)

    def route(self, key: tuple) -> int:
        """The destination: the owning shard, or :data:`FALLBACK`."""
        shard = shard_for(key, self.workers)
        return FALLBACK if shard in self._degraded else shard

    def degrade(self, shard: int) -> None:
        self._degraded.add(shard)

    def restore(self, shard: int) -> None:
        self._degraded.discard(shard)

    @property
    def degraded(self) -> tuple[int, ...]:
        return tuple(sorted(self._degraded))


def format_geometry(key: tuple) -> str:
    """A compact human/JSON key for one geometry: ``"1d:128:m64:complex64"``."""
    ndim, spatial, modes, dtype = key
    return (
        f"{ndim}d:{'x'.join(map(str, spatial))}:"
        f"m{'x'.join(map(str, modes))}:{dtype}"
    )
