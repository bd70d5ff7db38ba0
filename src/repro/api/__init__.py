"""``repro.api`` — the single front door to the TurboFNO reproduction.

The facade is organised around one object: the :class:`Session`.  A
session is a stateful execution context that owns every cache and pool
the stack uses — the plan cache behind :func:`plan`, the FFT/rfft plan
caches (:class:`repro.fft.compiled.PlanCaches`), and a pool of compiled
spectral-conv executors — and makes backend and dtype policy explicit
configuration instead of process-global environment state:

>>> from repro import api
>>> from repro.core.config import FNO1DProblem
>>> s = api.Session(backend="auto")          # doctest: +SKIP
>>> p = s.plan(FNO1DProblem.from_m_spatial(2**20, 64, 128, 64))
>>> s.warmup([p.problem])                    # pre-compile FFT plans
>>> y = s.infer((weight, 64), x)             # pooled compiled executor
>>> ys = s.infer_many(reqs, max_batch=32)    # geometry micro-batching

Pieces
------
:class:`Session`
    Plans, warmup, batched inference (:meth:`Session.infer_many`
    micro-batches requests by geometry and reuses one compiled executor
    per weight matrix), autoregressive rollout serving
    (:meth:`Session.rollout` keeps state resident across steps —
    bit-identical to the eager loop by default, spectrum-resident with
    ``profile="fast"``), cache statistics (:meth:`Session.stats`) and a
    single teardown path (:meth:`Session.close` /
    :meth:`Session.clear_all_caches`).  ``backend="auto"|"ckernels"|
    "numpy"`` pins the executor substrate per session; outputs are
    byte-identical across backends.
:func:`plan` / :func:`plan_cache_info` / :func:`clear_plan_cache`
    The PR 1 planning facade, preserved verbatim as thin wrappers over
    a process-default session (:func:`default_session`).
:func:`clear_all_caches`
    Empties *every* default-session cache — plans, FFT/rfft plans and
    their workspaces, compiled executors — where ``clear_plan_cache``
    only drops plans.
:class:`Problem`
    Structural protocol every workload implements; dimensionality is
    data (``problem.ndim``), not a function suffix.
:class:`Runner`
    Maps cached plans over iterables of problems/stages — the sweep hot
    path behind :mod:`repro.analysis`.  Pass ``session=`` to route a
    sweep through a specific session's caches.
registries
    Named devices (``"a100"`` — the paper's testbed and default — and an
    ``"h100"``-class part; extend with :func:`register_device`), tolerant
    stage spelling (:func:`resolve_stage`), and per-``ndim`` pipeline
    builders (:func:`register_pipeline_builder` opens 3-D and beyond).
:func:`spectral_conv`
    Rank-dispatched numeric Fourier layer (the exact-arithmetic twin of
    the modelled pipelines).
"""

from repro.api.ops import spectral_conv
from repro.api.planner import (
    ExecutionPlan,
    clear_plan_cache,
    plan,
    plan_cache_info,
)
from repro.api.problem import Problem, describe_problem
from repro.api.registry import (
    DEFAULT_DEVICE,
    get_device,
    list_devices,
    list_stages,
    pipeline_builder_for,
    register_device,
    register_pipeline_builder,
    resolve_stage,
    supported_ndims,
)
from repro.api.runner import Runner, default_workers
from repro.api.serve import (
    Cancelled,
    CorruptedHeader,
    DeadlineExceeded,
    FaultPlan,
    HealthPolicy,
    PoolSaturated,
    ResultTimeout,
    ServeError,
    ServeFuture,
    ServePool,
    WorkerCrashed,
)
from repro.api.session import (
    DTYPE_POLICIES,
    ROLLOUT_PROFILES,
    LatencyReservoir,
    Session,
    SpectralModel,
    clear_all_caches,
    default_session,
)

__all__ = [
    "default_workers",
    "Problem",
    "describe_problem",
    "ExecutionPlan",
    "plan",
    "plan_cache_info",
    "clear_plan_cache",
    "clear_all_caches",
    "Session",
    "SpectralModel",
    "default_session",
    "DTYPE_POLICIES",
    "ROLLOUT_PROFILES",
    "LatencyReservoir",
    "ServePool",
    "ServeFuture",
    "ServeError",
    "WorkerCrashed",
    "DeadlineExceeded",
    "ResultTimeout",
    "Cancelled",
    "CorruptedHeader",
    "PoolSaturated",
    "FaultPlan",
    "HealthPolicy",
    "Runner",
    "spectral_conv",
    "DEFAULT_DEVICE",
    "get_device",
    "register_device",
    "list_devices",
    "resolve_stage",
    "list_stages",
    "register_pipeline_builder",
    "pipeline_builder_for",
    "supported_ndims",
]
