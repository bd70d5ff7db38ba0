"""Project-invariant static analysis: ``python -m repro lint``.

Every rule here encodes a contract the codebase already relies on but
nothing enforced mechanically — each one has caused (or nearly caused)
a real bug:

``determinism``
    Bit-identity modules (``fft/``, ``core/``, ``nn/``) promise
    byte-identical outputs across runs and backends.  Wall-clock reads,
    unseeded ``np.random.default_rng()``, the stdlib ``random`` module
    and the legacy global-state ``np.random.*`` API all smuggle
    nondeterminism into that promise.  (``core/autotune.py`` is
    allowlisted: its *timing* probes pick tile shapes, which never
    change output bits.)
``rng-truthiness``
    ``rng = rng or np.random.default_rng()`` relies on ``Generator``
    truthiness — a ``Generator`` is always truthy today, but the idiom
    breaks the moment the operand can be falsy and hides the actual
    contract (``None`` means "make one").  Spell it ``if rng is None``.
``cache-scope``
    Plan lookups must resolve through the thread-local scope
    (:func:`repro.fft.compiled.current_plan_caches`) so sessions can
    inject their private cache sets.  Reaching for the module-global
    default set (``_DEFAULT_PLAN_CACHES`` / ``default_plan_caches``)
    bypasses every active scope.  (``api/session.py`` is allowlisted:
    the session layer *owns* the shared-default fallback.)
``shm-lifecycle``
    Shared-memory segments must be created/closed/unlinked exactly once,
    and :mod:`repro.api.serve.shm` is the only module allowed to
    construct them; a module that builds a ``SegmentRegistry`` must
    also call its ``close_all``.
``lock-order``
    ``pool.py`` documents the acquisition order ``_lock`` before
    ``_stats_lock``; a ``with self._stats_lock:`` block that acquires
    ``self._lock`` inside is a deadlock waiting for its second thread.
    (The runtime companion is :mod:`repro.tools.locks`.)
``serve-except``
    ``except Exception`` in ``api/serve/`` must either produce a typed
    :class:`~repro.api.serve.health.ServeError` (so callers can tell
    infrastructure failures from request failures) or carry an explicit
    ``noqa``/``pragma: no cover`` annotation on the ``except`` line
    justifying the breadth (teardown paths, monitors that must
    survive).
``worker-protocol``
    The message tags ``worker.py`` emits must exactly match what
    ``pool.py``'s collector handles, and the tags the pool enqueues
    must exactly match what the worker's main loop dispatches — both
    directions, no unhandled and no unreachable tags.
``no-assert``
    ``assert`` vanishes under ``python -O``; library and example code
    must raise explicit exceptions (tests and benchmarks keep
    ``assert``).

Suppression mechanisms (both are deliberate, reviewable artefacts):

* **Per-rule allowlists** — ``Rule.allow`` path patterns with recorded
  reasons, for whole files that are the sanctioned owner of an
  otherwise-forbidden pattern.
* **Inline** — a ``# lint: allow[rule-name]`` comment on the flagged
  line.

The CLI (``python -m repro lint [--json] [--rule NAME] [--root DIR]``)
exits non-zero on any finding; CI gates at zero.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Finding", "Rule", "RULES", "rule_names", "run_lint", "main"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: root-relative posix path
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """One registered invariant.

    ``check(tree, path, lines)`` runs per file within scope;
    ``project_check(root)`` runs once per lint over the whole tree
    (cross-file rules).  ``allow`` is the per-rule allowlist:
    ``(path pattern, reason)`` pairs — matches are exempt, and the
    reason is part of the registry so exemptions stay reviewable.
    """

    name: str
    description: str
    includes: tuple[str, ...]
    excludes: tuple[str, ...] = ()
    allow: tuple[tuple[str, str], ...] = ()
    check: object = None  #: (tree, path, lines) -> list[Finding]
    project_check: object = None  #: (root) -> list[Finding]

    def applies(self, path: str) -> bool:
        if not any(_match(path, pat) for pat in self.includes):
            return False
        return not any(_match(path, pat) for pat in self.excludes)

    def allowlisted(self, path: str) -> bool:
        return any(_match(path, pat) for pat, _reason in self.allow)


def _match(path: str, pattern: str) -> bool:
    """Root-relative posix path against one allow/scope pattern."""
    if pattern.endswith("/**"):
        return path.startswith(pattern[:-2])
    return fnmatch.fnmatch(path, pattern)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _tail(node: ast.AST) -> str:
    """The final attribute/name of a call target (``default_rng`` for
    both ``default_rng(...)`` and ``np.random.default_rng(...)``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _compared_tags(func: ast.AST, subject: str = "kind") -> set[str]:
    """String constants compared against ``subject`` inside ``func``.

    Covers ``kind == "x"``, ``kind in ("x", "y")`` and the
    ``msg[0] == "x"`` spelling — the dispatch idioms of the worker
    protocol.
    """
    tags: set[str] = set()

    def _is_subject(node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id == subject:
            return True
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == 0
        )

    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        if not _is_subject(node.left):
            continue
        for comparator in node.comparators:
            if isinstance(comparator, ast.Constant) and isinstance(
                comparator.value, str
            ):
                tags.add(comparator.value)
            elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                for elt in comparator.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        tags.add(elt.value)
    return tags


def _functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------

_WALLCLOCK_TIME = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_WALLCLOCK_CALLS = (
    {f"time.{attr}" for attr in _WALLCLOCK_TIME}
    | {
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today", "date.today",
    }
)
#: The legacy global-state RNG surface (order-dependent across calls).
_NP_RANDOM_GLOBAL = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "normal", "standard_normal", "uniform", "choice", "shuffle",
    "permutation",
}


def _check_determinism(tree, path, lines) -> list[Finding]:
    findings = []

    def flag(node, message):
        findings.append(Finding("determinism", path, node.lineno, message))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    flag(node, "stdlib 'random' module in a bit-identity "
                               "module; thread a seeded np.random.Generator "
                               "instead")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                flag(node, "stdlib 'random' module in a bit-identity "
                           "module; thread a seeded np.random.Generator "
                           "instead")
            elif node.module == "time":
                names = {alias.name for alias in node.names}
                if names & _WALLCLOCK_TIME:
                    flag(node, "wall-clock import in a bit-identity module")
        elif isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain in _WALLCLOCK_CALLS:
                flag(node, f"wall-clock read '{chain}()' in a bit-identity "
                           f"module")
            elif (
                _tail(node.func) == "default_rng"
                and not node.args
                and not node.keywords
            ):
                flag(node, "unseeded np.random.default_rng() in a "
                           "bit-identity module; pass an explicit seed or "
                           "accept a Generator parameter")
            elif chain.startswith(("np.random.", "numpy.random.")):
                attr = chain.rsplit(".", 1)[1]
                if attr in _NP_RANDOM_GLOBAL:
                    flag(node, f"legacy global-state RNG '{chain}()' in a "
                               f"bit-identity module; use a seeded "
                               f"np.random.Generator")
    return findings


# ---------------------------------------------------------------------------
# Rule: rng-truthiness
# ---------------------------------------------------------------------------

def _check_rng_truthiness(tree, path, lines) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)):
            continue
        for value in node.values:
            if isinstance(value, ast.Call) and _tail(value.func) == "default_rng":
                findings.append(Finding(
                    "rng-truthiness", path, node.lineno,
                    "'x or np.random.default_rng(...)' relies on Generator "
                    "truthiness; write 'if x is None: x = "
                    "np.random.default_rng(...)'",
                ))
                break
    return findings


# ---------------------------------------------------------------------------
# Rule: cache-scope
# ---------------------------------------------------------------------------

_GLOBAL_CACHE_NAMES = {"_DEFAULT_PLAN_CACHES", "default_plan_caches"}


def _check_cache_scope(tree, path, lines) -> list[Finding]:
    findings = []

    def flag(node, name):
        findings.append(Finding(
            "cache-scope", path, node.lineno,
            f"direct use of the module-global plan caches ('{name}'); "
            f"resolve through plan_cache_scope / current_plan_caches so "
            f"session-injected cache sets are honoured",
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _GLOBAL_CACHE_NAMES:
                    flag(node, alias.name)
        elif isinstance(node, ast.Name) and node.id in _GLOBAL_CACHE_NAMES:
            flag(node, node.id)
        elif isinstance(node, ast.Attribute) and node.attr in _GLOBAL_CACHE_NAMES:
            flag(node, node.attr)
    return findings


# ---------------------------------------------------------------------------
# Rule: shm-lifecycle
# ---------------------------------------------------------------------------

def _check_shm_lifecycle(tree, path, lines) -> list[Finding]:
    findings = []
    registry_creates: list[ast.Call] = []
    has_close_all = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "multiprocessing.shared_memory":
                    findings.append(Finding(
                        "shm-lifecycle", path, node.lineno,
                        "shared_memory import outside serve/shm.py; "
                        "segments are created by SegmentRegistry and "
                        "attached via attach_segment only",
                    ))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "multiprocessing.shared_memory" or (
                node.module == "multiprocessing"
                and any(a.name == "shared_memory" for a in node.names)
            ):
                findings.append(Finding(
                    "shm-lifecycle", path, node.lineno,
                    "shared_memory import outside serve/shm.py; "
                    "segments are created by SegmentRegistry and attached "
                    "via attach_segment only",
                ))
        elif isinstance(node, ast.Call):
            tail = _tail(node.func)
            if tail == "SharedMemory":
                findings.append(Finding(
                    "shm-lifecycle", path, node.lineno,
                    "direct SharedMemory construction outside serve/shm.py "
                    "bypasses create/close/unlink bookkeeping",
                ))
            elif tail == "SegmentRegistry":
                registry_creates.append(node)
        elif isinstance(node, ast.Attribute) and node.attr == "close_all":
            has_close_all = True
        elif isinstance(node, ast.Name) and node.id == "close_all":
            has_close_all = True
    if registry_creates and not has_close_all:
        findings.append(Finding(
            "shm-lifecycle", path, registry_creates[0].lineno,
            "SegmentRegistry constructed but close_all is never referenced "
            "in this module; every registry needs a close/unlink path",
        ))
    return findings


# ---------------------------------------------------------------------------
# Rule: lock-order
# ---------------------------------------------------------------------------

def _acquires(node: ast.AST, attr: str) -> bool:
    """Does ``node``'s subtree acquire an attribute lock named ``attr``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.With):
            for item in sub.items:
                expr = item.context_expr
                if isinstance(expr, ast.Attribute) and expr.attr == attr:
                    return True
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "acquire"
            and isinstance(sub.func.value, ast.Attribute)
            and sub.func.value.attr == attr
        ):
            return True
    return False


def _check_lock_order(tree, path, lines) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.With):
            continue
        holds_stats = any(
            isinstance(item.context_expr, ast.Attribute)
            and item.context_expr.attr == "_stats_lock"
            for item in node.items
        )
        if not holds_stats:
            continue
        if any(_acquires(stmt, "_lock") for stmt in node.body):
            findings.append(Finding(
                "lock-order", path, node.lineno,
                "acquires _lock while holding _stats_lock — inverts the "
                "documented pool order (_lock before _stats_lock) and can "
                "deadlock against any compliant thread",
            ))
    return findings


# ---------------------------------------------------------------------------
# Rule: serve-except
# ---------------------------------------------------------------------------

#: The typed serving-failure vocabulary (health.py's ServeError family
#: plus the admission-side PoolSaturated).
_SERVE_ERROR_NAMES = {
    "ServeError", "WorkerCrashed", "DeadlineExceeded", "ResultTimeout",
    "Cancelled", "CorruptedHeader", "InfrastructureError", "PoolSaturated",
}


def _catches_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True  # bare except
    names = [node] if not isinstance(node, ast.Tuple) else list(node.elts)
    return any(
        isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
        for n in names
    )


def _handler_types_failure(handler: ast.ExceptHandler) -> bool:
    for node in handler.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return True  # bare re-raise: breadth is transparent
            if isinstance(sub, ast.Name) and sub.id in _SERVE_ERROR_NAMES:
                return True
    return False


def _check_serve_except(tree, path, lines) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _catches_broad(node):
            continue
        source_line = (
            lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        )
        if "noqa" in source_line or "pragma: no cover" in source_line:
            continue  # explicitly annotated breadth
        if _handler_types_failure(node):
            continue
        findings.append(Finding(
            "serve-except", path, node.lineno,
            "broad 'except Exception' in the serving stack neither raises "
            "a typed ServeError nor carries a noqa/pragma annotation; "
            "infrastructure faults become indistinguishable from request "
            "errors",
        ))
    return findings


# ---------------------------------------------------------------------------
# Rule: worker-protocol (cross-file)
# ---------------------------------------------------------------------------

_WORKER_PATH = "src/repro/api/serve/worker.py"
_POOL_PATH = "src/repro/api/serve/pool.py"


def _sent_tags(tree: ast.AST) -> set[str]:
    """First elements of tuples passed to ``*.send((...))``."""
    tags = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
            and node.args
            and isinstance(node.args[0], ast.Tuple)
            and node.args[0].elts
        ):
            continue
        first = node.args[0].elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            tags.add(first.value)
    return tags


def _queued_tags(tree: ast.AST) -> set[str]:
    """First elements of tuples the pool enqueues via ``<x>.queue.put``.

    A first element that is a plain name (``kind``) resolves through the
    string-literal assignments of the enclosing function, so a
    ``kind = "<tag>"`` dispatch spelling is covered.
    """
    tags = set()
    for func in _functions(tree):
        literals: dict[str, set[str]] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Constant
            ) and isinstance(node.value.value, str):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        literals.setdefault(target.id, set()).add(
                            node.value.value
                        )
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "put"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "queue"
                and node.args
                and isinstance(node.args[0], ast.Tuple)
                and node.args[0].elts
            ):
                continue
            first = node.args[0].elts[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                tags.add(first.value)
            elif isinstance(first, ast.Name):
                tags.update(literals.get(first.id, set()))
    return tags


def _named_function(tree: ast.AST, name: str):
    for func in _functions(tree):
        if func.name == name:
            return func
    return None


def _check_worker_protocol(root: Path) -> list[Finding]:
    worker_file = root / _WORKER_PATH
    pool_file = root / _POOL_PATH
    if not (worker_file.exists() and pool_file.exists()):
        return []
    try:
        worker_tree = ast.parse(worker_file.read_text())
        pool_tree = ast.parse(pool_file.read_text())
    except SyntaxError:
        return []  # the per-file pass reports the parse failure
    findings = []

    def diff(emitted, handled, direction, emit_path, handle_path, where):
        for tag in sorted(emitted - handled):
            findings.append(Finding(
                "worker-protocol", handle_path, 1,
                f"{direction} message tag {tag!r} is emitted but never "
                f"handled by {where}",
            ))
        for tag in sorted(handled - emitted):
            findings.append(Finding(
                "worker-protocol", emit_path, 1,
                f"{direction} message tag {tag!r} is handled by {where} "
                f"but never emitted",
            ))

    # worker -> parent: body.send(...) tags vs the collector dispatch.
    collector = _named_function(pool_tree, "_collect")
    if collector is not None:
        diff(_sent_tags(worker_tree), _compared_tags(collector),
             "worker->parent", _WORKER_PATH, _POOL_PATH,
             "pool.py's _collect")
    else:
        findings.append(Finding(
            "worker-protocol", _POOL_PATH, 1,
            "no _collect function found to check the worker->parent "
            "protocol against",
        ))
    # parent -> worker: queue.put(...) tags vs the worker_main dispatch.
    main_loop = _named_function(worker_tree, "worker_main")
    if main_loop is not None:
        diff(_queued_tags(pool_tree), _compared_tags(main_loop),
             "parent->worker", _POOL_PATH, _WORKER_PATH,
             "worker.py's worker_main")
    else:
        findings.append(Finding(
            "worker-protocol", _WORKER_PATH, 1,
            "no worker_main function found to check the parent->worker "
            "protocol against",
        ))
    return findings


# ---------------------------------------------------------------------------
# Rule: no-assert
# ---------------------------------------------------------------------------

def _check_no_assert(tree, path, lines) -> list[Finding]:
    return [
        Finding(
            "no-assert", path, node.lineno,
            "assert in library/example code vanishes under 'python -O'; "
            "raise an explicit exception",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BIT_IDENTITY_SCOPE = (
    "src/repro/fft/*.py",
    "src/repro/core/*.py",
    "src/repro/nn/*.py",
)

RULES: dict[str, Rule] = {
    rule.name: rule
    for rule in (
        Rule(
            name="determinism",
            description=(
                "no wall-clock, unseeded default_rng(), stdlib random, or "
                "legacy np.random globals inside bit-identity modules "
                "(fft/, core/, nn/)"
            ),
            includes=_BIT_IDENTITY_SCOPE,
            allow=(
                ("src/repro/core/autotune.py",
                 "timed tile search: timing picks tile shapes, which never "
                 "change output bits"),
            ),
            check=_check_determinism,
        ),
        Rule(
            name="rng-truthiness",
            description=(
                "'x or np.random.default_rng()' relies on Generator "
                "truthiness; use an explicit 'is None' check"
            ),
            includes=("src/repro/**",),
            check=_check_rng_truthiness,
        ),
        Rule(
            name="cache-scope",
            description=(
                "plan lookups resolve through plan_cache_scope / "
                "current_plan_caches; the module-global default cache set "
                "is private to fft/compiled.py"
            ),
            includes=("src/repro/**",),
            excludes=("src/repro/fft/compiled.py",),
            allow=(
                ("src/repro/api/session.py",
                 "the session layer owns the shared-default fallback "
                 "(Session(backend='auto') shares the process-wide set) "
                 "and the one clear_all_caches() flush path"),
            ),
            check=_check_cache_scope,
        ),
        Rule(
            name="shm-lifecycle",
            description=(
                "shared-memory segments are constructed only in "
                "serve/shm.py, and every SegmentRegistry has a close_all "
                "path"
            ),
            includes=("src/repro/**",),
            excludes=("src/repro/api/serve/shm.py",),
            check=_check_shm_lifecycle,
        ),
        Rule(
            name="lock-order",
            description=(
                "never acquire _lock while holding _stats_lock (the "
                "documented pool order is _lock before _stats_lock)"
            ),
            includes=("src/repro/**",),
            check=_check_lock_order,
        ),
        Rule(
            name="serve-except",
            description=(
                "broad except Exception in api/serve/ must produce a typed "
                "ServeError or carry a noqa/pragma annotation"
            ),
            includes=("src/repro/api/serve/*.py",),
            check=_check_serve_except,
        ),
        Rule(
            name="worker-protocol",
            description=(
                "worker.py's emitted message tags and pool.py's handled "
                "tags must match exactly, both directions"
            ),
            includes=(),
            project_check=_check_worker_protocol,
        ),
        Rule(
            name="no-assert",
            description=(
                "no assert statements outside tests/ and benchmarks/ "
                "(asserts vanish under python -O)"
            ),
            includes=("src/repro/**", "examples/**"),
            check=_check_no_assert,
        ),
    )
}


def rule_names() -> list[str]:
    return sorted(RULES)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def default_root() -> Path:
    """The repository root, resolved from this file's install location
    (``src/repro/tools/lint.py`` -> three parents up)."""
    return Path(__file__).resolve().parents[3]


def _iter_files(root: Path):
    for base in ("src", "examples"):
        base_dir = root / base
        if not base_dir.is_dir():
            continue
        for path in sorted(base_dir.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            yield path


def _suppressed(finding: Finding, lines: list[str]) -> bool:
    if not (1 <= finding.line <= len(lines)):
        return False
    return f"lint: allow[{finding.rule}]" in lines[finding.line - 1]


def run_lint(
    root: Path | str | None = None,
    rules: list[str] | None = None,
) -> list[Finding]:
    """Lint the tree at ``root`` (default: this repo) and return findings.

    ``rules`` filters the registry by name; unknown names raise
    ``ValueError``.  Findings already covered by a rule's allowlist or
    an inline ``lint: allow[rule]`` comment are dropped.
    """
    root = Path(root).resolve() if root is not None else default_root()
    if rules is not None:
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {unknown}; expected from {rule_names()}"
            )
        selected = [RULES[name] for name in rules]
    else:
        selected = list(RULES.values())
    findings: list[Finding] = []
    lines_by_path: dict[str, list[str]] = {}
    for path in _iter_files(root):
        rel = path.relative_to(root).as_posix()
        per_file = [
            rule for rule in selected
            if rule.check is not None
            and rule.applies(rel)
            and not rule.allowlisted(rel)
        ]
        if not per_file:
            continue
        source = path.read_text()
        lines = source.splitlines()
        lines_by_path[rel] = lines
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(Finding(
                "syntax", rel, exc.lineno or 1,
                f"file does not parse: {exc.msg}",
            ))
            continue
        for rule in per_file:
            for finding in rule.check(tree, rel, lines):
                if not _suppressed(finding, lines):
                    findings.append(finding)
    for rule in selected:
        if rule.project_check is None:
            continue
        for finding in rule.project_check(root):
            if rule.allowlisted(finding.path):
                continue
            lines = lines_by_path.get(finding.path, [])
            if not _suppressed(finding, lines):
                findings.append(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-invariant static analysis (zero findings "
                    "is the CI gate)",
    )
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: this repo)")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="NAME",
                        help="run only this rule (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings report")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.json:
            print(json.dumps({
                name: {
                    "description": rule.description,
                    "scope": list(rule.includes),
                    "allowlist": [
                        {"path": pat, "reason": reason}
                        for pat, reason in rule.allow
                    ],
                }
                for name, rule in sorted(RULES.items())
            }, indent=2))
        else:
            for name, rule in sorted(RULES.items()):
                print(f"{name:<16s} {rule.description}")
                for pat, reason in rule.allow:
                    print(f"{'':<16s}   allow {pat}: {reason}")
        return 0

    try:
        findings = run_lint(args.root, args.rule)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "root": str(
                Path(args.root).resolve() if args.root else default_root()
            ),
            "rules": args.rule or rule_names(),
            "count": len(findings),
            "findings": [f.as_dict() for f in findings],
        }, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        ran = len(args.rule) if args.rule else len(RULES)
        print(f"repro lint: {len(findings)} finding(s) across {ran} rule(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
