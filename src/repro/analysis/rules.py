"""The seven contract rules (RPR001–RPR007).

Each rule machine-checks one architectural contract the codebase
otherwise enforces only by example-based tests and review.  The
contracts themselves (and the rationale behind every exemption) are
documented in ``docs/ANALYSIS.md``; each rule's docstring here is the
normative statement.

Adding a rule: subclass :class:`~repro.analysis.core.Rule`, give it the
next free ``RPRnnn`` code, yield findings from ``check``, append it to
:func:`default_rules`, and add good/bad fixture snippets under
``tests/analysis_fixtures/<code>/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Rule

__all__ = ["default_rules"] + [f"RPR00{i}" for i in range(1, 8)]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def import_map(module: Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in the module.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.  Wildcard
    imports are ignored (none exist in this codebase).
    """
    out: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def dotted(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Resolve ``np.random.normal`` through the import map to
    ``numpy.random.normal``; None when the chain's root is not an
    imported name (a local object's attribute is not our business)."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    origin = imports.get(cur.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _call_name(node: ast.Call) -> str | None:
    """The attribute name of a method call (``x.submit(...)`` -> ``submit``)."""
    return node.func.attr if isinstance(node.func, ast.Attribute) else None


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


# ---------------------------------------------------------------------------
# RPR001 — clock discipline
# ---------------------------------------------------------------------------
_BANNED_TIME = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "sleep",
    }
)
_BANNED_CLOCK = frozenset({f"time.{name}" for name in _BANNED_TIME}) | frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class RPR001(Rule):
    """Clock discipline: components read time through an injected
    :class:`~repro.runtime.Clock`, never the wall clock directly.

    Deterministic replay (a whole simulated day under ``ManualClock``
    in microseconds, with *exact* latency assertions) only works if no
    component can smuggle in ``time.time()`` / ``time.monotonic()`` /
    ``time.sleep()`` / ``datetime.now()``.  ``runtime/clock.py`` is the
    single sanctioned wall-clock reader; everything else takes a
    ``Clock``.  Timestamp *formatting* (``strftime``/``gmtime``) is not
    banned — the contract is about behaviour, not metadata.
    """

    code = "RPR001"
    name = "clock-discipline"
    description = (
        "no direct wall-clock access (time.time/monotonic/sleep, "
        "datetime.now) outside runtime/clock.py — inject a Clock"
    )
    exempt_suffixes = ("runtime/clock.py",)

    def check(self, module: Module) -> Iterator[Finding]:
        imports = import_map(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _BANNED_TIME:
                        yield self.finding(
                            module,
                            node,
                            f"import of wall-clock primitive time.{alias.name} — "
                            "take an injected Clock (repro.runtime) instead",
                        )
            elif isinstance(node, ast.Attribute):
                name = dotted(node, imports)
                if name in _BANNED_CLOCK:
                    yield self.finding(
                        module,
                        node,
                        f"direct wall-clock access {name} — take an injected "
                        "Clock (repro.runtime) instead",
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = imports.get(node.id)
                if name in _BANNED_CLOCK:
                    yield self.finding(
                        module,
                        node,
                        f"direct wall-clock access {name} — take an injected "
                        "Clock (repro.runtime) instead",
                    )


# ---------------------------------------------------------------------------
# RPR002 — RNG discipline
# ---------------------------------------------------------------------------
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "rand", "randn", "randint", "random_integers", "random_sample",
        "ranf", "sample", "bytes", "choice", "shuffle", "permutation",
        "random", "normal", "uniform", "binomial", "poisson", "beta", "gamma",
        "exponential", "standard_normal", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_t", "lognormal",
        "laplace", "logistic", "multinomial", "multivariate_normal",
        "negative_binomial", "geometric", "hypergeometric", "triangular",
        "vonmises", "wald", "weibull", "zipf", "pareto", "rayleigh", "power",
        "gumbel", "chisquare", "noncentral_chisquare", "f", "noncentral_f",
        "dirichlet", "get_state", "set_state", "RandomState",
    }
)


class RPR002(Rule):
    """RNG discipline: every draw flows through a seeded
    :class:`numpy.random.Generator` (``utils.rng``), never the legacy
    global state and never an unseeded ``default_rng()``.

    Common-random-number pairing (PR 3) and bit-identical parallel
    generation both die *silently* on a single global-state draw: the
    results stay plausible, only the variance reduction and the
    determinism are gone.  ``utils/rng.py``'s ``as_generator(None)`` is
    the one sanctioned fresh-entropy entry point (inline-suppressed
    there); everything else must thread a seed or a Generator.
    """

    code = "RPR002"
    name = "rng-discipline"
    description = (
        "no legacy np.random.* global-state calls and no seedless "
        "np.random.default_rng() — thread seeds via utils.rng"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        imports = import_map(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.random",
                "numpy",
            ):
                for alias in node.names:
                    if node.module == "numpy.random" and alias.name in _LEGACY_NP_RANDOM:
                        yield self.finding(
                            module,
                            node,
                            f"import of legacy numpy.random.{alias.name} — use a "
                            "seeded Generator (utils.rng.as_generator)",
                        )
            elif isinstance(node, ast.Attribute):
                name = dotted(node, imports)
                if (
                    name is not None
                    and name.startswith("numpy.random.")
                    and name.rsplit(".", 1)[1] in _LEGACY_NP_RANDOM
                ):
                    yield self.finding(
                        module,
                        node,
                        f"legacy global-state RNG call {name} — use a seeded "
                        "Generator (utils.rng.as_generator)",
                    )
            elif isinstance(node, ast.Call):
                name = (
                    dotted(node.func, imports)
                    if isinstance(node.func, ast.Attribute)
                    else imports.get(node.func.id)
                    if isinstance(node.func, ast.Name)
                    else None
                )
                if name == "numpy.random.default_rng" and self._seedless(node):
                    yield self.finding(
                        module,
                        node,
                        "seedless np.random.default_rng() — determinism and CRN "
                        "pairing need an explicit seed (or pass the caller's "
                        "Generator through)",
                    )

    @staticmethod
    def _seedless(call: ast.Call) -> bool:
        if call.args:
            arg = call.args[0]
            return isinstance(arg, ast.Constant) and arg.value is None
        for kw in call.keywords:
            if kw.arg == "seed":
                return isinstance(kw.value, ast.Constant) and kw.value.value is None
        return True


# ---------------------------------------------------------------------------
# RPR003 — resource ownership
# ---------------------------------------------------------------------------
def _is_resource_ctor(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id.endswith("Backend")
        and not node.func.id.startswith("_")
    )


class RPR003(Rule):
    """Resource ownership: whoever constructs a backend shuts it down —
    on *all* paths — and nobody shuts down a backend they merely
    borrowed.

    A leaked ``ProcessBackend`` is a stranded worker pool.  The rule's
    construction half flags a locally constructed backend that neither
    escapes the function (returned, stored on an object,
    passed onward — ownership transferred) nor is guaranteed release
    via ``with`` / ``try‑finally``.  The borrowing half flags
    ``shutdown()``/``close()`` called on a bare function parameter:
    per the PR‑4 lifetime rule, borrowers never shut down.
    """

    code = "RPR003"
    name = "resource-ownership"
    description = (
        "constructed *Backend must reach shutdown()/close() on all "
        "paths (with/try-finally); borrowed ones never"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, fn)

    def _check_function(self, module: Module, fn: ast.AST) -> Iterator[Finding]:
        # nodes belonging to nested functions are that function's business
        nested: set[int] = set()
        for inner in ast.walk(fn):
            if inner is not fn and isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.update(id(n) for n in ast.walk(inner) if n is not inner)

        def owned(node: ast.AST) -> bool:
            return id(node) not in nested

        with_managed_calls: set[int] = set()
        with_managed_names: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)) and owned(node):
                for item in node.items:
                    with_managed_calls.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        with_managed_names.add(item.context_expr.id)

        yield from self._check_constructions(
            module, fn, owned, with_managed_calls, with_managed_names
        )
        yield from self._check_borrowed(module, fn, owned)

    def _check_constructions(
        self, module, fn, owned, with_managed_calls, with_managed_names
    ) -> Iterator[Finding]:
        # name -> ctor assignment node for locally bound resources
        local: dict[str, ast.Assign] = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and owned(node)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_resource_ctor(node.value)
                and id(node.value) not in with_managed_calls
            ):
                local[node.targets[0].id] = node
            elif (
                _is_resource_ctor(node)
                and owned(node)
                and id(node) not in with_managed_calls
            ):
                parent = module.parent(node)
                # a ctor call used directly as an argument / return value /
                # attribute store transfers ownership to the receiver
                if isinstance(parent, ast.Assign) and all(
                    isinstance(t, ast.Name) for t in parent.targets
                ):
                    continue
                if isinstance(parent, (ast.Expr,)):
                    yield self.finding(
                        module,
                        node,
                        f"{node.func.id}(...) constructed and immediately "
                        "dropped — it never reaches shutdown()/close()",
                    )

        for name, assign in local.items():
            if name in with_managed_names:
                continue
            if self._escapes(fn, name, assign, owned):
                continue
            released, guaranteed = self._release_calls(fn, name, owned)
            if released and guaranteed:
                continue
            ctor = assign.value.func.id
            if released:
                yield self.finding(
                    module,
                    assign,
                    f"{ctor} {name!r} is shut down, but not on all paths — "
                    "move the shutdown()/close() into a finally block or use "
                    "`with`",
                )
            else:
                yield self.finding(
                    module,
                    assign,
                    f"{ctor} {name!r} is constructed here but never reaches "
                    "shutdown()/close() — the constructor owns the lifetime",
                )

    @staticmethod
    def _escapes(fn, name: str, assign: ast.Assign, owned) -> bool:
        for node in ast.walk(fn):
            if not owned(node):
                continue
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and name in _names_in(node.value):
                    return True
            elif isinstance(node, ast.Call):
                args_names: set[str] = set()
                for arg in node.args:
                    args_names |= _names_in(arg)
                for kw in node.keywords:
                    args_names |= _names_in(kw.value)
                if name in args_names:
                    return True
            elif isinstance(node, ast.Assign) and node is not assign:
                # stored on an object / into a container: ownership moved
                stores = any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    or (
                        isinstance(t, (ast.Tuple, ast.List))
                        and any(
                            isinstance(e, (ast.Attribute, ast.Subscript))
                            for e in t.elts
                        )
                    )
                    for t in node.targets
                )
                if stores and name in _names_in(node.value):
                    return True
                # plain alias (``other = backend``): track conservatively
                if isinstance(node.value, ast.Name) and node.value.id == name:
                    return True
        return False

    @staticmethod
    def _release_calls(fn, name: str, owned) -> tuple[bool, bool]:
        """(any shutdown/close on ``name``, any of them inside a finally)."""
        released = guaranteed = False
        for node in ast.walk(fn):
            if not owned(node):
                continue
            if isinstance(node, ast.Try):
                for final_stmt in node.finalbody:
                    for sub in ast.walk(final_stmt):
                        if RPR003._is_release(sub, name):
                            released = guaranteed = True
            if RPR003._is_release(node, name):
                released = True
        return released, guaranteed

    @staticmethod
    def _is_release(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("shutdown", "close")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        )

    def _check_borrowed(self, module, fn, owned) -> Iterator[Finding]:
        params = {
            a.arg
            for a in [
                *fn.args.posonlyargs,
                *fn.args.args,
                *fn.args.kwonlyargs,
            ]
            if a.arg not in ("self", "cls")
        }
        if not params:
            return
        rebound: set[str] = set()
        for node in ast.walk(fn):
            if not owned(node):
                continue
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [i.optional_vars for i in node.items if i.optional_vars]
            for target in targets:
                rebound |= {
                    n.id
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name)
                }
        for node in ast.walk(fn):
            if not owned(node):
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("shutdown", "close")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in params - rebound
            ):
                yield self.finding(
                    module,
                    node,
                    f"parameter {node.func.value.id!r} is borrowed — only its "
                    "constructor may call shutdown()/close() (PR-4 lifetime "
                    "rule)",
                )


# ---------------------------------------------------------------------------
# RPR004 — process-boundary pickle-safety
# ---------------------------------------------------------------------------
_MODEL_SEGMENTS = frozenset({"causal", "linear", "trees", "nn"})


class RPR004(Rule):
    """Pickle-safety at process boundaries: work shipped through
    ``submit``/``submit_to`` must be a module-level callable, and model
    instances must not grow lambda-valued attributes.

    A lambda or nested function works on ``SerialBackend`` (no
    pickling happens) and then explodes the first time someone passes
    ``ProcessBackend`` — code written against
    :class:`~repro.runtime.ExecutionBackend` must be backend-agnostic,
    so the static rule is backend-blind too.  The same logic covers the
    18 public models: every one of them pickle-round-trips bit-identical
    (``tests/test_pickling.py``), which a ``self.f = lambda …``
    assignment would break for exactly one backend choice.
    """

    code = "RPR004"
    name = "pickle-safety"
    description = (
        "no lambdas/nested functions submitted to executors or stored "
        "on model instances — process boundaries pickle their cargo"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        imports = import_map(module)
        for fn in ast.walk(module.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_submits(module, fn, imports)
        if _MODEL_SEGMENTS & module.segments:
            yield from self._check_model_attrs(module)

    def _check_submits(self, module, fn, imports) -> Iterator[Finding]:
        local_fns = {
            n.name
            for n in ast.walk(fn)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn
        }
        local_fns |= {
            t.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            method = _call_name(node)
            if method == "submit" and node.args:
                cargo = node.args[0]
            elif method == "submit_to" and len(node.args) >= 2:
                cargo = node.args[1]
            else:
                continue
            yield from self._check_cargo(module, cargo, local_fns, imports)

    def _check_cargo(self, module, cargo, local_fns, imports) -> Iterator[Finding]:
        if isinstance(cargo, ast.Lambda):
            yield self.finding(
                module,
                cargo,
                "lambda submitted to an executor — lambdas don't pickle "
                "across a ProcessBackend boundary; use a module-level "
                "function",
            )
        elif isinstance(cargo, ast.Name) and cargo.id in local_fns:
            yield self.finding(
                module,
                cargo,
                f"locally defined function {cargo.id!r} submitted to an "
                "executor — closures don't pickle across a ProcessBackend "
                "boundary; hoist it to module level",
            )
        elif isinstance(cargo, ast.Call):
            name = (
                dotted(cargo.func, imports)
                if isinstance(cargo.func, ast.Attribute)
                else imports.get(cargo.func.id)
                if isinstance(cargo.func, ast.Name)
                else None
            )
            if name == "functools.partial" and cargo.args:
                yield from self._check_cargo(
                    module, cargo.args[0], local_fns, imports
                )

    def _check_model_attrs(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Lambda)
                and any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets
                )
            ):
                yield self.finding(
                    module,
                    node,
                    "lambda stored on a model instance — the 18 public models "
                    "must pickle bit-identical (tests/test_pickling.py); use "
                    "a module-level function or a method",
                )


# ---------------------------------------------------------------------------
# RPR005 — obs hot-path contract
# ---------------------------------------------------------------------------
_SETUP_FUNCS = frozenset({"__init__", "__post_init__", "__new__", "__set_name__"})
_HOT_FUNCS = frozenset(
    {
        "submit", "submit_to", "submit_batch", "score", "score_batch",
        "offer", "offer_batch", "observe", "observe_block", "take",
        "take_block", "poll", "drain", "flush", "has_result", "version_of",
        "record", "record_many",
    }
)
_REGISTRY_FACTORIES = frozenset({"adopt", "counter", "gauge", "histogram"})


class RPR005(Rule):
    """The obs hot-path contract (PR 6): components *own* their metric
    objects — created once at construction, registered via ``adopt()``
    — so the per-request path costs one attribute read, not a registry
    lookup; and no per-request path builds a :class:`Snapshot`.

    ``metrics.counter(name)`` inside ``observe()`` is a dict lookup,
    string hash, and allocation on every event — the exact cost the
    "observability on vs. off is the same code path" pin in
    ``bench_serving_throughput`` exists to keep at zero.  Snapshots
    walk and freeze the whole registry; they are for day boundaries and
    merges, never for request handling.
    """

    code = "RPR005"
    name = "obs-hot-path"
    description = (
        "metric objects are created in __init__ and adopt()ed once; "
        "no registry lookups or Snapshot builds on per-request paths"
    )
    scope_segments = frozenset({"serving", "runtime", "ab"})

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            method = _call_name(node)
            fn = module.enclosing_function(node)
            if method in _REGISTRY_FACTORIES:
                if fn is not None and fn.name not in _SETUP_FUNCS:
                    yield self.finding(
                        module,
                        node,
                        f"registry .{method}() lookup inside {fn.name}() — "
                        "components own their metric objects: create them in "
                        "__init__ and adopt() them once (docs/OBSERVABILITY.md)",
                    )
            elif (
                method == "snapshot"
                or (isinstance(node.func, ast.Name) and node.func.id == "Snapshot")
            ) and fn is not None and fn.name in _HOT_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"Snapshot built inside per-request path {fn.name}() — "
                    "snapshots freeze the whole registry; take them at day/"
                    "merge boundaries, not per request",
                )


# ---------------------------------------------------------------------------
# RPR006 — dropped futures
# ---------------------------------------------------------------------------
class RPR006(Rule):
    """No dropped futures: a ``submit(...)`` result that is neither
    stored, returned, nor otherwise consumed is a silent failure sink.

    A future dropped on the floor swallows the exception its task
    raises — the pool keeps running, the caller keeps going, and the
    missing work surfaces days later as a wrong aggregate.  Every
    submit's future (or rid) must reach a variable, a collection, a
    ``return``, or an immediate ``.result()``.
    """

    code = "RPR006"
    name = "dropped-future"
    description = (
        "a submit()/submit_to() result must be stored, returned, or "
        "resolved — dropping a future drops its exceptions too"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and _call_name(node.value)
                in ("submit", "submit_to", "submit_batch")
            ):
                yield self.finding(
                    module,
                    node,
                    f"result of .{_call_name(node.value)}() is dropped — the "
                    "future's exceptions (and its ids) vanish with it; store, "
                    "return, or resolve it",
                )


# ---------------------------------------------------------------------------
# RPR007 — swallowed exceptions
# ---------------------------------------------------------------------------
class RPR007(Rule):
    """No invisible failure in the serving/runtime layers: bare
    ``except:`` is banned everywhere, and a handler whose body is only
    ``pass`` is banned in ``serving``/``runtime`` modules.

    A serving fleet that swallows an exception keeps routing traffic
    to a broken shard; the PR-5 lifecycle bugs all hid behind exactly
    this shape.  Handlers must re-raise, route the exception into a
    future/ledger, or at minimum record what they dropped.
    """

    code = "RPR007"
    name = "swallowed-exception"
    description = (
        "no bare except anywhere; no pass-only exception handlers in "
        "serving/runtime — failures must propagate or be recorded"
    )
    _PASS_ONLY_SEGMENTS = frozenset({"serving", "runtime"})

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt and "
                    "hides the failure — name the exception types",
                )
            elif (
                self._PASS_ONLY_SEGMENTS & module.segments
                and all(self._is_noop(stmt) for stmt in node.body)
            ):
                yield self.finding(
                    module,
                    node,
                    "exception swallowed (pass-only handler) in a serving/"
                    "runtime path — re-raise, route it into a future, or "
                    "record it",
                )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        return isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
        )


def default_rules() -> list[Rule]:
    """The shipped rule set, in code order."""
    return [RPR001(), RPR002(), RPR003(), RPR004(), RPR005(), RPR006(), RPR007()]
