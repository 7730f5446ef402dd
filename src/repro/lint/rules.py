"""The lint rules (L001-L007).

Each rule is a small visitor over one module's AST.  Rules see a
:class:`ModuleContext` (path, scope, parsed tree) and yield
:class:`~repro.lint.engine.Finding` objects; the engine owns file
discovery, suppression comments and reporting.

Scopes
------
``src``
    Simulation sources (``src/repro/...``).  Determinism rules apply here:
    production code must never consult the host clock or ambient entropy.
``tests``
    The test suite.  Exact-time assertions against constants are idiomatic
    there, so the timestamp-comparison rule is source-only.

A file's scope is derived from its path: any path with a ``tests``
component is test scope, everything else is source scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.lint.findings import Finding

#: Path components that mark a module as hot-path for L003.
HOT_PATH_DIRS = ("verbs", "core", "telemetry")
#: Specific hot-path files outside the hot-path directories.
HOT_PATH_FILES = ("sim/events.py",)

#: ``module -> banned attribute names`` for L001.  ``"*"`` bans every
#: attribute of the module (used for ``random``/``secrets``: any draw from
#: a global, unseeded source breaks replayability).
WALL_CLOCK_CALLS = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
    "random": {"*"},
    "secrets": {"*"},
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}

#: Names treated as simulation timestamps by L002 (exact names).
TIME_LIKE_NAMES = {"now", "t0", "t1", "t_start", "t_end", "deadline"}
#: Name suffixes treated as simulation timestamps by L002.
TIME_LIKE_SUFFIXES = ("_us", "_at")


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one file under analysis."""

    path: Path
    tree: ast.Module
    scope: str  # 'src' | 'tests'
    hot_path: bool
    #: ``alias -> real module name`` for plain ``import x [as y]``.
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: ``local name -> (module, attr)`` for ``from x import y [as z]``.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    #: Stable identifier, e.g. ``"L001"`` (used in reports and suppressions).
    rule_id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Scopes the rule applies to.
    scopes: tuple[str, ...] = ("src", "tests")

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on *ctx* (scope/path gating)."""
        return ctx.scope in self.scopes

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at *node*."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


class WallClockRule(Rule):
    """L001: simulation sources must not read host time or global entropy.

    Simulated time is ``sim.now``; randomness comes from named
    :class:`repro.sim.rng.RngStream` instances split off the experiment
    seed.  A single ``time.time()`` or bare ``random.random()`` makes runs
    unrepeatable, which silently invalidates every figure the repo
    reproduces.
    """

    rule_id = "L001"
    title = "no wall-clock/entropy calls in simulation sources"
    scopes = ("src",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag calls into banned host-time/entropy APIs."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve(ctx, node.func)
            if resolved is None:
                continue
            module, attr = resolved
            banned = WALL_CLOCK_CALLS.get(module)
            if banned is None:
                continue
            if "*" in banned or attr in banned:
                yield self.finding(
                    ctx,
                    node,
                    f"call to {module}.{attr} (wall clock / ambient entropy); "
                    f"use sim.now / repro.sim.rng instead",
                )

    @staticmethod
    def _resolve(ctx: ModuleContext, func: ast.expr) -> Optional[tuple[str, str]]:
        """Map a call target back to ``(real module, attribute)`` if imported."""
        if isinstance(func, ast.Attribute):
            value = func.value
            # datetime.datetime.now(...): unwrap the class level.
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                root = ctx.module_aliases.get(value.value.id)
                if root is not None:
                    return root, func.attr
                return None
            if isinstance(value, ast.Name):
                root = ctx.module_aliases.get(value.id)
                if root is not None:
                    return root, func.attr
                # `from datetime import datetime` then `datetime.now()`.
                origin = ctx.from_imports.get(value.id)
                if origin is not None and origin == ("datetime", "datetime"):
                    return "datetime", func.attr
            return None
        if isinstance(func, ast.Name):
            origin = ctx.from_imports.get(func.id)
            if origin is not None:
                return origin[0], origin[1]
        return None


class TimestampEqualityRule(Rule):
    """L002: no ``==``/``!=`` between two float simulation timestamps.

    Timestamps are floats accumulated through arithmetic; exact equality
    between two *computed* times is fragile (it works until a cost model
    changes a term and then fails nowhere near the edit).  Comparing a
    timestamp against a literal constant is fine -- that is how tests pin
    down expected schedules -- so both operands must look time-like for
    the rule to fire.
    """

    rule_id = "L002"
    title = "no ==/!= between float sim timestamps"
    scopes = ("src",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag equality comparisons whose operands both look time-like."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._time_like(left) and self._time_like(right):
                    yield self.finding(
                        ctx,
                        node,
                        "==/!= between float sim timestamps; compare with "
                        "tolerance or restructure around event ordering",
                    )

    @classmethod
    def _time_like(cls, node: ast.expr) -> bool:
        """Heuristic: does *node* denote a simulation timestamp?"""
        if isinstance(node, ast.Attribute):
            return node.attr == "now" or cls._named_time_like(node.attr)
        if isinstance(node, ast.Name):
            return cls._named_time_like(node.id)
        if isinstance(node, ast.BinOp):
            return cls._time_like(node.left) or cls._time_like(node.right)
        return False

    @staticmethod
    def _named_time_like(name: str) -> bool:
        """Name-based timestamp heuristic shared by attributes and locals."""
        return name in TIME_LIKE_NAMES or name.endswith(TIME_LIKE_SUFFIXES)


class SlotsRule(Rule):
    """L003: hot-path classes must declare ``__slots__``.

    Objects in ``verbs/`` and ``core/`` (work requests, completions,
    packets, buffers) are created per message, and ``telemetry/`` spans
    per instrumented event; per-instance ``__dict__``
    costs memory and hashing time in the busiest loops, and -- worse --
    permits silent attribute-name typos that slots turn into loud errors.
    Enum, exception and typing-protocol classes manage their own layout
    and are exempt.
    """

    rule_id = "L003"
    title = "hot-path classes declare __slots__"
    scopes = ("src",)

    #: Base-class name fragments that exempt a class.
    EXEMPT_BASES = ("Enum", "Flag", "Error", "Exception", "Warning", "Protocol", "TypedDict", "NamedTuple")

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Only hot-path source files are checked."""
        return super().applies_to(ctx) and ctx.hot_path

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag slot-less class definitions in hot-path modules."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node) or self._has_slots(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"hot-path class {node.name} lacks __slots__ "
                f"(or @dataclass(slots=True))",
            )

    @classmethod
    def _exempt(cls, node: ast.ClassDef) -> bool:
        """Enum/exception/typing classes own their layout."""
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if any(fragment in name for fragment in cls.EXEMPT_BASES):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        """True for an explicit __slots__ or @dataclass(slots=True)."""
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            if isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                    return True
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                name = deco.func.attr if isinstance(deco.func, ast.Attribute) else getattr(deco.func, "id", "")
                if name == "dataclass":
                    for kw in deco.keywords:
                        if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                            return bool(kw.value.value)
        return False


class MutableDefaultRule(Rule):
    """L004: no mutable default arguments.

    A ``def f(x, acc=[])`` default is evaluated once and shared across
    calls -- in a simulator that state leaks *between experiments*,
    producing results that depend on run order.
    """

    rule_id = "L004"
    title = "no mutable default arguments"
    scopes = ("src", "tests")

    #: Call-expression constructors considered mutable.
    MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag function definitions with mutable default values."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); "
                        f"use None and create inside the body",
                    )

    @classmethod
    def _mutable(cls, node: ast.expr) -> bool:
        """Literal displays, comprehensions and bare constructors."""
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in cls.MUTABLE_CALLS
        return False


class DuplicateMsgIdRule(Rule):
    """L005: active-message ids must be unique per module.

    ``UcrRuntime.register_handler`` raises at runtime on a duplicate id --
    but only on the code path that registers both, which a unit test may
    never drive.  This rule catches the collision at lint time, both for
    literal ``MSG_*`` constants (unique per module) and for the
    registration calls themselves.  Calls are deduplicated per enclosing
    function, because separate functions typically build separate
    runtimes (every unit test registering ``MSG_SINK`` on its own fresh
    world is fine; the same function registering it twice is not).
    """

    rule_id = "L005"
    title = "register_handler msg ids unique per scope"
    scopes = ("src", "tests")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag duplicate MSG_* constant values and duplicate registrations."""
        seen_values: dict[object, tuple[str, int]] = {}
        for stmt in ctx.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Constant):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Name) and target.id.startswith("MSG_")):
                    continue
                value = stmt.value.value
                if value in seen_values:
                    prev_name, prev_line = seen_values[value]
                    yield self.finding(
                        ctx,
                        stmt,
                        f"{target.id} duplicates msg id {value!r} of "
                        f"{prev_name} (line {prev_line})",
                    )
                else:
                    seen_values[value] = (target.id, stmt.lineno)

        registrations: dict[tuple[int, str, str], int] = {}
        for scope_id, node in self._calls_with_scope(ctx.tree):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name != "register_handler":
                continue
            arg = self._msg_id_arg(node)
            if arg is None:
                continue
            # The receiver (e.g. ``world.server_rt``) is part of the key:
            # registering one id on two different runtimes is legitimate.
            receiver = ast.unparse(func.value) if isinstance(func, ast.Attribute) else ""
            key = (scope_id, receiver, ast.unparse(arg))
            if key in registrations:
                yield self.finding(
                    ctx,
                    node,
                    f"msg id {key[2]} already registered on {receiver or 'this runtime'} "
                    f"in this scope (line {registrations[key]})",
                )
            else:
                registrations[key] = node.lineno

    @classmethod
    def _calls_with_scope(cls, tree: ast.Module) -> Iterator[tuple[int, ast.Call]]:
        """Yield ``(scope id, call)`` pairs; each function is its own scope."""

        def visit(node: ast.AST, scope_id: int) -> Iterator[tuple[int, ast.Call]]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, id(child))
                else:
                    if isinstance(child, ast.Call):
                        yield scope_id, child
                    yield from visit(child, scope_id)

        return visit(tree, id(tree))

    @staticmethod
    def _msg_id_arg(node: ast.Call) -> Optional[ast.expr]:
        """The msg_id argument of a register_handler call, if present."""
        if node.args:
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "msg_id":
                return kw.value
        return None


class GuardScanner:
    """Finds recording calls not guarded on ``<receiver>.enabled``.

    Shared by L006 (``tracer``) and L007 (``recorder``): both singletons
    have the same zero-cost-when-disabled contract, so both rules need
    the same syntactic guard tracking.  A call is *guarded* when it sits
    under an ``if`` statement, conditional expression or
    short-circuiting ``and`` whose test reads ``<receiver>.enabled`` --
    or after the early-exit idiom::

        if not recorder.enabled:
            return ...          # (or raise / continue)
        recorder.invoke(...)    # guarded from here on

    Guards do not cross ``def``/``lambda``/``class`` boundaries: a new
    code object may outlive the check that surrounded its definition.
    """

    def __init__(self, receiver: str, methods: frozenset) -> None:
        self.receiver = receiver
        self.methods = methods

    def unguarded_calls(self, tree: ast.Module) -> Iterator[ast.Call]:
        """Yield every recording call not syntactically guarded."""
        yield from self._scan_stmts(tree.body, guarded=False)

    def _mentions_enabled(self, node: ast.AST) -> bool:
        """True when *node* reads ``.enabled`` off this receiver."""
        for n in ast.walk(node):
            if not (isinstance(n, ast.Attribute) and n.attr == "enabled"):
                continue
            recv = n.value
            name = recv.attr if isinstance(recv, ast.Attribute) else getattr(recv, "id", "")
            if name == self.receiver:
                return True
        return False

    def _is_recording_call(self, node: ast.AST) -> bool:
        """``<receiver>.<method>(...)``-shaped call."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr not in self.methods:
            return False
        recv = node.func.value
        name = recv.attr if isinstance(recv, ast.Attribute) else getattr(recv, "id", "")
        return name == self.receiver

    def _is_disabled_early_exit(self, stmt: ast.stmt) -> bool:
        """``if not <receiver>.enabled: <... return/raise/continue>``."""
        return (
            isinstance(stmt, ast.If)
            and isinstance(stmt.test, ast.UnaryOp)
            and isinstance(stmt.test.op, ast.Not)
            and self._mentions_enabled(stmt.test.operand)
            and bool(stmt.body)
            and isinstance(stmt.body[-1], (ast.Return, ast.Raise, ast.Continue))
        )

    def _scan_stmts(self, stmts: list, guarded: bool) -> Iterator[ast.Call]:
        """Scan a statement list, promoting the guard after an early exit."""
        for stmt in stmts:
            yield from self._scan_node(stmt, guarded)
            if not guarded and self._is_disabled_early_exit(stmt):
                guarded = True

    def _scan_node(self, node: ast.AST, guarded: bool) -> Iterator[ast.Call]:
        """Track guardedness through ifs, conditionals and ``and`` chains."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A new code object: outer guards do not protect calls that
            # run later (the closure may outlive the check).
            yield from self._scan_fields(node, guarded=False)
            return
        if isinstance(node, ast.Lambda):
            yield from self._scan_node(node.body, guarded=False)
            return
        if isinstance(node, ast.If):
            body_guarded = guarded or self._mentions_enabled(node.test)
            yield from self._scan_node(node.test, guarded)
            yield from self._scan_stmts(node.body, body_guarded)
            yield from self._scan_stmts(node.orelse, guarded)
            return
        if isinstance(node, ast.IfExp):
            body_guarded = guarded or self._mentions_enabled(node.test)
            yield from self._scan_node(node.test, guarded)
            yield from self._scan_node(node.body, body_guarded)
            yield from self._scan_node(node.orelse, guarded)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            seen_enabled = False
            for value in node.values:
                yield from self._scan_node(value, guarded or seen_enabled)
                seen_enabled = seen_enabled or self._mentions_enabled(value)
            return
        if not guarded and self._is_recording_call(node):
            yield node
        yield from self._scan_fields(node, guarded)

    def _scan_fields(self, node: ast.AST, guarded: bool) -> Iterator[ast.Call]:
        """Generic recursion; statement lists keep early-exit tracking."""
        for _field, value in ast.iter_fields(node):
            if isinstance(value, list):
                if value and all(isinstance(v, ast.stmt) for v in value):
                    yield from self._scan_stmts(value, guarded)
                else:
                    for v in value:
                        if isinstance(v, ast.AST):
                            yield from self._scan_node(v, guarded)
            elif isinstance(value, ast.AST):
                yield from self._scan_node(value, guarded)


class TelemetryGuardRule(Rule):
    """L006: tracing must stay zero-cost when disabled.

    Outside ``telemetry/`` itself (the tracer's own module records
    unguarded; its classes' ``__slots__`` are L003's), calls to the
    tracer's recording methods (``begin``/``end``/``instant``) must be
    syntactically guarded by a check of ``tracer.enabled`` (an ``if``
    statement, conditional expression, or short-circuiting ``and``), so
    a disabled tracer costs one attribute read per call site and the
    instrumented run's event stream is bit-identical to an untraced one.
    """

    rule_id = "L006"
    title = "tracer call sites guarded"
    scopes = ("src",)

    #: Recording methods that must be guarded (readers like
    #: ``finished_spans`` are fine unguarded -- they run off the hot path).
    TRACER_METHODS = frozenset({"begin", "end", "instant"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag unguarded tracer calls outside the telemetry package."""
        if "telemetry" in ctx.path.parts:
            return
        scanner = GuardScanner("tracer", self.TRACER_METHODS)
        for call in scanner.unguarded_calls(ctx.tree):
            yield self.finding(
                ctx,
                call,
                f"unguarded tracer.{call.func.attr}() call "
                f"(wrap in `if tracer.enabled`)",
            )


class HistoryGuardRule(Rule):
    """L007: client op paths record history; recording is guarded.

    The verification pipeline (``repro.check``) is only sound if every
    client response path shows up in recorded histories -- a new op
    method that skips recording silently escapes the linearizability
    checker.  Two obligations:

    - operation methods on ``*Client`` classes must thread through the
      recorder: delegating to the client's one recorded op path
      (``call``), touching the recorder directly, or calling a same-class
      method that does (resolved through the class, not by name);
    - outside ``check/`` itself, calls to the recorder's recording
      methods (``invoke``/``complete``/``fail``/``lost``) must be
      syntactically guarded on ``recorder.enabled`` -- same zero-cost
      contract as the tracer (L006), including the early-exit idiom
      ``if not recorder.enabled: return ...``.
    """

    rule_id = "L007"
    title = "client ops record history; recorder call sites guarded"
    scopes = ("src",)

    #: Client methods that are memcached operations (the recordable
    #: surface; everything the differential/linearizability layers see).
    OP_METHODS = frozenset(
        {
            "set", "add", "replace", "append", "prepend", "cas",
            "get", "gets", "get_multi", "delete", "incr", "decr", "touch",
            "flush_all",
        }
    )
    RECORDER_METHODS = frozenset({"invoke", "complete", "fail", "lost"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Check recording coverage, then guard discipline."""
        if "check" not in ctx.path.parts:
            # The recorder's own module calls its methods unguarded.
            scanner = GuardScanner("recorder", self.RECORDER_METHODS)
            for call in scanner.unguarded_calls(ctx.tree):
                yield self.finding(
                    ctx,
                    call,
                    f"unguarded recorder.{call.func.attr}() call "
                    f"(guard on `recorder.enabled`)",
                )
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith("Client")):
                continue
            methods = {
                stmt.name: stmt for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for name, stmt in methods.items():
                if name not in self.OP_METHODS or self._records(stmt, methods, set()):
                    continue
                yield self.finding(
                    ctx,
                    stmt,
                    f"{node.name}.{stmt.name}() does not record history: "
                    f"delegate to call(cmd) or use the recorder directly",
                )

    @classmethod
    def _records(cls, fn: ast.FunctionDef, methods: dict, seen: set) -> bool:
        """The body delegates to ``call``, touches ``recorder``, or calls
        ``self.<method>`` of a same-class method that records."""
        seen.add(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "call":
                return True
            if isinstance(node, ast.Name) and node.id == "recorder":
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "self"
                and node.func.attr in methods.keys() - seen
                and cls._records(methods[node.func.attr], methods, seen)
            ):
                return True
        return False


#: Every rule, in report order.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    TimestampEqualityRule(),
    SlotsRule(),
    MutableDefaultRule(),
    DuplicateMsgIdRule(),
    TelemetryGuardRule(),
    HistoryGuardRule(),
)
