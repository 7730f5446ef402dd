"""Dataflow lint rules over per-function CFGs (L008-L012).

Where :mod:`repro.lint.rules` pattern-matches single AST nodes, the rules
here reason about *paths*: what holds before a statement given every way
control can reach it.  All four are instances of one scheme -- a forward
worklist analysis over the :class:`repro.lint.cfg.Cfg` of each function,
with facts represented as frozensets of tagged tuples and join = union
(any-path, the conservative polarity for a race detector):

========  ==============================================================
L008      Stale read across a yield: a local bound from shared state (per
          the :mod:`repro.lint.shared_state` registry) is used after a
          ``yield``/``yield from`` without being re-read.  Other
          processes run at the yield; the cached value may be stale.
L009      Buffer typestate: every pooled-buffer acquire (``<pool>.get()``)
          is released or handed off on all CFG paths, and never used
          after release.  The static counterpart of
          :mod:`repro.sanitize.buffers`.
L010      QP state machine: consecutive ``<qp>.state = QpState.X`` writes
          along any path must follow
          :data:`repro.verbs.enums.LEGAL_QP_TRANSITIONS`.
L011      Release safety: a resource ``request()`` held at a yield must
          be under a ``try`` whose ``finally`` releases it -- a failed or
          ``Expired`` event raises *at the yield*, as does
          ``GeneratorExit`` when an abandoned process is closed, and an
          unreleased grant deadlocks every later waiter.
L012      Seqlock discipline: writes to exported one-sided index entry
          fields (``slot = self._mirror[b]; slot.key_hash = ...``) must
          sit between ``seq_begin``/``seq_end`` on every path -- remote
          clients READ those bytes with no locks, and an unbracketed
          write is a torn read they cannot detect.
========  ==============================================================

L008 and L011 only fire inside generator functions: a function with no
yield has no scheduling boundary and nothing raises into it.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator, Optional

from repro.lint.cfg import Cfg, CfgNode, iter_function_cfgs, walk_same_scope
from repro.lint.findings import Finding
from repro.lint.rules import ModuleContext, Rule
from repro.lint.shared_state import (
    attr_chain,
    classify_chain,
    is_pool_get,
    is_resource_request,
)
from repro.verbs.enums import LEGAL_QP_TRANSITIONS

#: name -> legal successor names, derived from the enum-level table so
#: the lint layer never compares live enum members against parsed text.
_LEGAL_BY_NAME: dict[str, frozenset] = {
    src.name: frozenset(dst.name for dst in dsts)
    for src, dsts in LEGAL_QP_TRANSITIONS.items()
}


def _solve(cfg: Cfg, transfer) -> dict[int, frozenset]:
    """Forward worklist analysis; returns the IN fact set per node index.

    Facts are frozensets of tuples, join is union, and *transfer* must be
    monotone (gen/kill style) for termination.  Every node is seeded once
    so unreachable code is still transferred (with empty IN).
    """
    out: dict[int, frozenset] = {}
    work = deque(range(len(cfg.nodes)))
    queued = set(work)
    while work:
        idx = work.popleft()
        queued.discard(idx)
        node = cfg.nodes[idx]
        in_ = frozenset().union(*(out.get(p, frozenset()) for p in node.preds))
        new_out = transfer(node, in_)
        if out.get(idx) != new_out:
            out[idx] = new_out
            for succ in node.succs:
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    return {
        node.index: frozenset().union(
            *(out.get(p, frozenset()) for p in node.preds)
        )
        for node in cfg.nodes
    }


def _stored_names(node: CfgNode) -> set:
    """Local names (re)bound at this node (assignments, loop/with targets)."""
    names = set()
    for tree in node.own:
        for n in walk_same_scope(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                names.add(n.id)
    return names


def _loads(node: CfgNode) -> Iterator[ast.Name]:
    """Every ``Name`` read performed by this node's own expressions."""
    for tree in node.own:
        for n in walk_same_scope(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n


def _parent_map(node: CfgNode) -> dict[int, ast.AST]:
    """``id(child) -> parent`` for this node's own subtrees."""
    parents: dict[int, ast.AST] = {}
    for tree in node.own:
        for n in walk_same_scope(tree):
            for child in ast.iter_child_nodes(n):
                parents[id(child)] = n
    return parents


class FlowRule(Rule):
    """Base for CFG-based rules: runs :meth:`check_function` per ``def``.

    CFGs are built once per module and shared across the flow rules via a
    cache stashed on the (per-file) :class:`ModuleContext`.
    """

    scopes = ("src", "tests")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Build (or reuse) per-function CFGs and dispatch to the rule."""
        cfgs = getattr(ctx, "_flow_cfgs", None)
        if cfgs is None:
            cfgs = list(iter_function_cfgs(ctx.tree))
            ctx._flow_cfgs = cfgs
        for func, cfg in cfgs:
            yield from self.check_function(ctx, func, cfg)

    def check_function(self, ctx, func, cfg) -> Iterator[Finding]:
        """Yield findings for one function's CFG."""
        raise NotImplementedError


class StaleReadRule(FlowRule):
    """L008: shared state cached in a local must not cross a yield.

    Tracked definitions are assignments whose right-hand side reads the
    shared-state registry directly: a bare chain (``nodes =
    self.ring._nodes``), a subscript (``h = self._health[name]``) or a
    method call on a chain (``owner = self.ring.server_for(key)``).  After
    any yield the binding is *stale*; its first subsequent use is flagged.
    Re-assigning the local (from any source) clears the taint, which is
    exactly the fix the rule asks for: re-read after the boundary.
    """

    rule_id = "L008"
    title = "no shared-state local used across a yield without re-read"

    def check_function(self, ctx, func, cfg) -> Iterator[Finding]:
        """Taint locals bound from shared state; flag post-yield uses."""
        if not cfg.is_generator:
            return
        tracked: dict[str, tuple[str, str, int]] = {}
        defs_at: dict[int, set] = {}
        for node in cfg.statement_nodes():
            for var, origin in self._tracked_defs(node):
                category, chain = origin
                tracked[var] = (category, chain, node.line)
                defs_at.setdefault(node.index, set()).add(var)
        if not tracked:
            return

        def transfer(node: CfgNode, in_: frozenset) -> frozenset:
            """Kill rebound vars, stale fresh facts at yields, gen defs."""
            stored = _stored_names(node)
            facts = {(tag, var) for tag, var in in_ if var not in stored}
            if node.is_yield:
                facts = {("stale", var) for _tag, var in facts}
            for var in defs_at.get(node.index, ()):
                facts.add(("fresh", var))
            return frozenset(facts)

        in_facts = _solve(cfg, transfer)
        first_use: dict[str, tuple[int, int, int]] = {}
        for node in cfg.statement_nodes():
            stale_here = {var for tag, var in in_facts[node.index] if tag == "stale"}
            for name in _loads(node):
                if name.id not in stale_here:
                    continue
                key = (name.lineno, name.col_offset, node.index)
                if name.id not in first_use or key < first_use[name.id]:
                    first_use[name.id] = key
        for var, (line, col, idx) in sorted(first_use.items(), key=lambda kv: kv[1]):
            category, chain, def_line = tracked[var]
            yield Finding(
                path=ctx.path,
                line=line,
                col=col,
                rule_id=self.rule_id,
                message=(
                    f"'{var}' caches shared {category} state ({chain}, line "
                    f"{def_line}) and is used after a yield; other processes "
                    f"ran at the boundary -- re-read it"
                ),
            )

    @staticmethod
    def _tracked_defs(node: CfgNode) -> Iterator[tuple[str, tuple[str, str]]]:
        """``(local name, (category, chain))`` for shared-state bindings."""
        stmt = node.stmt
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            return
        if not isinstance(target, ast.Name):
            return
        origin = _shared_value_origin(value)
        if origin is not None:
            yield target.id, origin


def _shared_value_origin(value: ast.expr) -> Optional[tuple[str, str]]:
    """Classify an assignment RHS as a direct shared-state read.

    Accepts a bare registry chain, a subscript of one, or a call whose
    receiver is one.  Anything further derived (arithmetic, comprehension,
    nested calls) is treated as an intentional snapshot and left alone.
    Destructive reads (``pop``/``popleft``) are exempt: they *remove* the
    value from the shared structure, so the local is the sole reference
    and cannot go stale.
    """
    if isinstance(value, ast.Attribute):
        return classify_chain(value)
    if isinstance(value, ast.Subscript):
        return classify_chain(value.value) if isinstance(value.value, ast.Attribute) else None
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        if value.func.attr in ("pop", "popleft"):
            return None
        receiver = value.func.value
        if isinstance(receiver, ast.Attribute):
            return classify_chain(receiver)
    return None


class BufferTypestateRule(FlowRule):
    """L009: pooled buffers are released on every path, never used after.

    An acquire is ``var = <pool>.get()`` (see
    :func:`repro.lint.shared_state.is_pool_get`).  The buffer then moves
    through a three-state machine: *held* -> *released* on
    ``var.release()`` / ``<pool>.put(var)``, or *escaped* (ownership
    handed off) when ``var`` is passed to a call, returned, yielded, or
    stored into an attribute/subscript/container.  A held buffer at
    function exit is a leak; any use of a released one is a use-after-
    release.  Both are runtime-invisible until the pool drains, which is
    why the check is static.
    """

    rule_id = "L009"
    title = "pooled buffers released or handed off on all paths"

    def check_function(self, ctx, func, cfg) -> Iterator[Finding]:
        """Run the held/released/escaped typestate machine per acquire."""
        acquires: dict[str, CfgNode] = {}
        for node in cfg.statement_nodes():
            var = self._acquired_var(node.stmt)
            if var is not None and var not in acquires:
                acquires[var] = node
        if not acquires:
            return
        tracked = set(acquires)

        def transfer(node: CfgNode, in_: frozenset) -> frozenset:
            """Apply release/escape/rebind effects, then acquires."""
            released, escaped = _var_effects(node, tracked)
            facts = set()
            for tag, var in in_:
                if var in escaped:
                    continue
                if var in released and tag == "held":
                    facts.add(("released", var))
                else:
                    facts.add((tag, var))
            facts = {
                (tag, var)
                for tag, var in facts
                if var not in _stored_names(node)
            }
            acq = self._acquired_var(node.stmt)
            if acq is not None:
                facts.add(("held", acq))
            return frozenset(facts)

        in_facts = _solve(cfg, transfer)
        for node in cfg.statement_nodes():
            released_here = {
                var for tag, var in in_facts[node.index] if tag == "released"
            }
            for name in _loads(node):
                if name.id in released_here:
                    yield Finding(
                        path=ctx.path,
                        line=name.lineno,
                        col=name.col_offset,
                        rule_id=self.rule_id,
                        message=(
                            f"pooled buffer '{name.id}' used after release "
                            f"(released on some path reaching line {name.lineno})"
                        ),
                    )
        exit_in = in_facts[cfg.exit]
        for tag, var in sorted(exit_in):
            if tag != "held":
                continue
            acq = acquires[var]
            yield Finding(
                path=ctx.path,
                line=acq.line,
                col=getattr(acq.stmt, "col_offset", 0),
                rule_id=self.rule_id,
                message=(
                    f"pooled buffer '{var}' acquired here is neither released "
                    f"nor handed off on some path to function exit (pool leak)"
                ),
            )

    @staticmethod
    def _acquired_var(stmt: Optional[ast.stmt]) -> Optional[str]:
        """The target name of a ``var = <pool>.get()`` statement."""
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and is_pool_get(stmt.value)
        ):
            return stmt.targets[0].id
        return None


#: Parent node types under which reading a tracked name is *not* an
#: ownership transfer: attribute access (method call on the object),
#: subscripting its payload, and boolean/comparison tests.
_NON_ESCAPE_PARENTS = (ast.Attribute, ast.Compare, ast.BoolOp, ast.UnaryOp)


def _var_effects(node: CfgNode, tracked: set) -> tuple[set, set]:
    """``(released, escaped)`` variable names for one CFG node.

    Release: ``var.release()`` or ``<receiver>.put(var)`` /
    ``<receiver>.release(var)``.  Escape: any other read of ``var`` whose
    syntactic context hands the reference onward (call argument, return,
    assignment RHS, container literal) -- except ``yield var``, which is
    how a process *waits on* a grant, not how it gives one up.
    """
    released: set = set()
    escaped: set = set()
    parents = _parent_map(node)
    for name in _loads(node):
        if name.id not in tracked:
            continue
        parent = parents.get(id(name))
        if isinstance(parent, ast.Call):
            func = parent.func
            if isinstance(func, ast.Attribute) and func.attr in ("release", "put"):
                if name in parent.args:
                    released.add(name.id)
                    continue
            if name in parent.args or any(kw.value is name for kw in parent.keywords):
                escaped.add(name.id)
                continue
        if isinstance(parent, ast.Attribute) and parent.attr in ("release",):
            # ``var.release()`` -- the Name is the call receiver.
            released.add(name.id)
            continue
        if isinstance(parent, _NON_ESCAPE_PARENTS):
            continue
        if isinstance(parent, ast.Subscript) and parent.value is name:
            continue
        if isinstance(parent, (ast.Yield, ast.YieldFrom)):
            continue
        escaped.add(name.id)
    return released, escaped


class QpTransitionRule(FlowRule):
    """L010: QP state writes follow the legal transition table.

    Tracks facts ``(receiver, state)`` for every ``<receiver>.state =
    QpState.X`` assignment.  When a write is reachable from a previous
    write along any path, the pair must appear in
    :data:`~repro.verbs.enums.LEGAL_QP_TRANSITIONS`.  The first write in
    a function is unchecked (the analysis is intraprocedural and does not
    know the inbound state).
    """

    rule_id = "L010"
    title = "QP state writes follow LEGAL_QP_TRANSITIONS"

    def check_function(self, ctx, func, cfg) -> Iterator[Finding]:
        """Propagate possible QP states; flag illegal consecutive writes."""
        writes: dict[int, tuple[str, str]] = {}
        for node in cfg.statement_nodes():
            write = self._state_write(node.stmt)
            if write is not None:
                writes[node.index] = write
        if not writes:
            return

        def transfer(node: CfgNode, in_: frozenset) -> frozenset:
            """A state write replaces every fact for its receiver."""
            write = writes.get(node.index)
            if write is None:
                return in_
            receiver, state = write
            facts = {f for f in in_ if f[0] != receiver}
            facts.add((receiver, state))
            return frozenset(facts)

        in_facts = _solve(cfg, transfer)
        for idx, (receiver, new_state) in sorted(writes.items()):
            node = cfg.nodes[idx]
            for src_receiver, src_state in sorted(in_facts[idx]):
                if src_receiver != receiver:
                    continue
                legal = _LEGAL_BY_NAME.get(src_state, frozenset())
                if new_state in legal:
                    continue
                yield Finding(
                    path=ctx.path,
                    line=node.line,
                    col=getattr(node.stmt, "col_offset", 0),
                    rule_id=self.rule_id,
                    message=(
                        f"illegal QP transition {src_state} -> {new_state} on "
                        f"{receiver} (legal: {', '.join(sorted(legal)) or 'none'})"
                    ),
                )

    @staticmethod
    def _state_write(stmt: Optional[ast.stmt]) -> Optional[tuple[str, str]]:
        """``(receiver source text, state name)`` for ``x.state = QpState.S``."""
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return None
        target = stmt.targets[0]
        if not (isinstance(target, ast.Attribute) and target.attr == "state"):
            return None
        value = stmt.value
        if not isinstance(value, ast.Attribute):
            return None
        chain = attr_chain(value)
        if chain is None or len(chain) < 2 or chain[-2] != "QpState":
            return None
        if value.attr not in _LEGAL_BY_NAME:
            return None
        return ast.unparse(target.value), value.attr


class InterruptSafetyRule(FlowRule):
    """L011: resource grants held at a yield need try/finally release.

    Exceptions arrive *at the yield point*: a failed or ``Expired`` event
    the process waits on, or ``GeneratorExit`` when an abandoned process
    is closed.  A process holding a ``request()`` or ``hold(...)`` grant
    when that happens must release it in a ``finally``, or the resource
    wedges for every later requester.  The rule walks each generator: from
    the statement that binds *var* to a resource's ``request()`` /
    ``hold(...)`` onward, every yield reachable while the request is live
    -- the grant's own yield included, granted or not yet -- must sit
    under a ``try`` whose ``finally`` releases *var*.
    """

    rule_id = "L011"
    title = "resource requests held across yields are finally-protected"

    def check_function(self, ctx, func, cfg) -> Iterator[Finding]:
        """Track live requests; flag unprotected yields while held."""
        if not cfg.is_generator:
            return
        acquires: dict[str, CfgNode] = {}
        for node in cfg.statement_nodes():
            var = self._requested_var(node.stmt)
            if var is not None and var not in acquires:
                acquires[var] = node
        if not acquires:
            return
        tracked = set(acquires)

        def transfer(node: CfgNode, in_: frozenset) -> frozenset:
            """Drop released/escaped/rebound requests, gen new ones."""
            released, escaped = _var_effects(node, tracked)
            facts = {
                ("held", var)
                for _tag, var in in_
                if var not in released
                and var not in escaped
                and var not in _stored_names(node)
            }
            acq = self._requested_var(node.stmt)
            if acq is not None:
                facts.add(("held", acq))
            return frozenset(facts)

        in_facts = _solve(cfg, transfer)
        offending: dict[str, int] = {}
        for node in cfg.statement_nodes():
            if not node.is_yield:
                continue
            for _tag, var in in_facts[node.index]:
                if self._protected(node, var):
                    continue
                if var not in offending or node.line < offending[var]:
                    offending[var] = node.line
        for var, yield_line in sorted(offending.items(), key=lambda kv: kv[1]):
            acq = acquires[var]
            yield Finding(
                path=ctx.path,
                line=acq.line,
                col=getattr(acq.stmt, "col_offset", 0),
                rule_id=self.rule_id,
                message=(
                    f"request '{var}' is held across the yield at line "
                    f"{yield_line} without try/finally release; "
                    "an exception raised at a yield would leak the grant"
                ),
            )

    @staticmethod
    def _requested_var(stmt: Optional[ast.stmt]) -> Optional[str]:
        """The target name of a statement binding a resource's
        ``request()`` or ``hold(...)`` to a local."""
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and is_resource_request(stmt.value)
        ):
            return stmt.targets[0].id
        return None

    @staticmethod
    def _protected(node: CfgNode, var: str) -> bool:
        """Is *node* under a ``finally`` that releases *var*?"""
        for try_stmt in node.finallies:
            for stmt in try_stmt.finalbody:
                for n in walk_same_scope(stmt):
                    if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
                        continue
                    if n.func.attr != "release":
                        continue
                    receiver = n.func.value
                    if isinstance(receiver, ast.Name) and receiver.id == var:
                        return True
                    if any(isinstance(a, ast.Name) and a.id == var for a in n.args):
                        return True
        return False


#: The packed per-entry field names of the exported one-sided index
#: (``repro.memcached.onesided.layout.ENTRY_FORMAT``).  Every store to
#: one of these on index state is governed by the seqlock.
_ENTRY_FIELDS = frozenset(
    {
        "version",
        "key_hash",
        "value_rkey",
        "value_offset",
        "value_length",
        "flags",
        "cas",
        "deadline_us",
    }
)

#: The only functions allowed to move an entry's version field.
_SEQLOCK_HELPERS = frozenset({"seq_begin", "seq_end"})


class SeqlockWriteRule(FlowRule):
    """L012: exported-index entry writes happen under the seqlock.

    The tracked shape is the index's own idiom: a local bound from a
    subscript of onesided-registered state (``slot = self._mirror[b]``).
    From its definition the local is *unbracketed*; a statement calling
    ``.seq_begin(...)`` brackets every tracked local, ``.seq_end(...)``
    unbrackets them again.  An entry-field store on a local that is
    unbracketed along any path is flagged -- a remote RDMA READ racing
    that write would see a half-updated entry with a perfectly even
    version, the exact corruption the protocol exists to prevent.

    Two shapes are flagged unconditionally: any write to ``version``
    outside the seqlock helpers themselves (the version *is* the lock;
    only ``seq_begin``/``seq_end`` may move it), and a direct store
    through the shared chain (``self._mirror[b].cas = ...``) -- route it
    through a bracketed local so the bracketing is checkable.
    """

    rule_id = "L012"
    title = "exported-index entry writes are seqlock-bracketed"

    def check_function(self, ctx, func, cfg) -> Iterator[Finding]:
        """Track bracket state per slot local; flag unbracketed writes."""
        if func.name in _SEQLOCK_HELPERS:
            return
        tracked: set = set()
        defs_at: dict[int, set] = {}
        writes: list[tuple[CfgNode, object, str]] = []
        for node in cfg.statement_nodes():
            var = self._slot_def(node.stmt)
            if var is not None:
                tracked.add(var)
                defs_at.setdefault(node.index, set()).add(var)
            writes.extend(self._entry_writes(node))
        if not writes:
            return

        def transfer(node: CfgNode, in_: frozenset) -> frozenset:
            """Rebinding kills; seq_begin/seq_end flip; defs gen."""
            stored = _stored_names(node)
            facts = {(tag, var) for tag, var in in_ if var not in stored}
            calls = self._seqlock_calls(node)
            if "seq_begin" in calls:
                facts = {("bracketed", var) for _tag, var in facts}
            if "seq_end" in calls:
                facts = {("unbracketed", var) for _tag, var in facts}
            for var in defs_at.get(node.index, ()):
                facts.add(("unbracketed", var))
            return frozenset(facts)

        in_facts = _solve(cfg, transfer)
        for node, receiver, field in writes:
            if isinstance(receiver, str):
                if receiver not in tracked:
                    continue  # some unrelated object with a same-named field
                if field == "version":
                    yield Finding(
                        path=ctx.path,
                        line=node.line,
                        col=getattr(node.stmt, "col_offset", 0),
                        rule_id=self.rule_id,
                        message=(
                            f"'{receiver}.version' written by hand; the version "
                            f"is the seqlock itself -- only seq_begin/seq_end "
                            f"may move it"
                        ),
                    )
                elif ("unbracketed", receiver) in in_facts[node.index]:
                    yield Finding(
                        path=ctx.path,
                        line=node.line,
                        col=getattr(node.stmt, "col_offset", 0),
                        rule_id=self.rule_id,
                        message=(
                            f"exported entry field '{receiver}.{field}' written "
                            f"outside a seq_begin/seq_end bracket on some path; "
                            f"remote readers would see a torn entry with an even "
                            f"version"
                        ),
                    )
            else:
                yield Finding(
                    path=ctx.path,
                    line=node.line,
                    col=getattr(node.stmt, "col_offset", 0),
                    rule_id=self.rule_id,
                    message=(
                        f"exported entry field '{field}' stored through the "
                        f"shared index chain directly; bind the slot to a local "
                        f"and bracket it with seq_begin/seq_end"
                    ),
                )

    @staticmethod
    def _slot_def(stmt: Optional[ast.stmt]) -> Optional[str]:
        """The target of ``var = <onesided chain>[...]`` (a slot binding)."""
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Subscript)
            and isinstance(stmt.value.value, ast.Attribute)
        ):
            return None
        hit = classify_chain(stmt.value.value)
        if hit is not None and hit[0] == "onesided":
            return stmt.targets[0].id
        return None

    @staticmethod
    def _entry_writes(node: CfgNode) -> Iterator[tuple[CfgNode, object, str]]:
        """``(node, receiver, field)`` for entry-field stores at this node.

        *receiver* is the local's name for ``slot.field = ...`` shapes,
        or the target AST node for direct shared-chain stores.
        """
        stmt = node.stmt
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            return
        for target in targets:
            if not (
                isinstance(target, ast.Attribute) and target.attr in _ENTRY_FIELDS
            ):
                continue
            receiver = target.value
            if isinstance(receiver, ast.Name):
                yield node, receiver.id, target.attr
                continue
            chain = receiver.value if isinstance(receiver, ast.Subscript) else receiver
            if isinstance(chain, ast.Attribute):
                hit = classify_chain(chain)
                if hit is not None and hit[0] == "onesided":
                    yield node, target, target.attr

    @staticmethod
    def _seqlock_calls(node: CfgNode) -> set:
        """Seqlock helper names (``seq_begin``/``seq_end``) called here."""
        calls: set = set()
        for tree in node.own:
            for n in walk_same_scope(tree):
                if (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in _SEQLOCK_HELPERS
                ):
                    calls.add(n.func.attr)
        return calls


#: The dataflow rules, in report order (opt-in via ``--flow``).
FLOW_RULES: tuple[FlowRule, ...] = (
    StaleReadRule(),
    BufferTypestateRule(),
    QpTransitionRule(),
    InterruptSafetyRule(),
    SeqlockWriteRule(),
)
