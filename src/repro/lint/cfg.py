"""Per-function control-flow graphs with yield points marked.

The flow rules (L008-L011, :mod:`repro.lint.flow`) need to reason about
*what can run between two statements*.  In this repository that question
has one answer: a ``yield`` (or ``yield from``).  Every process is a
generator driven by the simulator, so a yield is the exact set of points
where other processes run and shared state can change -- and, because
a failed or ``Expired`` event (or ``GeneratorExit`` on close) is thrown in
at the wait point, the exact set of points where an exception can appear
"from nowhere".

This module builds a statement-level CFG per function:

- **One node per statement.**  Compound statements (``if``/``while``/
  ``for``/``try``/``with``) contribute a *header* node owning only the
  expressions evaluated at that point (test, iterator, context items);
  their nested statements are separate nodes.  The bijection "every
  statement is exactly one node" is a tested invariant.
- **Yield marking.**  A node records the ``Yield``/``YieldFrom``
  expressions it evaluates (never descending into nested ``def``/
  ``lambda`` bodies, which are their own code objects with their own
  CFGs).
- **Finally protection.**  Each node carries the stack of enclosing
  ``try`` statements that have a ``finally`` clause, so rules can check
  structurally whether an exception landing at the node runs a cleanup.

Exception edges are over-approximated: every node inside a ``try`` gets
an edge to each handler entry and to the ``finally`` entry, carrying the
node's *pre*-state (the exception may fire before the statement's effect
lands).  ``return``/``break``/``continue`` keep their direct edge to
their target in addition to registering with enclosing ``finally``
frames.  Extra edges make the any-path analyses conservative (more
warnings, never missed paths), which is the right polarity for a race
detector.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Node kinds that open a new code object; traversals never descend.
_NEW_SCOPE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def walk_same_scope(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that stops at nested function/class/lambda bodies.

    The root's own children are always visited (so passing a ``def``
    iterates its body without entering functions defined inside it).
    """
    yield root
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NEW_SCOPE):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _yields_in(owned: list) -> list:
    """Yield/YieldFrom expressions evaluated by a node's own ASTs."""
    found = []
    for tree in owned:
        if isinstance(tree, _NEW_SCOPE):
            continue  # a nested def evaluates nothing at its own node
        for node in walk_same_scope(tree):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                found.append(node)
    return found


@dataclass
class CfgNode:
    """One statement (or the synthetic entry/exit) in a function CFG."""

    index: int
    stmt: Optional[ast.stmt]
    label: str
    succs: set = field(default_factory=set)
    preds: set = field(default_factory=set)
    #: The AST subtrees evaluated *at this node* (header expressions for
    #: compound statements, the whole statement otherwise).
    own: list = field(default_factory=list)
    #: Yield/YieldFrom expressions among ``own``.
    yields: list = field(default_factory=list)
    #: Enclosing ``ast.Try`` statements with a ``finally`` clause,
    #: innermost last (structural, not path-based).
    finallies: tuple = ()

    @property
    def is_yield(self) -> bool:
        """True when executing this node can suspend the process."""
        return bool(self.yields)

    @property
    def line(self) -> int:
        """Source line of the statement (0 for synthetic nodes)."""
        return getattr(self.stmt, "lineno", 0)


@dataclass
class _TryFrame:
    """Bookkeeping for one ``try`` statement during construction.

    ``catches`` distinguishes the body (exceptions reach the handlers
    *and* the finally) from the handler/else clauses (exceptions skip
    sibling handlers but still run the finally).
    """

    stmt: ast.Try
    catches: bool = True
    #: Nodes whose execution may raise into this frame.
    covered: list = field(default_factory=list)


class Cfg:
    """The control-flow graph of one function (see module docstring)."""

    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.nodes: list[CfgNode] = []
        self._loop_stack: list[dict] = []
        self._try_stack: list[_TryFrame] = []
        self.entry = self._raw_node(None, "entry")
        self.exit = self._raw_node(None, "exit")
        frontier = self._build_body(func.body, {self.entry})
        self._link(frontier, self.exit)
        self.is_generator = any(node.yields for node in self.nodes)
        #: ``id(stmt) -> node index`` for every statement in the function.
        self.stmt_index = {
            id(node.stmt): node.index for node in self.nodes if node.stmt is not None
        }

    # -- queries -----------------------------------------------------------

    def node_of(self, stmt: ast.stmt) -> CfgNode:
        """The node owning *stmt* (KeyError for foreign statements)."""
        return self.nodes[self.stmt_index[id(stmt)]]

    def statement_nodes(self) -> list[CfgNode]:
        """All non-synthetic nodes, in creation (roughly source) order."""
        return [n for n in self.nodes if n.stmt is not None]

    def yield_nodes(self) -> list[CfgNode]:
        """Nodes that can suspend the process."""
        return [n for n in self.nodes if n.is_yield]

    def reachable(self) -> set:
        """Node indices reachable from the entry."""
        seen = {self.entry}
        work = [self.entry]
        while work:
            for succ in self.nodes[work.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    # -- construction ------------------------------------------------------

    def _raw_node(self, stmt: Optional[ast.stmt], label: str, own: Optional[list] = None) -> int:
        node = CfgNode(index=len(self.nodes), stmt=stmt, label=label, own=own or [])
        node.yields = _yields_in(node.own)
        node.finallies = tuple(
            frame.stmt for frame in self._try_stack if frame.stmt.finalbody
        )
        self.nodes.append(node)
        return node.index

    def _stmt_node(self, stmt: ast.stmt, label: str, own: list) -> int:
        idx = self._raw_node(stmt, label, own)
        # The statement may raise into every enclosing try frame.
        for frame in self._try_stack:
            frame.covered.append(idx)
        return idx

    def _link(self, sources, target: int) -> None:
        for src in sources:
            self.nodes[src].succs.add(target)
            self.nodes[target].preds.add(src)

    def _build_body(self, stmts: list, frontier: set) -> set:
        for stmt in stmts:
            frontier = self._build_stmt(stmt, frontier)
        return frontier

    def _build_stmt(self, stmt: ast.stmt, frontier: set) -> set:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, frontier)
        # Simple statement (includes nested def/class as opaque nodes).
        own = [] if isinstance(stmt, _NEW_SCOPE) else [stmt]
        idx = self._stmt_node(stmt, type(stmt).__name__, own)
        self._link(frontier, idx)
        if isinstance(stmt, ast.Return):
            self._link({idx}, self.exit)
            return set()
        if isinstance(stmt, ast.Raise):
            return set()  # flows into handlers via covered registration
        if isinstance(stmt, ast.Break):
            if self._loop_stack:
                self._loop_stack[-1]["breaks"].append(idx)
            return set()
        if isinstance(stmt, ast.Continue):
            if self._loop_stack:
                self._link({idx}, self._loop_stack[-1]["header"])
            return set()
        return {idx}

    def _build_if(self, stmt: ast.If, frontier: set) -> set:
        idx = self._stmt_node(stmt, "if", [stmt.test])
        self._link(frontier, idx)
        out = self._build_body(stmt.body, {idx})
        if stmt.orelse:
            out |= self._build_body(stmt.orelse, {idx})
        else:
            out |= {idx}  # condition false: fall through
        return out

    def _build_loop(self, stmt, frontier: set) -> set:
        if isinstance(stmt, ast.While):
            own, label = [stmt.test], "while"
        else:
            own, label = [stmt.target, stmt.iter], "for"
        header = self._stmt_node(stmt, label, own)
        self._link(frontier, header)
        self._loop_stack.append({"header": header, "breaks": []})
        body_end = self._build_body(stmt.body, {header})
        self._link(body_end, header)  # back edge
        frame = self._loop_stack.pop()
        # Normal loop exit (condition false / iterator exhausted) runs the
        # else clause; break jumps past it.
        if stmt.orelse:
            after = self._build_body(stmt.orelse, {header})
        else:
            after = {header}
        return after | set(frame["breaks"])

    def _build_with(self, stmt, frontier: set) -> set:
        idx = self._stmt_node(stmt, "with", list(stmt.items))
        self._link(frontier, idx)
        return self._build_body(stmt.body, {idx})

    def _build_match(self, stmt: ast.Match, frontier: set) -> set:
        idx = self._stmt_node(stmt, "match", [stmt.subject])
        self._link(frontier, idx)
        out: set = {idx}  # no case may match
        for case in stmt.cases:
            out |= self._build_body(case.body, {idx})
        return out

    def _build_try(self, stmt: ast.Try, frontier: set) -> set:
        idx = self._stmt_node(stmt, "try", [])
        self._link(frontier, idx)
        frame = _TryFrame(stmt, catches=True)
        self._try_stack.append(frame)
        body_end = self._build_body(stmt.body, {idx})
        self._try_stack.pop()
        # Handler/else clauses: exceptions there skip sibling handlers but
        # still run the finally, so they build under a non-catching frame.
        fin_frame = _TryFrame(stmt, catches=False) if stmt.finalbody else None
        if fin_frame is not None:
            self._try_stack.append(fin_frame)
        handler_ends: set = set()
        for handler in stmt.handlers:
            before = len(self.nodes)
            h_end = self._build_body(handler.body, set())
            if before < len(self.nodes):  # entered from any covered node
                self._link(frame.covered, before)
            handler_ends |= h_end
        if stmt.orelse:
            body_end = self._build_body(stmt.orelse, body_end)
        if fin_frame is not None:
            self._try_stack.pop()
        out = body_end | handler_ends
        if stmt.finalbody:
            before = len(self.nodes)
            out = self._build_body(stmt.finalbody, out)
            if before < len(self.nodes):
                # Exceptional entry: body, handler and else nodes may all
                # jump straight to the finally.
                self._link(frame.covered, before)
                if fin_frame is not None:
                    self._link(fin_frame.covered, before)
        return out


def build_cfg(func: FunctionNode) -> Cfg:
    """Construct the CFG of one ``def``."""
    return Cfg(func)


def iter_function_cfgs(tree: ast.Module) -> Iterator[tuple]:
    """``(function node, Cfg)`` for every function in *tree* (nested too)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, Cfg(node)
