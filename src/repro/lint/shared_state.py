"""The shared-state registry: what the flow rules treat as racy.

Every process in this repository is a generator; between any two yields
*other* processes run and may mutate state reachable through ``self`` or
a module global.  The flow rules (L008-L011) only reason about state
that is actually shared and actually mutated mid-run -- this module is
the single place that knowledge lives.

The registry maps *attribute names* to a category.  An expression like
``self.ring.server_for(key)`` or ``qp._recv_queue.popleft()`` is
classified by walking its attribute chain from the root name: if any
link is a registered attribute, the whole chain is shared state of that
category.  Chains that *terminate* in a :data:`STABLE_ATTRS` name are
exempt -- those are references fixed at construction time (``.sim``,
``.node``, ``.params``...), so caching them in a local across a yield is
safe even when the chain passes through a shared object.

Keeping the registry small and literal is a feature: a new mutable
subsystem (e.g. the ROADMAP's one-sided GET index or migration state)
gets race checking by adding one line here, and a noisy entry can be
reviewed and removed in isolation.
"""

from __future__ import annotations

import ast
from typing import Optional

#: category -> attribute names that reach mutable shared state of that
#: kind.  Grounded in the actual field names of the tree (store.py,
#: slabs.py, buffers.py, cq.py, qp.py, router.py, client.py,
#: controller.py); the flow tests pin the classification behavior.
REGISTRY: dict[str, tuple[str, ...]] = {
    # The memcached store and its key index (ItemStore.by_key).
    "store": ("store", "by_key"),
    # Slab allocator state (size classes, per-class LRUs, free chunk
    # lists: ItemStore.slabs / .lrus).
    "slabs": ("slabs", "lrus", "free_chunks"),
    # Registered-buffer pools and staged rendezvous buffers.
    "pool": ("recv_pool", "_rdv_pools", "_staged", "_free"),
    # Completion queues and their backing CQE lists.
    "cq": ("cq", "send_cq", "recv_cq", "_cqes"),
    # Queue pairs and per-QP/per-endpoint caches (state transitions are
    # L010's job; QP-reachable queues race like any other shared state).
    "qp": ("qp", "_recv_queue", "_endpoints"),
    # Key distribution (a client's ``distribution``, a consistent-hash
    # ring's membership and derived routing tables).
    "ring": ("ring", "distribution", "_ring", "_nodes", "_points"),
    # Client-side failover health and in-flight request tables.
    "failover": ("_health", "_pending"),
    # Chaos controller arming latch (fault injection toggles mid-run).
    "chaos": ("_armed",),
    # The one-sided GET index (store.onesided / server.onesided_index)
    # and ``_mirror``, the slot table the L012 fixtures bind entries
    # from: in src/ the index keeps no mutable entry objects.  Remote
    # clients READ these buckets, so L012 holds any entry-field write
    # to the seqlock discipline.
    "onesided": ("onesided", "onesided_index", "_mirror"),
}

#: attribute name -> category (flattened view of :data:`REGISTRY`).
ATTR_TO_CATEGORY: dict[str, str] = {
    attr: category for category, attrs in REGISTRY.items() for attr in attrs
}

#: Chain *terminals* that denote construction-time-fixed references.
#: ``self.cluster.sim`` passes through shared state but lands on a
#: reference that never changes for the object's lifetime; caching it in
#: a local is safe and idiomatic throughout the tree.
STABLE_ATTRS = frozenset(
    {
        "sim",
        "node",
        "nodes",
        "hca",
        "params",
        "spec",
        "host",
        "name",
        "runtime",
        "context",
        "transport",
        "policy",
        "costs",
        "schedule",
        "pd",
        "mr",
        "codec",
        "_codec",
    }
)

#: Attribute names whose ``.get()`` result is a pooled buffer (the L009
#: acquire surface).  ``.get()`` alone is far too generic (dict.get);
#: the receiver must look like a buffer pool.
POOL_RECEIVERS = frozenset({"pool", "recv_pool", "_pool", "send_pool", "bounce_pool"})
#: Call names that *return* a buffer pool (``<x>.rendezvous_pool_for(n).get()``).
POOL_FACTORIES = frozenset({"rendezvous_pool_for"})


def attr_chain(expr: ast.expr) -> Optional[tuple[str, ...]]:
    """``self.ring._nodes`` -> ``("self", "ring", "_nodes")``; None when
    the expression is not a pure name/attribute chain (calls and
    subscripts end the chain but keep their prefix)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def classify_chain(expr: ast.expr) -> Optional[tuple[str, str]]:
    """``(category, dotted chain)`` when *expr* reads shared state.

    The chain must be rooted at a plain name (``self``, ``cls`` or a
    module-level object) and touch a registered attribute; chains ending
    in a :data:`STABLE_ATTRS` terminal are exempt (see module docstring).
    """
    chain = attr_chain(expr)
    if chain is None or len(chain) < 2:
        return None
    if chain[-1] in STABLE_ATTRS:
        return None
    for link in chain[1:]:
        category = ATTR_TO_CATEGORY.get(link)
        if category is not None:
            return category, ".".join(chain)
    return None


def is_pool_get(call: ast.expr) -> bool:
    """``<pool-ish>.get()``: the static acquire point of a PooledBuffer.

    Matches a receiver whose final attribute is a registered pool name
    (``self.runtime.recv_pool.get()``) or a pool-factory call
    (``self.runtime.rendezvous_pool_for(n).get()``).
    """
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "get"
        and not call.args
        and not call.keywords
    ):
        return False
    recv = call.func.value
    if isinstance(recv, ast.Attribute) and recv.attr in POOL_RECEIVERS:
        return True
    if isinstance(recv, ast.Name) and recv.id in POOL_RECEIVERS:
        return True
    if (
        isinstance(recv, ast.Call)
        and isinstance(recv.func, ast.Attribute)
        and recv.func.attr in POOL_FACTORIES
    ):
        return True
    return False


def is_resource_request(call: ast.expr) -> bool:
    """A no-argument ``request()`` or a ``hold(...)`` method call: the
    acquire points of a sim Resource."""
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
        return False
    if call.func.attr == "hold":
        return True
    return call.func.attr == "request" and not call.args and not call.keywords
