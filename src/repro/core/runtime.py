"""The per-node UCR runtime: registries, pools, listening.

One :class:`UcrRuntime` exists per node per HCA.  It owns the protection
domain, the connection manager, the registered buffer pools, the message
handler table and the counter registry; :class:`~repro.core.context.UcrContext`
instances (threads) hang off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.buffers import BufferPool
from repro.core.context import UcrContext
from repro.core.counters import UcrCounter
from repro.core.endpoint import Endpoint
from repro.core.params import UCR_DEFAULT, UcrParams
from repro.telemetry import tracer
from repro.verbs.cm import ConnectionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.topology import Node
    from repro.sim import Simulator
    from repro.verbs.device import Hca

#: Header handler: ``(endpoint, header, data_length) -> dest | None`` where
#: dest is ``(mr, offset)`` or a PooledBuffer-like object.
HeaderHandler = Callable[[Endpoint, Any, int], Any]
#: Completion handler: a generator (process helper) run by the progress
#: engine once data is in place.
CompletionHandler = Callable[[Endpoint, Any, bytes], Generator]

_counter_ids = itertools.count(1)

#: Rendezvous staging size classes (bytes).
_RDV_CLASSES = (16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024)


@dataclass(slots=True)
class HandlerEntry:
    """One registered active-message id."""

    msg_id: int
    header_handler: Optional[HeaderHandler]
    completion_handler: Optional[CompletionHandler]


class UcrRuntime:
    """Node-wide UCR state (see module docstring)."""

    __slots__ = (
        "sim",
        "node",
        "hca",
        "params",
        "name",
        "pd",
        "cm",
        "recv_pool",
        "_rdv_pools",
        "_handlers",
        "_counters",
        "srq",
    )

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        hca: "Hca",
        params: UcrParams = UCR_DEFAULT,
    ) -> None:
        self.sim = sim
        self.node = node
        self.hca = hca
        self.params = params
        self.name = f"ucr@{node.name}"
        self.pd = hca.alloc_pd()
        self.cm = ConnectionManager(hca)
        self.recv_pool = BufferPool(
            self.pd,
            params.recv_buffer_bytes,
            initial=4 * (params.credits + 16),
            name=f"{self.name}.recv",
        )
        self._rdv_pools: dict[int, BufferPool] = {}
        self._handlers: dict[int, HandlerEntry] = {}
        self._counters: dict[int, UcrCounter] = {}
        #: Lazily created shared receive queue (params.use_srq mode).
        self.srq = None

    # -- shared receive queue (params.use_srq) -----------------------------------

    def ensure_srq(self):
        """Create and fill the shared receive pool on first use."""
        if self.srq is None:
            self.srq = self.hca.create_srq(
                max_wr=self.params.srq_depth,
                low_watermark=max(16, self.params.srq_depth // 8),
                name=f"{self.name}.srq",
            )
            self.srq.on_low = self._refill_srq
            self._refill_srq(self.srq)
        return self.srq

    def _refill_srq(self, srq) -> None:
        from repro.verbs.wr import RecvWR, Sge

        while len(srq) < self.params.srq_depth:
            buf = self.recv_pool.get()
            srq.post_recv(RecvWR(sge=Sge(buf.mr), context=buf))

    # -- contexts ---------------------------------------------------------------

    def create_context(self, name: str = "") -> UcrContext:
        """One progress engine per modeled thread."""
        return UcrContext(self, name or f"ctx{len(self._counters)}")

    # -- counters ------------------------------------------------------------------

    def create_counter(self, name: str = "") -> UcrCounter:
        """Allocate a counter with a wire-visible id."""
        cid = next(_counter_ids)
        counter = UcrCounter(self.sim, cid, name=name or f"{self.name}.cntr{cid}")
        self._counters[cid] = counter
        return counter

    def counter_by_id(self, cid: int) -> Optional[UcrCounter]:
        return self._counters.get(cid)

    # -- handlers --------------------------------------------------------------------

    def register_handler(
        self,
        msg_id: int,
        header_handler: Optional[HeaderHandler] = None,
        completion_handler: Optional[CompletionHandler] = None,
    ) -> None:
        """Bind an active-message id to its target-side handlers."""
        if msg_id in self._handlers:
            raise ValueError(f"{self.name}: msg_id {msg_id} already registered")
        self._handlers[msg_id] = HandlerEntry(msg_id, header_handler, completion_handler)

    def handler_for(self, msg_id: int) -> HandlerEntry:
        try:
            return self._handlers[msg_id]
        except KeyError:
            raise KeyError(f"{self.name}: no handler for msg_id {msg_id}") from None

    # -- rendezvous staging --------------------------------------------------------------

    def rendezvous_pool_for(self, nbytes: int) -> BufferPool:
        """Size-class staging pool able to hold *nbytes*."""
        for cls in _RDV_CLASSES:
            if nbytes <= cls:
                pool = self._rdv_pools.get(cls)
                if pool is None:
                    pool = BufferPool(
                        self.pd, cls, initial=4, name=f"{self.name}.rdv{cls}"
                    )
                    self._rdv_pools[cls] = pool
                return pool
        raise ValueError(
            f"payload of {nbytes} bytes exceeds the largest rendezvous class "
            f"({_RDV_CLASSES[-1]} bytes)"
        )

    # -- listening ----------------------------------------------------------------------

    def listen(
        self,
        service_id: int,
        select_context: Callable[[], UcrContext],
        on_endpoint: Callable[[Endpoint, Any], None],
    ) -> None:
        """Accept endpoints on *service_id*.

        *select_context* picks the context (worker thread) each new
        endpoint is assigned to -- memcached passes a round-robin selector,
        matching the paper's worker-assignment policy (§V-A).  The new
        endpoint pre-posts its receive window before the connection reply
        leaves, so the client's first message never finds the server
        unprepared.
        """
        pending: dict[str, UcrContext] = {}

        def make_cqs():
            """Pick the context for the incoming endpoint; hand over its CQ."""
            ctx = select_context()
            pending["ctx"] = ctx
            return (ctx.cq, ctx.cq)

        def on_prepare(qp, private_data):
            """Create the endpoint (pre-posting receives) before the REP."""
            ctx = pending.pop("ctx")
            ep = Endpoint(ctx, qp, peer_label=str(private_data))
            qp._ucr_endpoint = ep

        def on_connected(qp, private_data):
            if tracer.enabled:
                tracer.instant(
                    "am.accept", "am", self.sim.now,
                    service_id=service_id, peer=str(private_data),
                )
            on_endpoint(qp._ucr_endpoint, private_data)

        self.cm.listen(service_id, on_connected, self.pd, make_cqs, on_prepare)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcrRuntime {self.name} handlers={len(self._handlers)}>"
