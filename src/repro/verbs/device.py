"""The HCA: adapter-level routing, QP/CQ/PD factories.

One :class:`Hca` owns one NIC.  Its receive path demultiplexes inbound
packets to queue pairs by destination QP number and calls the responder
actions in the delivering frame's step -- entirely "in hardware" (no host
CPU resource is ever touched here, and no process is started).
"""

from __future__ import annotations

import itertools
import weakref
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim import Resource
from repro.verbs.cq import CompletionQueue
from repro.verbs.enums import WcStatus
from repro.verbs.mr import ProtectionDomain
from repro.verbs.packets import CmPacket, IbPacket
from repro.verbs.params import HcaParams
from repro.verbs.qp import QueuePair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.link import Frame, Nic
    from repro.sim import Simulator

_qp_nums = itertools.count(100)

#: Fabric-wide QP directory (QP numbers are unique across the process, like
#: LID+QPN pairs on a real fabric).  Used to route RDMA READ responses and
#: CM datagrams back to the right adapter.  Weak towards the adapters: a
#: dropped cluster takes its entries with it, so nothing module-level keeps
#: a ``Simulator`` and everything it reaches alive.
_qpn_registry: "weakref.WeakValueDictionary[int, Hca]" = weakref.WeakValueDictionary()


class Hca:
    """A host channel adapter bound to one fabric NIC."""

    __slots__ = ("sim", "nic", "params", "tx_engine", "_qps", "cm_handler", "__weakref__")

    def __init__(self, sim: "Simulator", nic: "Nic", params: HcaParams) -> None:
        self.sim = sim
        self.nic = nic
        self.params = params
        #: Single WQE-processing pipeline shared by all QPs on the adapter.
        self.tx_engine = Resource(sim, capacity=1, name=f"{nic.name}.hca-engine")
        self._qps: dict[int, QueuePair] = {}
        #: Installed by the connection manager, if one is attached.
        self.cm_handler: Optional[Callable[[CmPacket], None]] = None
        nic.install_rx_handler(self._on_frame)
        nic.owner = self

    # -- factories ---------------------------------------------------------------

    def alloc_pd(self) -> ProtectionDomain:
        return ProtectionDomain(self)

    def create_cq(self, depth: int = 4096, name: str = "") -> CompletionQueue:
        return CompletionQueue(self.sim, depth=depth, name=name or f"{self.nic.name}.cq")

    def create_srq(self, max_wr: int = 4096, low_watermark: int = 16, name: str = ""):
        """Create a shared receive queue for this adapter's QPs."""
        from repro.verbs.srq import SharedReceiveQueue

        return SharedReceiveQueue(
            self.sim, max_wr=max_wr, low_watermark=low_watermark,
            name=name or f"{self.nic.name}.srq",
        )

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 1024,
        max_recv_wr: int = 1024,
        srq=None,
    ) -> QueuePair:
        """Create and register a queue pair on this adapter."""
        qpn = next(_qp_nums)
        qp = QueuePair(
            self,
            qpn,
            pd,
            send_cq,
            recv_cq,
            max_send_wr=max_send_wr,
            max_recv_wr=max_recv_wr,
            srq=srq,
        )
        self._qps[qpn] = qp
        _qpn_registry[qpn] = self
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """Flush *qp* and remove it from the routing tables."""
        qp.to_error()
        self._qps.pop(qp.qp_num, None)
        _qpn_registry.pop(qp.qp_num, None)

    def qp(self, qpn: int) -> QueuePair:
        try:
            return self._qps[qpn]
        except KeyError:
            raise KeyError(f"{self.nic.name}: unknown QP number {qpn}") from None

    def peer_nic(self, qpn: int) -> "Nic":
        """The NIC of whichever adapter hosts *qpn* (fabric-wide lookup)."""
        try:
            return _qpn_registry[qpn].nic
        except KeyError:
            raise KeyError(f"no adapter hosts QP number {qpn}") from None

    # -- receive path --------------------------------------------------------------

    def _on_frame(self, frame: "Frame") -> None:
        packet = frame.payload
        if isinstance(packet, CmPacket):
            if self.cm_handler is not None:
                self.cm_handler(packet)
            return
        if not isinstance(packet, IbPacket):
            raise TypeError(
                f"{self.nic.name}: non-IB payload {type(packet).__name__} on verbs NIC"
            )
        qp = self._qps.get(packet.dst_qpn)
        if qp is None:
            # Stale packet for a destroyed QP: NAK so a requester
            # waiting on the responder outcome completes with an error
            # instead of hanging.
            if packet.wr is not None:
                packet.wr.responder_done(WcStatus.RNR_RETRY_EXC_ERR)
            return
        if packet.kind == "send":
            qp.responder_send(packet)
        elif packet.kind == "write":
            qp.responder_write(packet)
        elif packet.kind == "read_req":
            qp.responder_read(packet)
        elif packet.kind == "read_resp":
            qp.requester_read_response(packet)
        else:
            raise ValueError(f"unknown IB packet kind {packet.kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Hca {self.params.name} on {self.nic.name} qps={len(self._qps)}>"
