"""Connection manager: the REQ / REP / RTU rendezvous.

Verbs data QPs cannot talk before both sides know each other's QP number;
on real fabrics the RDMA CM exchanges management datagrams (MADs) to
bootstrap.  We model the same three-way handshake over the same wire --
each leg is one 256-byte frame plus a small host-side processing cost --
so connection establishment has a realistic (tens of µs) price and the
paper's design choice of *persistent* client connections is visible in
the numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim import Event
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import ProtectionDomain
from repro.verbs.packets import CM_MAD_BYTES, CmPacket
from repro.verbs.qp import QueuePair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.device import Hca

_conn_ids = itertools.count(1)

#: Host CPU time to process one CM datagram (kernel CM service).
CM_PROCESS_US = 3.0


@dataclass(slots=True)
class ListenContext:
    """A service waiting for inbound connections."""

    service_id: int
    #: Called as ``handler(server_qp, private_data)`` once a connection
    #: reaches RTS on the server side.
    on_connected: Callable[[QueuePair, Any], None]
    pd: ProtectionDomain
    make_cqs: Callable[[], tuple[CompletionQueue, CompletionQueue]]
    #: Called with the freshly connected server QP *before* the REP is
    #: sent, so receive buffers can be pre-posted ahead of any client
    #: traffic (prevents the RNR race on the first active message).
    on_prepare: Optional[Callable[[QueuePair, Any], None]] = None


class ConnectionManager:
    """Per-HCA CM endpoint.  Exactly one may be attached to an adapter."""

    __slots__ = ("hca", "sim", "_listeners", "_pending")

    def __init__(self, hca: "Hca") -> None:
        if hca.cm_handler is not None:
            raise RuntimeError(f"{hca.nic.name}: a CM is already attached")
        self.hca = hca
        self.sim = hca.sim
        self._listeners: dict[int, ListenContext] = {}
        self._pending: dict[int, "_PendingConnect"] = {}
        hca.cm_handler = self._on_packet

    # -- server side -----------------------------------------------------------

    def listen(
        self,
        service_id: int,
        on_connected: Callable[[QueuePair, Any], None],
        pd: ProtectionDomain,
        make_cqs: Callable[[], tuple[CompletionQueue, CompletionQueue]],
        on_prepare: Optional[Callable[[QueuePair, Any], None]] = None,
    ) -> None:
        """Accept connections for *service_id*.

        *make_cqs* returns ``(send_cq, recv_cq)`` for each accepted QP so
        the server controls CQ sharing (memcached gives every worker
        thread one CQ pair shared by all its clients).
        """
        if service_id in self._listeners:
            raise ValueError(f"service {service_id} already has a listener")
        self._listeners[service_id] = ListenContext(
            service_id, on_connected, pd, make_cqs, on_prepare
        )

    def stop_listening(self, service_id: int) -> None:
        self._listeners.pop(service_id, None)

    # -- client side -----------------------------------------------------------

    def connect(
        self,
        remote_hca: "Hca",
        service_id: int,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        private_data: Any = None,
    ) -> Event:
        """Start a connection; the returned event fires with the local QP.

        Fails with ``ConnectionRefusedError`` if nothing listens on
        *service_id* at the remote adapter.
        """
        qp = self.hca.create_qp(pd, send_cq, recv_cq)
        conn_id = next(_conn_ids)
        done = self.sim.event(name=("cm-connect(%s)", conn_id))
        self._pending[conn_id] = _PendingConnect(qp, done)
        req = CmPacket(
            kind="req",
            service_id=service_id,
            src_qpn=qp.qp_num,
            conn_id=conn_id,
            private_data=private_data,
        )
        self.sim.process(self._send_mad(remote_hca, req), label="cm-req")
        return done

    # -- wire ------------------------------------------------------------------

    def _send_mad(self, remote_hca: "Hca", packet: CmPacket):
        yield from self.hca.nic.node.cpu_run(CM_PROCESS_US)
        yield self.hca.nic.send_frame(remote_hca.nic, CM_MAD_BYTES, packet).delivered

    def _on_packet(self, packet: CmPacket) -> None:
        self.sim.process(self._handle(packet), label=f"cm-{packet.kind}")

    def _handle(self, packet: CmPacket):
        yield from self.hca.nic.node.cpu_run(CM_PROCESS_US)
        if packet.kind == "req":
            yield from self._handle_req(packet)
        elif packet.kind == "rep":
            yield from self._handle_rep(packet)
        elif packet.kind == "rtu":
            self._handle_rtu(packet)
        elif packet.kind == "rej":
            self._handle_rej(packet)
        else:
            raise ValueError(f"unknown CM packet kind {packet.kind!r}")

    def _handle_req(self, packet: CmPacket):
        listener = self._listeners.get(packet.service_id)
        peer_nic = self.hca.peer_nic(packet.src_qpn)
        peer_hca = _hca_of_nic(peer_nic)
        if listener is None:
            rej = CmPacket(
                kind="rej",
                service_id=packet.service_id,
                src_qpn=0,
                dst_qpn=packet.src_qpn,
                conn_id=packet.conn_id,
            )
            yield from self._send_mad(peer_hca, rej)
            return
        send_cq, recv_cq = listener.make_cqs()
        server_qp = self.hca.create_qp(listener.pd, send_cq, recv_cq)
        client_qp_stub = peer_hca.qp(packet.src_qpn)
        server_qp.connect(client_qp_stub)
        if listener.on_prepare is not None:
            listener.on_prepare(server_qp, packet.private_data)
        # Remember enough to finish on RTU.
        self._pending[packet.conn_id] = _PendingConnect(
            server_qp, None, listener=listener, private_data=packet.private_data
        )
        rep = CmPacket(
            kind="rep",
            service_id=packet.service_id,
            src_qpn=server_qp.qp_num,
            dst_qpn=packet.src_qpn,
            conn_id=packet.conn_id,
        )
        yield from self._send_mad(peer_hca, rep)

    def _handle_rep(self, packet: CmPacket):
        pending = self._pending.pop(packet.conn_id, None)
        if pending is None:
            return
        assert pending.done is not None
        server_nic = self.hca.peer_nic(packet.src_qpn)
        server_hca = _hca_of_nic(server_nic)
        abandoned = pending.done.triggered  # the caller's deadline passed
        if not abandoned:
            pending.qp.connect(server_hca.qp(packet.src_qpn))
        answer = CmPacket(
            kind="rej" if abandoned else "rtu",
            service_id=packet.service_id,
            src_qpn=pending.qp.qp_num,
            dst_qpn=packet.src_qpn,
            conn_id=packet.conn_id,
        )
        yield from self._send_mad(server_hca, answer)
        if pending.done.triggered:
            # Nobody will own the QP.  (A deadline that passes while the RTU
            # is in flight leaves the listener an endpoint whose peer is gone.)
            self.hca.destroy_qp(pending.qp)
        else:
            pending.done.succeed(pending.qp)

    def _handle_rtu(self, packet: CmPacket) -> None:
        pending = self._pending.pop(packet.conn_id, None)
        if pending is None or pending.listener is None:
            return
        pending.listener.on_connected(pending.qp, pending.private_data)

    def _handle_rej(self, packet: CmPacket) -> None:
        """Either side gives up: the connector was refused, or the listener
        parked a QP for a connector that has since timed out."""
        pending = self._pending.pop(packet.conn_id, None)
        if pending is None:
            return
        self.hca.destroy_qp(pending.qp)
        if pending.done is not None and not pending.done.triggered:
            pending.done.fail(
                ConnectionRefusedError(f"no listener for service {packet.service_id}")
            )


@dataclass(slots=True)
class _PendingConnect:
    qp: QueuePair
    done: Optional[Event]
    listener: Optional[ListenContext] = None
    private_data: Any = None


def _hca_of_nic(nic) -> "Hca":
    """Recover the Hca owning *nic* via the explicit owner backref."""
    from repro.verbs.device import Hca

    if not isinstance(nic.owner, Hca):
        raise RuntimeError(f"{nic.name} is not driven by an HCA")
    return nic.owner
