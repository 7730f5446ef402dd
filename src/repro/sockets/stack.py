"""Per-node socket stack: port table, connections, segmentation engine.

One :class:`SocketStack` instance binds a cost model
(:class:`~repro.sockets.params.StackParams`) to one node's NIC on the
matching network.  It owns the port namespace, demultiplexes inbound
frames to connections, and runs the transmit pump that segments the byte
stream onto the wire.

Byte-stream fidelity: payloads are real ``bytes``; segmentation and
reassembly actually happen, so the memcached text protocol above must
cope with partial reads and coalesced commands exactly as it does over
real TCP.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.sim import Event
from repro.sim.rng import RngStream
from repro.telemetry import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.link import Frame, Nic
    from repro.fabric.topology import Node
    from repro.sim import Simulator
    from repro.sockets.api import Socket
    from repro.sockets.params import StackParams

#: Wire size of control segments (SYN/SYNACK/FIN).
CONTROL_SEGMENT_BYTES = 64
#: Default send-buffer bound (bytes in flight before send() blocks).
DEFAULT_SNDBUF = 256 * 1024

_conn_seq = itertools.count(1)


@dataclass(slots=True)
class SegPacket:
    """One stack-level segment on the wire."""

    kind: str  # 'syn' | 'synack' | 'fin' | 'data'
    src_node: str
    src_port: int
    dst_port: int
    data: bytes = b""
    zcopy: bool = False
    #: Telemetry rider (TraceContext or None); never enters wire sizes.
    trace: Any = None


@dataclass(slots=True)
class _TxItem:
    """One send() worth of bytes (or a FIN) queued for the transmit pump."""

    data: bytes
    zcopy: bool
    fin: bool = False
    trace: Any = None


class Connection:
    """Reliable, ordered byte stream between two stack endpoints."""

    def __init__(
        self,
        stack: "SocketStack",
        local_port: int,
        remote_node: str,
        remote_port: int,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.conn_id = next(_conn_seq)
        self.local_port = local_port
        self.remote_node = remote_node
        self.remote_port = remote_port
        self.rx_buffer = bytearray()
        self.rx_waiters: list[Event] = []
        self.eof_received = False
        self.closed_locally = False
        self.sndbuf = DEFAULT_SNDBUF
        self.bytes_unsent = 0
        self._sndbuf_waiters: list[Event] = []
        #: What each pump drains, and the event it parks on when it finds
        #: nothing there (armed by the pump, fired by whoever appends).
        self._tx_items: deque[_TxItem] = deque()
        self._tx_wake: Optional[Event] = None
        self._rx_packets: deque[SegPacket] = deque()
        self._rx_wake: Optional[Event] = None
        #: Telemetry riders that arrived with delivered bytes, in order;
        #: drained by ``Socket.take_traces`` (empty unless tracing).
        self.rx_traces: list = []
        self.socket: Optional["Socket"] = None
        stack.sim.process(self._tx_pump(), label=f"conn{self.conn_id}-txpump")
        stack.sim.process(self._rx_pump(), label=f"conn{self.conn_id}-rxpump")

    # -- transmit side ----------------------------------------------------------

    def enqueue_send(self, data: bytes, zcopy: bool, trace=None) -> None:
        """Queue bytes for transmission.  Nothing marks the moment they are
        wired out: a sender learns of it only as send-buffer room."""
        if self.closed_locally:
            raise BrokenPipeError(f"connection {self.conn_id} is closed")
        self.bytes_unsent += len(data)
        self._tx_append(_TxItem(data, zcopy, trace=trace))

    def enqueue_fin(self) -> None:
        """Queue a FIN behind any pending data (in-order close)."""
        self._tx_append(_TxItem(b"", False, fin=True))

    def _tx_append(self, item: _TxItem) -> None:
        self._tx_items.append(item)
        wake, self._tx_wake = self._tx_wake, None
        if wake is not None:
            wake.succeed()

    @property
    def sndbuf_full(self) -> bool:
        return self.bytes_unsent >= self.sndbuf

    def wait_sndbuf_space(self) -> Event:
        """Event firing once the send buffer has room again."""
        ev = self.sim.event(("conn%s.sndbuf", self.conn_id))
        if not self.sndbuf_full:
            ev.succeed()
        else:
            self._sndbuf_waiters.append(ev)
        return ev

    def _tx_pump(self):
        """Drain the send queue, segmenting onto the wire in order."""
        sim = self.sim
        stack = self.stack
        params = stack.params
        while True:
            if not self._tx_items:
                self._tx_wake = sim.event(("conn%s.tx-wake", self.conn_id))
                yield self._tx_wake
            item = self._tx_items.popleft()
            remote_nic = stack.peer_nic(self.remote_node)
            if item.fin:
                packet = SegPacket(
                    kind="fin",
                    src_node=stack.node.name,
                    src_port=self.local_port,
                    dst_port=self.remote_port,
                )
                stack.nic.send_frame(remote_nic, CONTROL_SEGMENT_BYTES, packet)
                return  # nothing follows a FIN
            span = (
                tracer.begin("sockets.tx", "sockets", sim.now,
                             parent=item.trace, nbytes=len(item.data))
                if tracer.enabled and item.trace is not None
                else None
            )
            if item.zcopy:
                segments = [item.data]  # single hardware transfer
            else:
                seg_size = stack.segment_bytes
                segments = [
                    item.data[i : i + seg_size]
                    for i in range(0, len(item.data), seg_size)
                ] or [b""]
            for seg in segments:
                if not item.zcopy and params.tx_per_segment_us > 0:
                    yield from stack.node.cpu_run(params.tx_per_segment_us)
                if params.jitter_sigma > 0:
                    yield sim.timeout(stack.draw_jitter())
                packet = SegPacket(
                    kind="data",
                    src_node=stack.node.name,
                    src_port=self.local_port,
                    dst_port=self.remote_port,
                    data=seg,
                    zcopy=item.zcopy,
                    trace=item.trace if tracer.enabled else None,
                )
                # The wire being free again *is* the frame's tx hold; waiting
                # on it keeps segments of one stream in order.
                yield stack.nic.send_frame(remote_nic, len(seg), packet).tx_done
            if tracer.enabled:
                tracer.end(span, sim.now)
            self.bytes_unsent -= len(item.data)
            while self._sndbuf_waiters and not self.sndbuf_full:
                self._sndbuf_waiters.pop(0).succeed()

    # -- receive side -------------------------------------------------------------

    def rx_enqueue(self, packet: SegPacket) -> None:
        """Stack frame handler hands segments here; the pump orders them."""
        self._rx_packets.append(packet)
        wake, self._rx_wake = self._rx_wake, None
        if wake is not None:
            wake.succeed()

    def _rx_pump(self):
        """Charge receive-path costs and deliver bytes, strictly in order."""
        params = self.stack.params
        node = self.stack.node
        while True:
            if not self._rx_packets:
                self._rx_wake = self.sim.event(("conn%s.rx-wake", self.conn_id))
                yield self._rx_wake
            packet = self._rx_packets.popleft()
            if packet.kind == "fin":
                self.deliver_eof()
                return
            span = (
                tracer.begin("sockets.rx", "sockets", self.sim.now,
                             parent=packet.trace, nbytes=len(packet.data))
                if tracer.enabled and packet.trace is not None
                else None
            )
            if not packet.zcopy and params.rx_per_segment_us > 0:
                yield from node.cpu_run(params.rx_per_segment_us)
            if params.rx_notify_us > 0:
                yield from node.cpu_run(params.rx_notify_us)
            if params.jitter_sigma > 0:
                yield self.sim.timeout(self.stack.draw_jitter())
            self.deliver(packet.data, trace=packet.trace)
            if tracer.enabled:
                tracer.end(span, self.sim.now)

    def deliver(self, data: bytes, trace=None) -> None:
        """Stack receive path appends reassembled bytes (in arrival order)."""
        if trace is not None:
            self.rx_traces.append(trace)
        self.rx_buffer.extend(data)
        self._wake_receivers()

    def deliver_eof(self) -> None:
        self.eof_received = True
        self._wake_receivers()

    def _wake_receivers(self) -> None:
        while self.rx_waiters:
            self.rx_waiters.pop(0).succeed()
        if self.socket is not None:
            self.socket._notify_readable()

    @property
    def readable(self) -> bool:
        return bool(self.rx_buffer) or self.eof_received

    def take(self, max_bytes: int) -> bytes:
        """Remove and return up to *max_bytes* from the receive buffer."""
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        chunk = bytes(self.rx_buffer[:max_bytes])
        del self.rx_buffer[:max_bytes]
        return chunk

    def wait_readable(self) -> Event:
        """Event firing when data (or EOF) is available to read."""
        ev = self.sim.event(("conn%s.readable", self.conn_id))
        if self.readable:
            ev.succeed()
        else:
            self.rx_waiters.append(ev)
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection #{self.conn_id} :{self.local_port} <-> "
            f"{self.remote_node}:{self.remote_port}>"
        )


class SocketStack:
    """The per-node instantiation of one transport's cost model."""

    EPHEMERAL_BASE = 32768

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        params: "StackParams",
        rng: Optional[RngStream] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.params = params
        self.nic: "Nic" = node.nic(params.network)
        self.rng = rng or RngStream(0, f"{node.name}/{params.name}")
        #: Lognormal location that makes the sample mean jitter_mean_us.
        self._jitter_mu = (
            math.log(params.jitter_mean_us) - params.jitter_sigma**2 / 2
            if params.jitter_sigma > 0
            else 0.0
        )
        self._listeners: dict[int, "Socket"] = {}
        self._connections: dict[tuple[str, int, int], Connection] = {}
        self._ephemeral = itertools.count(self.EPHEMERAL_BASE)
        node.nic(params.network).owner = self
        #: Other stacks of the same params.name, keyed by node name; filled
        #: in by the cluster builder so peers can be located.
        self.peers: dict[str, "SocketStack"] = {}
        self.nic.install_rx_handler(self._on_frame)

    # -- wiring --------------------------------------------------------------------

    @staticmethod
    def interconnect(stacks: list["SocketStack"]) -> None:
        """Make a set of same-transport stacks visible to each other."""
        for s in stacks:
            for t in stacks:
                if s is not t:
                    if t.node.name in s.peers:
                        raise ValueError(f"duplicate node name {t.node.name!r}")
                    s.peers[t.node.name] = t
        for s in stacks:
            s.peers.setdefault(s.node.name, s)

    def socket(self) -> "Socket":
        """Create a fresh socket bound to this stack."""
        from repro.sockets.api import Socket  # late import: api imports stack

        return Socket(self)

    def peer(self, node_name: str) -> "SocketStack":
        try:
            return self.peers[node_name]
        except KeyError:
            raise KeyError(
                f"{self.node.name}/{self.params.name}: unknown peer {node_name!r}"
            ) from None

    def peer_nic(self, node_name: str) -> "Nic":
        return self.peer(node_name).nic

    @property
    def segment_bytes(self) -> int:
        return self.params.segment_bytes or self.nic.params.mtu_bytes

    def draw_jitter(self) -> float:
        """One lognormal jitter sample (µs); 0 when the stack is smooth."""
        sigma = self.params.jitter_sigma
        if sigma <= 0:
            return 0.0
        return self.rng.lognormal(self._jitter_mu, sigma)

    def alloc_ephemeral_port(self) -> int:
        return next(self._ephemeral)

    # -- port table -------------------------------------------------------------------

    def register_listener(self, port: int, sock: "Socket") -> None:
        if port in self._listeners:
            raise OSError(f"{self.node.name}:{port} already in use")
        self._listeners[port] = sock

    def unregister_listener(self, port: int) -> None:
        self._listeners.pop(port, None)

    def register_connection(self, conn: Connection) -> None:
        """Enter *conn* into the demultiplexing table."""
        key = (conn.remote_node, conn.remote_port, conn.local_port)
        if key in self._connections:
            raise OSError(f"connection collision on {key}")
        self._connections[key] = conn

    def drop_connection(self, conn: Connection) -> None:
        self._connections.pop((conn.remote_node, conn.remote_port, conn.local_port), None)

    # -- control-segment transmission ----------------------------------------------------

    def send_control(self, remote_node: str, packet: SegPacket) -> None:
        self.nic.send_frame(self.peer_nic(remote_node), CONTROL_SEGMENT_BYTES, packet)

    # -- receive path -------------------------------------------------------------------

    def _on_frame(self, frame: "Frame") -> None:
        packet = frame.payload
        if not isinstance(packet, SegPacket):
            raise TypeError(
                f"{self.node.name}/{self.params.name}: unexpected payload "
                f"{type(packet).__name__}"
            )
        if packet.kind in ("data", "fin"):
            conn = self._connections.get(
                (packet.src_node, packet.src_port, packet.dst_port)
            )
            if conn is not None:  # else: vanished connection, drop (RST-ish)
                conn.rx_enqueue(packet)
            return
        self.sim.process(self._rx_control(packet), label=f"{self.params.name}-rx")

    def _rx_control(self, packet: SegPacket):
        params = self.params
        if packet.kind == "syn":
            yield from self.node.cpu_run(params.connect_setup_us)
            listener = self._listeners.get(packet.dst_port)
            if listener is None:
                return  # no RST modeling: connect() at the client times out
            conn = Connection(self, packet.dst_port, packet.src_node, packet.src_port)
            self.register_connection(conn)
            listener._enqueue_accept(conn)
            self.send_control(
                packet.src_node,
                SegPacket(
                    kind="synack",
                    src_node=self.node.name,
                    src_port=packet.dst_port,
                    dst_port=packet.src_port,
                ),
            )
        elif packet.kind == "synack":
            conn = self._connections.get(
                (packet.src_node, packet.src_port, packet.dst_port)
            )
            if conn is not None and conn.socket is not None:
                conn.socket._connect_established()
        else:
            raise ValueError(f"unknown segment kind {packet.kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SocketStack {self.params.name} on {self.node.name}>"
