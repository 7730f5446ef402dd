"""BSD-style socket objects over the simulated stacks.

Sockets are used from simulation processes with ``yield from``::

    sock = stack.socket()
    yield from sock.connect("server", 11211)
    n = yield from sock.send(b"get foo\\r\\n")
    data = yield from sock.recv(4096)

Blocking semantics match real sockets: ``recv`` on an empty buffer
suspends (blocking mode) or raises :class:`WouldBlock` (non-blocking
mode, the memcached/libevent configuration); ``send`` applies
back-pressure when the send buffer fills.  Costs are charged per the
stack's :class:`~repro.sockets.params.StackParams`.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim import Expired
from repro.sockets.stack import Connection, SegPacket, SocketStack

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class SocketError(OSError):
    """Base class for socket-layer failures."""


class WouldBlock(SocketError):
    """Non-blocking operation found no data/space (EAGAIN)."""


class NotConnected(SocketError):
    """Data operation on an unconnected socket (ENOTCONN)."""


class _State(enum.Enum):
    FRESH = "fresh"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTING = "connecting"
    CONNECTED = "connected"
    CLOSED = "closed"


class Socket:
    """One endpoint of the byte-stream API."""

    def __init__(self, stack: SocketStack) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.node = stack.node
        self.state = _State.FRESH
        self.blocking = True
        self.port: Optional[int] = None
        self.conn: Optional[Connection] = None
        #: Handshaken connections awaiting accept(), and the event blocked
        #: accept() calls park on while there are none.
        self._accept_queue: Optional[deque[Connection]] = None
        self._accept_wake = None
        self._connect_done = None
        #: Epoll instances watching this socket call back through here.
        self._readiness_watchers: list[Callable[["Socket"], None]] = []

    # -- configuration ------------------------------------------------------------

    def setblocking(self, flag: bool) -> None:
        self.blocking = flag

    # -- server side ----------------------------------------------------------------

    def bind(self, port: int) -> None:
        """Claim *port* on this stack (EADDRINUSE -> OSError)."""
        if self.state is not _State.FRESH:
            raise SocketError(f"bind() in state {self.state.value}")
        self.stack.register_listener(port, self)
        self.port = port
        self.state = _State.BOUND

    def listen(self) -> None:
        """Enter the listening state.

        There is no BSD *backlog*: no SYN is ever refused, and every
        handshake waits its turn in the one accept queue.
        """
        if self.state is not _State.BOUND:
            raise SocketError(f"listen() in state {self.state.value}")
        self._accept_queue = deque()
        self.state = _State.LISTENING

    def accept(self):
        """Process helper: wait for (or take) one pending connection.

        Returns a new connected :class:`Socket`.  Non-blocking mode raises
        :class:`WouldBlock` when the queue is empty.
        """
        if self.state is not _State.LISTENING:
            raise SocketError("accept() on a non-listening socket")
        yield from self.node.cpu_run(self.stack.params.syscall_us)
        queue = self._accept_queue
        assert queue is not None
        while not queue:
            if not self.blocking:
                raise WouldBlock("no pending connections")
            if self._accept_wake is None:
                self._accept_wake = self.sim.event(("accept:%s", self.port))
            yield self._accept_wake
        conn = queue.popleft()
        child = Socket(self.stack)
        child.state = _State.CONNECTED
        child.port = self.port
        child.conn = conn
        conn.socket = child
        if conn.readable:
            child._notify_readable()
        return child

    def _enqueue_accept(self, conn: Connection) -> None:
        """Stack receive path: a completed handshake awaits accept()."""
        if self._accept_queue is None:
            return
        self._accept_queue.append(conn)
        wake, self._accept_wake = self._accept_wake, None
        if wake is not None:
            wake.succeed()
        self._notify_readable()  # listen sockets poll readable on pending accepts

    @property
    def accept_pending(self) -> bool:
        return bool(self._accept_queue)

    # -- client side -------------------------------------------------------------------

    def connect(self, remote_node: str, remote_port: int,
                timeout_us: float = 3_000_000.0):
        """Process helper: three-way handshake to a listening peer.

        Raises ``ConnectionRefusedError`` when no SYN-ACK arrives within
        *timeout_us* (we model no RST, so a closed port looks like a
        silent drop -- exactly the retry-then-fail behaviour of SYN to a
        filtered host).
        """
        if self.state is not _State.FRESH:
            raise SocketError(f"connect() in state {self.state.value}")
        params = self.stack.params
        self.port = self.stack.alloc_ephemeral_port()
        self.conn = Connection(self.stack, self.port, remote_node, remote_port)
        self.conn.socket = self
        self.stack.register_connection(self.conn)
        self.state = _State.CONNECTING
        self._connect_done = self.sim.event(name=("connect:%s", self.port))
        yield from self.node.cpu_run(params.connect_setup_us)
        self.stack.send_control(
            remote_node,
            SegPacket(
                kind="syn",
                src_node=self.node.name,
                src_port=self.port,
                dst_port=remote_port,
            ),
        )
        try:
            yield self._connect_done.expire_after(timeout_us)
        except Expired:
            self.stack.drop_connection(self.conn)
            self.state = _State.CLOSED
            raise ConnectionRefusedError(
                f"{remote_node}:{remote_port} did not answer within {timeout_us} µs"
            ) from None
        self.state = _State.CONNECTED

    def _connect_established(self) -> None:
        if self._connect_done is not None and not self._connect_done.triggered:
            self._connect_done.succeed()

    # -- data path ---------------------------------------------------------------------

    def send(self, data: bytes, trace=None):
        """Process helper: write *data* to the stream; returns len(data).

        The byte-stream tax is explicit here: a syscall, the software
        overhead, and a user-to-transmit-path copy (unless zero-copy), all
        before a single byte reaches the wire.  *trace* is a telemetry
        rider (a ``TraceContext``) carried with the bytes to the peer;
        it never changes byte counts or costs.
        """
        conn = self._require_conn()
        params = self.stack.params
        zcopy = (
            params.zcopy_threshold is not None
            and len(data) >= params.zcopy_threshold
        )
        yield from self.node.cpu_run(params.syscall_us + params.software_overhead_us)
        if zcopy:
            yield from self.node.cpu_run(params.zcopy_setup_us)
        elif data:
            yield from self.node.cpu_run(
                self.node.host.memcpy_time(len(data)) / params.copy_bandwidth_factor
            )
        if conn.sndbuf_full:
            if not self.blocking:
                raise WouldBlock("send buffer full")
            yield conn.wait_sndbuf_space()
        conn.enqueue_send(data, zcopy, trace=trace)
        return len(data)

    def recv(self, max_bytes: int):
        """Process helper: read up to *max_bytes*; b'' only at EOF."""
        conn = self._require_conn()
        params = self.stack.params
        yield from self.node.cpu_run(params.syscall_us + params.software_overhead_us)
        while not conn.readable:
            if not self.blocking:
                raise WouldBlock("no data available")
            yield conn.wait_readable()
            # Thread wakeup on data arrival.
            yield from self.node.cpu_run(self.node.host.context_switch_us)
        if not conn.rx_buffer and conn.eof_received:
            return b""
        chunk = conn.take(max_bytes)
        if chunk:
            yield from self.node.cpu_run(
                self.node.host.memcpy_time(len(chunk)) / params.copy_bandwidth_factor
            )
        return chunk

    def take_traces(self) -> list:
        """Drain telemetry riders that arrived with received bytes.

        Plain method (not a process helper): draining costs nothing in
        simulated time.  Empty unless the peer sent with ``trace=`` and
        the tracer was enabled.
        """
        conn = self.conn
        if conn is None or not conn.rx_traces:
            return []
        riders, conn.rx_traces = conn.rx_traces, []
        return riders

    def recv_exactly(self, nbytes: int):
        """Process helper: loop recv until *nbytes* arrive (EOFError on close)."""
        buf = bytearray()
        while len(buf) < nbytes:
            chunk = yield from self.recv(nbytes - len(buf))
            if not chunk:
                raise EOFError(f"peer closed after {len(buf)}/{nbytes} bytes")
            buf.extend(chunk)
        return bytes(buf)

    # -- readiness (epoll integration) -----------------------------------------------------

    @property
    def readable(self) -> bool:
        if self.state is _State.LISTENING:
            return self.accept_pending
        return self.conn is not None and self.conn.readable

    @property
    def writable(self) -> bool:
        return (
            self.state is _State.CONNECTED
            and self.conn is not None
            and not self.conn.sndbuf_full
        )

    def watch_readiness(self, callback: Callable[["Socket"], None]) -> None:
        self._readiness_watchers.append(callback)

    def unwatch_readiness(self, callback: Callable[["Socket"], None]) -> None:
        try:
            self._readiness_watchers.remove(callback)
        except ValueError:
            pass

    def _notify_readable(self) -> None:
        for cb in list(self._readiness_watchers):
            cb(self)

    # -- teardown -----------------------------------------------------------------------

    def close(self) -> None:
        """Half-duplex close: FIN to the peer, local resources released."""
        if self.state is _State.CLOSED:
            return
        if self.state is _State.LISTENING and self.port is not None:
            self.stack.unregister_listener(self.port)
        if self.conn is not None:
            self.conn.enqueue_fin()
            self.conn.closed_locally = True
        self.state = _State.CLOSED

    # -- helpers ------------------------------------------------------------------------

    def _require_conn(self) -> Connection:
        if self.state is not _State.CONNECTED or self.conn is None:
            raise NotConnected(f"socket in state {self.state.value}")
        return self.conn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Socket {self.stack.params.name}@{self.node.name}:{self.port} "
            f"{self.state.value}>"
        )
