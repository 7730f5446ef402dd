"""The memcached server: libevent dispatcher, workers, and the UCR port.

Socket path (stock memcached): a dispatcher thread epoll-waits on the
listen socket(s), accepts connections and assigns them round-robin to
worker threads; each worker epoll-waits over its connections, parses the
text or binary protocol incrementally (sniffed on the connection's first
byte), executes against the shared
:class:`~repro.memcached.store.ItemStore` and writes responses.

UCR path (the paper's §V design): :class:`UcrServerPort` attaches a
:class:`~repro.core.runtime.UcrRuntime` to the *same* server object.  New
endpoints are assigned round-robin to per-worker UCR contexts.  A Set
whose value exceeds the eager threshold is two-phase: the header handler
*reserves* the item so its slab chunk becomes the RDMA READ destination
(the value lands in the cache with zero intermediate copies), and the
completion handler links it.  A Get replies over the same endpoint with
the client's counter named as the response's target counter; large
values are served zero-copy straight out of registered slab pages.

Every front end runs one request path, ``MemcachedServer.execute`` (the
only caller of ``CommandEngine.apply``), over its codec's
:class:`~repro.memcached.command.ServerWire` row.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.memcached.errors import ClientError, ProtocolError, ServerError
from repro.memcached import protocol
from repro.memcached import protocol_binary as binp
from repro.memcached import protocol_ucr as ucrp
from repro.memcached.command import (
    MEMCACHED_PORT, Command, ServerWire, WireFormat, entry_length,
)
from repro.memcached.engine import CommandEngine
from repro.memcached.onesided.index import ExportedIndex, IndexDescriptor
from repro.memcached.store import ItemStore, StoreConfig
from repro.sockets.api import Socket, WouldBlock
from repro.sockets.epoll import EPOLLIN, Epoll
from repro.telemetry import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.endpoint import Endpoint
    from repro.core.runtime import UcrRuntime
    from repro.fabric.topology import Node
    from repro.sim import Simulator
    from repro.sockets.stack import SocketStack


@dataclass(frozen=True)
class MemcachedCosts:
    """Per-operation server CPU costs (µs, Clovertown baseline).

    The sockets figures model memcached's command dispatch over a parsed
    text line; the UCR figures model a fixed-layout struct decode -- the
    semantic-match advantage the paper claims, visible as smaller
    constants.  Stack costs (syscalls, copies, kernel work) are charged
    by the socket layer itself and are NOT in these numbers.
    """

    parse_dispatch_us: float = 1.2   # text command -> handler
    parse_binary_us: float = 0.6     # fixed-offset binary header decode
    op_execute_us: float = 1.2       # hash, lookup, LRU, slab bookkeeping
    response_build_us: float = 1.0   # formatting the reply line(s)
    ucr_decode_us: float = 0.6       # fixed struct decode
    ucr_op_execute_us: float = 2.0   # same engine work
    ucr_response_us: float = 0.8     # fill a response struct


class _ConnState:
    """Per-connection protocol state: sniffed on the first byte."""

    __slots__ = ("wire", "parser", "last_trace")

    def __init__(self) -> None:
        self.wire: Optional[WireFormat] = None
        self.parser = None
        #: Most recent telemetry rider received on this connection.
        self.last_trace = None

    def sniff(self, first_byte: int) -> None:
        """Real memcached: a 0x80 first byte selects the binary codec."""
        self.wire = binp.WIRE if first_byte == binp.MAGIC_REQUEST else protocol.WIRE
        self.parser = self.wire.request_parser()


class _Worker:
    """One server worker thread: an epoll loop over assigned sockets."""

    def __init__(self, server: "MemcachedServer", index: int) -> None:
        self.server = server
        self.index = index
        self.epoll = Epoll(server.sim, server.node)
        self._conns: dict[Socket, _ConnState] = {}
        self.requests_handled = 0
        self.process = server.sim.process(self._loop(), label=f"mc-worker{index}")

    def assign(self, sock: Socket) -> None:
        """Take ownership of *sock*: register it with this worker's epoll."""
        sock.setblocking(False)
        self._conns[sock] = _ConnState()
        self.epoll.register(sock, EPOLLIN)

    def _drop(self, sock: Socket) -> None:
        self.epoll.unregister(sock)
        self._conns.pop(sock, None)
        sock.close()

    def _loop(self):
        while True:
            ready = yield from self.epoll.wait()
            for sock, _mask in ready:
                yield from self._service(sock)

    def _service(self, sock: Socket):
        try:
            data = yield from sock.recv(65536)
        except WouldBlock:
            return
        if data == b"":
            self._drop(sock)
            return
        state = self._conns.get(sock)
        if state is None:
            return
        if state.wire is None:
            state.sniff(data[0])
        if tracer.enabled:
            riders = sock.take_traces()
            if riders:
                state.last_trace = riders[-1]
        server = self.server
        wire = state.wire
        parse_us = getattr(server.costs, wire.server_parse_cost)
        try:
            # The parser holds a parse error back until the requests
            # completed before it have been returned, and a request whose
            # decode fails is reached only after its predecessors were
            # served: how the bytes were split into reads never decides
            # what executes.  The empty feed collects a held-back error.
            while requests := state.parser.feed(data):
                data = b""
                for request in requests:
                    cmd = wire.decode(request)
                    self.requests_handled += 1
                    span = server.begin_request(state.last_trace, cmd.op)
                    ctx = span.ctx if span is not None else None
                    try:
                        yield from server.node.cpu_run(server.node.host.cpu_time(parse_us))
                        if cmd.op == "quit":
                            if wire.farewell is not None:
                                yield from self._send(sock, wire.farewell(request))
                            self._drop(sock)
                            return
                        # Sockets encodings carry their bytes: no hold.
                        response, _ = yield from server.execute(wire, request, cmd, trace=ctx)
                        if response and not cmd.noreply:
                            yield from self._send(sock, response, trace=ctx)
                    finally:
                        if tracer.enabled:
                            tracer.end(span, server.sim.now)
        except ProtocolError:
            if wire.parse_error_reply:
                yield from self._send(sock, wire.parse_error_reply)
            self._drop(sock)

    def _send(self, sock: Socket, data: bytes, trace=None):
        """Write a reply on the worker's non-blocking socket.

        A full send buffer (replies queued faster than the wire drains
        them: deep pipelines of large GETs) parks the worker until the
        connection has room, as waiting for EPOLLOUT would, and the write
        is retried -- syscall and copy are paid again, like any EAGAIN.
        """
        while True:
            try:
                yield from sock.send(data, trace=trace)
                return
            except WouldBlock:
                yield sock.conn.wait_sndbuf_space()


class MemcachedServer:
    """One memcached process (see module docstring)."""

    VERSION = "1.4.9-repro"

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        n_workers: int = 4,
        store_config: StoreConfig = StoreConfig(),
        costs: MemcachedCosts = MemcachedCosts(),
        pd=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.sim = sim
        self.node = node
        self.costs = costs
        self.store = ItemStore(sim, store_config, pd=pd)
        #: The exported one-sided GET index (docs/ONESIDED.md): None until
        #: a one-sided client, its only reader, is wired (:meth:`export_index`).
        self.onesided_index: Optional[ExportedIndex] = None
        #: The single execution engine every wire frontend dispatches to.
        self.engine = CommandEngine(self)
        self.workers = [_Worker(self, i) for i in range(n_workers)]
        self._rr = itertools.cycle(range(n_workers))
        self.stats_requests = 0
        self._listeners: list[Socket] = []

    def export_index(self) -> IndexDescriptor:
        """The one-sided GET index's advertisement; the first call builds
        the index from the store's linked items."""
        if self.onesided_index is None:
            self.onesided_index = ExportedIndex(self.store)
        return self.onesided_index.descriptor

    # -- sockets front end ------------------------------------------------------

    def listen_sockets(self, stack: "SocketStack") -> None:
        """Serve the text and binary protocols on *stack* (each connection
        is sniffed on its first byte; callable multiple times -- the
        paper's testbed serves IPoIB, SDP and 10GigE simultaneously)."""
        listener = stack.socket()
        listener.bind(MEMCACHED_PORT)
        listener.listen()
        self._listeners.append(listener)
        self.sim.process(self._dispatcher(listener), label=f"mc-dispatch:{stack.params.name}")

    def _dispatcher(self, listener: Socket):
        """The libevent main thread: accept and hand off round-robin."""
        while True:
            sock = yield from listener.accept()
            # Connection hand-off to the next worker (notify pipe cost).
            yield from self.node.cpu_run(self.node.host.context_switch_us)
            self.workers[next(self._rr)].assign(sock)

    # -- the request path (every front end) ------------------------------------

    def begin_request(self, rider, op: str):
        """Count one request; its ``server.op`` span when the client's
        telemetry *rider* came along (None otherwise)."""
        self.stats_requests += 1
        if tracer.enabled and rider is not None:
            return tracer.begin("server.op", "server", self.sim.now, parent=rider, op=op)
        return None

    def execute(self, wire: ServerWire, request, cmd: Command, trace=None):
        """Process helper: run one decoded command; returns ``(encoded
        reply, hold)``.

        The front end charged the parse; this charges the row's execute
        cost around the engine and encodes the reply in the step that
        applies the command, the linearization point.  A sockets encoding
        is then the value bytes (stock memcached holds an item refcount
        until the reply is written out); an encoding that names a slab
        chunk instead (a UCR zero-copy hit) gets the chunk pinned in that
        step, returned as *hold* for the endpoint to release.  Rows that
        assemble the response copy each served value into it; text then
        pays response_build, except on error replies (stock memcached's
        error path is the cheap one).
        """
        node = self.node
        span = (
            tracer.begin("store.apply", "store", self.sim.now,
                         parent=trace, op=cmd.op)
            if tracer.enabled and trace is not None
            else None
        )
        try:
            yield from node.cpu_run(
                node.host.cpu_time(getattr(self.costs, wire.server_execute_cost))
            )
            reply = self.engine.apply(cmd)
            encoded = wire.encode_reply(request, cmd, reply)
            chunk = wire.served_chunk(encoded, reply) if wire.served_chunk else None
            hold = self.store.slabs.pin(chunk) if chunk is not None else None
            copies = ([entry_length(data) for _key, _flags, data, _cas in reply.values]
                      if wire.server_copies_values else ())
            for nbytes in filter(None, copies):
                yield from node.memcpy(nbytes)
            if wire.server_build_cost and reply.status != "error":
                yield from node.cpu_run(
                    node.host.cpu_time(getattr(self.costs, wire.server_build_cost))
                )
            return encoded, hold
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)

    def stats_dict(self) -> dict:
        """Store stats plus server-level fields (threads, totals)."""
        d = self.store.stats_dict()
        d["threads"] = len(self.workers)
        d["total_requests"] = self.stats_requests
        d["version"] = self.VERSION
        return d


class UcrServerPort:
    """The RDMA-capable extension: UCR endpoints into the same server."""

    def __init__(self, server: MemcachedServer, runtime: "UcrRuntime") -> None:
        self.server = server
        self.runtime = runtime
        self.sim = server.sim
        #: One UCR progress context per worker thread (paper §V-A: the
        #: worker assigned at connect time serves all the client's AMs).
        self.contexts = [
            runtime.create_context(f"mc-ucr{i}") for i in range(len(server.workers))
        ]
        self._rr = itertools.cycle(self.contexts)
        self.endpoints: list["Endpoint"] = []
        #: True while the port accepts connections (chaos flips this).
        self.listening = False
        runtime.register_handler(
            ucrp.MSG_MC_REQUEST, self._header_handler, self._completion_handler
        )
        self._listen()

    def _listen(self) -> None:
        self.runtime.listen(
            MEMCACHED_PORT,
            select_context=lambda: next(self._rr),
            on_endpoint=lambda ep, _private_data: self.endpoints.append(ep),
        )
        self.listening = True

    # -- failure injection (repro.chaos) ---------------------------------------

    def crash(self, reason: str = "node crash") -> None:
        """The server process dies: stop accepting, kill every endpoint.

        Clients observe the §IV-A failure model end to end -- in-flight
        requests time out, reconnect attempts are refused -- while the
        rest of the cluster keeps running (endpoint failure is contained).
        The store's contents survive in this object; :meth:`recover`
        models a restart of the *network* personality only, so whether a
        restarted shard is warm or cold is the caller's choice (chaos
        tests restart cold by flushing the store first if they want to).
        """
        if not self.listening:
            return
        self.runtime.cm.stop_listening(MEMCACHED_PORT)
        self.listening = False
        self.flap_endpoints(reason)

    def recover(self) -> None:
        """Start accepting connections again after :meth:`crash`."""
        if self.listening:
            return
        self._listen()

    def flap_endpoints(self, reason: str = "endpoint flap") -> int:
        """Fail every live endpoint without stopping the listener.

        Models a transient fabric event (port bounce, QP error burst):
        clients reconnect immediately and succeed.  Returns the number of
        endpoints failed.
        """
        flapped = 0
        for ep in self.endpoints:
            if not ep.failed:
                ep.fail(reason)
                flapped += 1
        self.endpoints.clear()
        return flapped

    # -- the active message handlers ----------------------------------------------------

    def _header_handler(self, ep: "Endpoint", header: ucrp.McRequest, data_length: int):
        """Identify the data's destination (paper Fig. 2, §V-B).

        For a Set, reserve the item now so the value (eager memcpy or
        RDMA READ alike) lands directly in its slab chunk -- or, if the
        transfer fails, is abandoned.  A store whose slab pages are not
        RDMA-registered has no chunk to name: its values take the bounce
        buffer and the byte path.
        """
        store = self.server.store
        cmd = header.cmd
        if (cmd.op in ("set", "add", "replace") and data_length > 0
                and store.slabs.pd is not None):
            try:
                item = store.reserve(cmd.key, data_length, cmd.flags, cmd.exptime)
            except (ClientError, ServerError):
                return None  # fall back to bounce buffer; op will re-fail
            cmd.reserved_item = item
            return (*item.chunk.rdma_location(), functools.partial(store.abandon, item))
        return None

    def _completion_handler(self, ep: "Endpoint", header: ucrp.McRequest, data: bytes):
        """Serve the request (``MemcachedServer.execute``) and reply over
        the same endpoint, handing a zero-copy hit's pin to the send.

        This runs inside the worker's progress engine, so the reply must
        never wait for a send credit: with the window shut it queues on
        the endpoint, and the engine goes on to process the credit return
        that posts it."""
        server = self.server
        node = server.node
        wire = ucrp.WIRE
        span = server.begin_request(header.trace, header.cmd.op)
        ctx = span.ctx if span is not None else None
        try:
            request = (header, data)
            cmd = wire.decode(request)
            yield from node.cpu_run(
                node.host.cpu_time(getattr(server.costs, wire.server_parse_cost))
            )
            (response, payload, location), hold = yield from server.execute(
                wire, request, cmd, trace=ctx
            )
            yield from node.cpu_run(node.host.cpu_time(server.costs.ucr_response_us))
            response.counter_id = header.counter_id
            # Reply-path spans (WQE post, fabric, client delivery) attach
            # under the handling operation.
            response.trace = ctx
            yield from ep.send_message(
                ucrp.MSG_MC_RESPONSE,
                header=response,
                header_bytes=response.header_bytes,
                data=payload,
                data_location=location,
                location_hold=hold,
                target_counter_id=header.counter_id,
            )
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)

