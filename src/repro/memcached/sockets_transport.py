"""The sockets client transport: text or binary protocol over a socket stack.

:class:`SocketsTransport` runs over any
:class:`~repro.sockets.stack.SocketStack` (IPoIB / SDP / TOE / TCP) and
reads everything about its format -- encoder, reply assembler, parser,
cost fields, reply matching -- from the codec's ``WIRE`` row.  The
``MEMCACHED_BEHAVIOR_TCP_NODELAY`` the paper sets is implicit (our
stacks never delay small segments).  It offers the transport contract
stated in :mod:`repro.memcached.client`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memcached import protocol
from repro.memcached import protocol_binary as binp
from repro.memcached.client import ClientCosts, _ctx
from repro.memcached.command import MEMCACHED_PORT, Command
from repro.memcached.errors import ProtocolError, ServerDownError
from repro.telemetry import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.topology import Node
    from repro.sim import Simulator
    from repro.sockets.stack import SocketStack

#: Sentinel for window slots whose reply has not landed yet.
_PENDING = object()


class _SocketConn:
    """One text- or binary-protocol connection to one server."""

    def __init__(self, sock, parser, server: str) -> None:
        self.sock = sock
        self.parser = parser
        self.server = server
        self.tokens: list = []
        self.connected = False

    def connect(self):
        yield from self.sock.connect(self.server, MEMCACHED_PORT)
        self.connected = True

    def next_token(self):
        """Process helper: one reply token (recv-ing as needed)."""
        while not self.tokens:
            data = yield from self.sock.recv(65536)
            if data == b"":
                raise ServerDownError(f"{self.server}: connection closed")
            self.tokens.extend(self.parser.feed(data))
        return self.tokens.pop(0)


class SocketsTransport:
    """Client side of the text/binary protocols over a socket stack."""

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        stack: "SocketStack",
        costs: ClientCosts = ClientCosts(),
        binary: bool = False,
    ) -> None:
        self.sim = sim
        self.node = node
        self.stack = stack
        self.costs = costs
        #: The wire format's row -- codec, parser and cost fields all come
        #: from it (*binary*: libmemcached's
        #: MEMCACHED_BEHAVIOR_BINARY_PROTOCOL instead of ASCII).
        self.wire = binp.WIRE if binary else protocol.WIRE
        self._build_us = getattr(costs, self.wire.client_build_cost)
        self._parse_us = getattr(costs, self.wire.client_parse_cost)
        self._conns: dict[str, _SocketConn] = {}

    def conn(self, server: str):
        """Process helper: the (lazily connected) connection to *server*."""
        c = self._conns.get(server)
        if c is None:
            c = _SocketConn(self.stack.socket(), self.wire.response_parser(), server)
            self._conns[server] = c
        if not c.connected:
            yield from c.connect()
        return c

    # -- the command path -------------------------------------------------------

    def execute(self, server: str, cmd: Command, trace=None):
        """Process helper: one command, one reply."""
        yield from self.node.cpu_run(self.node.host.cpu_time(self._build_us))
        span = (
            tracer.begin("sockets.roundtrip", "sockets", self.sim.now,
                         parent=trace, server=server, op=cmd.op)
            if tracer.enabled and trace is not None
            else None
        )
        try:
            c = yield from self.conn(server)
            yield from c.sock.send(self.wire.encode_command(cmd), trace=_ctx(span))
            assembler = self.wire.reply_assembler(cmd)
            while not assembler.feed((yield from c.next_token())):
                pass
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)
        yield from self.node.cpu_run(self.node.host.cpu_time(self._parse_us))
        return assembler.reply

    def execute_many(self, server: str, commands: list, window: int, trace=None):
        """Process helper: issue *commands* with up to *window* in flight.

        Returns one entry per command, in order: its :class:`Reply`, or
        the exception that felled it (a dead connection reports
        ``ServerDownError`` for every command still incomplete).  Reply
        matching follows the wire format's declared policy: in submission
        order for text, by opaque (the slot index) for binary.
        """
        wire = self.wire
        results: list = [_PENDING] * len(commands)
        pending: list[int] = []  # slots awaiting completion, oldest first
        assemblers: dict = {}
        span = (
            tracer.begin("sockets.pipeline", "sockets", self.sim.now,
                         parent=trace, server=server, depth=window)
            if tracer.enabled and trace is not None
            else None
        )
        try:
            c = yield from self.conn(server)
            sent = done = 0
            while done < len(commands):
                while sent < len(commands) and len(pending) < window:
                    i = sent
                    sent += 1
                    yield from self.node.cpu_run(
                        self.node.host.cpu_time(self._build_us)
                    )
                    assemblers[i] = wire.reply_assembler(commands[i])
                    pending.append(i)
                    yield from c.sock.send(
                        wire.encode_command(commands[i], opaque=i), trace=_ctx(span)
                    )
                token = yield from c.next_token()
                i = pending[0] if wire.in_order_replies else token.opaque
                try:
                    complete = assemblers[i].feed(token)
                except ProtocolError as exc:
                    # Stream desync: nothing past this token can be
                    # matched to a command; fail everything unfinished.
                    for j in range(len(commands)):
                        if results[j] is _PENDING:
                            results[j] = exc
                    return results
                if complete:
                    pending.remove(i)
                    done += 1
                    results[i] = assemblers.pop(i).reply
                    yield from self.node.cpu_run(
                        self.node.host.cpu_time(self._parse_us)
                    )
        except ServerDownError as exc:
            for j in range(len(commands)):
                if results[j] is _PENDING:
                    results[j] = exc
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)
        return results
