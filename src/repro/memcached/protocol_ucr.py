"""The memcached-over-UCR struct protocol (the paper's §V wire format).

Requests and responses are fixed-layout structs carried as active
message headers -- the "no parse" representation the paper credits for
part of UCR's latency win.  A request header carries the IR
:class:`~repro.memcached.command.Command`, cut to the fields that cross
(:func:`carried`); a response header carries the
:class:`~repro.memcached.command.Reply`, each hit's data cut to its
length (the bytes ride the AM payload).  Beside them a header holds only
the client counter the response bumps -- every request in flight waits
on its own, so responses route back by it -- and the telemetry rider.
Each header owns its wire size (``header_bytes``).

The server half is the :data:`WIRE` row: a request is the AM layer's
``(McRequest, data)``, its encoding ``(McResponse, payload, location)``.
Structs need no byte framing, so the row has no sockets or client half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.memcached.command import Command, Reply, ServerWire, entry_data, entry_length

#: Active-message ids of the memcached-over-UCR protocol.
MSG_MC_REQUEST = 0x11
MSG_MC_RESPONSE = 0x12

#: Approximate wire size of the fixed UCR request/response headers.
MC_REQUEST_HEADER_BYTES = 24
MC_RESPONSE_HEADER_BYTES = 16

#: Ops whose request header charges a one-byte placeholder key (the
#: struct always has a key slot; these target a server, not a key).
_KEYLESS_OPS = frozenset({"flush_all", "stats"})


@dataclass
class McRequest:
    """Fixed-layout UCR request header (the no-parse representation)."""

    #: This request's own copy (:func:`carried`); the server's header
    #: handler writes ``reserved_item`` into it.
    cmd: Command
    #: The client counter the response AM targets.
    counter_id: int = 0
    #: Telemetry rider (a TraceContext); rides the fixed header's padding
    #: in the real protocol, so it is never counted in wire bytes.
    trace: Any = None

    @property
    def header_bytes(self) -> int:
        """The fixed struct plus the key bytes; ``stale_ok``,
        ``lease_token`` and ``want_entry`` ride reserved header space."""
        keys = self.cmd.keys
        if not keys:
            return MC_REQUEST_HEADER_BYTES + (1 if self.cmd.op in _KEYLESS_OPS else 0)
        return MC_REQUEST_HEADER_BYTES + sum(len(k) for k in keys)


@dataclass
class McResponse:
    """Fixed-layout UCR response header."""

    #: Each hit's data is its length (the bytes follow concatenated in
    #: the AM payload); ``error_kind`` is ``client`` or ``server``.
    reply: Reply
    #: The client counter this response bumps (echoed from the request).
    counter_id: int = 0
    #: Telemetry rider: the server-side span context, so reply-path spans
    #: attach under the handling operation.  Never counted in wire bytes.
    trace: Any = None

    @property
    def header_bytes(self) -> int:
        """The fixed struct, 8 bytes of meta per hit or stat, and a carried
        index entry with its slot's position in the window (one byte)."""
        reply = self.reply
        size = MC_RESPONSE_HEADER_BYTES + 8 * (len(reply.values) + len(reply.stats or ()))
        if reply.entry is not None:
            size += len(reply.entry[1]) + 1
        return size


def carried(cmd: Command) -> Command:
    """The part of *cmd* a request header carries, as a fresh copy.  The
    value rides the AM payload; ``noreply``, ``quiet``, ``want_cas_token``
    and the binary auto-create fields do not cross, and the expiry
    crosses as an integer."""
    return Command(
        op=cmd.op,
        keys=list(cmd.keys),
        flags=cmd.flags,
        exptime=int(cmd.exptime),
        cas=cmd.cas,
        delta=cmd.delta,
        stale_ok=cmd.stale_ok,
        lease_token=cmd.lease_token,
        want_entry=cmd.want_entry,
    )


def response_to_reply(header: McResponse, payload: bytes) -> Reply:
    """Decode one response: the carried reply, with each hit's bytes cut
    from *payload* and the stats rendered as the text codec renders them
    (sorted, string values), so ``stats`` reads the same on every wire."""
    reply = header.reply
    if reply.values:
        hits = []
        offset = 0
        for key, flags, length, cas in reply.values:
            hits.append((key, flags, payload[offset : offset + length], cas))
            offset += length
        reply.values = hits
    elif reply.status == "stats":
        reply.stats = {k: f"{v}" for k, v in sorted((reply.stats or {}).items())}
    return reply


def _request_command(request) -> Command:
    """The request's carried command, with the payload as its value."""
    header, data = request
    header.cmd.value = data
    return header.cmd


def reply_to_response(cmd: Command, reply: Reply):
    """Encode one reply; returns (header, payload, zero_copy_location).

    Single-key hits whose slab page is RDMA-registered are served
    zero-copy: the location names (mr, offset, length) and the payload
    stays empty.  ``detail`` and ``cas`` do not cross; ``protocol``
    errors cross as ``client`` ones.
    """
    hits = reply.values
    response = McResponse(Reply(
        reply.status,
        number=reply.number,
        values=[(key, flags, entry_length(data), cas) for key, flags, data, cas in hits],
        message=reply.message,
        error_kind="server" if reply.error_kind == "server" else "client",
        stats=reply.stats,
        lease_state=reply.lease_state,
        lease_token=reply.lease_token,
        stale=reply.stale,
        entry=reply.entry,
    ))
    data = hits[0][2] if len(cmd.keys) == 1 and hits else None
    chunk = getattr(data, "chunk", None)
    if chunk is not None and chunk.page.mr is not None:
        return response, b"", (chunk.page.mr, chunk.offset, entry_length(data))
    # Otherwise the hits are copied into one payload (an mget's are
    # several extents).
    return response, b"".join(entry_data(d) for _k, _f, d, _c in hits), None


#: No per-value copy in the request path (the endpoint sends from the
#: pinned chunk or copies the payload); the front end charges the fill.
WIRE = ServerWire(
    decode=_request_command,
    encode_reply=lambda _request, cmd, reply: reply_to_response(cmd, reply),
    served_chunk=lambda encoded, reply: reply.values[0][2].chunk if encoded[2] else None,
    server_parse_cost="ucr_decode_us",
    server_execute_cost="ucr_op_execute_us",
    server_copies_values=False,
    server_build_cost=None,
)
