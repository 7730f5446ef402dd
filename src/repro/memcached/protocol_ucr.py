"""The memcached-over-UCR struct protocol (the paper's §V wire format).

Requests and responses are fixed-layout structs carried as active
message headers -- the "no parse" representation the paper credits for
part of UCR's latency win.  This module owns the struct definitions
(:class:`McRequest` / :class:`McResponse`), the AM ids, and the codec
between the structs and the transport-neutral command IR
(:mod:`repro.memcached.command`).

The server half is the :data:`WIRE` row: a request is the AM layer's
``(McRequest, data)``, its encoding ``(McResponse, payload, location)``.
Structs need no byte framing, so the row has no sockets or client half.

Matching semantics under pipelining: every request carries a
``request_id`` echoed by the server, so any number of AMs can be in
flight per endpoint and responses route back by id (the client side of
the seq-matching the AM layer's per-message ``seq`` provides on the
wire).
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


def response_header_bytes(response: "McResponse") -> int:
    """Wire size of *response*'s header: the fixed struct, 8 bytes of
    meta per value, and a carried index entry with its slot's position
    in the window (one byte)."""
    size = MC_RESPONSE_HEADER_BYTES + 8 * len(response.values_meta or [])
    if response.entry is not None:
        size += len(response.entry[1]) + 1
    return size


@dataclass
class McRequest:
    """Fixed-layout UCR request header (the no-parse representation)."""

    op: str
    keys: list[str]
    flags: int = 0
    exptime: float = 0
    cas: int = 0
    delta: int = 0
    value_length: int = 0
    #: Client counter named as the response AM's target counter.
    counter_id: int = 0
    #: Echoed in the response, so pipelined requests route back by id.
    request_id: int = 0
    #: Filled by the server's header handler for two-phase sets.
    reserved_item: Any = None
    #: ``getl``: accept a stale value on a lost lease.  Rides reserved
    #: header space, so the fixed wire size above is unchanged.
    stale_ok: bool = False
    #: Storage ops: the fill-authorising lease token (0 = plain store);
    #: also rides reserved header space.
    lease_token: int = 0
    #: One-sided clients: ask for the key's published index entry in the
    #: reply (:attr:`McResponse.entry`).  Rides reserved header space;
    #: only ``OneSidedTransport`` sets it.
    want_entry: bool = False
    #: Telemetry rider (a TraceContext); rides the fixed header's padding
    #: in the real protocol, so it is never counted in wire bytes.
    trace: Any = None


@dataclass
class McResponse:
    """Fixed-layout UCR response header."""

    #: The reply status, as is (``command.REPLY_STATUSES``).
    status: str
    number: int = 0
    #: For get responses: (key, flags, length, cas) per hit, data follows
    #: concatenated in the AM payload.  For stats: the sorted (name, value)
    #: pairs.
    values_meta: list = None
    message: str = ""
    #: For status 'error': which side's fault ('client' | 'server'), so
    #: the UCR path preserves the text protocol's CLIENT_ERROR vs
    #: SERVER_ERROR distinction across the wire.
    error_kind: str = "server"
    #: Echoed from the request (pipelined response matching).
    request_id: int = 0
    #: ``getl`` verdict ("" | "won" | "lost"); rides reserved header space.
    lease_state: str = ""
    #: The fill token when ``lease_state == "won"``.
    lease_token: int = 0
    #: The values payload is an expired-but-servable stale value.
    stale: bool = False
    #: ``want_entry`` replies to a command that stored, touched or
    #: re-stored its key: ``(position of the key's slot in its window,
    #: the slot's published 64 bytes)`` as of the linearization point;
    #: None when the key has no live slot.  Counted in wire bytes.
    entry: Any = None
    #: Telemetry rider: the server-side span context, so reply-path spans
    #: attach under the handling operation.  Never counted in wire bytes.
    trace: Any = None


# ---------------------------------------------------------------------------
# Client side: Command -> McRequest, McResponse -> Reply
# ---------------------------------------------------------------------------

#: Ops whose request header uses the "-" placeholder key (the fixed
#: struct always carries a key slot; these ops target a server, not a key).
_KEYLESS_OPS = frozenset({"flush_all", "stats"})


def command_to_request(cmd: Command, trace=None) -> tuple[McRequest, bytes]:
    """Fill one request struct; returns (header, data payload)."""
    data = cmd.value
    keys = list(cmd.keys) if cmd.keys else (["-"] if cmd.op in _KEYLESS_OPS else [])
    return (
        McRequest(
            op=cmd.op,
            keys=keys,
            flags=cmd.flags,
            exptime=int(cmd.exptime),
            cas=cmd.cas,
            delta=cmd.delta,
            value_length=len(data),
            stale_ok=cmd.stale_ok,
            lease_token=cmd.lease_token,
            trace=trace,
        ),
        data,
    )


def response_to_reply(cmd: Command, header: McResponse, payload: bytes) -> Reply:
    """Decode one response struct against the command that produced it."""
    if header.status == "values":
        entries = []
        offset = 0
        for key, flags, length, cas in header.values_meta or []:
            entries.append((key, flags, payload[offset : offset + length], cas))
            offset += length
        return Reply(
            "values",
            values=entries,
            lease_state=header.lease_state,
            lease_token=header.lease_token,
            stale=header.stale,
        )
    if header.status == "stats":
        # Rendered as the text codec renders them, so ``stats`` reads
        # the same (string values) on every wire.
        return Reply("stats", stats={k: f"{v}" for k, v in header.values_meta or []})
    return Reply(header.status, number=header.number, message=header.message,
                 error_kind=header.error_kind)


# ---------------------------------------------------------------------------
# Server side: McRequest -> Command, Reply -> McResponse
# ---------------------------------------------------------------------------


def request_to_command(header: McRequest, data: bytes) -> Command:
    """Decode one request struct into the IR."""
    keys = [] if header.keys == ["-"] else list(header.keys)
    return Command(
        op=header.op,
        keys=keys,
        value=data,
        flags=header.flags,
        exptime=header.exptime,
        cas=header.cas,
        delta=header.delta,
        reserved_item=header.reserved_item,
        stale_ok=header.stale_ok,
        lease_token=header.lease_token,
        want_entry=header.want_entry,
    )


def reply_to_response(cmd: Command, reply: Reply):
    """Encode one reply; returns (header, payload, zero_copy_location).

    Single-key hits whose slab page is RDMA-registered are served
    zero-copy: the location names (mr, offset, length) and the payload
    stays empty.
    """
    if reply.status == "values":
        response = McResponse(
            "values",
            values_meta=[(key, flags, entry_length(data), cas)
                         for key, flags, data, cas in reply.values],
            lease_state=reply.lease_state,
            lease_token=reply.lease_token,
            stale=reply.stale,
        )
        data = reply.values[0][2] if len(cmd.keys) == 1 and reply.values else None
        chunk = getattr(data, "chunk", None)
        if chunk is not None and chunk.page.mr is not None:
            return response, b"", (chunk.page.mr, chunk.offset, entry_length(data))
        # Otherwise the hits are copied into one payload (an mget's are
        # several extents).
        return response, b"".join(entry_data(d) for _k, _f, d, _c in reply.values), None
    if reply.status == "stats":
        return McResponse("stats", values_meta=sorted((reply.stats or {}).items())), b"", None
    kind = "server" if reply.error_kind == "server" else "client"
    return (
        McResponse(reply.status, number=reply.number, message=reply.message,
                   error_kind=kind, entry=reply.entry),
        b"",
        None,
    )


#: No per-value copy in the request path (the endpoint sends from the
#: pinned chunk or copies the payload); the front end charges the fill.
WIRE = ServerWire(
    decode=lambda request: request_to_command(*request),
    encode_reply=lambda _request, cmd, reply: reply_to_response(cmd, reply),
    served_chunk=lambda encoded, reply: reply.values[0][2].chunk if encoded[2] else None,
    server_parse_cost="ucr_decode_us",
    server_execute_cost="ucr_op_execute_us",
    server_copies_values=False,
    server_build_cost=None,
)
