"""The transport-neutral command IR.

Every client operation builds exactly one :class:`Command`; every wire
frontend decodes into the same :class:`Command`; the server's
:class:`~repro.memcached.engine.CommandEngine` executes it and produces
one :class:`Reply`.  The three wire formats (text, binary, UCR struct)
each own one codec module that converts between the IR and their frames:

- text: :mod:`repro.memcached.protocol`
- binary: :mod:`repro.memcached.protocol_binary`
- UCR struct: :mod:`repro.memcached.protocol_ucr`

The IR mirrors the paper's observation that a request is best handled as
a single descriptor: once an operation is a ``Command``, batching and
pipelining are implemented once, beneath every transport.

``Command`` and ``Reply`` are plain state carriers -- no wire knowledge,
no store knowledge -- so codecs and the engine stay the only places where
a format or a semantic lives.  :class:`ServerWire` is the shape of the
row each codec publishes about its server half; :class:`WireFormat`
extends it with a sockets codec's byte-stream framing and client half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Every data-path operation the IR covers (admin ops included).
OPS = frozenset(
    {
        "set", "add", "replace", "cas", "append", "prepend",
        "get", "gets", "getl", "delete", "incr", "decr", "touch",
        "flush_all", "stats", "version", "noop",
    }
)

#: Reply statuses the engine may produce.
REPLY_STATUSES = frozenset(
    {
        "stored", "not_stored", "exists", "not_found", "deleted",
        "touched", "ok", "number", "values", "stats", "version", "error",
    }
)

#: The one service id memcached answers on: the TCP port of every sockets
#: listener and the UCR service of the port attached to the same server
#: (paper §V: one server process, both personalities).
MEMCACHED_PORT = 11211


@dataclass
class Command:
    """One operation, independent of wire format.

    Field semantics by op family:

    - storage (``set``/``add``/``replace``/``cas``/``append``/``prepend``):
      ``value``, ``flags``, ``exptime``; ``cas`` carries the compare
      token for ``cas``.
    - retrieval (``get``/``gets``): ``keys`` may hold several keys (an
      mget); ``quiet`` asks the server to suppress miss replies (the
      binary GETQ/GETKQ contract).
    - arithmetic (``incr``/``decr``): ``delta``; ``create_exptime`` is
      ``None`` for the text/UCR semantics (missing key -> not_found) or
      an expiry for the binary auto-create path, with ``initial`` as the
      seeded value.  ``want_cas_token`` asks the engine to report the
      resulting cas (binary responses always carry one).
    - admin: ``flush_all`` uses ``exptime`` as the delay; ``stats`` uses
      ``keys`` for the sub-command.
    """

    op: str
    keys: list[str] = field(default_factory=list)
    value: bytes = b""
    flags: int = 0
    exptime: float = 0
    cas: int = 0
    delta: int = 0
    initial: int = 0
    #: Binary arith auto-create expiry; None = no auto-create (text/UCR).
    create_exptime: Optional[int] = None
    noreply: bool = False
    #: Suppress miss replies (binary quiet gets).
    quiet: bool = False
    #: Report the post-op cas token in the reply (binary responses).
    want_cas_token: bool = False
    #: Two-phase UCR sets: the slab item reserved by the header handler.
    reserved_item: Any = None
    #: ``getl``: the client will accept a stale (expired-but-present)
    #: value while another client holds the regeneration lease.
    stale_ok: bool = False
    #: Storage ops: the lease token authorising this fill (0 = plain op).
    lease_token: int = 0
    #: Report the key's published one-sided index entry in the reply
    #: (UCR requests from a one-sided client).
    want_entry: bool = False

    @property
    def key(self) -> str:
        return self.keys[0]


@dataclass
class Reply:
    """One operation's outcome, independent of wire format.

    ``values`` holds one ``(key, flags, data, cas)`` tuple per hit of a
    get/gets; the server engine stores the live
    :class:`~repro.memcached.store.Item` as ``data`` (so codecs can take
    the zero-copy path), client codecs store the received bytes.

    ``status == 'error'`` carries the text protocol's taxonomy in
    ``error_kind`` (``client`` | ``server`` | ``protocol``), plus a
    ``detail`` channel for distinctions only one wire format surfaces
    (binary NON_NUMERIC vs INVALID_ARGUMENTS, UNKNOWN_COMMAND).
    """

    status: str
    number: int = 0
    values: list = field(default_factory=list)
    cas: int = 0
    message: str = ""
    error_kind: str = "server"
    detail: str = ""
    stats: Optional[dict] = None
    #: ``getl`` misses: "won" (caller holds the fill lease) or "lost"
    #: (someone else is regenerating); "" for live hits and non-getl ops.
    lease_state: str = ""
    #: The fill token when ``lease_state == "won"``.
    lease_token: int = 0
    #: The entry in ``values`` is an expired-but-servable stale value.
    stale: bool = False
    #: ``want_entry``: the key's published index entry after the command,
    #: ``(position of its slot in the key's window, 64 bytes)``, or None.
    entry: Optional[tuple] = None


def entry_data(data) -> bytes:
    """The payload bytes of a reply-values entry (Item or raw bytes)."""
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    return data.value()


def entry_length(data) -> int:
    """The payload length of a reply-values entry without copying."""
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    return data.value_length


@dataclass(frozen=True)
class ServerWire:
    """One wire format's server half as one row: every answer to "which
    format?" that the request path needs (``protocol.WIRE``,
    ``protocol_binary.WIRE``, ``protocol_ucr.WIRE``).  The ``*_cost``
    columns name fields of ``MemcachedCosts`` / ``ClientCosts``.
    """

    #: Wire request -> :class:`Command`; may raise ``ProtocolError``.
    decode: Callable[[Any], Command]
    #: ``(wire request, cmd, reply)`` -> the encoded reply (sockets: bytes,
    #: ``b""``: say nothing), made in the step that applies the command.
    encode_reply: Callable[[Any, Command, Reply], Any]
    #: ``(encoded, reply)`` -> the slab chunk an encoding names instead of
    #: carrying its bytes, else None (None: encodings carry their bytes).
    served_chunk: Optional[Callable[[Any, Reply], Any]]
    #: Charged per request before execution / around the engine.
    server_parse_cost: str
    server_execute_cost: str
    #: Response assembly copies each served value (one memcpy apiece).
    server_copies_values: bool
    #: Charged per non-error reply, after execution (None: filled in place).
    server_build_cost: Optional[str]


@dataclass(frozen=True)
class WireFormat(ServerWire):
    """One sockets wire format: its server half, its byte stream's
    framing and its client half -- every answer to "text or binary?".
    The server picks one per connection from the first byte, the client
    one per transport."""

    #: Makes the incremental parser whose ``feed(bytes)`` -> wire requests.
    request_parser: Callable[[], Any]
    #: In-band answer to unparseable bytes before the drop (``b""``: none).
    parse_error_reply: bytes
    #: Wire request -> the acknowledgement of a ``quit`` (None: just close).
    farewell: Optional[Callable[[Any], bytes]]
    # -- client side ------------------------------------------------------
    #: Makes the incremental parser whose ``feed(bytes)`` -> reply tokens.
    response_parser: Callable[[], Any]
    #: ``(cmd, opaque)`` -> request bytes.
    encode_command: Callable[..., bytes]
    #: ``cmd`` -> an assembler whose ``feed(token)`` completes a Reply.
    reply_assembler: Callable[[Command], Any]
    #: Pipelined reply matching: submission order, or ``token.opaque``.
    in_order_replies: bool
    #: Charged per command sent / per reply completed.
    client_build_cost: str
    client_parse_cost: str
