"""The memcached binary protocol (as spoken by libmemcached-era clients).

Wire format (network byte order), request and response share the layout::

    0: magic (0x80 request / 0x81 response)
    1: opcode
    2: key length (2 bytes)
    4: extras length (1)
    5: data type (1, always 0)
    6: vbucket id (request) / status (response) (2)
    8: total body length (4) = extras + key + value
   12: opaque (4, echoed verbatim)
   16: cas (8)
   24: extras | key | value

This module is a full encoder/decoder pair plus an incremental parser,
so the server can interleave binary and text connections (real memcached
sniffs the first byte: 0x80 means binary).  The binary protocol is the
sockets world's answer to the parse tax the paper measures -- fixed
offsets instead of ``strtok`` -- and reproducing it lets the benchmark
suite quantify how much of UCR's win survives even against the cheaper
wire format (spoiler: most of it; the copies and kernel path dominate).

The format is stated once, as data: ``_REQUESTS`` has one row per request
opcode (its IR op, the extras layout and the ``Command`` fields it
carries), ``_REPLIES`` maps each op's response status codes to reply
statuses, and the codec functions below only read them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.memcached.command import Command, Reply, WireFormat, entry_data
from repro.memcached.errors import ProtocolError

MAGIC_REQUEST = 0x80
MAGIC_RESPONSE = 0x81
HEADER_LEN = 24
#: Largest body a frame may declare.
MAX_BODY = 2 * 1024 * 1024
_HEADER = struct.Struct("!BBHBBHLLQ")


class Opcode:
    """Binary protocol opcodes (subset used by libmemcached)."""

    GET = 0x00
    SET = 0x01
    ADD = 0x02
    REPLACE = 0x03
    DELETE = 0x04
    INCREMENT = 0x05
    DECREMENT = 0x06
    QUIT = 0x07
    FLUSH = 0x08
    GETQ = 0x09
    NOOP = 0x0A
    VERSION = 0x0B
    GETK = 0x0C
    GETKQ = 0x0D
    APPEND = 0x0E
    PREPEND = 0x0F
    STAT = 0x10
    TOUCH = 0x1C
    # Lease extension opcodes (vendor range; docs/SERVING.md).  SETL is
    # distinct from SET because a SET frame with a nonzero cas field is
    # the binary cas idiom -- the lease token needs its own extras slot.
    GETL = 0x30
    SETL = 0x31


#: The quiet retrieval opcodes: misses produce no response at all.
QUIET_GET_OPCODES = frozenset({Opcode.GETQ, Opcode.GETKQ})


class Status:
    """Response status codes."""

    NO_ERROR = 0x0000
    KEY_NOT_FOUND = 0x0001
    KEY_EXISTS = 0x0002
    VALUE_TOO_LARGE = 0x0003
    INVALID_ARGUMENTS = 0x0004
    ITEM_NOT_STORED = 0x0005
    NON_NUMERIC = 0x0006
    UNKNOWN_COMMAND = 0x0081
    OUT_OF_MEMORY = 0x0082


@dataclass
class BinMessage:
    """One decoded request or response."""

    magic: int
    opcode: int
    key: bytes = b""
    extras: bytes = b""
    value: bytes = b""
    status: int = 0  # vbucket on requests
    opaque: int = 0
    cas: int = 0

    def unpack_extras(self, layout: struct.Struct, what: str) -> tuple:
        """The extras read as *layout*; *what* names the frame in the error."""
        if len(self.extras) != layout.size:
            raise ProtocolError(
                f"{what} extras must be {layout.size} bytes, got {len(self.extras)}"
            )
        return layout.unpack(self.extras)


def encode(msg: BinMessage) -> bytes:
    """Serialize a message to wire bytes."""
    body_len = len(msg.extras) + len(msg.key) + len(msg.value)
    header = _HEADER.pack(
        msg.magic,
        msg.opcode,
        len(msg.key),
        len(msg.extras),
        0,
        msg.status,
        body_len,
        msg.opaque,
        msg.cas,
    )
    return header + msg.extras + msg.key + msg.value


class BinaryParser:
    """Incremental decoder: feed byte chunks, collect messages.

    Like the text parser, a bad header does not take the messages
    completed before it in the same ``feed`` with it: they are returned
    and the :class:`ProtocolError` is raised by every later call.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._error: "ProtocolError | None" = None

    def feed(self, data: bytes) -> list[BinMessage]:
        """Append *data*; return every message completed by it."""
        if self._error is not None:
            raise self._error
        self._buf.extend(data)
        out: list[BinMessage] = []
        try:
            self._parse_into(out)
        except ProtocolError as exc:
            self._error = exc
            if not out:
                raise
        return out

    def _parse_into(self, out: list[BinMessage]) -> None:
        while len(self._buf) >= HEADER_LEN:
            (
                magic, opcode, key_len, extras_len, data_type,
                status, body_len, opaque, cas,
            ) = _HEADER.unpack_from(self._buf)
            if magic not in (MAGIC_REQUEST, MAGIC_RESPONSE):
                raise ProtocolError(f"bad magic byte {magic:#x}")
            if data_type != 0:
                raise ProtocolError(f"unsupported data type {data_type}")
            if body_len > MAX_BODY:
                raise ProtocolError(f"body of {body_len} bytes exceeds limit")
            if extras_len + key_len > body_len:
                raise ProtocolError("extras+key exceed body length")
            if len(self._buf) < HEADER_LEN + body_len:
                break
            body = bytes(self._buf[HEADER_LEN : HEADER_LEN + body_len])
            del self._buf[: HEADER_LEN + body_len]
            out.append(
                BinMessage(
                    magic=magic,
                    opcode=opcode,
                    extras=body[:extras_len],
                    key=body[extras_len : extras_len + key_len],
                    value=body[extras_len + key_len :],
                    status=status,
                    opaque=opaque,
                    cas=cas,
                )
            )


# ---------------------------------------------------------------------------
# Command-IR codec (binary wire format)
# ---------------------------------------------------------------------------
# Command -> request frames (client), BinMessage -> Command (server),
# Reply -> response frames (server), and a frame assembler for the
# client.  Matching under pipelining is by opaque: the transport stamps
# each in-flight command's slot index into the request's opaque field
# and routes response frames back by it.  Multi-key gets become a
# GETKQ-per-key quiet batch closed by a NOOP, all sharing one opaque --
# misses simply produce no frame (the real protocol's mget idiom).

#: No-auto-create sentinel in arith extras (binary spec).
NO_AUTO_CREATE = 0xFFFFFFFF

_WORD = struct.Struct("!L")
_STORAGE = (("flags", "exptime"), struct.Struct("!LL"))
_ARITH = (("delta", "initial", "create_exptime"), struct.Struct("!QQL"))

#: One row per request opcode: the IR op, the ``Command`` fields its
#: extras carry in order, the extras layout (None: no extras), and whether
#: the frame is keyed.  An unkeyed frame carries a key only when the
#: command has one (a ``stats`` group).  FLUSH's extras are optional: a
#: zero delay sends none.  A new op is one row here and one in _OPCODES.
_REQUESTS = {
    Opcode.GET: ("get", (), None, True),
    Opcode.GETQ: ("get", (), None, True),
    Opcode.GETK: ("get", (), None, True),
    Opcode.GETKQ: ("get", (), None, True),
    Opcode.GETL: ("getl", ("stale_ok",), _WORD, True),
    Opcode.SET: ("set", *_STORAGE, True),
    Opcode.ADD: ("add", *_STORAGE, True),
    Opcode.REPLACE: ("replace", *_STORAGE, True),
    Opcode.SETL: ("set", ("flags", "exptime", "lease_token"), struct.Struct("!LLQ"), True),
    Opcode.APPEND: ("append", (), None, True),
    Opcode.PREPEND: ("prepend", (), None, True),
    Opcode.DELETE: ("delete", (), None, True),
    Opcode.INCREMENT: ("incr", *_ARITH, True),
    Opcode.DECREMENT: ("decr", *_ARITH, True),
    Opcode.TOUCH: ("touch", ("exptime",), _WORD, True),
    Opcode.FLUSH: ("flush_all", ("exptime",), _WORD, False),
    Opcode.STAT: ("stats", (), None, False),
    Opcode.VERSION: ("version", (), None, False),
    Opcode.NOOP: ("noop", (), None, False),
    Opcode.QUIT: ("quit", (), None, False),
}

#: The opcode each IR op is sent as.  ``gets`` is a GET and ``cas`` a SET
#: with the header cas set; a leased set is SETL and a multi-get is GETKQ
#: per key plus a NOOP fence.
_OPCODES = {
    "get": Opcode.GET, "gets": Opcode.GET, "getl": Opcode.GETL,
    "set": Opcode.SET, "add": Opcode.ADD, "replace": Opcode.REPLACE, "cas": Opcode.SET,
    "append": Opcode.APPEND, "prepend": Opcode.PREPEND, "delete": Opcode.DELETE,
    "incr": Opcode.INCREMENT, "decr": Opcode.DECREMENT, "touch": Opcode.TOUCH,
    "flush_all": Opcode.FLUSH, "stats": Opcode.STAT, "version": Opcode.VERSION,
    "noop": Opcode.NOOP,
}

#: Ops whose response carries the post-op cas token.
_CAS_REPLYING = frozenset(
    {"set", "add", "replace", "cas", "append", "prepend", "incr", "decr"}
)

_SOFT = (Status.KEY_NOT_FOUND, Status.KEY_EXISTS, Status.ITEM_NOT_STORED)

#: Per op, the reply status each response status code reads as; a code the
#: op does not list is an error reply.  The server sends each reply status
#: as the first code listed for it (_CODES).
_REPLIES = {
    "cas": {Status.NO_ERROR: "stored", Status.KEY_EXISTS: "exists",
            Status.KEY_NOT_FOUND: "not_found"},
    **dict.fromkeys(("set", "add", "replace", "append", "prepend"), {
        Status.NO_ERROR: "stored", Status.ITEM_NOT_STORED: "not_stored",
        **dict.fromkeys(_SOFT, "not_stored"),
    }),
    "delete": {Status.NO_ERROR: "deleted", **dict.fromkeys(_SOFT, "not_found")},
    "touch": {Status.NO_ERROR: "touched", **dict.fromkeys(_SOFT, "not_found")},
    **dict.fromkeys(("incr", "decr"), {
        Status.NO_ERROR: "number", **dict.fromkeys(_SOFT, "not_found"),
    }),
    **dict.fromkeys(("get", "gets"), {
        Status.NO_ERROR: "values", Status.KEY_NOT_FOUND: "values",
    }),
    "getl": {Status.NO_ERROR: "values"},
    "stats": {Status.NO_ERROR: "stats"},
    "version": {Status.NO_ERROR: "version"},
    "noop": {Status.NO_ERROR: "ok"},  # and flush_all: any op not listed
}
_CODES = {
    status: code
    for by_code in reversed(list(_REPLIES.values()))
    for code, status in reversed(list(by_code.items()))
}

#: The two response layouts: a get hit's flags, and a GETL's
#: (flags, lease state, stale, pad, token).
_GET_FLAGS = struct.Struct("!L")
_GETL_EXTRAS = struct.Struct("!LBBHQ")
_COUNTER = struct.Struct("!Q")
_LEASE_STATES = ("", "won", "lost")


def decode_command(msg: BinMessage) -> Command:
    """Decode one request frame into the IR."""
    row = _REQUESTS.get(msg.opcode)
    if row is None:
        return Command(op=f"op{msg.opcode:#04x}")  # no such op: the engine answers "unknown"
    op, names, layout, keyed = row
    fields = {}
    if layout is not None and (msg.extras or msg.opcode != Opcode.FLUSH):
        fields = dict(zip(names, msg.unpack_extras(layout, op)))
        if "stale_ok" in fields:
            fields["stale_ok"] = bool(fields["stale_ok"])
        if fields.get("create_exptime") == NO_AUTO_CREATE:
            fields["create_exptime"] = None
    if msg.cas and msg.opcode in (Opcode.SET, Opcode.ADD, Opcode.REPLACE):
        op, fields["cas"] = "cas", msg.cas
    return Command(
        op=op,
        keys=[msg.key.decode("ascii", errors="replace")] if keyed or msg.key else [],
        value=msg.value,
        quiet=msg.opcode in QUIET_GET_OPCODES,
        want_cas_token=op in _CAS_REPLYING,
        **fields,
    )


def encode_command(cmd: Command, opaque: int = 0) -> bytes:
    """Serialize one IR command to request frame(s) (client side)."""
    op = cmd.op
    if op in ("get", "gets") and len(cmd.keys) > 1:
        # Quiet batch: GETKQ per key, NOOP fence, one shared opaque.
        frames = [
            BinMessage(MAGIC_REQUEST, Opcode.GETKQ, key=key.encode(), opaque=opaque)
            for key in cmd.keys
        ]
        frames.append(BinMessage(MAGIC_REQUEST, Opcode.NOOP, opaque=opaque))
        return b"".join(map(encode, frames))
    opcode = Opcode.SETL if op == "set" and cmd.lease_token else _OPCODES.get(op)
    if opcode is None:
        raise ProtocolError(f"binary protocol cannot encode op {op!r}")
    _op, names, layout, keyed = _REQUESTS[opcode]
    extras = b""
    if layout is not None and (opcode != Opcode.FLUSH or int(cmd.exptime)):
        values = [getattr(cmd, name) for name in names]
        extras = layout.pack(*(NO_AUTO_CREATE if v is None else int(v) for v in values))
    return encode(BinMessage(
        MAGIC_REQUEST, opcode,
        key=cmd.key.encode() if keyed or cmd.keys else b"",
        extras=extras,
        value=cmd.value,
        opaque=opaque,
        cas=cmd.cas if op == "cas" else 0,
    ))


def respond(
    request: BinMessage,
    status: int = Status.NO_ERROR,
    extras: bytes = b"",
    key: bytes = b"",
    value: bytes = b"",
    cas: int = 0,
) -> bytes:
    """A response echoing the request's opcode and opaque."""
    return encode(
        BinMessage(
            MAGIC_RESPONSE,
            request.opcode,
            key=key,
            extras=extras,
            value=value,
            status=status,
            opaque=request.opaque,
            cas=cas,
        )
    )


def encode_reply(request: BinMessage, cmd: Command, reply: Reply) -> bytes:
    """Serialize one IR reply to response bytes (server side).

    Quiet-get misses return ``b""`` -- no frame at all, which the worker
    loop's falsy check turns into silence on the wire.
    """
    status = reply.status
    if status == "error":
        if reply.error_kind == "server":
            return respond(request, Status.VALUE_TOO_LARGE)
        return respond(request, {
            "unknown": Status.UNKNOWN_COMMAND, "non_numeric": Status.NON_NUMERIC,
        }.get(reply.detail, Status.INVALID_ARGUMENTS))
    if status == "values" and cmd.op == "getl":
        # One frame regardless of verdict: the lease state rides the
        # extras, so a miss is NOT a KEY_NOT_FOUND status here.
        flags, value, cas = 0, b"", 0
        if reply.values:
            _key, flags, data, cas = reply.values[0]
            value = entry_data(data)
        extras = _GETL_EXTRAS.pack(flags, _LEASE_STATES.index(reply.lease_state),
                                   int(reply.stale), 0, reply.lease_token)
        return respond(request, extras=extras, value=value, cas=cas)
    if status == "values":
        if not reply.values:
            return b"" if cmd.quiet else respond(request, Status.KEY_NOT_FOUND)
        _key, flags, data, cas = reply.values[0]
        key = request.key if request.opcode in (Opcode.GETK, Opcode.GETKQ) else b""
        return respond(request, extras=_GET_FLAGS.pack(flags), key=key,
                       value=entry_data(data), cas=cas)
    if status == "number":
        return respond(request, value=_COUNTER.pack(reply.number), cas=reply.cas)
    if status == "stats":
        # One response per pair, then an empty key/value ends the sequence.
        pairs = [respond(request, key=str(k).encode(), value=str(v).encode())
                 for k, v in (reply.stats or {}).items()]
        return b"".join(pairs) + respond(request)
    if status == "version":
        return respond(request, value=reply.message.encode())
    return respond(request, _CODES[status], cas=reply.cas)


class ReplyAssembler:
    """Accumulate response frames for one command into a :class:`Reply`.

    ``feed`` returns True once the reply is complete.  Single-frame for
    every op except multi-key gets (hit frames until the NOOP fence) and
    stats (pairs until the empty-key terminator).
    """

    def __init__(self, cmd: Command) -> None:
        self.cmd = cmd
        self.reply: "Reply | None" = None
        self._values: list = []
        self._stats: dict = {}

    def _done(self, reply: Reply) -> bool:
        self.reply = reply
        return True

    def _error(self, msg: BinMessage) -> Reply:
        kind = (
            "client"
            if msg.status in (Status.NON_NUMERIC, Status.INVALID_ARGUMENTS)
            else "server"
        )
        return Reply("error", message=f"binary status {msg.status:#06x}",
                     error_kind=kind)

    def feed(self, msg: BinMessage) -> bool:
        """Consume one response frame; True when the reply is complete."""
        cmd = self.cmd
        if cmd.op in ("get", "gets") and len(cmd.keys) > 1:
            if msg.opcode == Opcode.NOOP:
                return self._done(Reply("values", values=self._values))
            if msg.status == Status.NO_ERROR:
                (flags,) = msg.unpack_extras(_GET_FLAGS, "get response")
                self._values.append(
                    (msg.key.decode("ascii", errors="replace"), flags, msg.value, msg.cas)
                )
            # Error frames for individual keys are tolerated: an mget is
            # best-effort, hits for the other keys still count.
            return False
        status = _REPLIES.get(cmd.op, _REPLIES["noop"]).get(msg.status)
        if status is None:
            return self._done(self._error(msg))
        if status == "stats":
            if not msg.key:
                return self._done(Reply("stats", stats=self._stats))
            self._stats[msg.key.decode()] = msg.value.decode()
            return False
        if status == "values" and cmd.op == "getl":
            flags, state, stale, _pad, token = msg.unpack_extras(_GETL_EXTRAS, "getl response")
            if state >= len(_LEASE_STATES):
                return self._done(self._error(msg))
            values = [(cmd.key, flags, msg.value, msg.cas)] if state == 0 or stale else []
            return self._done(Reply(
                "values", values=values, lease_state=_LEASE_STATES[state],
                lease_token=token, stale=bool(stale),
            ))
        if status == "values":
            values = []
            if msg.status == Status.NO_ERROR:
                (flags,) = msg.unpack_extras(_GET_FLAGS, "get response")
                values = [(cmd.key, flags, msg.value, msg.cas)]
            return self._done(Reply("values", values=values))
        if status == "number":
            return self._done(
                Reply("number", number=_COUNTER.unpack(msg.value)[0], cas=msg.cas)
            )
        if status == "version":
            return self._done(Reply("version", message=msg.value.decode()))
        return self._done(Reply(status, cas=msg.cas))


def build_set(key: str, value: bytes) -> bytes:
    """One SET frame: the request ``benchmarks/perf/micro.py`` parses."""
    return encode_command(Command("set", [key], value=value))


def build_get(key: str) -> bytes:
    """One GET frame: the request ``benchmarks/perf/micro.py`` parses."""
    return encode_command(Command("get", [key]))


#: Binary: QUIT is acknowledged, unparseable bytes just close the
#: connection, the fixed-layout response is filled in place (no build
#: charge); the client's fixed-offset codec costs what the UCR struct's does.
WIRE = WireFormat(
    decode=decode_command,
    encode_reply=encode_reply,
    served_chunk=None,
    server_parse_cost="parse_binary_us",
    server_execute_cost="op_execute_us",
    server_copies_values=True,
    server_build_cost=None,
    request_parser=BinaryParser,
    parse_error_reply=b"",
    farewell=respond,
    response_parser=BinaryParser,
    encode_command=encode_command,
    reply_assembler=ReplyAssembler,
    in_order_replies=False,
    client_build_cost="build_ucr_us",
    client_parse_cost="parse_ucr_us",
)
