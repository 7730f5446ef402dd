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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.memcached.errors import ProtocolError

MAGIC_REQUEST = 0x80
MAGIC_RESPONSE = 0x81
HEADER_LEN = 24
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

    # -- typed extras helpers ----------------------------------------------------

    def set_extras(self) -> tuple[int, int]:
        """(flags, exptime) of a SET/ADD/REPLACE request."""
        if len(self.extras) != 8:
            raise ProtocolError(f"set extras must be 8 bytes, got {len(self.extras)}")
        return struct.unpack("!LL", self.extras)

    def arith_extras(self) -> tuple[int, int, int]:
        """(delta, initial, exptime) of an INCR/DECR request."""
        if len(self.extras) != 20:
            raise ProtocolError("arith extras must be 20 bytes")
        return struct.unpack("!QQL", self.extras)

    def touch_extras(self) -> int:
        if len(self.extras) != 4:
            raise ProtocolError("touch extras must be 4 bytes")
        return struct.unpack("!L", self.extras)[0]

    def get_response_flags(self) -> int:
        if len(self.extras) != 4:
            raise ProtocolError("get response extras must be 4 bytes")
        return struct.unpack("!L", self.extras)[0]

    def flush_extras(self) -> int:
        """Optional expiration (delay) of a FLUSH request; 0 if absent."""
        if not self.extras:
            return 0
        if len(self.extras) != 4:
            raise ProtocolError("flush extras must be 0 or 4 bytes")
        return struct.unpack("!L", self.extras)[0]

    def getl_extras(self) -> int:
        """stale_ok flag of a GETL request."""
        if len(self.extras) != 4:
            raise ProtocolError("getl extras must be 4 bytes")
        return struct.unpack("!L", self.extras)[0]

    def setl_extras(self) -> tuple[int, int, int]:
        """(flags, exptime, lease_token) of a SETL request."""
        if len(self.extras) != 16:
            raise ProtocolError("setl extras must be 16 bytes")
        return struct.unpack("!LLQ", self.extras)

    def getl_response_extras(self) -> tuple[int, int, int, int]:
        """(flags, lease_state_code, stale, token) of a GETL response."""
        if len(self.extras) != 16:
            raise ProtocolError("getl response extras must be 16 bytes")
        flags, state, stale, _pad, token = struct.unpack("!LBBHQ", self.extras)
        return flags, state, stale, token


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

    def __init__(self, max_body: int = 2 * 1024 * 1024) -> None:
        self._buf = bytearray()
        self._error: "ProtocolError | None" = None
        self.max_body = max_body

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
            if body_len > self.max_body:
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
# Request builders (client side)
# ---------------------------------------------------------------------------


def build_get(key: str, opaque: int = 0) -> bytes:
    return encode(BinMessage(MAGIC_REQUEST, Opcode.GET, key=key.encode(), opaque=opaque))


def build_set(
    key: str, value: bytes, flags: int = 0, exptime: int = 0,
    cas: int = 0, opcode: int = Opcode.SET, opaque: int = 0,
) -> bytes:
    extras = struct.pack("!LL", flags, exptime)
    return encode(
        BinMessage(
            MAGIC_REQUEST, opcode, key=key.encode(), extras=extras,
            value=value, cas=cas, opaque=opaque,
        )
    )


def build_getl(key: str, stale_ok: bool = False, opaque: int = 0) -> bytes:
    """Serialize a GETL (get-with-lease) request."""
    extras = struct.pack("!L", 1 if stale_ok else 0)
    return encode(
        BinMessage(MAGIC_REQUEST, Opcode.GETL, key=key.encode(), extras=extras, opaque=opaque)
    )


def build_setl(
    key: str, value: bytes, flags: int = 0, exptime: int = 0,
    lease: int = 0, opaque: int = 0,
) -> bytes:
    """Serialize a SETL (lease-authorised fill) request."""
    extras = struct.pack("!LLQ", flags, exptime, lease)
    return encode(
        BinMessage(
            MAGIC_REQUEST, Opcode.SETL, key=key.encode(), extras=extras,
            value=value, opaque=opaque,
        )
    )


def build_delete(key: str, opaque: int = 0) -> bytes:
    return encode(BinMessage(MAGIC_REQUEST, Opcode.DELETE, key=key.encode(), opaque=opaque))


def build_arith(
    key: str, delta: int, initial: int = 0, exptime: int = 0xFFFFFFFF,
    decrement: bool = False, opaque: int = 0,
) -> bytes:
    """Serialize an INCREMENT/DECREMENT request."""
    extras = struct.pack("!QQL", delta, initial, exptime)
    opcode = Opcode.DECREMENT if decrement else Opcode.INCREMENT
    return encode(
        BinMessage(MAGIC_REQUEST, opcode, key=key.encode(), extras=extras, opaque=opaque)
    )


def build_concat(key: str, value: bytes, append: bool = True, opaque: int = 0) -> bytes:
    """Serialize an APPEND/PREPEND request (no extras, per the spec)."""
    opcode = Opcode.APPEND if append else Opcode.PREPEND
    return encode(
        BinMessage(MAGIC_REQUEST, opcode, key=key.encode(), value=value, opaque=opaque)
    )


def build_touch(key: str, exptime: int, opaque: int = 0) -> bytes:
    extras = struct.pack("!L", exptime)
    return encode(
        BinMessage(MAGIC_REQUEST, Opcode.TOUCH, key=key.encode(), extras=extras, opaque=opaque)
    )


def build_flush(delay: int = 0, opaque: int = 0) -> bytes:
    """Serialize a FLUSH; a nonzero *delay* rides the optional extras."""
    extras = struct.pack("!L", delay) if delay else b""
    return encode(BinMessage(MAGIC_REQUEST, Opcode.FLUSH, extras=extras, opaque=opaque))


def build_stat(opaque: int = 0) -> bytes:
    return encode(BinMessage(MAGIC_REQUEST, Opcode.STAT, opaque=opaque))


def build_version(opaque: int = 0) -> bytes:
    return encode(BinMessage(MAGIC_REQUEST, Opcode.VERSION, opaque=opaque))


def build_noop(opaque: int = 0) -> bytes:
    return encode(BinMessage(MAGIC_REQUEST, Opcode.NOOP, opaque=opaque))


# ---------------------------------------------------------------------------
# Response builders (server side)
# ---------------------------------------------------------------------------


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


def respond_get_hit(request: BinMessage, flags: int, value: bytes, cas: int) -> bytes:
    key = request.key if request.opcode in (Opcode.GETK, Opcode.GETKQ) else b""
    return respond(
        request, Status.NO_ERROR, extras=struct.pack("!L", flags),
        key=key, value=value, cas=cas,
    )


def respond_counter(request: BinMessage, value: int, cas: int) -> bytes:
    return respond(request, Status.NO_ERROR, value=struct.pack("!Q", value), cas=cas)


def respond_stats(request: BinMessage, stats: dict) -> bytes:
    """STAT emits one response per pair plus an empty terminator."""
    out = []
    for k, v in stats.items():
        out.append(respond(request, key=str(k).encode(), value=str(v).encode()))
    out.append(respond(request))  # empty key/value ends the sequence
    return b"".join(out)


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

from repro.memcached.command import Command, Reply, WireFormat, entry_data  # noqa: E402

#: No-auto-create sentinel in arith extras (binary spec).
NO_AUTO_CREATE = 0xFFFFFFFF

_STORAGE_OPCODES = {"set": Opcode.SET, "add": Opcode.ADD, "replace": Opcode.REPLACE}
_SOFT_STATUSES = frozenset(
    {Status.KEY_NOT_FOUND, Status.KEY_EXISTS, Status.ITEM_NOT_STORED}
)


def request_to_command(msg: BinMessage) -> Command:
    """Decode one request frame into the IR."""
    op = msg.opcode
    key = msg.key.decode("ascii", errors="replace")
    if op in (Opcode.GET, Opcode.GETK, Opcode.GETQ, Opcode.GETKQ):
        return Command(op="get", keys=[key], quiet=op in QUIET_GET_OPCODES)
    if op in (Opcode.SET, Opcode.ADD, Opcode.REPLACE):
        flags, exptime = msg.set_extras()
        if msg.cas:
            return Command(op="cas", keys=[key], value=msg.value, flags=flags,
                           exptime=exptime, cas=msg.cas, want_cas_token=True)
        name = {Opcode.SET: "set", Opcode.ADD: "add", Opcode.REPLACE: "replace"}[op]
        return Command(op=name, keys=[key], value=msg.value, flags=flags,
                       exptime=exptime, want_cas_token=True)
    if op == Opcode.GETL:
        return Command(op="getl", keys=[key], stale_ok=bool(msg.getl_extras()))
    if op == Opcode.SETL:
        flags, exptime, lease = msg.setl_extras()
        return Command(op="set", keys=[key], value=msg.value, flags=flags,
                       exptime=exptime, lease_token=lease, want_cas_token=True)
    if op in (Opcode.APPEND, Opcode.PREPEND):
        name = "append" if op == Opcode.APPEND else "prepend"
        return Command(op=name, keys=[key], value=msg.value, want_cas_token=True)
    if op == Opcode.DELETE:
        return Command(op="delete", keys=[key])
    if op in (Opcode.INCREMENT, Opcode.DECREMENT):
        delta, initial, exptime = msg.arith_extras()
        return Command(
            op="incr" if op == Opcode.INCREMENT else "decr",
            keys=[key], delta=delta, initial=initial,
            create_exptime=None if exptime == NO_AUTO_CREATE else exptime,
            want_cas_token=True,
        )
    if op == Opcode.TOUCH:
        return Command(op="touch", keys=[key], exptime=msg.touch_extras())
    if op == Opcode.FLUSH:
        return Command(op="flush_all", exptime=msg.flush_extras())
    if op == Opcode.NOOP:
        return Command(op="noop")
    if op == Opcode.VERSION:
        return Command(op="version")
    if op == Opcode.STAT:
        return Command(op="stats", keys=[key] if key else [])
    if op == Opcode.QUIT:
        return Command(op="quit")
    return Command(op=f"op{op:#04x}")  # no such op: the engine answers "unknown"


def encode_command(cmd: Command, opaque: int = 0) -> bytes:
    """Serialize one IR command to request frame(s) (client side)."""
    op = cmd.op
    if op in ("get", "gets"):
        if len(cmd.keys) > 1:
            # Quiet batch: GETKQ per key, NOOP fence, one shared opaque.
            frames = [
                encode(BinMessage(MAGIC_REQUEST, Opcode.GETKQ,
                                  key=key.encode(), opaque=opaque))
                for key in cmd.keys
            ]
            frames.append(build_noop(opaque))
            return b"".join(frames)
        return build_get(cmd.key, opaque=opaque)
    if op == "getl":
        return build_getl(cmd.key, stale_ok=cmd.stale_ok, opaque=opaque)
    if op == "set" and cmd.lease_token:
        return build_setl(cmd.key, cmd.value, cmd.flags, int(cmd.exptime),
                          lease=cmd.lease_token, opaque=opaque)
    if op in ("set", "add", "replace"):
        return build_set(cmd.key, cmd.value, cmd.flags, int(cmd.exptime),
                         opcode=_STORAGE_OPCODES[op], opaque=opaque)
    if op == "cas":
        return build_set(cmd.key, cmd.value, cmd.flags, int(cmd.exptime),
                         cas=cmd.cas, opaque=opaque)
    if op in ("append", "prepend"):
        return build_concat(cmd.key, cmd.value, append=(op == "append"),
                            opaque=opaque)
    if op == "delete":
        return build_delete(cmd.key, opaque=opaque)
    if op in ("incr", "decr"):
        exptime = NO_AUTO_CREATE if cmd.create_exptime is None else cmd.create_exptime
        return build_arith(cmd.key, cmd.delta, initial=cmd.initial, exptime=exptime,
                           decrement=(op == "decr"), opaque=opaque)
    if op == "touch":
        return build_touch(cmd.key, int(cmd.exptime), opaque=opaque)
    if op == "flush_all":
        return build_flush(int(cmd.exptime), opaque=opaque)
    if op == "stats":
        return build_stat(opaque=opaque)
    if op == "version":
        return build_version(opaque=opaque)
    if op == "noop":
        return build_noop(opaque=opaque)
    raise ProtocolError(f"binary protocol cannot encode op {cmd.op!r}")


def encode_reply(request: BinMessage, cmd: Command, reply: Reply) -> bytes:
    """Serialize one IR reply to response bytes (server side).

    Quiet-get misses return ``b""`` -- no frame at all, which the worker
    loop's falsy check turns into silence on the wire.
    """
    status = reply.status
    if status == "error":
        if reply.error_kind == "server":
            return respond(request, Status.VALUE_TOO_LARGE)
        if reply.detail == "unknown":
            return respond(request, Status.UNKNOWN_COMMAND)
        if reply.detail == "non_numeric":
            return respond(request, Status.NON_NUMERIC)
        return respond(request, Status.INVALID_ARGUMENTS)
    if status == "values" and cmd.op == "getl":
        # One frame regardless of verdict: the lease state rides the
        # extras, so a miss is NOT a KEY_NOT_FOUND status here.
        state_code = {"": 0, "won": 1, "lost": 2}[reply.lease_state]
        if reply.values:
            _key, flags, data, cas = reply.values[0]
            value, cas_out = entry_data(data), cas
        else:
            flags, value, cas_out = 0, b"", 0
        extras = struct.pack("!LBBHQ", flags, state_code, int(reply.stale),
                             0, reply.lease_token)
        return respond(request, Status.NO_ERROR, extras=extras,
                       value=value, cas=cas_out)
    if status == "values":
        if not reply.values:
            if cmd.quiet:
                return b""
            return respond(request, Status.KEY_NOT_FOUND)
        _key, flags, data, cas = reply.values[0]
        return respond_get_hit(request, flags, entry_data(data), cas)
    if status == "number":
        return respond_counter(request, reply.number, reply.cas)
    if status == "stats":
        return respond_stats(request, reply.stats or {})
    if status == "version":
        return respond(request, value=reply.message.encode())
    if status == "stored":
        return respond(request, cas=reply.cas)
    if status == "deleted" or status == "touched" or status == "ok":
        return respond(request)
    return respond(
        request,
        {
            "not_stored": Status.ITEM_NOT_STORED,
            "exists": Status.KEY_EXISTS,
            "not_found": Status.KEY_NOT_FOUND,
        }[status],
    )


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
        op = cmd.op
        if op in ("get", "gets") and len(cmd.keys) > 1:
            if msg.opcode == Opcode.NOOP:
                return self._done(Reply("values", values=self._values))
            if msg.status == Status.NO_ERROR:
                self._values.append(
                    (msg.key.decode("ascii", errors="replace"),
                     msg.get_response_flags(), msg.value, msg.cas)
                )
            # Error frames for individual keys are tolerated: an mget is
            # best-effort, hits for the other keys still count.
            return False
        if op == "stats":
            if msg.status != Status.NO_ERROR:
                return self._done(self._error(msg))
            if not msg.key:
                return self._done(Reply("stats", stats=self._stats))
            self._stats[msg.key.decode()] = msg.value.decode()
            return False
        if op == "getl":
            if msg.status != Status.NO_ERROR:
                return self._done(self._error(msg))
            flags, state, stale, token = msg.getl_response_extras()
            lease_state = {0: "", 1: "won", 2: "lost"}.get(state)
            if lease_state is None:
                return self._done(self._error(msg))
            values = []
            if state == 0 or stale:
                values = [(cmd.key, flags, msg.value, msg.cas)]
            return self._done(Reply(
                "values", values=values, lease_state=lease_state,
                lease_token=token, stale=bool(stale),
            ))
        if op in ("get", "gets"):
            if msg.status == Status.KEY_NOT_FOUND:
                return self._done(Reply("values", values=[]))
            if msg.status != Status.NO_ERROR:
                return self._done(self._error(msg))
            return self._done(
                Reply("values",
                      values=[(cmd.key, msg.get_response_flags(), msg.value, msg.cas)])
            )
        if op == "cas":
            mapped = {
                Status.NO_ERROR: "stored",
                Status.KEY_EXISTS: "exists",
                Status.KEY_NOT_FOUND: "not_found",
            }.get(msg.status)
            if mapped is None:
                return self._done(self._error(msg))
            return self._done(Reply(mapped, cas=msg.cas))
        if op in ("set", "add", "replace", "append", "prepend"):
            if msg.status == Status.NO_ERROR:
                return self._done(Reply("stored", cas=msg.cas))
            if msg.status in _SOFT_STATUSES:
                return self._done(Reply("not_stored"))
            return self._done(self._error(msg))
        if op == "delete":
            if msg.status == Status.NO_ERROR:
                return self._done(Reply("deleted"))
            if msg.status in _SOFT_STATUSES:
                return self._done(Reply("not_found"))
            return self._done(self._error(msg))
        if op in ("incr", "decr"):
            if msg.status == Status.NO_ERROR:
                return self._done(
                    Reply("number", number=struct.unpack("!Q", msg.value)[0],
                          cas=msg.cas)
                )
            if msg.status in _SOFT_STATUSES:
                return self._done(Reply("not_found"))
            return self._done(self._error(msg))
        if op == "touch":
            if msg.status == Status.NO_ERROR:
                return self._done(Reply("touched"))
            if msg.status in _SOFT_STATUSES:
                return self._done(Reply("not_found"))
            return self._done(self._error(msg))
        if op == "version":
            if msg.status != Status.NO_ERROR:
                return self._done(self._error(msg))
            return self._done(Reply("version", message=msg.value.decode()))
        # flush_all / noop / anything acknowledged with a bare frame.
        if msg.status == Status.NO_ERROR:
            return self._done(Reply("ok"))
        return self._done(self._error(msg))


#: Binary: QUIT is acknowledged, unparseable bytes just close the
#: connection, the fixed-layout response is filled in place (no build
#: charge); the client's fixed-offset codec costs what the UCR struct's does.
WIRE = WireFormat(
    request_parser=BinaryParser,
    decode=request_to_command,
    encode_reply=encode_reply,
    parse_error_reply=b"",
    farewell=respond,
    server_parse_cost="parse_binary_us",
    server_build_cost=None,
    response_parser=BinaryParser,
    encode_command=encode_command,
    reply_assembler=ReplyAssembler,
    in_order_replies=False,
    client_build_cost="build_ucr_us",
    client_parse_cost="parse_ucr_us",
)
