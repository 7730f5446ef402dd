"""The memcached text protocol.

Implements both directions of the classic ASCII protocol (the one
libmemcached 0.45 speaks by default): an incremental request parser for
the server (partial reads, pipelining, the two-phase ``set`` data block),
response serialization, and the client-side response parser.

This module is pure bytes-in/bytes-out -- it is exactly the
"byte-stream to memory-object conversion" overhead the paper attributes
to sockets-based memcached, and the server charges CPU time proportional
to the work done here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memcached.command import Command, Reply, WireFormat, entry_data
from repro.memcached.errors import ProtocolError

CRLF = b"\r\n"
#: Longest command line the server buffers while waiting for its CRLF.
MAX_LINE = 2048

#: Commands followed by a data block of <bytes> + CRLF.
STORAGE_COMMANDS = frozenset({"set", "add", "replace", "append", "prepend", "cas"})
#: Single-line retrieval/mutation commands.
SIMPLE_COMMANDS = frozenset(
    {"get", "gets", "getl", "delete", "incr", "decr", "touch", "stats",
     "flush_all", "version", "quit"}
)
#: Commands that take a trailing ``noreply``.
NOREPLY_COMMANDS = STORAGE_COMMANDS | {"delete", "incr", "decr", "touch", "flush_all"}
#: The plain reply statuses and the one-word line each is sent as.
_STATUSES = {
    "stored": "STORED", "not_stored": "NOT_STORED", "exists": "EXISTS",
    "not_found": "NOT_FOUND", "deleted": "DELETED", "touched": "TOUCHED",
    "ok": "OK",
}
_MARKERS = {marker: status for status, marker in _STATUSES.items()}


class RequestParser:
    """Incremental server-side parser.

    Feed arbitrary byte chunks; collect complete IR
    :class:`~repro.memcached.command.Command` objects.  State machine: a
    command line, then (for storage commands) a data block of exactly
    ``<bytes>`` + CRLF.

    A malformed line does not take the commands completed before it in
    the same ``feed`` with it: they are returned, and the
    :class:`ProtocolError` is raised by the next call (and every later
    one) -- so what executes does not depend on how the bytes were
    split into reads.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pending: Optional[Command] = None  # awaiting data block
        self._need = 0  # declared byte count of the pending data block
        self._error: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> list[Command]:
        """Append *data*; return every command completed by it."""
        if self._error is not None:
            raise self._error
        self._buf.extend(data)
        out: list[Command] = []
        try:
            self._parse_into(out)
        except ProtocolError as exc:
            self._error = exc
            if not out:
                raise
        return out

    def _parse_into(self, out: list[Command]) -> None:
        while True:
            if self._pending is not None:
                if len(self._buf) < self._need + 2:
                    break
                block = bytes(self._buf[: self._need])
                terminator = bytes(self._buf[self._need : self._need + 2])
                del self._buf[: self._need + 2]
                if terminator != CRLF:
                    raise ProtocolError("bad data chunk terminator")
                cmd = self._pending
                self._pending = None
                cmd.value = block
                out.append(cmd)
                continue
            nl = self._buf.find(CRLF)
            if nl < 0:
                if len(self._buf) > MAX_LINE:
                    raise ProtocolError("command line too long")
                break
            line = bytes(self._buf[:nl]).decode("ascii", errors="replace")
            del self._buf[: nl + 2]
            cmd = self._parse_line(line)
            if cmd.op in STORAGE_COMMANDS:
                self._pending = cmd
            else:
                out.append(cmd)

    def _parse_line(self, line: str) -> Command:
        parts = line.split()
        if not parts:
            raise ProtocolError("empty command line")
        op = parts[0].lower()
        if op in STORAGE_COMMANDS:
            return self._parse_storage(op, parts)
        if op not in SIMPLE_COMMANDS:
            raise ProtocolError(f"unknown command {op!r}")
        try:
            return self._parse_simple(op, parts)
        except ValueError as exc:  # a delta, exptime or delay that is no number
            raise ProtocolError(f"bad {op} numeric field") from exc

    def _parse_storage(self, op: str, parts: list[str]) -> Command:
        want = 6 if op == "cas" else 5
        noreply = False
        if len(parts) > want and parts[-1] == "noreply":
            noreply = True
            parts = parts[:-1]
        lease = 0
        if len(parts) == want + 1 and parts[-1].startswith("lease="):
            try:
                lease = int(parts[-1][len("lease="):])
            except ValueError as exc:
                raise ProtocolError(f"bad {op} lease token") from exc
            if lease <= 0:
                raise ProtocolError(f"bad {op} lease token")
            parts = parts[:-1]
        if len(parts) != want:
            raise ProtocolError(f"bad {op} line")
        try:
            flags = int(parts[2])
            exptime = float(parts[3])
            nbytes = int(parts[4])
            cas = int(parts[5]) if op == "cas" else 0
        except ValueError as exc:
            raise ProtocolError(f"bad {op} numeric field") from exc
        if nbytes < 0:
            raise ProtocolError("negative byte count")
        self._need = nbytes
        return Command(
            op=op,
            keys=[parts[1]],
            flags=flags,
            exptime=exptime,
            cas=cas,
            noreply=noreply,
            lease_token=lease,
        )

    def _parse_simple(self, op: str, parts: list[str]) -> Command:
        noreply = parts[-1] == "noreply" and op in NOREPLY_COMMANDS
        if noreply:
            parts = parts[:-1]
        if op in ("get", "gets"):
            if len(parts) < 2:
                raise ProtocolError("get requires at least one key")
            return Command(op=op, keys=parts[1:])
        if op == "getl":
            # getl <key> [stale]
            stale = len(parts) == 3 and parts[2] == "stale"
            if len(parts) != 2 and not stale:
                raise ProtocolError("bad getl line")
            return Command(op=op, keys=[parts[1]], stale_ok=stale)
        if op in ("incr", "decr"):
            if len(parts) != 3:
                raise ProtocolError(f"bad {op} line")
            return Command(op=op, keys=[parts[1]], delta=int(parts[2]), noreply=noreply)
        if op == "touch":
            if len(parts) != 3:
                raise ProtocolError("bad touch line")
            return Command(op=op, keys=[parts[1]], exptime=float(parts[2]), noreply=noreply)
        if op == "delete":
            if len(parts) != 2:
                raise ProtocolError("bad delete line")
            return Command(op=op, keys=[parts[1]], noreply=noreply)
        if op == "flush_all":
            delay = float(parts[1]) if len(parts) > 1 else 0.0
            return Command(op=op, exptime=delay, noreply=noreply)
        # stats / version / quit
        return Command(op=op, keys=parts[1:])


# ---------------------------------------------------------------------------
# Response construction (server side)
# ---------------------------------------------------------------------------


def encode_value(key: str, flags: int, data: bytes, cas: Optional[int] = None) -> bytes:
    """One VALUE block of a get/gets response."""
    if cas is None:
        head = f"VALUE {key} {flags} {len(data)}\r\n".encode()
    else:
        head = f"VALUE {key} {flags} {len(data)} {cas}\r\n".encode()
    return head + data + CRLF


def encode_stats(stats: dict) -> bytes:
    lines = b"".join(f"STAT {k} {v}\r\n".encode() for k, v in stats.items())
    return lines + b"END\r\n"


# ---------------------------------------------------------------------------
# Client-side response parsing
# ---------------------------------------------------------------------------


@dataclass
class ValueReply:
    """One VALUE block parsed from a get/gets response."""
    key: str
    flags: int
    data: bytes
    cas: Optional[int] = None


class ResponseParser:
    """Incremental client-side parser for one connection."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pending_value: Optional[ValueReply] = None
        self._need = 0

    def feed(self, data: bytes) -> list:
        """Returns a list of reply tokens: str markers, int (for incr/decr
        and stats values come as ('STAT', k, v)), or ValueReply objects."""
        self._buf.extend(data)
        out: list = []
        while True:
            if self._pending_value is not None:
                if len(self._buf) < self._need + 2:
                    break
                block = bytes(self._buf[: self._need])
                del self._buf[: self._need + 2]
                reply = self._pending_value
                self._pending_value = None
                reply.data = block
                out.append(reply)
                continue
            nl = self._buf.find(CRLF)
            if nl < 0:
                break
            line = bytes(self._buf[:nl]).decode("ascii", errors="replace")
            del self._buf[: nl + 2]
            token = self._parse_line(line)
            if isinstance(token, ValueReply):
                self._pending_value = token
                continue
            out.append(token)
        return out

    def _parse_line(self, line: str):
        if line.startswith("VALUE "):
            parts = line.split()
            if len(parts) not in (4, 5):
                raise ProtocolError(f"bad VALUE line {line!r}")
            self._need = int(parts[3])
            return ValueReply(
                key=parts[1],
                flags=int(parts[2]),
                data=b"",
                cas=int(parts[4]) if len(parts) == 5 else None,
            )
        if line.startswith("STAT "):
            _, k, v = line.split(" ", 2)
            return ("STAT", k, v)
        if line.startswith(("CLIENT_ERROR ", "SERVER_ERROR ", "VERSION ")):
            return line
        if line.startswith("LEASE "):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ProtocolError(f"bad LEASE line {line!r}")
            return ("LEASE", int(parts[1]))
        if line.isdigit():
            return int(line)
        if line in _MARKERS or line in ("END", "ERROR", "LOST", "STALE"):
            return line
        raise ProtocolError(f"unrecognized response line {line!r}")


# ---------------------------------------------------------------------------
# Command-IR codec (text wire format)
# ---------------------------------------------------------------------------
# The IR half of this module: Command -> request bytes (client), Reply
# -> response bytes (server), and a token-stream assembler for the
# client; the request parser above already emits Commands.  Matching
# under pipelining is in-order: the text protocol answers requests in
# submission order, so the transport feeds reply tokens to the oldest
# incomplete assembler.

#: The request table: per op, the fields its line carries after the keys
#: (``bytes`` is the data block's length).  ``encode_command`` then adds
#: ``lease=``, ``stale`` and ``noreply``.  A new op is one row.
_REQUESTS = {
    **dict.fromkeys(
        ("set", "add", "replace", "append", "prepend"), ("flags", "exptime", "bytes")
    ),
    "cas": ("flags", "exptime", "bytes", "cas"),
    **dict.fromkeys(("get", "gets", "getl", "delete", "stats", "version"), ()),
    **dict.fromkeys(("incr", "decr"), ("delta",)),
    "touch": ("exptime",),
    "flush_all": ("exptime",),  # left off when there is no delay
}


def encode_command(cmd: Command, opaque: int = 0) -> bytes:
    """Serialize one IR command to text wire bytes (client side).

    ``opaque`` is accepted for interface parity with the binary codec;
    the text protocol matches replies by order, not id.
    """
    op = cmd.op
    fields = _REQUESTS.get(op)
    if fields is None:
        raise ProtocolError(f"text protocol cannot encode op {op!r}")
    if op == "flush_all" and not cmd.exptime:
        fields = ()
    words = [op, *cmd.keys]
    words += [str(len(cmd.value)) if name == "bytes" else str(int(getattr(cmd, name)))
              for name in fields]
    if cmd.lease_token and op in STORAGE_COMMANDS and op != "cas":
        words.append(f"lease={cmd.lease_token}")
    if cmd.stale_ok and op == "getl":
        words.append("stale")
    if cmd.noreply and op in NOREPLY_COMMANDS:
        words.append("noreply")
    line = " ".join(words).encode() + CRLF
    return line + cmd.value + CRLF if op in STORAGE_COMMANDS else line


def build_storage(op: str, key: str, flags: int, exptime: float, data: bytes) -> bytes:
    """One storage request: the kind ``benchmarks/perf/micro.py`` parses."""
    return encode_command(Command(op, [key], value=data, flags=flags, exptime=exptime))


def build_get(keys: list[str]) -> bytes:
    """One get request: the kind ``benchmarks/perf/micro.py`` parses."""
    return encode_command(Command("get", keys))


def encode_reply(cmd: Command, reply: Reply) -> bytes:
    """Serialize one IR reply to text wire bytes (server side)."""
    status = reply.status
    if status == "values":
        chunks = []
        if cmd.op == "getl" and reply.lease_state:
            # A getl miss: the lease verdict line, then any stale value.
            if reply.lease_state == "won":
                chunks.append(f"LEASE {reply.lease_token}\r\n".encode())
            else:
                chunks.append(b"STALE\r\n" if reply.values else b"LOST\r\n")
        chunks += [
            encode_value(key, flags, entry_data(data),
                         cas if cmd.op == "gets" else None)
            for key, flags, data, cas in reply.values
        ]
        chunks.append(b"END\r\n")
        return b"".join(chunks)
    if status == "error":
        if reply.error_kind == "client":
            if reply.detail == "unknown":
                return b"ERROR\r\n"
            return f"CLIENT_ERROR {reply.message}\r\n".encode()
        return f"SERVER_ERROR {reply.message}\r\n".encode()
    if status == "number":
        return f"{reply.number}\r\n".encode()
    if status == "stats":
        return encode_stats(reply.stats or {})
    if status == "version":
        return f"VERSION {reply.message}\r\n".encode()
    return _STATUSES[status].encode() + CRLF


class ReplyAssembler:
    """Accumulate reply tokens for one command into a :class:`Reply`.

    ``feed`` returns True once the reply is complete (``.reply`` is then
    set).  Error lines complete the reply immediately -- the server
    never follows CLIENT_ERROR/SERVER_ERROR/ERROR with END, even on a
    get.  Tokens the command cannot produce raise
    :class:`~repro.memcached.errors.ProtocolError` (stream desync).
    """

    def __init__(self, cmd: Command) -> None:
        self.cmd = cmd
        self.reply: Optional[Reply] = None
        self._values: list = []
        self._stats: dict = {}
        self._lease_state = ""
        self._lease_token = 0

    def _done(self, reply: Reply) -> bool:
        self.reply = reply
        return True

    def feed(self, token) -> bool:
        """Consume one parsed reply token; True when the reply is complete."""
        op = self.cmd.op
        if isinstance(token, str):
            if token.startswith("CLIENT_ERROR"):
                return self._done(Reply("error", message=token, error_kind="client"))
            if token.startswith("SERVER_ERROR"):
                return self._done(Reply("error", message=token, error_kind="server"))
            if token == "ERROR":
                return self._done(
                    Reply("error", message="server rejected the command",
                          error_kind="protocol")
                )
            if token.startswith("VERSION "):
                return self._done(Reply("version", message=token[len("VERSION "):]))
        if op in ("get", "gets"):
            if isinstance(token, ValueReply):
                self._values.append((token.key, token.flags, token.data, token.cas or 0))
                return False
            if token == "END":
                return self._done(Reply("values", values=self._values))
            raise ProtocolError(f"unexpected token {token!r} in get reply")
        if op == "getl":
            if isinstance(token, tuple) and token[0] == "LEASE":
                self._lease_state = "won"
                self._lease_token = token[1]
                return False
            if token in ("LOST", "STALE"):
                self._lease_state = "lost"
                return False
            if isinstance(token, ValueReply):
                self._values.append((token.key, token.flags, token.data, token.cas or 0))
                return False
            if token == "END":
                return self._done(Reply(
                    "values",
                    values=self._values,
                    lease_state=self._lease_state,
                    lease_token=self._lease_token,
                    stale=bool(self._values and self._lease_state),
                ))
            raise ProtocolError(f"unexpected token {token!r} in getl reply")
        if op == "stats":
            if isinstance(token, tuple) and token[0] == "STAT":
                self._stats[token[1]] = token[2]
                return False
            if token == "END":
                return self._done(Reply("stats", stats=self._stats))
            raise ProtocolError(f"unexpected token {token!r} in stats reply")
        if isinstance(token, int):
            return self._done(Reply("number", number=token))
        if isinstance(token, str) and token in _MARKERS:
            return self._done(Reply(_MARKERS[token]))
        raise ProtocolError(f"unexpected token {token!r} for {op}")


#: Text: ``quit`` closes without a word, a malformed line is answered
#: ``ERROR``, formatting the reply lines is charged on top of dispatch.
WIRE = WireFormat(
    decode=lambda cmd: cmd,
    encode_reply=lambda _request, cmd, reply: encode_reply(cmd, reply),
    served_chunk=None,
    server_parse_cost="parse_dispatch_us",
    server_execute_cost="op_execute_us",
    server_copies_values=True,
    server_build_cost="response_build_us",
    request_parser=RequestParser,
    parse_error_reply=b"ERROR\r\n",
    farewell=None,
    response_parser=ResponseParser,
    encode_command=encode_command,
    reply_assembler=ReplyAssembler,
    in_order_replies=True,
    client_build_cost="build_text_us",
    client_parse_cost="parse_text_us",
)
