"""Text protocol: incremental parsing, serialization, client parsing."""

import hashlib
from types import SimpleNamespace

import pytest

from repro.memcached import protocol, protocol_binary, protocol_ucr
from repro.memcached.command import REPLY_STATUSES, Command, Reply
from repro.memcached.errors import ProtocolError
from repro.memcached.protocol import RequestParser, ResponseParser, ValueReply


# ----------------------------------------------------------- request parse


def test_parse_get_single():
    reqs = RequestParser().feed(b"get foo\r\n")
    assert len(reqs) == 1
    assert reqs[0].op == "get"
    assert reqs[0].keys == ["foo"]


def test_parse_get_multi_key():
    reqs = RequestParser().feed(b"get a b c\r\n")
    assert reqs[0].keys == ["a", "b", "c"]


def test_parse_set_with_data_block():
    reqs = RequestParser().feed(b"set k 5 100 9\r\nthe-value\r\n")
    assert len(reqs) == 1
    req = reqs[0]
    assert req.op == "set"
    assert req.key == "k"
    assert req.flags == 5
    assert req.exptime == 100
    assert req.value == b"the-value"


def test_parse_partial_reads_reassemble():
    parser = RequestParser()
    assert parser.feed(b"set k 0 ") == []
    assert parser.feed(b"0 5\r\nhel") == []
    reqs = parser.feed(b"lo\r\n")
    assert reqs[0].value == b"hello"


def test_parse_pipelined_commands():
    parser = RequestParser()
    reqs = parser.feed(b"set a 0 0 1\r\nx\r\nget a\r\ndelete a\r\n")
    assert [r.op for r in reqs] == ["set", "get", "delete"]


def test_parse_noreply_variants():
    reqs = RequestParser().feed(b"set k 0 0 1 noreply\r\nx\r\n")
    assert reqs[0].noreply
    reqs = RequestParser().feed(b"delete k noreply\r\n")
    assert reqs[0].noreply


def test_parse_cas_line():
    reqs = RequestParser().feed(b"cas k 1 2 3 42\r\nabc\r\n")
    assert reqs[0].op == "cas"
    assert reqs[0].cas == 42
    assert reqs[0].value == b"abc"


def test_parse_incr_decr_touch():
    reqs = RequestParser().feed(b"incr n 5\r\ndecr n 2\r\ntouch n 60\r\n")
    assert reqs[0].delta == 5
    assert reqs[1].delta == 2
    assert reqs[2].exptime == 60


def test_parse_flush_all_with_delay():
    reqs = RequestParser().feed(b"flush_all 30\r\n")
    assert reqs[0].exptime == 30


def test_binary_safe_data_block():
    data = bytes(range(256))
    payload = f"set bin 0 0 {len(data)}\r\n".encode() + data + b"\r\n"
    reqs = RequestParser().feed(payload)
    assert reqs[0].value == data


def test_data_block_may_contain_crlf():
    data = b"line1\r\nline2\r\n"
    payload = f"set k 0 0 {len(data)}\r\n".encode() + data + b"\r\n"
    reqs = RequestParser().feed(payload)
    assert reqs[0].value == data


def test_bad_terminator_raises():
    with pytest.raises(ProtocolError):
        RequestParser().feed(b"set k 0 0 2\r\nxxZZ")


def test_unknown_command_raises():
    with pytest.raises(ProtocolError):
        RequestParser().feed(b"frobnicate\r\n")


def test_bad_numeric_field_raises():
    with pytest.raises(ProtocolError):
        RequestParser().feed(b"set k a b c\r\n")


def test_get_without_key_raises():
    with pytest.raises(ProtocolError):
        RequestParser().feed(b"get\r\n")


@pytest.mark.parametrize("line, complaint", [
    (b"", "empty command line"),
    (b"   ", "empty command line"),
    (b"set k 0 0", "bad set line"),
    (b"set k 0 0 1 lease=soon", "bad set lease token"),
    (b"set k 0 0 1 lease=0", "bad set lease token"),
    (b"set k 0 0 1 lease=-4", "bad set lease token"),
    (b"set k 0 0 -1", "negative byte count"),
    (b"cas k 0 0 1", "bad cas line"),
    (b"getl", "bad getl line"),
    (b"getl k fresh", "bad getl line"),
    (b"getl k stale please", "bad getl line"),
    (b"incr k", "bad incr line"),
    (b"decr k 1 2", "bad decr line"),
    (b"incr k lots", "bad incr numeric field"),
    (b"touch k", "bad touch line"),
    (b"touch k soon", "bad touch numeric field"),  # a ValueError until PR 22
    (b"flush_all soon", "bad flush_all numeric field"),  # likewise
    (b"delete", "bad delete line"),
    (b"delete a b", "bad delete line"),
])
def test_malformed_request_line_raises(line, complaint):
    with pytest.raises(ProtocolError, match=complaint):
        RequestParser().feed(line + b"\r\n")


def test_parse_error_is_held_back_behind_the_commands_before_it():
    parser = RequestParser()
    reqs = parser.feed(b"set a 0 0 1\r\nx\r\nget a\r\nbogus\r\nget b\r\n")
    assert [(r.op, r.keys) for r in reqs] == [("set", ["a"]), ("get", ["a"])]
    for later in (b"", b"get c\r\n"):  # the parser stays poisoned
        with pytest.raises(ProtocolError, match="bogus"):
            parser.feed(later)


def test_storage_byte_count_does_not_leak_into_the_command():
    [cmd] = RequestParser().feed(b"set k 0 0 9\r\nthe-value\r\n")
    assert cmd.delta == 0


def test_oversized_line_raises():
    with pytest.raises(ProtocolError):
        RequestParser().feed(b"get " + b"x" * 5000)


# --------------------------------------------------------- response encode


def test_encode_value_block():
    out = protocol.encode_value("k", 7, b"data")
    assert out == b"VALUE k 7 4\r\ndata\r\n"
    out = protocol.encode_value("k", 7, b"data", cas=9)
    assert out == b"VALUE k 7 4 9\r\ndata\r\n"


def test_encode_markers():
    set_, get, incr = Command("set", ["k"]), Command("get", ["k"]), Command("incr", ["k"])
    assert protocol.encode_reply(set_, Reply("stored")) == b"STORED\r\n"
    assert protocol.encode_reply(get, Reply("values")) == b"END\r\n"
    assert protocol.encode_reply(incr, Reply("number", number=42)) == b"42\r\n"
    oops = Reply("error", message="oops", error_kind="client")
    assert protocol.encode_reply(set_, oops) == b"CLIENT_ERROR oops\r\n"


def _reply_corpus():
    """(command, reply) pairs: every reply status, every arm of each."""
    get, gets = Command("get", ["k"]), Command("gets", ["k"])
    getl = Command("getl", ["k"], stale_ok=True)
    set_ = Command("set", ["k"], value=b"v", flags=3, exptime=9)
    incr = Command("incr", ["k"], delta=2)
    hit = [("k", 7, b"data", 42)]
    return [
        (set_, Reply("stored", cas=11)),
        (Command("add", ["k"], value=b"v"), Reply("not_stored")),
        (Command("cas", ["k"], value=b"v", cas=5), Reply("exists")),
        (Command("replace", ["k"], value=b"v"), Reply("not_found")),
        (Command("delete", ["k"]), Reply("deleted")),
        (Command("delete", ["k"]), Reply("not_found")),
        (Command("touch", ["k"], exptime=30), Reply("touched")),
        (Command("flush_all"), Reply("ok")),
        (incr, Reply("number", number=44, cas=12)),
        (get, Reply("values", values=hit)),
        (get, Reply("values")),
        (gets, Reply("values", values=hit)),
        (getl, Reply("values", values=hit)),
        (getl, Reply("values", lease_state="won", lease_token=77)),
        (getl, Reply("values", lease_state="lost")),
        (getl, Reply("values", values=hit, lease_state="lost", stale=True)),
        (Command("stats"), Reply("stats", stats={"curr_items": 3, "bytes": 100})),
        (Command("stats"), Reply("stats")),
        (Command("version"), Reply("version", message="1.4.9-repro")),
        (set_, Reply("error", message="object too large for cache")),
        (incr, Reply("error", message="invalid numeric delta argument",
                     error_kind="client", detail="non_numeric")),
        (set_, Reply("error", message="bad data chunk", error_kind="client")),
        (get, Reply("error", error_kind="client", detail="unknown")),
    ]


def test_reply_wire_bytes_are_pinned():
    """Every reply the server can say, in both sockets formats, through the
    ``WIRE`` rows the worker loop uses.  Recorded at 4b70916, before the
    text codec's sixteen per-line functions became one table."""
    corpus = _reply_corpus()
    assert {reply.status for _cmd, reply in corpus} == REPLY_STATUSES
    h = hashlib.sha256()
    for name, wire in (("text", protocol.WIRE), ("binary", protocol_binary.WIRE)):
        for cmd, reply in corpus:
            (request,) = wire.request_parser().feed(wire.encode_command(cmd, 9))
            out = wire.encode_reply(request, wire.decode(request), reply)
            h.update(f"{name}|{cmd.op}|{len(out)}|".encode() + out)
    assert h.hexdigest() == (
        "d1b6ff1492fdaf7b826eabdbf1687c3c4b39f1a6bc4e4f371b05957c4ee994ba"
    )


def test_ucr_reply_fields_are_pinned():
    """The same corpus through the UCR codec: the response struct's fields,
    the payload, and whether the value left zero-copy from slab memory.
    Re-pinned when ``McResponse.status`` began to mirror the reply status:
    only the two ``stats`` rows (``"ok"`` -> ``"stats"``; a reply without a
    dict no longer raises) and the ``version`` row (``"ok"`` -> ``"version"``)
    moved."""
    registered = SimpleNamespace(
        chunk=SimpleNamespace(page=SimpleNamespace(mr="mr"), offset=64),
        value_length=4, value=lambda: b"data",
    )
    corpus = _reply_corpus() + [
        (Command("get", ["k"]), Reply("values", values=[("k", 7, registered, 42)])),
    ]
    h = hashlib.sha256()
    for cmd, reply in corpus:
        header, payload, location = protocol_ucr.reply_to_response(cmd, reply)
        h.update(f"{cmd.op}|{header!r}|{location is not None}|{len(payload)}|".encode()
                 + payload)
    assert h.hexdigest() == (
        "8677242a06de646b10bd28fc692935dade5000ec59256bbbe167f0e100b30a65"
    )


def _request_corpus():
    """Every request shape a client sends: each op, ``noreply``, leases,
    cas, multi-gets, ``getl stale``, auto-create arithmetic, flush with and
    without a delay, and the flag / exptime / value edges."""
    v = b"v\r\nalue"
    return [
        Command("set", ["k"], value=v, flags=3, exptime=9),
        Command("set", ["k"], value=v, noreply=True),
        Command("set", ["k"], value=v, lease_token=77),
        Command("set", ["k"], value=v, lease_token=77, noreply=True),
        Command("set", ["k"], value=b"", flags=2**32 - 1, exptime=9.7),
        Command("set", ["k"], value=v, exptime=2**31 - 1),
        Command("add", ["k"], value=v, flags=1, exptime=5),
        Command("add", ["k"], value=v, lease_token=5),
        Command("replace", ["k"], value=v, noreply=True),
        Command("append", ["k"], value=v, flags=4, exptime=6),
        Command("prepend", ["k"], value=v),
        Command("cas", ["k"], value=v, flags=3, exptime=9, cas=5),
        Command("cas", ["k"], value=v, cas=2**63 - 1, noreply=True),
        Command("get", ["k"]),
        Command("gets", ["k"]),
        Command("get", ["a", "b", "c"]),
        Command("gets", ["a", "b"]),
        Command("getl", ["k"]),
        Command("getl", ["k"], stale_ok=True),
        Command("delete", ["k"]),
        Command("delete", ["k"], noreply=True),
        Command("incr", ["k"], delta=2),
        Command("decr", ["k"], delta=2**64 - 1),
        Command("incr", ["k"], delta=1, noreply=True),
        Command("incr", ["k"], delta=3, initial=10, create_exptime=60),
        Command("decr", ["k"], delta=3, initial=5, create_exptime=0),
        Command("touch", ["k"], exptime=30),
        Command("touch", ["k"], exptime=30.5, noreply=True),
        Command("flush_all"),
        Command("flush_all", exptime=30),
        Command("flush_all", noreply=True),
        Command("flush_all", exptime=7, noreply=True),
        Command("stats"),
        Command("version"),
        Command("noop"),
        Command("set", ["k" * 250], value=bytes(range(256)), flags=1),
    ]


def test_request_wire_bytes_are_pinned():
    """Every request shape, as text and binary frames and as the UCR header
    plus payload.  Recorded before the codecs' per-op ``build_*`` functions became one
    request table per format; re-pinned when the UCR header dropped its
    ``noreply`` and ``reply_qpn`` fields (the same corpus with those two
    fields stripped from the UCR repr gives this digest; text and binary
    bytes did not move)."""
    def ucr(cmd):
        header, payload = protocol_ucr.command_to_request(cmd)
        return repr(header).encode() + b"|" + payload

    h = hashlib.sha256()
    for cmd in _request_corpus():
        for name, encode in (
            ("text", lambda c: protocol.encode_command(c, 9)),
            ("binary", lambda c: protocol_binary.encode_command(c, 9)),
            ("ucr", ucr),
        ):
            try:
                out = encode(cmd)
            except ProtocolError:
                out = b"refused"
            h.update(f"{name}|{cmd.op}|{len(out)}|".encode() + out)
    assert h.hexdigest() == (
        "016499e95ce86a7f691c6789668ad88d6bee60f6422fb8a64a57162dae19bdd0"
    )


def test_encode_stats_roundtrip():
    blob = protocol.encode_stats({"curr_items": 3, "bytes": 100})
    tokens = ResponseParser().feed(blob)
    assert ("STAT", "curr_items", "3") in tokens
    assert tokens[-1] == "END"


# --------------------------------------------------------- response parse


def test_response_value_then_end():
    tokens = ResponseParser().feed(b"VALUE k 7 5\r\nhello\r\nEND\r\n")
    assert isinstance(tokens[0], ValueReply)
    assert tokens[0].data == b"hello"
    assert tokens[0].flags == 7
    assert tokens[1] == "END"


def test_response_partial_value():
    parser = ResponseParser()
    assert parser.feed(b"VALUE k 0 10\r\nhell") == []
    tokens = parser.feed(b"o worl\r\nEND\r\n")
    assert tokens[0].data == b"hello worl"
    assert tokens[1] == "END"


def test_response_numeric():
    tokens = ResponseParser().feed(b"42\r\n")
    assert tokens == [42]


def test_response_gets_includes_cas():
    tokens = ResponseParser().feed(b"VALUE k 0 1 77\r\nx\r\nEND\r\n")
    assert tokens[0].cas == 77


def test_response_unknown_line_raises():
    with pytest.raises(ProtocolError):
        ResponseParser().feed(b"GIBBERISH LINE\r\n")


# --------------------------------------------------------- request encoding


def test_build_storage_matches_parser():
    blob = protocol.encode_command(Command("set", ["k"], value=b"abc", flags=1, exptime=60))
    reqs = RequestParser().feed(blob)
    assert reqs[0].op == "set"
    assert reqs[0].value == b"abc"
    assert reqs[0].flags == 1


def test_build_get_matches_parser():
    reqs = RequestParser().feed(protocol.encode_command(Command("get", ["a", "b"])))
    assert reqs[0].keys == ["a", "b"]
    reqs = RequestParser().feed(protocol.encode_command(Command("gets", ["a"])))
    assert reqs[0].op == "gets"


def test_build_arith_delete_touch_match_parser():
    for cmd in [
        Command("incr", ["k"], delta=3),
        Command("delete", ["k"]),
        Command("touch", ["k"], exptime=9),
        Command("flush_all"),
        Command("version"),
        Command("stats"),
    ]:
        reqs = RequestParser().feed(protocol.encode_command(cmd))
        assert reqs[0].op == cmd.op
