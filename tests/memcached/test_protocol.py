"""Text protocol: incremental parsing, serialization, client parsing."""

import pytest

from repro.memcached import protocol
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
    assert protocol.encode_stored() == b"STORED\r\n"
    assert protocol.encode_end() == b"END\r\n"
    assert protocol.encode_number(42) == b"42\r\n"
    assert protocol.encode_client_error("oops") == b"CLIENT_ERROR oops\r\n"


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


# --------------------------------------------------------- request builders


def test_build_storage_matches_parser():
    blob = protocol.build_storage("set", "k", 1, 60, b"abc")
    reqs = RequestParser().feed(blob)
    assert reqs[0].op == "set"
    assert reqs[0].value == b"abc"
    assert reqs[0].flags == 1


def test_build_get_matches_parser():
    reqs = RequestParser().feed(protocol.build_get(["a", "b"]))
    assert reqs[0].keys == ["a", "b"]
    reqs = RequestParser().feed(protocol.build_get(["a"], with_cas=True))
    assert reqs[0].op == "gets"


def test_build_arith_delete_touch_match_parser():
    for blob, cmd in [
        (protocol.build_arith("incr", "k", 3), "incr"),
        (protocol.build_delete("k"), "delete"),
        (protocol.build_touch("k", 9), "touch"),
        (protocol.build_flush_all(), "flush_all"),
        (protocol.build_version(), "version"),
        (protocol.build_stats(), "stats"),
    ]:
        reqs = RequestParser().feed(blob)
        assert reqs[0].op == cmd
