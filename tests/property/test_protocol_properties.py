"""Property-based tests: protocol round trips and chunked parsing."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.memcached import protocol
from repro.memcached.command import Command, Reply
from repro.memcached.protocol import RequestParser, ResponseParser

KEYS = st.text(alphabet="abcdefghijklmnop0123456789_.-", min_size=1, max_size=32)
DATA = st.binary(min_size=0, max_size=512)
FLAGS = st.integers(min_value=0, max_value=2**16 - 1)
EXP = st.integers(min_value=0, max_value=10**6)


def chunked(blob: bytes, cuts: list[int]):
    """Split *blob* at the (sorted, deduped) cut offsets."""
    points = sorted({c % (len(blob) + 1) for c in cuts})
    out = []
    prev = 0
    for p in points:
        out.append(blob[prev:p])
        prev = p
    out.append(blob[prev:])
    return out


@settings(max_examples=80, deadline=None)
@given(KEYS, FLAGS, EXP, DATA, st.lists(st.integers(min_value=0), max_size=6))
def test_storage_roundtrip_under_any_fragmentation(key, flags, exp, data, cuts):
    blob = protocol.build_storage("set", key, flags, exp, data)
    parser = RequestParser()
    reqs = []
    for chunk in chunked(blob, cuts):
        reqs.extend(parser.feed(chunk))
    assert len(reqs) == 1
    req = reqs[0]
    assert req.op == "set"
    assert req.key == key
    assert req.flags == flags
    assert req.exptime == exp
    assert req.value == data


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(KEYS, DATA), min_size=1, max_size=8))
def test_pipelined_storage_commands_all_parse(pairs):
    blob = b"".join(protocol.build_storage("set", k, 0, 0, v) for k, v in pairs)
    reqs = RequestParser().feed(blob)
    assert len(reqs) == len(pairs)
    for req, (k, v) in zip(reqs, pairs):
        assert (req.key, req.value) == (k, v)


@settings(max_examples=60, deadline=None)
@given(KEYS, FLAGS, DATA, st.integers(min_value=1, max_value=2**31),
       st.lists(st.integers(min_value=0), max_size=6))
def test_value_reply_roundtrip_under_fragmentation(key, flags, data, cas, cuts):
    blob = protocol.encode_reply(
        Command("gets", [key]), Reply("values", values=[(key, flags, data, cas)])
    )
    parser = ResponseParser()
    tokens = []
    for chunk in chunked(blob, cuts):
        tokens.extend(parser.feed(chunk))
    assert len(tokens) == 2
    reply, end = tokens
    assert end == "END"
    assert reply.key == key
    assert reply.flags == flags
    assert reply.data == data
    assert reply.cas == cas


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(KEYS, DATA), min_size=0, max_size=6))
def test_multi_value_response_roundtrip(pairs):
    keys = [k for k, _v in pairs]
    blob = protocol.encode_reply(
        Command("get", keys), Reply("values", values=[(k, 0, v, 0) for k, v in pairs])
    )
    tokens = ResponseParser().feed(blob)
    values = [t for t in tokens if not isinstance(t, str)]
    assert len(values) == len(pairs)
    for reply, (k, v) in zip(values, pairs):
        assert (reply.key, reply.data) == (k, v)
    assert tokens[-1] == "END"


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(KEYS, st.integers(min_value=0, max_value=10**9),
                       min_size=0, max_size=10))
def test_stats_roundtrip(stats):
    blob = protocol.encode_stats(stats)
    tokens = ResponseParser().feed(blob)
    parsed = {k: int(v) for tag, k, v in tokens[:-1] if tag == "STAT"}
    assert parsed == stats
    assert tokens[-1] == "END"
