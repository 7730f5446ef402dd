"""Binary protocol: codec units + end-to-end over sockets."""

import struct
from functools import partial

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached import protocol_binary as binp
from repro.memcached.command import Command
from repro.memcached.errors import ProtocolError
from repro.memcached.protocol_binary import (
    HEADER_LEN,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    BinMessage,
    BinaryParser,
    Opcode,
    Status,
    encode,
)


# ------------------------------------------------------------------ codec


def test_encode_decode_roundtrip():
    msg = BinMessage(
        MAGIC_REQUEST, Opcode.SET, key=b"k", extras=struct.pack("!LL", 7, 60),
        value=b"payload", opaque=0xDEAD, cas=42,
    )
    wire = encode(msg)
    assert len(wire) == HEADER_LEN + 8 + 1 + 7
    [decoded] = BinaryParser().feed(wire)
    assert decoded.opcode == Opcode.SET
    assert decoded.key == b"k"
    assert decoded.value == b"payload"
    assert decoded.opaque == 0xDEAD
    assert decoded.cas == 42
    assert decoded.unpack_extras(struct.Struct("!LL"), "set") == (7, 60)


def test_parser_handles_fragmentation():
    wire = binp.encode_command(Command("set", ["key"], value=b"value", flags=1, exptime=2))
    parser = BinaryParser()
    for i in range(0, len(wire), 5):
        msgs = parser.feed(wire[i : i + 5])
    assert len(msgs) == 1
    assert msgs[0].value == b"value"


def test_parser_handles_pipelining():
    wire = b"".join(
        binp.encode_command(cmd)
        for cmd in (Command("get", ["a"]), Command("get", ["b"]), Command("noop"))
    )
    msgs = BinaryParser().feed(wire)
    assert [m.opcode for m in msgs] == [Opcode.GET, Opcode.GET, Opcode.NOOP]
    assert msgs[0].key == b"a"


def test_bad_magic_raises():
    with pytest.raises(ProtocolError):
        BinaryParser().feed(b"\x42" + bytes(HEADER_LEN - 1))


def test_bad_magic_is_held_back_behind_the_frames_before_it():
    parser = binp.BinaryParser()
    get = binp.encode_command(Command("get", ["a"]), opaque=1)
    frames = parser.feed(get + b"\x42" * binp.HEADER_LEN)
    assert [f.opaque for f in frames] == [1]
    for later in (b"", get):  # the parser stays poisoned
        with pytest.raises(ProtocolError, match="bad magic"):
            parser.feed(later)


def test_oversized_body_rejected():
    header = struct.pack("!BBHBBHLLQ", MAGIC_REQUEST, 0, 0, 0, 0, 0, 2**25, 0, 0)
    with pytest.raises(ProtocolError):
        BinaryParser().feed(header)


def test_inconsistent_lengths_rejected():
    # key_len + extras_len > body_len
    header = struct.pack("!BBHBBHLLQ", MAGIC_REQUEST, 0, 10, 4, 0, 0, 8, 0, 0)
    with pytest.raises(ProtocolError):
        BinaryParser().feed(header + bytes(8))


def _decode_request(opcode, extras):
    binp.decode_command(BinMessage(MAGIC_REQUEST, opcode, key=b"k", extras=extras))


def _assemble_response(op, opcode, extras):
    binp.ReplyAssembler(Command(op, ["k"])).feed(
        BinMessage(MAGIC_RESPONSE, opcode, extras=extras)
    )


def _extras_layouts():
    """Every request row with an extras layout, through ``decode_command``,
    and the two response layouts, through ``ReplyAssembler.feed``."""
    names = {code: name.lower() for name, code in vars(Opcode).items() if name.isupper()}
    for opcode, (_op, _fields, layout, _keyed) in binp._REQUESTS.items():
        if layout is not None:
            yield pytest.param(partial(_decode_request, opcode), layout.size,
                               id=f"{names[opcode]}_extras")
    for op, opcode, size in (("get", Opcode.GET, 4), ("getl", Opcode.GETL, 16)):
        yield pytest.param(partial(_assemble_response, op, opcode), size,
                           id=f"{op}_response_extras")


@pytest.mark.parametrize("decode, right_length", _extras_layouts())
def test_extras_of_the_wrong_length_are_a_protocol_error(decode, right_length):
    for length in (right_length - 1, right_length + 1):
        with pytest.raises(ProtocolError, match=f"must be {right_length} bytes, got {length}"):
            decode(bytes(length))
    flush = binp.decode_command(BinMessage(MAGIC_REQUEST, Opcode.FLUSH))
    assert (flush.op, flush.exptime) == ("flush_all", 0)  # FLUSH's extras are optional


def test_arith_extras_roundtrip():
    cmd = Command("incr", ["n"], delta=5, initial=100, create_exptime=60)
    [msg] = BinaryParser().feed(binp.encode_command(cmd))
    out = binp.decode_command(msg)
    assert (out.delta, out.initial, out.create_exptime) == (5, 100, 60)


def test_respond_echoes_opaque_and_opcode():
    req = BinMessage(MAGIC_REQUEST, Opcode.DELETE, key=b"x", opaque=77)
    [resp] = BinaryParser().feed(binp.respond(req, Status.KEY_NOT_FOUND))
    assert resp.magic == MAGIC_RESPONSE
    assert resp.opcode == Opcode.DELETE
    assert resp.opaque == 77
    assert resp.status == Status.KEY_NOT_FOUND


# -------------------------------------------------------------- end to end


@pytest.fixture(scope="module")
def cluster():
    c = Cluster(CLUSTER_A, n_client_nodes=2)
    c.start_server()
    return c


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


def test_binary_client_full_command_set(cluster):
    client = cluster.client("10GigE-TOE", binary=True)

    def scenario():
        r = {}
        r["set"] = yield from client.set("bk", b"bv", flags=3)
        r["get"] = yield from client.get("bk")
        r["add_dup"] = yield from client.add("bk", b"x")
        r["replace"] = yield from client.replace("bk", b"bv2")
        r["gets"] = yield from client.gets("bk")
        value, cas = r["gets"]
        r["cas_ok"] = yield from client.cas("bk", b"bv3", cas)
        r["cas_stale"] = yield from client.cas("bk", b"bv4", cas)
        yield from client.set("n", b"5")
        r["incr"] = yield from client.incr("n", 10)
        r["decr"] = yield from client.decr("n", 3)
        r["touch"] = yield from client.touch("bk", 600)
        r["delete"] = yield from client.delete("bk")
        r["get_after"] = yield from client.get("bk")
        r["miss"] = yield from client.get("never")
        return r

    r = run(cluster, scenario())
    assert r["set"] is True
    assert r["get"] == b"bv"
    assert r["add_dup"] is False
    assert r["replace"] is True
    assert r["gets"][0] == b"bv2"
    assert r["cas_ok"] == "stored"
    assert r["cas_stale"] == "exists"
    assert r["incr"] == 15
    assert r["decr"] == 12
    assert r["touch"] is True
    assert r["delete"] is True
    assert r["get_after"] is None
    assert r["miss"] is None


def test_binary_incr_autocreate_semantics(cluster):
    client = cluster.client("10GigE-TOE", client_node=1, binary=True)

    def scenario():
        created = yield from client.incr("fresh-counter", 5)
        return created

    # The client's incr carries exptime 0xffffffff => no auto-create (spec).
    assert run(cluster, scenario()) is None


def test_binary_mget_and_stats(cluster):
    client = cluster.client("SDP", binary=True)

    def scenario():
        for i in range(4):
            yield from client.set(f"bm{i}", f"v{i}".encode())
        out = yield from client.get_multi([f"bm{i}" for i in range(4)] + ["nope"])
        stats = yield from client.stats()
        yield from client.flush_all()
        gone = yield from client.get("bm0")
        return out, stats, gone

    out, stats, gone = run(cluster, scenario())
    assert out == {f"bm{i}": f"v{i}".encode() for i in range(4)}
    assert "curr_items" in stats
    assert gone is None


def test_text_and_binary_clients_share_one_server(cluster):
    """Protocol sniffing: both codecs on the same listener and store."""
    text = cluster.client("IPoIB", binary=False)
    binary = cluster.client("IPoIB", client_node=1, binary=True)

    def scenario():
        yield from text.set("mixed", b"via-text")
        v1 = yield from binary.get("mixed")
        yield from binary.set("mixed2", b"via-binary")
        v2 = yield from text.get("mixed2")
        return v1, v2

    assert run(cluster, scenario()) == (b"via-text", b"via-binary")


def test_binary_faster_than_text_parse_but_ucr_still_wins(cluster):
    """The extension's point: a cheaper wire codec narrows nothing
    fundamental -- copies and kernel path still dominate sockets."""
    ucr = cluster.client("UCR-IB")
    text = cluster.client("10GigE-TOE")
    binary = cluster.client("10GigE-TOE", client_node=1, binary=True)
    lat = {}

    def measure(tag, c):
        yield from c.set(f"lat-{tag}", bytes(64))
        samples = []
        for _ in range(15):
            t0 = cluster.sim.now
            yield from c.get(f"lat-{tag}")
            samples.append(cluster.sim.now - t0)
        samples.sort()
        lat[tag] = samples[len(samples) // 2]

    for tag, c in (("ucr", ucr), ("text", text), ("bin", binary)):
        run(cluster, measure(tag, c))
    assert lat["bin"] < lat["text"]          # binary parse is cheaper...
    assert lat["bin"] > lat["ucr"] * 3       # ...but UCR still dominates
