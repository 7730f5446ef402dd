"""Property tests: every wire codec round-trips the command IR.

For each wire format (text, binary, UCR struct) we check both
directions of the codec against randomly generated IR objects:

- command direction: ``encode_command`` (client) through the wire
  parser (text: it emits the IR directly; binary: into
  ``decode_command``; UCR: the header's carried command, decoded by
  ``WIRE.decode``) reproduces the command on the server;
- reply direction: ``encode_reply`` (server) through the wire parser
  into the client ``ReplyAssembler`` reproduces the reply.

Each wire format has documented lossy spots (text carries no cas on
plain ``get`` values, binary append/prepend drop flags/exptime, UCR
truncates exptime to int); the properties below assert exactly the
fields each format promises to preserve, so any *new* loss is a
failure.  ``derandomize=True`` keeps CI runs reproducible.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.memcached import protocol, protocol_binary as binp, protocol_ucr as ucrp
from repro.memcached.command import Command, Reply

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# Keys: printable ASCII, no whitespace (the text wire format's limit).
# "-" is the UCR keyless placeholder and "noreply" is a text-protocol
# modifier token; both are excluded so keys stay unambiguous on every
# wire at once.
keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=32,
).filter(lambda k: k not in ("-", "noreply"))

values = st.binary(max_size=96)
flags32 = st.integers(min_value=0, max_value=2**32 - 1)
exptimes = st.integers(min_value=0, max_value=2**31 - 1)
cas64 = st.integers(min_value=1, max_value=2**63 - 1)
deltas = st.integers(min_value=0, max_value=2**63 - 1)
key_lists = st.lists(keys, min_size=1, max_size=5, unique=True)

# Messages ride a single text line: printable ASCII plus spaces.
messages = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0,
    max_size=48,
)

stats_dicts = st.dictionaries(keys, messages, min_size=0, max_size=6)

#: Admin commands; a ``stats`` group rides as the key.
ADMIN = [("stats", []), ("stats", ["items"]), ("stats", ["slabs"]), ("version", [])]


def _parse_text_one(cmd: Command) -> Command:
    wire = protocol.encode_command(cmd)
    requests = protocol.RequestParser().feed(wire)
    assert len(requests) == 1
    return requests[0]


def _parse_binary_one(cmd: Command) -> Command:
    wire = binp.encode_command(cmd, opaque=7)
    messages_ = binp.BinaryParser().feed(wire)
    assert len(messages_) == 1
    assert messages_[0].opaque == 7
    return binp.decode_command(messages_[0])


def _assemble_text(cmd: Command, wire: bytes) -> Reply:
    assembler = protocol.ReplyAssembler(cmd)
    done = False
    for token in protocol.ResponseParser().feed(wire):
        assert not done, "tokens after the reply completed"
        done = assembler.feed(token)
    assert done and assembler.reply is not None
    return assembler.reply


def _assemble_binary(cmd: Command, wire: bytes) -> Reply:
    assembler = binp.ReplyAssembler(cmd)
    done = False
    for frame in binp.BinaryParser().feed(wire):
        assert not done, "frames after the reply completed"
        done = assembler.feed(frame)
    assert done and assembler.reply is not None
    return assembler.reply


def _binary_request(cmd: Command) -> "binp.BinMessage":
    frames = binp.BinaryParser().feed(binp.encode_command(cmd, opaque=3))
    return frames[0]


# ---------------------------------------------------------------------------
# Text wire format
# ---------------------------------------------------------------------------


class TestTextCommands:
    @SETTINGS
    @given(
        op=st.sampled_from(["set", "add", "replace", "append", "prepend"]),
        key=keys, value=values, flags=flags32, exptime=exptimes,
        noreply=st.booleans(),
    )
    def test_storage(self, op, key, value, flags, exptime, noreply):
        cmd = Command(op=op, keys=[key], value=value, flags=flags,
                      exptime=exptime, noreply=noreply)
        out = _parse_text_one(cmd)
        assert (out.op, out.keys, out.value, out.flags, int(out.exptime),
                out.noreply) == (op, [key], value, flags, exptime, noreply)

    @SETTINGS
    @given(key=keys, value=values, flags=flags32, exptime=exptimes, cas=cas64)
    def test_cas(self, key, value, flags, exptime, cas):
        cmd = Command(op="cas", keys=[key], value=value, flags=flags,
                      exptime=exptime, cas=cas)
        out = _parse_text_one(cmd)
        assert (out.op, out.keys, out.value, out.cas) == ("cas", [key], value, cas)
        assert (out.flags, int(out.exptime)) == (flags, exptime)

    @SETTINGS
    @given(op=st.sampled_from(["get", "gets"]), ks=key_lists)
    def test_retrieval(self, op, ks):
        out = _parse_text_one(Command(op=op, keys=ks))
        assert (out.op, out.keys) == (op, ks)

    @SETTINGS
    @given(op=st.sampled_from(["incr", "decr"]), key=keys, delta=deltas,
           noreply=st.booleans())
    def test_arith(self, op, key, delta, noreply):
        out = _parse_text_one(Command(op=op, keys=[key], delta=delta,
                                      noreply=noreply))
        assert (out.op, out.keys, out.delta, out.noreply) == (op, [key], delta, noreply)
        # Text semantics: no binary-style auto-create rides the wire.
        assert out.create_exptime is None

    @SETTINGS
    @given(key=keys, noreply=st.booleans())
    def test_delete(self, key, noreply):
        out = _parse_text_one(Command(op="delete", keys=[key], noreply=noreply))
        assert (out.op, out.keys, out.noreply) == ("delete", [key], noreply)

    @SETTINGS
    @given(key=keys, exptime=exptimes, noreply=st.booleans())
    def test_touch(self, key, exptime, noreply):
        out = _parse_text_one(Command(op="touch", keys=[key], exptime=exptime,
                                      noreply=noreply))
        assert (out.op, out.keys, int(out.exptime), out.noreply) == (
            "touch", [key], exptime, noreply)

    @SETTINGS
    @given(delay=exptimes)
    def test_flush_all(self, delay):
        out = _parse_text_one(Command(op="flush_all", exptime=delay))
        assert (out.op, int(out.exptime)) == ("flush_all", delay)

    @SETTINGS
    @given(op_keys=st.sampled_from(ADMIN))
    def test_admin(self, op_keys):
        op, ks = op_keys
        out = _parse_text_one(Command(op=op, keys=ks))
        assert (out.op, out.keys) == (op, ks)


class TestTextReplies:
    @SETTINGS
    @given(op=st.sampled_from(["get", "gets"]), hits=st.lists(
        st.tuples(keys, flags32, values, cas64), min_size=0, max_size=4))
    def test_values(self, op, hits):
        assume(len({k for k, *_ in hits}) == len(hits))
        cmd = Command(op=op, keys=[k for k, *_ in hits] or ["miss"])
        wire = protocol.encode_reply(cmd, Reply("values", values=list(hits)))
        out = _assemble_text(cmd, wire)
        assert out.status == "values"
        if op == "gets":
            assert out.values == list(hits)
        else:
            # Plain get carries no cas token on the wire: decoded cas is 0.
            assert out.values == [(k, f, d, 0) for k, f, d, _ in hits]

    @SETTINGS
    @given(status=st.sampled_from(
        ["stored", "not_stored", "exists", "not_found", "deleted", "touched", "ok"]))
    def test_markers(self, status):
        out = _assemble_text(Command(op="set", keys=["k"]),
                             protocol.encode_reply(Command(op="set", keys=["k"]),
                                                   Reply(status)))
        assert out.status == status

    @SETTINGS
    @given(number=st.integers(min_value=0, max_value=2**64 - 1))
    def test_number(self, number):
        cmd = Command(op="incr", keys=["k"], delta=1)
        out = _assemble_text(cmd, protocol.encode_reply(cmd, Reply("number",
                                                                   number=number)))
        assert (out.status, out.number) == ("number", number)

    @SETTINGS
    @given(kind=st.sampled_from(["client", "server"]), message=messages)
    def test_errors(self, kind, message):
        cmd = Command(op="delete", keys=["k"])
        wire = protocol.encode_reply(
            cmd, Reply("error", message=message, error_kind=kind))
        out = _assemble_text(cmd, wire)
        prefix = "CLIENT_ERROR " if kind == "client" else "SERVER_ERROR "
        assert (out.status, out.error_kind) == ("error", kind)
        assert out.message == prefix + message

    @SETTINGS
    @given(stats=stats_dicts)
    def test_stats(self, stats):
        cmd = Command(op="stats")
        out = _assemble_text(cmd, protocol.encode_reply(cmd, Reply("stats",
                                                                   stats=stats)))
        assert (out.status, out.stats) == ("stats", stats)

    @SETTINGS
    @given(version=messages.filter(lambda s: s == s.strip()))
    def test_version(self, version):
        cmd = Command(op="version")
        out = _assemble_text(cmd, protocol.encode_reply(cmd, Reply("version",
                                                                   message=version)))
        assert (out.status, out.message) == ("version", version)


# ---------------------------------------------------------------------------
# Binary wire format
# ---------------------------------------------------------------------------


class TestBinaryCommands:
    @SETTINGS
    @given(op=st.sampled_from(["set", "add", "replace"]), key=keys,
           value=values, flags=flags32, exptime=exptimes)
    def test_storage(self, op, key, value, flags, exptime):
        cmd = Command(op=op, keys=[key], value=value, flags=flags, exptime=exptime)
        out = _parse_binary_one(cmd)
        assert (out.op, out.keys, out.value, out.flags, int(out.exptime)) == (
            op, [key], value, flags, exptime)
        # Binary responses always carry cas: the decoder asks for the token.
        assert out.want_cas_token

    @SETTINGS
    @given(key=keys, value=values, flags=flags32, exptime=exptimes, cas=cas64)
    def test_cas(self, key, value, flags, exptime, cas):
        cmd = Command(op="cas", keys=[key], value=value, flags=flags,
                      exptime=exptime, cas=cas)
        out = _parse_binary_one(cmd)
        assert (out.op, out.keys, out.value, out.cas) == ("cas", [key], value, cas)
        assert (out.flags, int(out.exptime)) == (flags, exptime)

    @SETTINGS
    @given(op=st.sampled_from(["append", "prepend"]), key=keys, value=values)
    def test_concat(self, op, key, value):
        # Binary APPEND/PREPEND carry no extras: flags/exptime never ride.
        out = _parse_binary_one(Command(op=op, keys=[key], value=value))
        assert (out.op, out.keys, out.value) == (op, [key], value)
        assert out.want_cas_token

    @SETTINGS
    @given(op=st.sampled_from(["get", "gets"]), key=keys)
    def test_single_get(self, op, key):
        # The wire has one GET opcode; "gets" is a client-side view of
        # the cas token every binary response carries anyway.
        out = _parse_binary_one(Command(op=op, keys=[key]))
        assert (out.op, out.keys, out.quiet) == ("get", [key], False)

    @SETTINGS
    @given(ks=st.lists(keys, min_size=2, max_size=5, unique=True))
    def test_multi_get_is_a_quiet_batch(self, ks):
        wire = binp.encode_command(Command(op="get", keys=ks), opaque=9)
        frames = binp.BinaryParser().feed(wire)
        assert len(frames) == len(ks) + 1
        for key, frame in zip(ks, frames):
            assert frame.opaque == 9
            out = binp.decode_command(frame)
            assert (out.op, out.keys, out.quiet) == ("get", [key], True)
        assert binp.decode_command(frames[-1]).op == "noop"

    @SETTINGS
    @given(op=st.sampled_from(["incr", "decr"]), key=keys, delta=deltas,
           initial=deltas,
           create=st.none() | st.integers(min_value=0, max_value=2**32 - 2))
    def test_arith(self, op, key, delta, initial, create):
        cmd = Command(op=op, keys=[key], delta=delta, initial=initial,
                      create_exptime=create)
        out = _parse_binary_one(cmd)
        assert (out.op, out.keys, out.delta, out.initial, out.create_exptime) == (
            op, [key], delta, initial, create)
        assert out.want_cas_token

    @SETTINGS
    @given(key=keys, exptime=exptimes)
    def test_touch(self, key, exptime):
        out = _parse_binary_one(Command(op="touch", keys=[key], exptime=exptime))
        assert (out.op, out.keys, int(out.exptime)) == ("touch", [key], exptime)

    @SETTINGS
    @given(key=keys)
    def test_delete(self, key):
        out = _parse_binary_one(Command(op="delete", keys=[key]))
        assert (out.op, out.keys) == ("delete", [key])

    @SETTINGS
    @given(delay=st.integers(min_value=0, max_value=2**32 - 1))
    def test_flush_all(self, delay):
        out = _parse_binary_one(Command(op="flush_all", exptime=delay))
        assert (out.op, int(out.exptime)) == ("flush_all", delay)

    @SETTINGS
    @given(op_keys=st.sampled_from(ADMIN + [("noop", [])]))
    def test_admin(self, op_keys):
        op, ks = op_keys
        out = _parse_binary_one(Command(op=op, keys=ks))
        assert (out.op, out.keys) == (op, ks)


class TestBinaryReplies:
    @SETTINGS
    @given(key=keys, flags=flags32, data=values, cas=cas64)
    def test_single_get_hit(self, key, flags, data, cas):
        cmd = Command(op="get", keys=[key])
        request = _binary_request(cmd)
        wire = binp.encode_reply(request, cmd,
                                 Reply("values", values=[(key, flags, data, cas)]))
        out = _assemble_binary(cmd, wire)
        assert (out.status, out.values) == ("values", [(key, flags, data, cas)])

    @SETTINGS
    @given(key=keys)
    def test_single_get_miss(self, key):
        cmd = Command(op="get", keys=[key])
        wire = binp.encode_reply(_binary_request(cmd), cmd,
                                 Reply("values", values=[]))
        out = _assemble_binary(cmd, wire)
        assert (out.status, out.values) == ("values", [])

    @SETTINGS
    @given(ks=st.lists(keys, min_size=2, max_size=5, unique=True),
           flags=flags32, cas=cas64, hit_mask=st.lists(st.booleans(), min_size=2,
                                                       max_size=5))
    def test_multi_get(self, ks, flags, cas, hit_mask):
        # Server side: each GETKQ is its own single-key command; misses
        # produce no frame; the NOOP fence closes the batch.
        cmd = Command(op="get", keys=ks)
        frames = binp.BinaryParser().feed(binp.encode_command(cmd, opaque=5))
        hits, wire = [], b""
        for key, request in zip(ks, frames):
            if hit_mask[ks.index(key) % len(hit_mask)]:
                data = key.encode()
                hits.append((key, flags, data, cas))
                wire += binp.encode_reply(
                    request, binp.decode_command(request),
                    Reply("values", values=[(key, flags, data, cas)]))
            else:
                assert binp.encode_reply(
                    request, binp.decode_command(request),
                    Reply("values", values=[])) == b""
        wire += binp.encode_reply(frames[-1], Command(op="noop"), Reply("ok"))
        out = _assemble_binary(cmd, wire)
        assert (out.status, out.values) == ("values", hits)

    @SETTINGS
    @given(number=st.integers(min_value=0, max_value=2**64 - 1), cas=cas64)
    def test_counter(self, number, cas):
        cmd = Command(op="incr", keys=["k"], delta=1)
        wire = binp.encode_reply(_binary_request(cmd), cmd,
                                 Reply("number", number=number, cas=cas))
        out = _assemble_binary(cmd, wire)
        assert (out.status, out.number, out.cas) == ("number", number, cas)

    @SETTINGS
    @given(cas=cas64)
    def test_stored_carries_cas(self, cas):
        cmd = Command(op="set", keys=["k"], value=b"v")
        wire = binp.encode_reply(_binary_request(cmd), cmd, Reply("stored", cas=cas))
        out = _assemble_binary(cmd, wire)
        assert (out.status, out.cas) == ("stored", cas)

    @SETTINGS
    @given(status=st.sampled_from(["stored", "exists", "not_found"]))
    def test_cas_statuses(self, status):
        cmd = Command(op="cas", keys=["k"], value=b"v", cas=1)
        wire = binp.encode_reply(_binary_request(cmd), cmd, Reply(status))
        assert _assemble_binary(cmd, wire).status == status

    @SETTINGS
    @given(op_status=st.sampled_from(
        [("delete", "deleted"), ("delete", "not_found"),
         ("touch", "touched"), ("touch", "not_found"),
         ("incr", "not_found"), ("set", "not_stored")]))
    def test_soft_statuses(self, op_status):
        op, status = op_status
        cmd = Command(op=op, keys=["k"], value=b"v", delta=1)
        wire = binp.encode_reply(_binary_request(cmd), cmd, Reply(status))
        assert _assemble_binary(cmd, wire).status == status

    @SETTINGS
    @given(stats=stats_dicts)
    def test_stats(self, stats):
        cmd = Command(op="stats")
        wire = binp.encode_reply(_binary_request(cmd), cmd, Reply("stats",
                                                                  stats=stats))
        out = _assemble_binary(cmd, wire)
        assert (out.status, out.stats) == ("stats", stats)

    @SETTINGS
    @given(kind_detail=st.sampled_from(
        [("client", "non_numeric"), ("client", "bad_args"),
         ("client", "unknown"), ("server", "")]))
    def test_error_kind_survives(self, kind_detail):
        # Binary collapses messages into status codes; the kind (whose
        # fault) must survive the trip even though the text does not.
        kind, detail = kind_detail
        cmd = Command(op="delete", keys=["k"])
        wire = binp.encode_reply(
            _binary_request(cmd), cmd,
            Reply("error", message="boom", error_kind=kind, detail=detail))
        out = _assemble_binary(cmd, wire)
        assert out.status == "error"
        expected = "server" if kind == "server" or detail == "unknown" else "client"
        assert out.error_kind == expected


# ---------------------------------------------------------------------------
# UCR struct wire format
# ---------------------------------------------------------------------------


def _ucr_request(cmd):
    """*cmd* through the UCR request path: the header the client sends
    (its carried command) and the command the server decodes from it."""
    header = ucrp.McRequest(ucrp.carried(cmd))
    return header, ucrp.WIRE.decode((header, cmd.value))


def _ucr_reply(cmd, reply):
    """*reply* through the UCR response path: encoded by the server,
    decoded by the client; returns (zero-copy location, client reply)."""
    header, payload, location = ucrp.reply_to_response(cmd, reply)
    return location, ucrp.response_to_reply(header, payload)


class TestUcrCodec:
    @SETTINGS
    @given(op=st.sampled_from(["set", "add", "replace", "append", "prepend"]),
           key=keys, value=values, flags=flags32, exptime=exptimes)
    def test_storage_command(self, op, key, value, flags, exptime):
        cmd = Command(op=op, keys=[key], value=value, flags=flags, exptime=exptime)
        _header, out = _ucr_request(cmd)
        assert (out.op, out.keys, out.value, out.flags, int(out.exptime)) == (
            op, [key], value, flags, exptime)

    @SETTINGS
    @given(key=keys, value=values, cas=cas64)
    def test_cas_command(self, key, value, cas):
        _header, out = _ucr_request(Command(op="cas", keys=[key], value=value, cas=cas))
        assert (out.op, out.keys, out.value, out.cas) == ("cas", [key], value, cas)

    @SETTINGS
    @given(op=st.sampled_from(["get", "gets"]), ks=key_lists)
    def test_retrieval_command(self, op, ks):
        _header, out = _ucr_request(Command(op=op, keys=ks))
        assert (out.op, out.keys) == (op, ks)

    @SETTINGS
    @given(op=st.sampled_from(["incr", "decr"]), key=keys, delta=deltas)
    def test_arith_command(self, op, key, delta):
        _header, out = _ucr_request(Command(op=op, keys=[key], delta=delta))
        assert (out.op, out.keys, out.delta) == (op, [key], delta)

    @SETTINGS
    @given(op=st.sampled_from(["flush_all", "stats"]))
    def test_keyless_placeholder(self, op):
        # The fixed struct always carries a key slot: keyless ops are
        # charged a one-byte placeholder and decode to an empty key list.
        header, out = _ucr_request(Command(op=op))
        assert header.header_bytes == ucrp.MC_REQUEST_HEADER_BYTES + 1
        assert (out.op, out.keys) == (op, [])

    @SETTINGS
    @given(hits=st.lists(st.tuples(keys, flags32, values, cas64),
                         min_size=0, max_size=4))
    def test_values_reply(self, hits):
        assume(len({k for k, *_ in hits}) == len(hits))
        cmd = Command(op="gets", keys=[k for k, *_ in hits] or ["miss"])
        location, out = _ucr_reply(cmd, Reply("values", values=list(hits)))
        assert location is None  # bytes payloads are never zero-copy
        assert (out.status, out.values) == ("values", list(hits))

    @SETTINGS
    @given(number=st.integers(min_value=0, max_value=2**64 - 1))
    def test_number_reply(self, number):
        cmd = Command(op="incr", keys=["k"], delta=1)
        _location, out = _ucr_reply(cmd, Reply("number", number=number))
        assert (out.status, out.number) == ("number", number)

    @SETTINGS
    @given(status=st.sampled_from(
        ["stored", "not_stored", "exists", "not_found", "deleted", "touched"]))
    def test_plain_statuses(self, status):
        cmd = Command(op="set", keys=["k"], value=b"v")
        assert _ucr_reply(cmd, Reply(status))[1].status == status

    @SETTINGS
    @given(kind=st.sampled_from(["client", "server"]), message=messages)
    def test_error_reply(self, kind, message):
        # UCR is the only wire that carries both the kind and the exact
        # message (the struct carries the reply's fields).
        cmd = Command(op="delete", keys=["k"])
        _location, out = _ucr_reply(
            cmd, Reply("error", message=message, error_kind=kind))
        assert (out.status, out.error_kind, out.message) == ("error", kind, message)

    @SETTINGS
    @given(stats=stats_dicts)
    def test_stats_reply(self, stats):
        _location, out = _ucr_reply(Command(op="stats"), Reply("stats", stats=stats))
        assert (out.status, out.stats) == ("stats", stats)

    @SETTINGS
    @given(version=messages)
    def test_version_reply(self, version):
        _location, out = _ucr_reply(Command(op="version"),
                                    Reply("version", message=version))
        assert (out.status, out.message) == ("version", version)
