"""The one-sided GET path: layout, seqlock, fallbacks, torn reads.

The layers of the subsystem under test:

- the packed entry/header layout round-trips exactly (Hypothesis over
  the full field ranges);
- the happy path serves hits with RDMA READs and zero RPC;
- every rung of the fallback ladder (absent / expired / oversize /
  torn) lands on the authoritative RPC path;
- a READ parked across the server's mutation window can never be
  *served*: the stamp behind the value no longer matches the entry, and
  the client either retries to the new value or falls back -- spliced
  bytes are impossible by construction;
- the fetch reads the value and its stamp in one READ: a first hit
  costs two READs in two round trips (the key's window, then the
  stamped fetch), a repeat GET of a remembered entry one READ in one;
  a stale stamp sends the GET to the slot's entry, and from then on the
  slot's fetches carry the slot probe behind them (RC executes a QP's
  READs in post order), so a stale stamp there restarts the ladder from
  whatever changed (overwrite, displacement) at once;
- an own write's reply carries the entry the server published for it,
  so the GET after it is a remembered hit; reads change nothing
  remembered;
- the index is window-associative: a key whose slot was reused by a
  window neighbour is found again by one window READ, and only a key
  with no slot in its window falls back ``absent``;
- a server exports the index only when a one-sided client is wired to
  it, publishing what its store holds: a late reader hits every live
  key stored before it, and RPC traffic alone exports nothing.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.check.history import check_history, recorder
from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.command import Command
from repro.memcached.errors import ServerDownError
from repro.memcached.onesided import (
    DEFAULT_BUCKETS,
    ENTRY_BYTES,
    HEADER_BYTES,
    INDEX_MAGIC,
    STAMP_BYTES,
    WINDOW,
    IndexEntry,
    entry_offset,
    hash64,
    pack_entry,
    pack_header,
    unpack_entry,
    unpack_header,
)
from repro.memcached.onesided.index import ExportedIndex
from repro.sanitize import ExportIndexError, ExportSanitizer
from repro.sim import RngStream
from repro.verbs import QueuePair


# ---------------------------------------------------------------- layout


entries = st.builds(
    IndexEntry,
    version=st.integers(min_value=0, max_value=2**64 - 1),
    key_hash=st.integers(min_value=0, max_value=2**64 - 1),
    value_rkey=st.integers(min_value=0, max_value=2**32 - 1),
    value_offset=st.integers(min_value=0, max_value=2**32 - 1),
    value_length=st.integers(min_value=0, max_value=2**32 - 1),
    flags=st.integers(min_value=0, max_value=2**32 - 1),
    cas=st.integers(min_value=0, max_value=2**64 - 1),
    deadline_us=st.integers(min_value=0, max_value=2**64 - 1),
)


@given(entry=entries)
@settings(max_examples=200, deadline=None)
def test_entry_pack_unpack_roundtrip(entry):
    packed = pack_entry(entry)
    assert len(packed) == ENTRY_BYTES
    assert unpack_entry(packed) == entry


@given(n_buckets=st.integers(min_value=1, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_header_pack_unpack_roundtrip(n_buckets):
    packed = pack_header(n_buckets)
    assert len(packed) == HEADER_BYTES
    assert unpack_header(packed) == (INDEX_MAGIC, n_buckets)


@given(key=st.text(min_size=0, max_size=64))
@settings(max_examples=200, deadline=None)
def test_hash64_never_collides_with_empty(key):
    """0 marks an empty bucket, so no key may hash to it."""
    digest = hash64(key)
    assert digest != 0
    assert 0 < digest < 2**64
    assert hash64(key) == digest  # deterministic


def test_entry_offsets_are_disjoint_and_aligned():
    offsets = [entry_offset(b) for b in range(8)]
    assert offsets[0] == HEADER_BYTES
    assert all(b - a == ENTRY_BYTES for a, b in zip(offsets, offsets[1:]))


def test_stability_and_liveness_predicates():
    assert IndexEntry(version=2, key_hash=5).live
    assert not IndexEntry(version=3, key_hash=5).stable
    assert not IndexEntry(version=2, key_hash=0).live  # empty bucket


# ---------------------------------------------------------------- rig


@pytest.fixture()
def cluster():
    cluster = Cluster(CLUSTER_A, n_client_nodes=2)
    cluster.start_server()
    return cluster


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


# ---------------------------------------------------------------- hits


def test_hit_is_served_by_reads_without_rpc(cluster):
    client = cluster.client("UCR-1S")
    t = client.transport

    def scenario():
        yield from client.set("k", b"payload", flags=3)
        value = yield from client.get("k")
        pair = yield from client.gets("k")
        return value, pair

    value, pair = run(cluster, scenario())
    assert value == b"payload"
    assert pair[0] == b"payload" and pair[1] > 0
    assert t.onesided_hits == 2
    # The set's reply carried the published entry: each GET is one
    # stamped fetch; nothing torn, nothing fallen back
    assert t.onesided_reads == 2
    assert t.remembered_hits == 2
    assert t.torn_retries == 0
    assert t.fallbacks == {}


def test_hit_tracks_inplace_arithmetic(cluster):
    """incr/decr re-store the counter as a new item: the entry is
    republished with a new cas (in the old chunk, when nothing pins it)
    and must serve the fresh bytes."""
    client = cluster.client("UCR-1S")

    def scenario():
        yield from client.set("n", b"10")
        yield from client.incr("n", 5)
        return (yield from client.get("n"))

    assert run(cluster, scenario()) == b"15"
    assert client.transport.onesided_hits == 1


def test_touch_refreshes_the_exported_deadline(cluster):
    client = cluster.client("UCR-1S")
    sim = cluster.sim

    def scenario():
        yield from client.set("k", b"v", exptime=1)
        yield from client.touch("k", 30)
        yield sim.timeout(2_000_000)  # past the original deadline
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"v"
    assert client.transport.fallbacks.get("expired", 0) == 0


# ---------------------------------------------------------- late readers


def test_rpc_and_sockets_traffic_exports_no_index(cluster):
    """Only a one-sided client makes its server export: keys stored by
    UCR-IB and IPoIB clients leave the store without an index."""
    for transport in ("UCR-IB", "IPoIB"):
        client = cluster.client(transport)
        run(cluster, client.set(transport, b"v"))
        assert run(cluster, client.get(transport)) == b"v"
    assert cluster.server.onesided_index is None
    assert cluster.server.store.onesided is None


def test_a_late_reader_hits_every_key_stored_before_it(cluster):
    """The export publishes the store's linked items, so a one-sided
    client wired after an RPC client's sets serves each one by READs."""
    keys = [f"key{i}" for i in range(50)]
    writer = cluster.client("UCR-IB")

    def store_all():
        for key in keys:
            yield from writer.set(key, key.encode())

    run(cluster, store_all())
    reader = cluster.client("UCR-1S", client_node=1)
    t = reader.transport

    def read_all():
        got = []
        for key in keys:
            got.append((yield from reader.get(key)))
        return got

    assert run(cluster, read_all()) == [key.encode() for key in keys]
    assert (t.onesided_hits, t.fallbacks) == (len(keys), {})
    assert ExportSanitizer().check(cluster.server.store) == []


def test_a_second_onesided_client_reads_the_same_index(cluster):
    first = cluster.client("UCR-1S")
    index = cluster.server.onesided_index
    second = cluster.client("UCR-1S", client_node=1)
    assert cluster.server.onesided_index is index
    assert first.transport._descriptors == second.transport._descriptors


def test_values_flushed_or_expired_before_the_export_are_never_served(cluster):
    """A flushed value is not published and an expired one is published
    past its deadline: neither GET is served by READs, both miss."""
    writer = cluster.client("UCR-IB")

    def before_the_export():
        yield from writer.set("flushed", b"v")
        yield from writer.flush_all()
        yield from writer.set("expired", b"v", exptime=1)
        yield from writer.set("live", b"v")
        yield cluster.sim.timeout(2_000_000)

    run(cluster, before_the_export())
    assert len(cluster.server.store.by_key) == 3  # expiry and flush are lazy
    reader = cluster.client("UCR-1S", client_node=1)
    t = reader.transport

    def read_all():
        got = []
        for key in ("flushed", "expired", "live"):
            got.append((yield from reader.get(key)))
        return got

    assert run(cluster, read_all()) == [None, None, b"v"]
    assert t.fallbacks == {"absent": 1, "expired": 1}
    assert t.onesided_hits == 1
    assert ExportSanitizer().check(cluster.server.store) == []


# ------------------------------------------------------------- fallbacks


def test_miss_falls_back_to_rpc(cluster):
    client = cluster.client("UCR-1S")

    def scenario():
        return (yield from client.get("never-set"))

    assert run(cluster, scenario()) is None
    assert client.transport.fallbacks == {"absent": 1}
    assert client.transport.onesided_hits == 0


def test_deleted_key_is_absent_not_stale(cluster):
    client = cluster.client("UCR-1S")

    def scenario():
        yield from client.set("k", b"v")
        yield from client.delete("k")
        return (yield from client.get("k"))

    assert run(cluster, scenario()) is None
    assert client.transport.fallbacks == {"absent": 1}


def test_expired_entry_falls_back_and_misses(cluster):
    client = cluster.client("UCR-1S")
    sim = cluster.sim

    def scenario():
        yield from client.set("k", b"v", exptime=1)
        yield sim.timeout(2_000_000)
        return (yield from client.get("k"))

    assert run(cluster, scenario()) is None
    assert client.transport.fallbacks == {"expired": 1}


def test_flush_invalidates_every_entry(cluster):
    client = cluster.client("UCR-1S")

    def scenario():
        yield from client.set("k", b"v")
        yield from client.flush_all()
        return (yield from client.get("k"))

    assert run(cluster, scenario()) is None
    assert client.transport.fallbacks == {"absent": 1}


def test_oversized_value_rides_rpc(cluster):
    client = cluster.client("UCR-1S")
    client.transport.max_value_bytes = 64

    def scenario():
        yield from client.set("big", b"x" * 100)
        return (yield from client.get("big"))

    assert run(cluster, scenario()) == b"x" * 100
    assert client.transport.fallbacks == {"oversize": 1}
    assert client.transport.onesided_hits == 0


# ------------------------------------------------------------ torn reads


def _fire_between_stages(transport, action, times=1):
    """Run *action* (a synchronous server-side mutation) the first *times*
    a GET, its entry known, is about to post the stamped fetch: the only
    READ that names a slab page rather than the index."""
    state = {"left": times}
    reads = transport._reads

    def firing(server, landing, *posted):
        index_rkey = transport._descriptors[server].index_rkey
        if posted[0][0] != index_rkey and state["left"] > 0:
            state["left"] -= 1
            action()
        return (yield from reads(server, landing, *posted))

    transport._reads = firing
    return state


def test_read_parked_across_overwrite_retries_to_new_value(cluster):
    """The server rewrites the key before the client's fetch; the stamp
    behind the value must reject it and the retry must serve the *new*
    value -- never a splice of old and new bytes."""
    client = cluster.client("UCR-1S")
    store = cluster.server.store
    t = client.transport

    def scenario():
        store.set("k", b"old-value")  # another client's write: the GET probes
        _fire_between_stages(t, lambda: store.set("k", b"new-value"))
        return (yield from client.get("k"))

    value = run(cluster, scenario())
    assert value == b"new-value"  # the post-mutation truth, atomically
    assert t.torn_retries >= 1
    assert t.fallbacks == {}


def test_read_parked_across_delete_never_serves_dead_bytes(cluster):
    """Delete lands between the entry and the fetch: the zeroed stamp
    sends the GET to a cleared bucket and the RPC fallback reports the
    miss."""
    client = cluster.client("UCR-1S")
    store = cluster.server.store
    t = client.transport

    def scenario():
        yield from client.set("k", b"doomed")
        _fire_between_stages(t, lambda: store.delete("k"))
        return (yield from client.get("k"))

    assert run(cluster, scenario()) is None
    assert t.fallbacks == {"absent": 1}


def test_write_hot_key_exhausts_retries_and_falls_back(cluster):
    """A mutation in every read window burns all retries; the client
    stops spinning and asks the server, which answers authoritatively."""
    client = cluster.client("UCR-1S")
    store = cluster.server.store
    t = client.transport
    counter = {"n": 0}

    def churn():
        counter["n"] += 1
        store.set("k", b"gen-%d" % counter["n"])

    def scenario():
        yield from client.set("k", b"gen-0")
        _fire_between_stages(t, churn, times=100)
        return (yield from client.get("k"))

    value = run(cluster, scenario())
    # Authoritative: whatever generation the server held at RPC time.
    assert value == b"gen-%d" % counter["n"]
    assert t.fallbacks == {"torn": 1}
    assert t.torn_retries == t.max_read_retries + 1


def test_the_seqlock_refuses_an_unbalanced_bracket(cluster):
    """seq_begin refuses an odd version as seq_end refuses an even one:
    no value is edited in place, so a mutation window never nests."""
    cluster.server.export_index()
    index = cluster.server.store.onesided
    bucket = index.bucket_for("k")
    with pytest.raises(AssertionError, match="without seq_begin"):
        index.seq_end(bucket, None)
    index.seq_begin(bucket)
    with pytest.raises(AssertionError, match="mid-mutation"):
        index.seq_begin(bucket)
    index.seq_end(bucket, None)
    assert unpack_entry(index.entry_bytes(bucket)).version == 2


def test_mutation_between_the_two_responder_reads_is_retried_never_served(
    cluster, monkeypatch
):
    """The server opens a mutation window (``seq_begin``) and rewrites half
    the value in place after the responder read the window and before it
    reads the value.  ``seq_begin`` made the stamp behind the value odd,
    so the fetch is refused: the GET retries and serves the finished new
    value -- never the half-written bytes a stamp left valid until
    ``seq_end`` would have blessed."""
    client = cluster.client("UCR-1S")
    store = cluster.server.store
    index = store.onesided
    t = client.transport
    sim = cluster.sim
    responded = []
    respond = QueuePair._read_respond

    def rewrite_in_place():
        slot = index.slot_of(store.by_key["k"])
        mr, offset = store.by_key["k"].chunk.rdma_location()
        index.seq_begin(slot)
        mr.write(offset, b"NEW-")

        def finish(_event):
            mr.write(offset, b"NEW-VALUE")
            index.seq_end(slot, store.by_key["k"])

        sim.timeout(1.0).callbacks.append(finish)

    def serving(qp, packet, turnaround):
        responded.append(packet.length)
        if len(responded) == 2:  # the fetch, before the responder reads it
            rewrite_in_place()
        respond(qp, packet, turnaround)

    def scenario():
        store.set("k", b"old-value")  # another client's write: the GET probes
        monkeypatch.setattr(QueuePair, "_read_respond", serving)
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"NEW-VALUE"
    assert responded[:2] == [WINDOW * ENTRY_BYTES, len(b"old-value") + STAMP_BYTES]
    assert t.torn_retries >= 1
    assert t.fallbacks == {}


# ------------------------------------------------------ remembered entries


def _window_mates(key, n):
    """*n* other keys whose home bucket is *key*'s."""
    home = hash64(key) % DEFAULT_BUCKETS
    mates = (
        other for i in range(10_000_000)
        if hash64(other := f"other{i}") % DEFAULT_BUCKETS == home
    )
    return [next(mates) for _ in range(n)]


def _read_lengths(monkeypatch):
    """Record the length of every READ the server's adapter serves."""
    lengths = []
    respond = QueuePair._read_respond

    def serving(qp, packet, turnaround):
        respond(qp, packet, turnaround)
        lengths.append(packet.length)

    monkeypatch.setattr(QueuePair, "_read_respond", serving)
    return lengths


def test_repeat_hit_costs_one_read_in_one_round_trip(cluster):
    client = cluster.client("UCR-1S")
    t = client.transport
    sim = cluster.sim

    def timed_get():
        start = sim.now
        value = yield from client.get("k")
        return value, sim.now - start

    def scenario():
        cluster.server.store.set("k", b"payload")  # not this client's write
        first = yield from timed_get()
        reads = t.onesided_reads
        repeat = yield from timed_get()
        return first, repeat, t.onesided_reads - reads

    (v1, first_us), (v2, repeat_us), repeat_reads = run(cluster, scenario())
    assert v1 == v2 == b"payload"
    assert repeat_reads == 1  # the value and the stamp behind it
    # One round trip to the first GET's two, which also connect (3.21 vs
    # 24.01 us on Cluster A).
    assert repeat_us <= 0.6 * first_us
    assert t.onesided_reads == 3
    assert (t.onesided_hits, t.remembered_hits, t.stale_entries) == (2, 1, 0)


def test_overwrite_by_another_client_is_found_by_the_overlapped_probe(cluster):
    reader = cluster.client("UCR-1S", client_node=0)
    writer = cluster.client("UCR-1S", client_node=1)
    t = reader.transport

    def scenario():
        yield from writer.set("k", b"old")
        yield from reader.get("k")
        yield from writer.set("k", b"new")
        reads = t.onesided_reads
        value = yield from reader.get("k")
        return value, t.onesided_reads - reads

    value, reads = run(cluster, scenario())
    assert value == b"new"
    assert t.stale_entries == 1
    assert t.fallbacks == {}
    # the stale fetch, the slot probe, then the fresh entry's fetch with
    # the probe behind it (the slot found a stale stamp): no window READ
    assert reads == 4
    assert t.remembered_hits == 0


def test_displaced_entry_falls_back_after_one_round_trip(cluster):
    """WINDOW keys sharing "k"'s home fill its window and the last one
    takes the home slot: the remembered fetch's stamp is stale, the slot
    probe shows a foreign hash, one window READ finds no slot for "k", and
    the GET falls back."""
    client = cluster.client("UCR-1S")
    t = client.transport
    mates = _window_mates("k", WINDOW)

    def scenario():
        yield from client.set("k", b"mine")
        yield from client.get("k")
        # Displace "k" behind this client's back, as other clients would.
        for other in mates:
            cluster.server.store.set(other, b"theirs")
        reads = t.onesided_reads
        value = yield from client.get("k")
        return value, t.onesided_reads - reads

    value, reads = run(cluster, scenario())
    assert value == b"mine"  # the RPC answer
    assert reads == 3  # the stale fetch, the slot probe, then the window
    assert t.fallbacks == {"absent": 1}
    assert t.stale_entries == 1


def test_slot_taken_by_a_window_neighbour_reprobes_and_hits(cluster):
    """"k" is deleted, a window mate takes its slot and "k" comes back in
    the next one: the remembered slot's stamp is stale, its probe shows the
    mate's hash, and the window READ finds "k" one slot on -- a hit, not a
    false absent."""
    client = cluster.client("UCR-1S")
    t = client.transport
    store = cluster.server.store
    (mate,) = _window_mates("k", 1)

    def remember():
        yield from client.set("k", b"old")
        yield from client.get("k")

    run(cluster, remember())
    first = store.onesided.slot_of(store.by_key["k"])
    store.delete("k")  # as other clients would
    store.set(mate, b"theirs")
    store.set("k", b"new")
    assert store.onesided.slot_of(store.by_key["k"]) == first + 1
    reads = t.onesided_reads
    assert run(cluster, client.get("k")) == b"new"
    assert t.fallbacks == {}
    # the stale fetch, the slot probe, the window, the fetch
    assert t.onesided_reads - reads == 4
    assert (t.stale_entries, t.torn_retries) == (1, 0)


def test_own_set_reads_only_the_new_stamped_value(cluster, monkeypatch):
    client = cluster.client("UCR-1S")
    lengths = _read_lengths(monkeypatch)

    def scenario():
        yield from client.set("k", b"v1")
        yield from client.get("k")
        yield from client.set("k", b"value-2")
        del lengths[:]
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"value-2"
    # The set's reply carried its entry: no window, no slot probe.
    assert lengths == [len(b"value-2") + STAMP_BYTES]


def test_remembered_map_never_exceeds_the_slot_count(monkeypatch):
    """Forty keys over four buckets: windows overflow, RPC hits republish
    and displace, and every GET leaves at most one remembered entry per
    slot of the index."""
    monkeypatch.setattr(ExportedIndex, "n_buckets", 4)
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-1S")
    index = cluster.server.store.onesided
    t = client.transport
    keys = [f"key{i}" for i in range(40)]
    sizes = []

    def scenario():
        for key in keys:
            yield from client.set(key, key.encode())
        for _ in range(2):
            for key in keys:
                assert (yield from client.get(key)) == key.encode()
                sizes.append(len(t._confirmed["server"]))

    run(cluster, scenario())
    assert index.n_slots == 4 + WINDOW - 1
    # Keyed by slot, not by bucket: more entries than buckets, never more
    # than slots.
    assert index.n_buckets < max(sizes) <= index.n_slots
    assert set(t._confirmed["server"]) <= set(range(index.n_slots))
    assert t.fallbacks["absent"] > 0 and t.onesided_hits > 0


def _round_trips(transport):
    """Record the READs of each round trip (one entry per ``_reads``)."""
    trips = []
    reads = transport._reads

    def counting(server, landing, *posted):
        trips.append(len(posted))
        return (yield from reads(server, landing, *posted))

    transport._reads = counting
    return trips


def test_own_write_is_read_back_in_one_round_trip(cluster):
    """Read-your-own-write: each set's reply carries the entry the server
    published for it, so both GETs are remembered hits -- one READ in
    one round trip apiece, and no stamp is stale."""
    client = cluster.client("UCR-1S")
    t = client.transport
    trips = _round_trips(t)

    def scenario():
        yield from client.set("k", b"v1")
        first = yield from client.get("k")
        yield from client.set("k", b"v2")
        return first, (yield from client.get("k"))

    assert run(cluster, scenario()) == (b"v1", b"v2")
    assert trips == [1, 1]
    assert (t.remembered_hits, t.stale_entries, t.onesided_reads) == (2, 0, 2)


def test_a_key_another_client_overwrites_costs_one_extra_round_trip_once(cluster):
    """Another client overwrites "k" before each of our GETs.  A stale
    stamp names no fresh entry, so the first stale GET takes three round
    trips (the fetch, the slot probe, the fetch); from then on the slot
    posts the probe behind its fetch, and a stale stamp restarts from the
    probe: two round trips, a value + confirm ladder's count."""
    reader = cluster.client("UCR-1S", client_node=0)
    writer = cluster.client("UCR-1S", client_node=1)
    t = reader.transport
    trips = _round_trips(t)
    per_get = []

    def scenario():
        yield from writer.set("k", b"v0")
        assert (yield from reader.get("k")) == b"v0"
        for i in range(1, 6):
            yield from writer.set("k", b"v%d" % i)
            del trips[:]
            assert (yield from reader.get("k")) == b"v%d" % i
            per_get.append(trips[:])

    run(cluster, scenario())
    assert per_get == [[1, 1, 2]] + [[2, 2]] * 4
    assert (t.stale_entries, t.torn_retries, t.remembered_hits) == (5, 0, 0)


OWN_WRITES = {
    "set": (lambda c: c.set("k", b"fresh"), b"fresh"),
    "incr": (lambda c: c.incr("k", 5), b"15"),
    "append": (lambda c: c.append("k", b"+more"), b"10+more"),
    "touch": (lambda c: c.touch("k", 30), b"10"),
}


@pytest.mark.parametrize("op", OWN_WRITES)
def test_the_get_after_an_own_write_is_a_remembered_hit(cluster, op):
    """Another client wrote "k", so nothing is remembered for it; the own
    command's reply then carries the entry it published."""
    client = cluster.client("UCR-1S")
    t = client.transport
    write, expected = OWN_WRITES[op]
    cluster.server.store.set("k", b"10")
    trips = _round_trips(t)

    def scenario():
        yield from write(client)
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == expected
    assert trips == [1]  # the stamped fetch, one round trip
    assert t.remembered_hits == 1
    assert (t.stale_entries, t.torn_retries, t.fallbacks) == (0, 0, {})


def _noreply_set(client):
    """A ``noreply`` set straight through the transport (the client
    refuses to send one)."""
    return client.transport.execute(
        "server", Command("set", ["k"], value=b"quiet", noreply=True)
    )


FORGETTING = {
    "delete": (lambda c: c.delete("k"), None),
    "failed add": (lambda c: c.add("k", b"lost"), b"mine"),
    "noreply set": (_noreply_set, b"quiet"),
}


@pytest.mark.parametrize("op", FORGETTING)
def test_nothing_is_remembered_after_a_write_whose_reply_has_no_entry(
    cluster, monkeypatch, op
):
    client = cluster.client("UCR-1S")
    t = client.transport
    write, expected = FORGETTING[op]
    lengths = _read_lengths(monkeypatch)

    def scenario():
        yield from client.set("k", b"mine")
        yield from write(client)
        del lengths[:]
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == expected
    assert lengths[0] == WINDOW * ENTRY_BYTES
    assert t.remembered_hits == 0


def test_an_overwrite_after_our_sets_reply_is_found_stale(cluster):
    """Another client overwrites "k" between our set's reply and our GET:
    the stamp behind the value is stale, the slot probe shows the new
    entry, which is fetched and served -- the remembered entry never is."""
    reader = cluster.client("UCR-1S", client_node=0)
    writer = cluster.client("UCR-1S", client_node=1)
    t = reader.transport

    def scenario():
        yield from reader.set("k", b"ours")
        yield from writer.set("k", b"theirs")
        return (yield from reader.get("k"))

    assert run(cluster, scenario()) == b"theirs"
    assert (t.stale_entries, t.remembered_hits, t.onesided_reads) == (1, 0, 4)


def test_a_get_multi_leaves_remembered_entries_alone(cluster):
    """A get_multi rides the RPC path and changes no entry: the next GET
    of a key it read is still a one-round-trip remembered hit."""
    client = cluster.client("UCR-1S")
    t = client.transport
    trips = _round_trips(t)

    def scenario():
        yield from client.set("k", b"v")
        assert (yield from client.get_multi(["k", "other"])) == {"k": b"v"}
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"v"
    assert trips == [1]
    assert t.remembered_hits == 1


def test_published_names_a_linked_keys_slot_and_nothing_else(cluster):
    cluster.server.export_index()
    store = cluster.server.store
    index = store.onesided
    (mate,) = _window_mates("k", 1)
    store.set(mate, b"first")  # takes the home slot: "k" lands one on
    store.set("k", b"v")
    at, raw = index.published("k")
    assert at == 1
    assert raw == index.entry_bytes(index.slot_of(store.by_key["k"]))
    assert unpack_entry(raw).live
    store.delete("k")
    assert index.published("k") is None
    assert index.published("never-set") is None


def test_a_server_without_a_descriptor_falls_back_absent(cluster):
    client = cluster.client("UCR-1S")
    t = client.transport
    t._descriptors.clear()

    def scenario():
        yield from client.set("k", b"v")
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"v"
    assert t.fallbacks == {"absent": 1}
    assert (t.onesided_reads, t._confirmed) == (0, {})


def test_an_expired_remembered_entry_probes_its_slot(cluster, monkeypatch):
    """The remembered entry's deadline passed, but another client touched
    the key: the GET probes that one slot, finds the fresh deadline, and
    hits."""
    client = cluster.client("UCR-1S")
    t = client.transport
    lengths = _read_lengths(monkeypatch)

    def scenario():
        yield from client.set("k", b"v", exptime=1)
        cluster.server.store.touch("k", 30)  # as another client would
        yield cluster.sim.timeout(2_000_000)  # past the remembered deadline
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"v"
    assert lengths == [ENTRY_BYTES, 1 + STAMP_BYTES]
    assert (t.remembered_hits, t.fallbacks) == (0, {})


def test_own_flush_is_found_by_the_overlapped_probe(cluster):
    """A flush names no key, so nothing is forgotten: the wasted fetch
    finds its stamp stale, and the slot probe finds the bucket changed."""
    client = cluster.client("UCR-1S")
    t = client.transport

    def scenario():
        yield from client.set("k", b"v")
        yield from client.get("k")
        yield from client.flush_all()
        cluster.server.store.set("k", b"w")  # as another client would
        reads = t.onesided_reads
        value = yield from client.get("k")
        return value, t.onesided_reads - reads

    value, reads = run(cluster, scenario())
    assert value == b"w"
    # the stale fetch, the slot probe, then the fresh fetch with the probe
    # behind it
    assert reads == 4
    # The first GET read back the set's own entry; the second found it stale.
    assert (t.stale_entries, t.remembered_hits) == (1, 1)


def test_remembered_read_parked_across_delete_never_serves_dead_bytes(cluster):
    client = cluster.client("UCR-1S")
    store = cluster.server.store
    t = client.transport

    def scenario():
        yield from client.set("k", b"doomed")
        yield from client.get("k")
        _fire_between_stages(t, lambda: store.delete("k"))
        return (yield from client.get("k"))

    assert run(cluster, scenario()) is None
    assert t.fallbacks == {"absent": 1}
    assert (t.stale_entries, t.torn_retries) == (1, 0)


def test_remembered_read_parked_across_overwrite_serves_new_value(cluster):
    client = cluster.client("UCR-1S")
    store = cluster.server.store
    t = client.transport

    def scenario():
        yield from client.set("k", b"old-value")
        yield from client.get("k")
        _fire_between_stages(t, lambda: store.set("k", b"new-value"))
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == b"new-value"
    assert t.fallbacks == {}
    assert (t.stale_entries, t.torn_retries) == (1, 0)


def test_probe_landing_before_a_large_value_is_not_missed(cluster):
    """The 64-byte slot probe completes right behind a 4 KB fetch posted
    ahead of it; its counter target was taken at post time, so the wait
    that starts after the value landed still sees it."""
    client = cluster.sharded_client("UCR-1S")
    t = client.transport
    value = bytes(range(256)) * 16
    trips = _round_trips(t)

    def scenario():
        yield from client.set("k", value)
        cluster.server.store.set("k", value)  # as another client would
        yield from client.get("k")  # stale: the slot now pairs its fetches
        del trips[:]
        return (yield from client.get("k"))

    assert run(cluster, scenario()) == value
    assert client.failovers == 0
    assert trips == [2]  # the fetch and the probe behind it
    assert (t.stale_entries, t.remembered_hits) == (1, 1)


def test_endpoint_failing_under_overlapped_reads_drops_their_buffers(cluster):
    """Both READs of a paired slot (the fetch and the probe behind it) are
    in flight when the server's link stalls: the wait times out, and the
    endpoint is failed and forgotten.  The READs still land late, so
    their counters are destroyed and their landing buffer dropped, not
    pooled: a later GET must not be woken or scattered into by them."""
    client = cluster.client("UCR-1S", timeout_us=2000.0)
    t = client.transport
    server_nic = cluster.verbs_net.nic_of("server")
    stalled = []  # the fetch and the probe behind it

    def stall_after_the_pair(ep):
        post = ep._post

        def posting(wr):
            post(wr)
            stalled.append(wr)
            if len(stalled) == 2:
                server_nic.slowdown *= 1e6

        ep._post = posting

    def scenario():
        yield from client.set("k", b"v")
        cluster.server.store.set("k", b"w")  # as another client would
        yield from client.get("k")  # stale: the slot now pairs its fetches
        pools = len(t._counter_pool), t.landings.free_count
        stall_after_the_pair(t._endpoints["server"])
        with pytest.raises(ServerDownError, match="after 2000.0"):
            yield from client.get("k")
        return pools

    # The late READ completions land after the scenario; an
    # UnhandledFailure would raise out of this run.
    assert run(cluster, scenario()) == (2, 1)
    assert [wr.context.endpoint.failed for wr in stalled] == [True, True]
    assert "server" not in t._endpoints
    assert (t.stale_entries, t.remembered_hits) == (1, 0)
    late_counters = [wr.context.origin_counter for wr in stalled]
    late_landing = {wr.sge.mr for wr in stalled}
    assert len(late_landing) == 1
    assert not any(c in t._counter_pool for c in late_counters)
    assert [t.runtime.counter_by_id(c.counter_id) for c in late_counters] == [None, None]
    assert not late_landing & {buf.mr for buf in t.landings._free}
    assert (len(t._counter_pool), t.landings.free_count) == (0, 0)


# ------------------------------------------------- histories + sanitizer


def test_concurrent_onesided_history_is_linearizable(cluster):
    clients = [cluster.sharded_client("UCR-1S", client_node=i) for i in range(2)]

    def worker(client, salt):
        for i in range(30):
            key = f"key{(i + salt) % 4}"
            yield from client.set(key, b"v%d" % i)
            got = yield from client.get(key)
            assert got is not None
            # Read every key: an entry remembered from an earlier step
            # serves a hit unless the peer has written it since.
            for other in range(4):
                yield from client.get(f"key{other}")

    with recorder.recording():
        for i, client in enumerate(clients):
            cluster.sim.process(worker(client, i))
        cluster.sim.run()
        records = list(recorder.records)

    result = check_history(records, by_server=True)
    assert result.ok, result.failures
    assert sum(c.transport.onesided_hits for c in clients) > 0
    assert sum(c.transport.remembered_hits for c in clients) > 0
    assert sum(c.transport.stale_entries for c in clients) > 0


def test_concurrent_history_over_a_full_window_is_linearizable():
    """2 x WINDOW keys share one home bucket, so their window is always
    full: two one-sided readers and a writer interleave set, get and
    delete over them.  Entries are displaced, re-placed into freed slots,
    remembered slots are taken by window mates -- and the recorded history
    still linearizes."""
    cluster = Cluster(CLUSTER_A, n_client_nodes=3)
    cluster.start_server()
    keys = ["k"] + _window_mates("k", 2 * WINDOW - 1)
    readers = [cluster.client("UCR-1S", client_node=i) for i in range(2)]
    writer = cluster.client("UCR-1S", client_node=2)

    def reading(client, rng):
        for step in range(120):
            key = rng.choice(keys)
            if rng.uniform() < 0.2:
                yield from client.set(key, b"%s/r%d" % (key.encode(), step))
            else:
                yield from client.get(key)

    def writing(rng):
        for step in range(120):
            key = rng.choice(keys)
            if rng.uniform() < 0.3:
                yield from writer.delete(key)
            else:
                yield from writer.set(key, b"%s/w%d" % (key.encode(), step))

    with recorder.recording():
        for i, client in enumerate(readers):
            cluster.sim.process(reading(client, RngStream(7, f"reader{i}")))
        cluster.sim.process(writing(RngStream(7, "writer")))
        cluster.sim.run()
        records = list(recorder.records)

    result = check_history(records, by_server=True)
    assert result.ok, result.failures
    transports = [c.transport for c in readers]
    assert sum(t.onesided_hits for t in transports) > 0
    assert sum(t.remembered_hits for t in transports) > 0
    assert sum(t.stale_entries for t in transports) > 0
    assert sum(t.fallbacks.get("absent", 0) for t in transports) > 0
    assert ExportSanitizer().check(cluster.server.store) == []


def test_export_sanitizer_accepts_a_live_workload(cluster):
    client = cluster.client("UCR-1S")

    def driver():
        for i in range(20):
            yield from client.set(f"key{i % 5}", b"v%d" % i, flags=i)
        yield from client.delete("key1")

    run(cluster, driver())
    store = cluster.server.store
    assert ExportSanitizer().check(store) == []
    # Churn straight through the store's seqlock publish hooks: 3 000 sets
    # over 512 keys, a third of them deleted at once.
    for i in range(3000):
        key = f"key{i % 512}"
        store.set(key, bytes(512))
        if i % 3 == 0:
            store.delete(key)
    assert store.onesided.publishes >= 3000
    assert ExportSanitizer().check(store) == []


def test_export_sanitizer_flags_skipped_invalidation(cluster):
    """The seeded MUTATIONS bug, caught structurally: unpublish without
    the seqlock bump leaves a live, ownerless entry behind."""
    from repro.check.mutations import MUTATIONS

    client = cluster.client("UCR-1S")
    store = cluster.server.store
    MUTATIONS["onesided-skip-version-bump"](store)

    def scenario():
        yield from client.set("k", b"doomed")
        yield from client.delete("k")

    run(cluster, scenario())
    with pytest.raises(ExportIndexError, match="no owner"):
        ExportSanitizer().check(store)
