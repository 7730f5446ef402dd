"""Counted budget of the one-sided GET paths.

The ``onesided_small`` benchmark's shape, shortened: four clients own 500
keys each, client 0 sets all 2 000, and then every client runs a fixed
stream of 100 ops (a fifth of them sets) over its own keys, Zipf-drawn
at one seed.  Each one-sided GET is filed by its first round trip:

- ``window`` -- the 512-byte window READ (nothing remembered for the key);
- ``remembered`` -- the value READ with its stamp behind it (one READ,
  and the slot probe behind it on a slot that once found its stamp
  stale);
- ``slot probe`` -- a 64-byte READ of the remembered slot (its entry
  was refused);
- ``fallback`` -- the index could not prove the answer; RPC served it.

The counts and the READs per GET are pinned exactly, so a change to the
READ plan is named here, by count, before the full suite runs.  A store
reply carries the entry its command published, so a GET after an own
write, and a first GET of one of client 0's keys, is ``remembered``:
170 of the 311 GETs, where 110 were when a store reply carried no entry
(then 189 READ the window and 10 probed the slot their own set had
kept; now 139 READ the window and none probes).  The stamp behind the
value replaced the 64-byte confirm READ: a remembered GET is one READ
(was two), a window GET two (was three).
"""

from collections import Counter

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.onesided import ENTRY_BYTES, WINDOW
from repro.sim import RngStream

CLIENTS = 4
KEYS_PER_CLIENT = 500
OPS_PER_CLIENT = 100
SET_FRACTION = 0.2
SEED = 1


def _observe(transport, gets: list) -> None:
    """File each of *transport*'s one-sided GETs in *gets* as ``(path,
    READs)``."""
    reads, onesided_get = transport._reads, transport.onesided_get
    trips: list = []

    def counting(server, landing, *posted):
        index_rkey = transport._descriptors[server].index_rkey
        trips.append([
            length if rkey == index_rkey else "fetch"
            for rkey, _offset, length, _at in posted
        ])
        return (yield from reads(server, landing, *posted))

    def getting(server, key):
        trips.clear()
        reply = yield from onesided_get(server, key)
        first = trips[0] if trips else []
        if reply is None:
            path = "fallback"
        elif first[0] == "fetch":
            path = "remembered"
        elif first == [WINDOW * ENTRY_BYTES]:
            path = "window"
        else:
            assert first == [ENTRY_BYTES]
            path = "slot probe"
        gets.append((path, sum(len(trip) for trip in trips)))
        return reply

    transport._reads = counting
    transport.onesided_get = getting


def _run():
    cluster = Cluster(CLUSTER_A, n_client_nodes=CLIENTS)
    cluster.start_server()
    clients = [cluster.client("UCR-1S", i) for i in range(CLIENTS)]
    keys = [[f"bench-{c}-{i}" for i in range(KEYS_PER_CLIENT)] for c in range(CLIENTS)]
    gets: list = []
    for client in clients:
        _observe(client.transport, gets)

    def prepopulate():
        for own in keys:
            for key in own:
                yield from clients[0].set(key, key.encode())

    def stream(client, own, rng):
        for _ in range(OPS_PER_CLIENT):
            key = own[rng.zipf_index(KEYS_PER_CLIENT, 0.99)]
            if rng.uniform() < SET_FRACTION:
                yield from client.set(key, key.encode() * 2)
            else:
                assert (yield from client.get(key)) in (key.encode(), key.encode() * 2)

    cluster.sim.run_until_event(cluster.sim.process(prepopulate()))
    for c, client in enumerate(clients):
        cluster.sim.process(stream(client, keys[c], RngStream(SEED, f"budget/c{c}")))
    cluster.sim.run()
    return clients, gets


def test_gets_per_path_and_reads_per_get_are_pinned():
    clients, gets = _run()
    paths = Counter(path for path, _reads in gets)
    reads = Counter(gets)
    assert len(gets) == 311
    assert paths == {"remembered": 170, "window": 139, "fallback": 2}
    # One READ in one round trip; the window, then the stamped fetch; the
    # window of a key displaced from it (``absent``), then RPC.
    assert reads == {("remembered", 1): 170, ("window", 2): 139, ("fallback", 1): 2}
    transports = [c.transport for c in clients]
    assert sum(t.remembered_hits for t in transports) == paths["remembered"]
    assert sum(t.onesided_reads for t in transports) == sum(n for _p, n in gets)
