"""Seeded op streams and closed-loop drivers for the two-clock benchmark.

Everything here drives the *unmodified* ``repro`` public API from the
outside: a workload is a :class:`Workload` row, its op stream is a pure
function of ``(workload, seed)``, and one :func:`repetition` builds a
fresh cluster, prepopulates it, and runs the timed closed loop while
checking every reply.  The program under test only ever sees generated
ops; the benchmark's own clock reads (``time.perf_counter``) wrap whole
regions, never single ops.

Load model (paper §VI-D, libmemcached callers block on the reply):
closed loop, one host thread, every client on its own simulated node of
``CLUSTER_B``.  A value's bytes *and size* are a pure function of
``(seed, key)`` and a key belongs to one client, so the expected bytes
of a GET are never ambiguous.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster import CLUSTER_B, Cluster
from repro.memcached.command import Command
from repro.memcached.errors import MemcachedError
from repro.memcached.serving import ProbabilisticHotCache
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import StoreConfig
from repro.sim.engine import UnhandledFailure
from repro.sim.rng import RngStream
from repro.workloads.keys import make_value

ZIPF_SKEW = 0.99
#: A key's value is its class size stretched by up to this share.
SIZE_JITTER = 0.2
WARMUP_GETS = 5
#: Why a one-sided GET fell back to the RPC path (OneSidedTransport.fallbacks).
FALLBACK_REASONS = ("absent", "expired", "oversize", "torn")


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``why`` is what ``BENCHMARK.json`` records."""

    name: str
    why: str
    transport: str
    n_clients: int
    n_keys: int
    sizes: tuple[int, ...]
    set_fraction: float
    n_ops: int
    #: In-flight commands per ``client.pipeline`` call; 1 = blocking ops.
    window: int = 1
    n_servers: int = 1
    #: Per-server store size in slab pages; None = the 64-page default.
    store_pages: Optional[int] = None
    #: Route through ``sharded_client`` with a probabilistic hot cache.
    sharded: bool = False
    #: A GET may legally miss (the working set exceeds the stores).
    miss_legal: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ucr_mixed",
            why="paper's headline path: AM eager and rendezvous (16 KB > 8 KB "
                "threshold) over verbs, 4 clients; host time is mostly sim "
                "kernel; sockets layer idle",
            transport="UCR-IB", n_clients=4, n_keys=2000,
            sizes=(64, 1024, 4096, 16384), set_fraction=0.2, n_ops=5000,
        ),
        Workload(
            name="ipoib_pipelined",
            why="the baseline the paper beats: kernel-TCP segmentation, text "
                "codec, epoll workers, windows of 4; verbs/core idle; large "
                "writes beside reads",
            transport="IPoIB", n_clients=2, n_keys=500,
            sizes=(1024, 8192, 32768), set_fraction=0.5, n_ops=2800, window=4,
        ),
        Workload(
            name="onesided_small",
            why="one-sided GETs: 3 RDMA READs and zero server CPU per hit "
                "while sets ride AMs and churn the seqlock index; same verbs/"
                "fabric layers used differently",
            transport="UCR-1S", n_clients=4, n_keys=2000,
            sizes=(16, 64, 256, 1024), set_fraction=0.2, n_ops=5000,
        ),
        Workload(
            name="sharded_pressure",
            why="serving composition: hash-ring routing, failover wrapper, hot "
                "cache, slab eviction/LRU (the largest value class overflows "
                "its page); the only workload where a miss is legal",
            transport="UCR-IB", n_clients=4, n_keys=3000,
            sizes=(180, 1100, 4400), set_fraction=0.3, n_ops=5000,
            n_servers=4, store_pages=3, sharded=True, miss_legal=True,
        ),
    )
}


# -- inputs ----------------------------------------------------------------


def key_name(client: int, index: int) -> str:
    return f"bench-{client}-{index}"


def value_for(key: str, seed: int, sizes: tuple[int, ...]) -> bytes:
    """The one value *key* ever holds under *seed*.

    The size class is a pure function of the key, so every seed offers
    the same popularity-weighted mix of classes; the seed stretches each
    key's size by up to ``SIZE_JITTER`` within its class, so simulated
    latencies are not the same handful of floats at every seed.
    """
    digest = hashlib.md5(key.encode()).digest()
    base = sizes[digest[0] % len(sizes)]
    stretch = hashlib.md5(f"{seed}/{key}".encode()).digest()
    extra = int(base * SIZE_JITTER * int.from_bytes(stretch[:4], "little") / 2**32)
    return make_value(base + extra, tag=digest[1])


@dataclass
class Inputs:
    """Everything generated from ``(workload, seed)`` before any timing."""

    workload: Workload
    seed: int
    #: key -> expected bytes, for every key of the universe.
    values: dict[str, bytes]
    #: Per client: [(is_set, key), ...].
    streams: list[list[tuple[bool, str]]]

    @property
    def n_ops(self) -> int:
        return sum(len(s) for s in self.streams)


def generate(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """The seeded op/key stream.

    Each client draws Zipf(0.99) keys from its own ``n_keys / n_clients``
    slice of the universe and issues an exact ``set_fraction`` of sets in
    a seeded shuffle, so sample counts do not depend on the seed.  Keys
    are private to a client because the UCR server's zero-copy GET reply
    races a concurrent SET of the same key from another client (README,
    "Compositions kept out"); the shared server, fabric and stores are
    still contended by every client.
    """
    per_client_keys = workload.n_keys // workload.n_clients
    per_client = max(workload.window, int(workload.n_ops * scale) // workload.n_clients)
    per_client -= per_client % workload.window
    n_sets = round(per_client * workload.set_fraction)
    values: dict[str, bytes] = {}
    streams = []
    for c in range(workload.n_clients):
        keys = [key_name(c, i) for i in range(per_client_keys)]
        values.update((k, value_for(k, seed, workload.sizes)) for k in keys)
        rng = RngStream(seed, f"bench/c{c}")
        kinds = [True] * n_sets + [False] * (per_client - n_sets)
        rng.shuffle(kinds)
        streams.append(
            [(kind, keys[rng.zipf_index(per_client_keys, ZIPF_SKEW)]) for kind in kinds]
        )
    return Inputs(workload, seed, values, streams)


# -- deployment --------------------------------------------------------------


@dataclass
class Deployment:
    cluster: Cluster
    clients: list
    setup_s: float


def deploy(inputs: Inputs) -> Deployment:
    """Cluster build + server start + client connect + prepopulate +
    warm-up: everything ``setup_s`` covers."""
    w = inputs.workload
    t0 = time.perf_counter()
    cluster = Cluster(
        CLUSTER_B, n_client_nodes=w.n_clients, seed=inputs.seed, n_servers=w.n_servers
    )
    config = (
        StoreConfig(max_bytes=w.store_pages * PAGE_BYTES)
        if w.store_pages is not None
        else StoreConfig()
    )
    cluster.start_server(n_workers=4, store_config=config)
    if w.sharded:
        clients = [
            cluster.sharded_client(
                w.transport, i,
                hot_cache=ProbabilisticHotCache(
                    i, ttl_s=1.0, admission_rate=0.25
                ),
            )
            for i in range(w.n_clients)
        ]
    else:
        clients = [
            cluster.client(w.transport, i, pipeline_depth=w.window)
            for i in range(w.n_clients)
        ]

    def prepare():
        for key, value in inputs.values.items():
            yield from clients[0].set(key, value)
        for client, stream in zip(clients, inputs.streams):
            for _is_set, key in stream[:WARMUP_GETS]:
                yield from client.get(key)

    cluster.sim.run_until_event(cluster.sim.process(prepare()))
    return Deployment(cluster, clients, time.perf_counter() - t0)


# -- public counters -----------------------------------------------------------


def counters(dep: Deployment) -> dict[str, float]:
    """Totals read from the program's public counters; the timed region
    reports the difference between two of these snapshots."""
    cluster = dep.cluster
    out: dict[str, float] = {"sim.events": cluster.sim.events_processed}
    frames = nbytes = 0
    for node in cluster.nodes.values():
        for net in node.networks:
            nic = node.nic(net)
            frames += nic.frames_sent.value
            nbytes += nic.bytes_sent.value
    out["fabric.frames"] = frames
    out["fabric.bytes"] = nbytes
    contexts = [c.transport.context for c in dep.clients if hasattr(c.transport, "context")]
    for port in cluster.ucr_ports.values():
        contexts.extend(port.contexts)
    out["core.am_messages"] = sum(c.messages_processed for c in contexts)
    out["memcached.server.requests"] = sum(
        s.stats_requests for s in cluster.servers.values()
    )
    stats = [s.store.stats for s in cluster.servers.values()]
    for name in ("cmd_set", "evictions", "oom_errors", "reclaimed"):
        out[f"memcached.store.{name}"] = sum(getattr(s, name) for s in stats)
    out["memcached.onesided.publishes"] = sum(
        s.onesided_index.publishes
        for s in cluster.servers.values()
        if s.onesided_index is not None
    )
    transports = [c.transport for c in dep.clients]
    for name in ("onesided_reads", "onesided_hits", "torn_retries"):
        out[f"memcached.onesided.{name}"] = sum(getattr(t, name, 0) for t in transports)
    for reason in FALLBACK_REASONS:
        out[f"memcached.onesided.fallback.{reason}"] = sum(
            getattr(t, "fallbacks", {}).get(reason, 0) for t in transports
        )
    caches = [c.hot_cache for c in dep.clients if c.hot_cache is not None]
    for name in ("hits", "misses", "invalidations"):
        out[f"memcached.serving.hotcache_{name}"] = sum(getattr(h, name) for h in caches)
    out["cluster.ejections"] = sum(
        c.shard_health(s)[2]
        for c in dep.clients
        if hasattr(c, "shard_health")
        for s in cluster.server_names
    )
    return out


# -- the timed closed loop -------------------------------------------------------


@dataclass
class Timed:
    """What one timed region produced, on both clocks."""

    attempted: int = 0
    failed: int = 0
    gets: int = 0
    hits: int = 0
    get_us: list[float] = field(default_factory=list)
    set_us: list[float] = field(default_factory=list)
    elapsed_us: float = 0.0
    host_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    store_stats: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def simulated(self) -> str:
        """Digest of everything that must repeat exactly: latencies,
        event count, store stats, outcome counts."""
        h = hashlib.sha256()
        h.update(repr((self.get_us, self.set_us, self.elapsed_us)).encode())
        h.update(repr((self.attempted, self.failed, self.gets, self.hits)).encode())
        h.update(repr((self.counts["sim.events"], self.store_stats)).encode())
        return h.hexdigest()


def _check(out: Timed, inputs: Inputs, is_set: bool, key: str, result, dt: float) -> None:
    """Output check: exact bytes per GET, ``stored`` per SET; a miss is
    legal only where the workload says so; any raised error fails."""
    out.attempted += 1
    if isinstance(result, Exception):
        out.fail(f"{'set' if is_set else 'get'} {key}: {result!r}")
        return
    if is_set:
        if result is not True:
            out.fail(f"set {key}: not stored")
            return
        out.set_us.append(dt)
        return
    out.gets += 1
    if result is None:
        if not inputs.workload.miss_legal:
            out.fail(f"get {key}: illegal miss")
            return
    elif result != inputs.values[key]:
        out.fail(f"get {key}: wrong bytes ({len(result)} B)")
        return
    else:
        out.hits += 1
    out.get_us.append(dt)


def _blocking_loop(sim, client, stream, inputs: Inputs, out: Timed, finished: list):
    values = inputs.values
    for is_set, key in stream:
        t0 = sim.now
        try:
            if is_set:
                result = yield from client.set(key, values[key])
            else:
                result = yield from client.get(key)
        except MemcachedError as exc:
            result = exc
        _check(out, inputs, is_set, key, result, sim.now - t0)
    finished.append(sim.now)


def _windowed_loop(sim, client, stream, inputs: Inputs, out: Timed, finished: list):
    """Windows of ``workload.window`` commands via ``client.pipeline``;
    each op's latency is its window's, as memslap reports it."""
    values = inputs.values
    width = inputs.workload.window
    for lo in range(0, len(stream), width):
        window = stream[lo : lo + width]
        cmds = [
            Command(op="set", keys=[key], value=values[key])
            if is_set
            else Command(op="get", keys=[key])
            for is_set, key in window
        ]
        t0 = sim.now
        results = yield from client.pipeline(cmds, width)
        dt = sim.now - t0
        for (is_set, key), result in zip(window, results):
            _check(out, inputs, is_set, key, result, dt)
    finished.append(sim.now)


def run_timed(dep: Deployment, inputs: Inputs) -> Timed:
    """Start every client at once and run the simulator dry."""
    sim = dep.cluster.sim
    out = Timed()
    started_us = sim.now
    finished: list[float] = []
    loop = _windowed_loop if inputs.workload.window > 1 else _blocking_loop
    before = counters(dep)
    t0 = time.perf_counter()
    for client, stream in zip(dep.clients, inputs.streams):
        sim.process(loop(sim, client, stream, inputs, out, finished))
    try:
        sim.run()
    except UnhandledFailure as exc:
        out.errors.append(f"simulator: {exc!r}")
    out.host_s = time.perf_counter() - t0
    after = counters(dep)
    # Ops a dead client never issued, or never got an answer to, failed.
    lost = inputs.n_ops - out.attempted
    out.attempted += lost
    out.failed += lost
    out.elapsed_us = (max(finished) if finished else sim.now) - started_us
    out.counts = {k: after[k] - before[k] for k in after}
    out.store_stats = [s.store.stats.as_dict() for s in dep.cluster.servers.values()]
    return out


def repetition(inputs: Inputs) -> tuple[Deployment, Timed]:
    """One fresh cluster, set up and timed (GC stays on; collect first so
    the previous cluster's garbage is not charged to this one)."""
    gc.collect()
    dep = deploy(inputs)
    return dep, run_timed(dep, inputs)
