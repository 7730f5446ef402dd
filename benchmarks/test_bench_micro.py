"""Microbenchmarks: wall-clock throughput of the simulator's own hot paths.

These are the only benchmarks where *wall* time is the result: they tell
a user how fast the DES engine and the memcached data structures run on
their machine (events/sec, ops/sec), which bounds how large an
experiment is practical.
"""

from repro.fabric import HOST_WESTMERE, Node
from repro.memcached.store import ItemStore, StoreConfig
from repro.memcached.slabs import PAGE_BYTES
from repro.sim import Resource, Simulator


def test_bench_engine_timeout_chain(benchmark):
    """Events/sec through the heap with a single hot process."""

    def run():
        sim = Simulator()

        def proc():
            for _ in range(20_000):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 20_000


def test_bench_engine_many_processes(benchmark):
    """Scheduling fairness with 1000 concurrent processes."""

    def run():
        sim = Simulator()

        def proc():
            for _ in range(50):
                yield sim.timeout(1.0)

        for _ in range(1000):
            sim.process(proc())
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 50_000


def test_bench_resource_contention(benchmark):
    """100 workers on 4 slots: nearly every grant queues.  In the figures
    and the perf workloads that is the 0.1 % case; the common one is
    :func:`test_bench_cpu_run_uncontended` below."""

    def run():
        sim = Simulator()
        res = Resource(sim, capacity=4)

        def worker():
            for _ in range(100):
                req = res.request()
                yield req
                yield sim.timeout(1.0)
                res.release(req)

        for _ in range(100):
            sim.process(worker())
        sim.run()
        return sim.now

    benchmark(run)


def test_bench_cpu_run_uncontended(benchmark):
    """CPU slices with a core always free -- what 99.9 % of the stack's
    ``Resource.hold`` calls look like: one heap event per slice."""

    def run():
        sim = Simulator()
        node = Node(sim, "n0", HOST_WESTMERE)

        def proc():
            for _ in range(20_000):
                yield from node.cpu_run(1.0)

        sim.process(proc())
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 20_000 + 2  # the slices, process start and end


def test_bench_itemstore_set_get(benchmark):
    """Storage-engine ops/sec (no networking)."""
    store = ItemStore(Simulator(), StoreConfig(max_bytes=64 * PAGE_BYTES))
    value = bytes(100)

    def run():
        for i in range(2000):
            store.set(f"key-{i % 500}", value)
            store.get(f"key-{(i * 7) % 500}")

    benchmark(run)
    assert store.stats.cmd_set >= 2000


def test_bench_itemstore_eviction_pressure(benchmark):
    """Set throughput when every op must evict."""
    store = ItemStore(Simulator(), StoreConfig(max_bytes=PAGE_BYTES))
    value = bytes(4000)

    def run():
        for i in range(1000):
            store.set(f"evict-{i}", value)

    benchmark(run)
    assert store.stats.evictions > 0


def test_bench_text_protocol_parse(benchmark):
    from repro.memcached import protocol
    from repro.memcached.protocol import RequestParser

    blob = b"".join(
        protocol.build_storage("set", f"key-{i}", 0, 0, bytes(100))
        + protocol.build_get([f"key-{i}"])
        for i in range(500)
    )

    def run():
        return len(RequestParser().feed(blob))

    n = benchmark(run)
    assert n == 1000


def test_bench_end_to_end_ucr_ops(benchmark):
    """Simulated memcached ops per wall-second over the full UCR stack."""
    from repro.cluster import CLUSTER_B, Cluster

    cluster = Cluster(CLUSTER_B, n_client_nodes=1)
    cluster.start_server()
    client = cluster.client("UCR-IB")

    def setup_value():
        def seed():
            yield from client.set("bench", bytes(64))
        p = cluster.sim.process(seed())
        cluster.sim.run()

    setup_value()

    def run():
        def loop():
            for _ in range(500):
                yield from client.get("bench")
        p = cluster.sim.process(loop())
        cluster.sim.run()

    benchmark(run)
