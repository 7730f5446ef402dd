"""Isolated drivers: each layer's public functions timed on their own.

The bodies are those of ``benchmarks/test_bench_micro.py`` (plus binary
parse and ring lookup), lifted out of pytest-benchmark into plain
functions that *return* a rate, so the numbers land in the ledger under
the ``micro.*`` names.  A layer's micro rate bounds what its
``host_share.<layer>`` can give back: an end-to-end run cannot drive the
store faster than ``micro.memcached.store.setget_ops_per_s``.

Every driver runs its body ``ROUNDS`` times and reports the median rate.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.cluster import HashRing
from repro.memcached import protocol, protocol_binary
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import ItemStore, StoreConfig
from repro.sim import Resource, Simulator

ROUNDS = 5


def _rate(body: Callable[[], int]) -> float:
    """Median over ``ROUNDS`` of (units of work *body* reports) / seconds."""
    rates = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        units = body()
        rates.append(units / (time.perf_counter() - t0))
    return statistics.median(rates)


def sim_timeout_events_per_s() -> float:
    """Events/sec through the heap with a single hot process."""

    def body() -> int:
        sim = Simulator()

        def proc():
            for _ in range(20_000):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        return sim.events_processed

    return _rate(body)


def sim_resource_grants_per_s() -> float:
    """Request/grant/release cycles per second, 100 workers on 4 slots."""

    def body() -> int:
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
        return 100 * 100

    return _rate(body)


def store_setget_ops_per_s() -> float:
    """Storage-engine ops/sec with no networking and no pressure."""
    store = ItemStore(Simulator(), StoreConfig(max_bytes=64 * PAGE_BYTES))
    value = bytes(100)

    def body() -> int:
        for i in range(2000):
            store.set(f"key-{i % 500}", value)
            store.get(f"key-{(i * 7) % 500}")
        return 4000

    return _rate(body)


def store_evicting_sets_per_s() -> float:
    """Set throughput when (almost) every set must evict."""
    store = ItemStore(Simulator(), StoreConfig(max_bytes=PAGE_BYTES))
    value = bytes(4000)
    serial = iter(range(10**9))

    def body() -> int:
        for _ in range(1000):
            store.set(f"evict-{next(serial)}", value)
        return 1000

    rate = _rate(body)
    if store.stats.evictions == 0:
        raise RuntimeError("eviction driver never evicted")
    return rate


def text_parse_per_s() -> float:
    """Text-protocol requests parsed per second (set + get pairs)."""
    blob = b"".join(
        protocol.build_storage("set", f"key-{i}", 0, 0, bytes(100))
        + protocol.build_get([f"key-{i}"])
        for i in range(500)
    )

    def body() -> int:
        return len(protocol.RequestParser().feed(blob))

    return _rate(body)


def binary_parse_per_s() -> float:
    """Binary-protocol messages parsed per second (set + get pairs)."""
    blob = b"".join(
        protocol_binary.build_set(f"key-{i}", bytes(100))
        + protocol_binary.build_get(f"key-{i}")
        for i in range(500)
    )

    def body() -> int:
        return len(protocol_binary.BinaryParser().feed(blob))

    return _rate(body)


def ring_lookups_per_s() -> float:
    """Consistent-hash lookups per second over a four-shard ring."""
    ring = HashRing([f"server{i}" for i in range(4)])
    keys = [f"key-{i}" for i in range(5000)]

    def body() -> int:
        for key in keys:
            ring.server_for(key)
        return len(keys)

    return _rate(body)


DRIVERS: dict[str, Callable[[], float]] = {
    "micro.sim.timeout_events_per_s": sim_timeout_events_per_s,
    "micro.sim.resource_grants_per_s": sim_resource_grants_per_s,
    "micro.memcached.store.setget_ops_per_s": store_setget_ops_per_s,
    "micro.memcached.store.evicting_sets_per_s": store_evicting_sets_per_s,
    "micro.memcached.protocol.text_parse_per_s": text_parse_per_s,
    "micro.memcached.protocol.binary_parse_per_s": binary_parse_per_s,
    "micro.cluster.ring_lookups_per_s": ring_lookups_per_s,
}


def run_all() -> dict[str, float]:
    return {name: driver() for name, driver in DRIVERS.items()}
