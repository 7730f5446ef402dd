"""Property-based tests: slabs, distributions, counters, and the DES
engine's ordering guarantees."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.router import KetamaDistribution, ModulaDistribution
from repro.memcached.slabs import SlabAllocator, build_chunk_sizes
from repro.sim import Simulator

KEYS = st.text(alphabet="abcdef012345", min_size=1, max_size=12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=48, max_value=1024), st.floats(min_value=1.05, max_value=2.0))
def test_chunk_size_table_invariants(chunk_min, factor):
    sizes = build_chunk_sizes(chunk_min=chunk_min, factor=factor)
    assert sizes == sorted(set(sizes))  # strictly ascending, unique
    assert sizes[-1] == 1024 * 1024
    assert all(s % 8 == 0 for s in sizes[:-1])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8000), min_size=1, max_size=60))
def test_slab_alloc_free_conservation(sizes):
    # Roomy arena: 60 allocations can touch ~40 distinct size classes and
    # each first touch of a class consumes a whole 1 MB page.
    alloc = SlabAllocator(max_bytes=128 * 1024 * 1024)
    chunks = [alloc.alloc(s) for s in sizes]
    assert all(c is not None for c in chunks)
    for c in chunks:
        assert c.slab_class.chunk_size >= 1  # fits by construction
        alloc.free(c)
    stats = alloc.stats()
    assert stats["free_chunks"] == stats["total_chunks"]


@settings(max_examples=40, deadline=None)
@given(st.lists(KEYS, min_size=1, max_size=50),
       st.integers(min_value=1, max_value=5))
def test_distributions_are_deterministic_and_total(keys, n_servers):
    servers = [f"s{i}" for i in range(n_servers)]
    for dist_cls in (ModulaDistribution, KetamaDistribution):
        dist = dist_cls(servers)
        for key in keys:
            a = dist.server_for(key)
            b = dist.server_for(key)
            assert a == b
            assert a in servers


@settings(max_examples=30, deadline=None)
@given(st.lists(KEYS, min_size=20, max_size=60, unique=True))
def test_ketama_minimal_remap_on_removal(keys):
    servers = ["alpha", "beta", "gamma", "delta"]
    dist = KetamaDistribution(servers)
    before = {k: dist.server_for(k) for k in keys}
    dist.remove_server("delta")
    moved = 0
    for k in keys:
        after = dist.server_for(k)
        if before[k] != "delta":
            if after != before[k]:
                moved += 1
        else:
            assert after != "delta"
    # Consistent hashing: keys not on the removed server mostly stay put.
    assert moved <= len(keys) * 0.25


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20))
def test_engine_fires_timeouts_in_order(delays):
    sim = Simulator()
    fired = []

    def waiter(d):
        yield sim.timeout(d)
        fired.append(d)

    for d in delays:
        sim.process(waiter(d))
    sim.run()
    assert fired == sorted(fired, key=float) or fired == sorted(fired)
    assert sim.now == max(delays)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=20))
def test_counter_waiters_fire_exactly_once(increments):
    from repro.core import UcrCounter

    sim = Simulator()
    c = UcrCounter(sim, 1)
    total = sum(increments)
    hits = []

    def waiter(threshold):
        yield c.reached(threshold)
        hits.append(threshold)

    thresholds = list(range(1, total + 1))
    for t in thresholds:
        sim.process(waiter(t))

    def bumper():
        for inc in increments:
            yield sim.timeout(1.0)
            c.add(inc)

    sim.process(bumper())
    sim.run()
    assert sorted(hits) == thresholds  # every waiter fired exactly once


def test_removing_servers_from_either_distribution():
    """A removed server owns no key afterwards, and the last one cannot go."""
    keys = [f"key-{i}" for i in range(64)]
    for dist_cls in (ModulaDistribution, KetamaDistribution):
        dist = dist_cls(["alpha", "beta", "gamma"])
        dist.remove_server("beta")
        assert dist.servers == ["alpha", "gamma"]
        assert {dist.server_for(k) for k in keys} == {"alpha", "gamma"}
        dist.remove_server("alpha")
        with pytest.raises(ValueError, match="last server"):
            dist.remove_server("gamma")
