"""A memory budget for registered regions (cannot flake).

UCR pre-posts ``credits + 16`` bounce buffers of 8 448 B on every endpoint,
pre-registers a pool for every runtime, and the server's slab arena is
registered a 1 MB page at a time.  A simulated region costs host RAM only
for the pages the model writes: registration takes a slice of its
protection domain's lazily zeroed arena, so a byte nobody writes is a
page the kernel never faults in.

The Fig 6 / E4 shape -- one server with 8 workers and 16 connected
UCR-IB clients -- registers tens of MB before a single op runs.  When
every region was an eagerly zero-filled ``bytearray``, building it grew
the tracemalloc-traced heap by about 55 MB; with lazily zeroed backing it
is under 5 MB, Python objects only.  tracemalloc counts allocations, not
pages, so that figure is exact run to run; the resident-set check beside
it is Linux-only and has a looser ceiling.
"""

import gc
import os
import sys
import tracemalloc

import pytest

from repro.cluster import CLUSTER_B, Cluster
from repro.cluster.builder import SERVER_NODE

MB = 1024 * 1024
CLIENTS = 16
#: Heap growth of the build below: 4.6 MB measured with lazily zeroed
#: regions (55.6 MB with eager ``bytearray`` backing), plus slack for
#: object-size differences between Python versions.
TRACED_CEILING = 8 * MB
#: Resident growth of the same build, tracemalloc's own bookkeeping
#: included: 9.7 MB measured (61.2 MB with eager backing).
RSS_CEILING = 20 * MB


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _connected_cluster() -> Cluster:
    cluster = Cluster(CLUSTER_B, n_client_nodes=CLIENTS)
    cluster.start_server(n_workers=8)
    clients = [cluster.client("UCR-IB", client_node=i) for i in range(CLIENTS)]
    for client in clients:
        cluster.sim.process(client.transport.endpoint(SERVER_NODE))
    cluster.sim.run()
    assert all(SERVER_NODE in c.transport._endpoints for c in clients)
    return cluster


@pytest.fixture(scope="module")
def growth():
    """(traced bytes, resident bytes or None) gained by building the cluster."""
    linux = sys.platform.startswith("linux")
    gc.collect()
    rss_before = _resident_bytes() if linux else 0
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        traced_before = tracemalloc.get_traced_memory()[0]
        cluster = _connected_cluster()
        traced = tracemalloc.get_traced_memory()[0] - traced_before
        rss = _resident_bytes() - rss_before if linux else None
    finally:
        if not tracing:
            tracemalloc.stop()
    del cluster
    return traced, rss


def test_registered_memory_costs_no_traced_heap(growth):
    traced, _ = growth
    assert traced < TRACED_CEILING, f"traced heap grew {traced / MB:.1f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/proc/self/statm")
def test_registered_memory_costs_only_written_pages(growth):
    _, rss = growth
    assert rss < RSS_CEILING, f"resident set grew {rss / MB:.1f} MB"
