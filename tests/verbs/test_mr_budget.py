"""A memory budget for registered regions (cannot flake).

UCR pre-posts ``posted_receives`` bounce buffers of 8 448 B on every
endpoint -- its credit window of 16 plus a control slack of 16 -- out of
a per-runtime pool that starts empty and registers a buffer only when
none is free; the server's slab arena is registered a 1 MB page at a
time.  An RC receive
queue is consumed in FIFO order, so every posted buffer is eventually
written: the posted count is pinned exactly, on the 4-client x 4-server
sharded shape of the ``sharded_pressure`` benchmark.  A simulated region costs host RAM only
for the pages the model writes: registration takes a slice of its
protection domain's lazily zeroed arena, so a byte nobody writes is a
page the kernel never faults in.

The Fig 6 / E4 shape -- one server with 8 workers and 16 connected
UCR-IB clients -- registers tens of MB before a single op runs.  When
every region was an eagerly zero-filled ``bytearray``, building it grew
the tracemalloc-traced heap by about 55 MB; with lazily zeroed backing it
is 1.7 MB, Python objects only (3.5 MB with an 80-buffer window).  tracemalloc counts allocations, not
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
from repro.core.params import UCR_DEFAULT

MB = 1024 * 1024
CLIENTS = 16
#: Heap growth of the build below: 1.7 MB measured with lazily zeroed
#: regions and 32-buffer windows (3.5 MB with 80-buffer windows, 55.6 MB
#: with eager ``bytearray`` backing), plus the same 1.74x slack as before
#: for object-size differences between Python versions.
TRACED_CEILING = 3 * MB
#: Resident growth of the same build, tracemalloc's own bookkeeping
#: included: 1.3-3.3 MB measured under pytest, 2.7 MB in a fresh
#: interpreter (7.2 MB with 80-buffer windows, 61.2 MB with eager
#: backing), plus the same 2.06x slack as before.
RSS_CEILING = 7 * MB


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


def test_the_sharded_shape_posts_one_window_and_one_slack_per_endpoint():
    """4 sharded clients x 4 servers: 16 endpoints a side, each with
    exactly 16 + 16 receives posted, and every runtime's receive pool
    holding exactly what its endpoints post."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=4, n_servers=4)
    cluster.start_server(n_workers=4)
    clients = [cluster.sharded_client("UCR-IB", i) for i in range(4)]
    for client in clients:
        for server in cluster.server_names:
            cluster.sim.process(client.transport.endpoint(server))
    cluster.sim.run()
    ports = [cluster.ucr_ports[name] for name in cluster.server_names]
    endpoints = [ep for c in clients for ep in c.transport._endpoints.values()]
    endpoints += [ep for port in ports for ep in port.endpoints]
    assert len(endpoints) == 32
    assert UCR_DEFAULT.posted_receives == 32
    assert [len(ep.qp._recv_queue) for ep in endpoints] == [32] * 32
    assert len(cluster.runtimes) == 8
    posted = {rt: 0 for rt in cluster.runtimes.values()}
    for ep in endpoints:
        posted[ep.runtime] += len(ep.qp._recv_queue)
    assert [rt.recv_pool.total_created for rt in posted] == list(posted.values())
    assert set(posted.values()) == {4 * 32}  # 4 endpoints a runtime
