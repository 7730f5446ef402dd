#!/usr/bin/env python3
"""Scaling past the paper: shared receive queues and server pools.

This example drives the two scaling levers this repository implements on
top of the published design and prints what each one buys:

1. **shared receive queues** (`UcrParams(use_srq=True)`) -- server
   receive-buffer memory stops growing with the client count;
2. **multi-server pools with ketama** -- capacity grows by adding
   machines, and only ~1/n of keys move when one joins or dies.

Run:  python examples/scaling_beyond_the_paper.py
"""

from repro.cluster import CLUSTER_B, Cluster
from repro.core import UcrParams
from repro.memcached.slabs import PAGE_BYTES
from repro.workloads import GET_ONLY, MemslapRunner

N_CLIENTS = 10


def lever_1_shared_receive_queues() -> None:
    print("Lever 1: shared receive queues (UCR lineage, MVAPICH-SRQ)")
    for label, params in (
        ("private windows", UcrParams()),
        ("shared SRQ     ", UcrParams(use_srq=True, srq_depth=128)),
    ):
        cluster = Cluster(CLUSTER_B, n_client_nodes=N_CLIENTS, ucr_params=params)
        cluster.start_server(n_workers=4)
        result = MemslapRunner(
            cluster, "UCR-IB", 64, GET_ONLY,
            n_clients=N_CLIENTS, n_ops_per_client=40,
        ).run()
        pool = cluster.runtimes["server"].recv_pool
        mb = pool.total_created * pool.buffer_bytes / 1e6
        print(f"  {label}: {pool.total_created:4d} receive buffers "
              f"({mb:5.1f} MB) at {result.latency.median():5.1f} µs median get")
    print()


def lever_2_server_pools() -> None:
    print("Lever 2: a ketama server pool (capacity by machines)")
    cluster = Cluster(CLUSTER_B, n_client_nodes=1, n_servers=4)
    cluster.start_server()
    client = cluster.client("UCR-IB", distribution="ketama")
    keys = [f"pool-{i}" for i in range(200)]

    def scenario():
        for k in keys:
            yield from client.set(k, bytes(256))
        placement = {k: client.distribution.server_for(k) for k in keys}
        # One server dies; take it off the ring.
        client.distribution.remove_server("server2")
        moved = sum(
            1 for k in keys
            if placement[k] != "server2"
            and client.distribution.server_for(k) != placement[k]
        )
        orphaned = sum(1 for k in keys if placement[k] == "server2")
        return placement, moved, orphaned

    done = cluster.sim.process(scenario())
    cluster.sim.run_until_event(done)
    placement, moved, orphaned = done.value
    from collections import Counter

    shares = Counter(placement.values())
    print(f"  key shares across 4 servers: {dict(sorted(shares.items()))}")
    print(f"  after server2 died: {orphaned} keys orphaned (must re-fetch), "
          f"only {moved} of the remaining {len(keys) - orphaned} moved")
    print()


def main() -> None:
    lever_1_shared_receive_queues()
    lever_2_server_pools()
    print("Together: bounded buffer memory (SRQ) and horizontal capacity\n"
          "(ketama pools), runnable end to end.")


if __name__ == "__main__":
    main()
