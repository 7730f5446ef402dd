"""Ablations of the design choices DESIGN.md calls out.

Each test flips one design decision and shows, in simulated time, why
the paper's choice is the right one:

1. the 8 KB eager threshold (too low: RDMA round trips for small data;
   too high: giant bounce buffers buy nothing);
2. worker-thread count vs aggregate throughput (§V-A round-robin);
3. SDP zero-copy (off in the paper -- helps large, hurts small);
4. an SRQ bounds receive-buffer memory at unchanged latency;
5. NULL counters suppress the internal message (§IV-C optimization).
"""

import pytest

from repro.cluster import CLUSTER_B, Cluster
from repro.core.params import UcrParams
from repro.sockets.params import SDP_BCOPY
from repro.testing import UcrWorld, measure_echo_rtt
from repro.workloads import GET_ONLY, MemslapRunner


def test_eager_threshold_crossing_costs_a_rendezvous():
    """2 KB is eager at 8K/64K but rendezvous at 512: the extra RDMA READ
    round trip must show.  8K (the paper's choice) matches the
    big-buffer variant, so nothing is gained past 8K for memcached-sized
    payloads."""
    latency = {}
    for threshold in (512, 8192, 65536):
        params = UcrParams(
            eager_threshold_bytes=threshold, recv_buffer_bytes=threshold + 512
        )
        world = UcrWorld(params=params)
        client_ep, _ = world.establish()
        target = world.server_rt.create_counter()
        world.server_rt.register_handler(5)

        def sender(threshold=threshold):
            t0 = world.sim.now
            yield from client_ep.send_message(
                5, header=None, header_bytes=8, data=bytes(2048),
                target_counter_id=target.counter_id,
            )
            yield from target.wait_increment(timeout_us=1e6)
            latency[threshold] = world.sim.now - t0

        world.sim.process(sender())
        world.sim.run()
    assert latency[512] > latency[8192] * 1.08
    assert latency[8192] == pytest.approx(latency[65536], rel=0.05)


def test_worker_count_scales_aggregate_tps():
    """Aggregate 4 B TPS vs server worker threads (Cluster B, 16 clients)."""
    tps = {}
    for n_workers in (1, 2, 4, 8):
        cluster = Cluster(CLUSTER_B, n_client_nodes=16)
        cluster.start_server(n_workers=n_workers)
        tps[n_workers] = MemslapRunner(
            cluster, "UCR-IB", 4, GET_ONLY, n_clients=16, n_ops_per_client=120
        ).run().tps
    assert tps[2] > tps[1] * 1.5  # worker-bound regime scales
    assert tps[8] > tps[2] * 1.5
    assert tps[8] <= tps[1] * 16  # sublinear: shared CPU + wire


def test_sdp_zcopy_wins_large_and_loses_small():
    zcopy = SDP_BCOPY.with_zcopy(threshold=16 * 1024, setup_us=20.0)
    always = SDP_BCOPY.with_zcopy(threshold=1, setup_us=20.0)
    large = 256 * 1024
    assert measure_echo_rtt(zcopy, large, n_ops=3) < measure_echo_rtt(
        SDP_BCOPY, large, n_ops=3
    )
    assert measure_echo_rtt(always, 64) > measure_echo_rtt(SDP_BCOPY, 64)


def test_srq_flattens_receive_memory_at_unchanged_latency():
    """SRQ (UCR lineage [11]): receive-buffer memory stops growing with
    the client count."""
    out = {}
    for label, params in (
        ("private", UcrParams()),
        ("srq", UcrParams(use_srq=True, srq_depth=128)),
    ):
        cluster = Cluster(CLUSTER_B, n_client_nodes=10, ucr_params=params)
        cluster.start_server(n_workers=4)
        result = MemslapRunner(
            cluster, "UCR-IB", 64, GET_ONLY, n_clients=10, n_ops_per_client=60
        ).run()
        out[label] = (
            cluster.runtimes["server"].recv_pool.total_created,
            result.latency.median(),
        )
    assert out["srq"][0] < out["private"][0] / 2
    assert out["srq"][1] == pytest.approx(out["private"][1], rel=0.15)


def test_null_completion_counter_suppresses_the_internal_message():
    """Paper §IV-C: 'if the supplied value ... is NULL, then UCR will not
    issue the optional internal message'."""
    world = UcrWorld()
    client_ep, _ = world.establish()
    world.server_rt.register_handler(7)
    nic = world.server_rt.hca.nic
    frames = {}
    for with_completion in (True, False):
        completion = world.client_rt.create_counter() if with_completion else None
        before = nic.frames_sent.value

        def proc(completion=completion):
            yield from client_ep.send_message(
                7, header=None, header_bytes=8, data=b"d",
                completion_counter=completion,
            )
            if completion is not None:
                yield from completion.wait_increment(timeout_us=1e6)

        world.sim.process(proc())
        world.sim.run()
        frames[with_completion] = nic.frames_sent.value - before
    assert frames[True] == frames[False] + 1
