"""Shared receive queue: verbs semantics and the UCR SRQ mode."""

import pytest

from repro.cluster import CLUSTER_B, Cluster
from repro.core.params import UcrParams
from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge, WcStatus
from repro.verbs.srq import RNR_RETRIES, RNR_RETRY_DELAY_US, SharedReceiveQueue

from repro.testing import UcrWorld
from tests.verbs.conftest import VerbsPair

MSG = 9


# ----------------------------------------------------------- verbs level


def make_srq_pair():
    """A VerbsPair whose B-side QP draws from an SRQ."""
    pair = VerbsPair()
    srq = pair.hca_b.create_srq(max_wr=64, low_watermark=2)
    qp_a = pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a)
    qp_b = pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b, srq=srq)
    qp_a.connect(qp_b)
    qp_b.connect(qp_a)
    return pair, srq, qp_a, qp_b


def test_srq_send_consumes_shared_pool():
    pair, srq, qp_a, qp_b = make_srq_pair()
    mr = pair.pd_b.reg_mr(64, Access.local_only())
    srq.post_recv(RecvWR(sge=Sge(mr), context="shared"))
    qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"via-srq"))
    pair.sim.run()
    assert mr.read(0, 7) == b"via-srq"
    assert len(srq) == 0
    wcs = pair.cq_b.poll(8)
    assert wcs[0].context == "shared"


def test_two_qps_share_one_srq():
    pair = VerbsPair()
    srq = pair.hca_b.create_srq()
    qps_b = [
        pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b, srq=srq)
        for _ in range(2)
    ]
    qps_a = [pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a) for _ in range(2)]
    for a, b in zip(qps_a, qps_b):
        a.connect(b)
        b.connect(a)
    for i in range(2):
        mr = pair.pd_b.reg_mr(64, Access.local_only())
        srq.post_recv(RecvWR(sge=Sge(mr), context=i))
    for a in qps_a:
        a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x", signaled=False))
    pair.sim.run()
    contexts = sorted(wc.context for wc in pair.cq_b.poll(8))
    assert contexts == [0, 1]  # FIFO across QPs


def test_srq_post_recv_on_qp_rejected():
    pair, srq, qp_a, qp_b = make_srq_pair()
    mr = pair.pd_b.reg_mr(64, Access.local_only())
    with pytest.raises(RuntimeError, match="SRQ"):
        qp_b.post_recv(RecvWR(sge=Sge(mr)))


def test_srq_rnr_retry_succeeds_when_refilled():
    """Empty SRQ at arrival: the send waits through RNR retries and lands
    once a buffer shows up."""
    pair, srq, qp_a, qp_b = make_srq_pair()
    mr = pair.pd_b.reg_mr(64, Access.local_only())

    def refill_later():
        yield pair.sim.timeout(2 * RNR_RETRY_DELAY_US)
        srq.post_recv(RecvWR(sge=Sge(mr)))

    pair.sim.process(refill_later())
    qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"patient", signaled=True))
    pair.sim.run()
    assert mr.read(0, 7) == b"patient"
    wcs = pair.cq_a.poll(8)
    assert wcs[0].ok
    assert srq.rnr_events >= 1


def test_srq_rnr_exhaustion_errors_sender():
    pair, srq, qp_a, qp_b = make_srq_pair()  # never refilled
    qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"doomed", signaled=True))
    pair.sim.run()
    wcs = pair.cq_a.poll(8)
    assert wcs[0].status is WcStatus.RNR_RETRY_EXC_ERR
    # All retries were consumed before giving up.
    assert pair.sim.now >= RNR_RETRIES * RNR_RETRY_DELAY_US


def test_srq_low_watermark_callback():
    sim_pair = VerbsPair()
    srq = SharedReceiveQueue(sim_pair.sim, max_wr=16, low_watermark=3)
    calls = []
    srq.on_low = lambda s: calls.append(len(s))
    mr = sim_pair.pd_b.reg_mr(64, Access.local_only())
    for _ in range(4):
        srq.post_recv(RecvWR(sge=Sge(mr)))
    srq.pop()  # 3 left: not below watermark
    assert calls == []
    srq.pop()  # 2 left: below
    assert len(calls) == 1
    srq.pop()  # still low: signaled only once per crossing
    assert len(calls) == 1
    for _ in range(3):
        srq.post_recv(RecvWR(sge=Sge(mr)))  # re-arm
    for _ in range(3):
        srq.pop()
    assert len(calls) == 2


def test_srq_validation():
    pair = VerbsPair()
    with pytest.raises(ValueError):
        SharedReceiveQueue(pair.sim, max_wr=0)
    srq = SharedReceiveQueue(pair.sim, max_wr=1)
    mr = pair.pd_b.reg_mr(16, Access.local_only())
    srq.post_recv(RecvWR(sge=Sge(mr)))
    with pytest.raises(RuntimeError, match="full"):
        srq.post_recv(RecvWR(sge=Sge(mr)))


def test_memcached_over_srq_runtime():
    """Full memcached ops with the server runtime in SRQ mode."""
    params = UcrParams(use_srq=True, srq_depth=128)
    cluster = Cluster(CLUSTER_B, n_client_nodes=2, ucr_params=params)
    cluster.start_server()
    clients = [cluster.client("UCR-IB", i) for i in range(2)]
    done = []

    def worker(c, tag):
        for i in range(20):
            yield from c.set(f"{tag}-{i}", f"{tag}{i}".encode())
            got = yield from c.get(f"{tag}-{i}")
            assert got == f"{tag}{i}".encode()
        big = bytes(40_000)  # rendezvous path under SRQ
        yield from c.set(f"{tag}-big", big)
        got = yield from c.get(f"{tag}-big")
        assert got == big
        done.append(tag)

    for i, c in enumerate(clients):
        cluster.sim.process(worker(c, f"w{i}"))
    cluster.sim.run()
    assert sorted(done) == ["w0", "w1"]
    assert cluster.runtimes["server"].srq is not None


# ------------------------------------------------------------- UCR level


def test_ucr_srq_mode_end_to_end():
    params = UcrParams(use_srq=True, srq_depth=64)
    world = UcrWorld(params=params)
    client_ep, server_ep = world.establish()
    got = []

    def completion(ep, header, data):
        got.append(data)
        yield world.sim.timeout(0)

    world.server_rt.register_handler(MSG, None, completion)

    def sender():
        for i in range(30):
            yield from client_ep.send_message(
                MSG, header=None, header_bytes=8, data=b"%d" % i
            )

    world.sim.process(sender())
    world.sim.run()
    assert got == [b"%d" % i for i in range(30)]
    assert world.server_rt.srq is not None


def test_ucr_srq_memory_footprint_scales_flat():
    """Server receive-buffer memory: O(clients) private vs O(1) shared."""

    def server_buffers(use_srq: bool, n_clients: int) -> int:
        params = (
            UcrParams(use_srq=True, srq_depth=128) if use_srq else UcrParams()
        )
        cluster = Cluster(
            CLUSTER_B, n_client_nodes=n_clients, ucr_params=params
        )
        cluster.start_server(n_workers=2)
        clients = [cluster.client("UCR-IB", i) for i in range(n_clients)]

        def touch():
            for i, c in enumerate(clients):
                yield from c.set(f"m{i}", b"v")

        p = cluster.sim.process(touch())
        cluster.sim.run()
        assert p.processed
        return cluster.runtimes["server"].recv_pool.total_created

    private_4 = server_buffers(False, 4)
    private_12 = server_buffers(False, 12)
    shared_4 = server_buffers(True, 4)
    shared_12 = server_buffers(True, 12)
    # Private windows grow with the client count, by exactly one posted
    # window per client; the SRQ does not.
    assert private_12 - private_4 == 8 * UcrParams().posted_receives
    assert shared_12 <= shared_4 * 1.5
    assert shared_12 < private_12 / 2
