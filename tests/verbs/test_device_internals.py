"""HCA internals: engine serialization, QP lifecycle, registry, CQs."""

import pytest

from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge
from repro.verbs.device import lookup_qp


def test_hca_engine_serializes_across_qps(pair):
    """Two QPs on one adapter share the WQE pipeline."""
    qp2_a = pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a)
    qp2_b = pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b)
    qp2_a.connect(qp2_b)
    qp2_b.connect(qp2_a)
    for qp in (pair.qp_b, qp2_b):
        mr = pair.pd_b.reg_mr(64, Access.local_only())
        qp.post_recv(RecvWR(sge=Sge(mr)))
        qp.post_recv(RecvWR(sge=Sge(mr)))

    # Burst on both QPs at t=0: engine contention must spread completions.
    arrivals = []

    def watcher():
        for _ in range(4):
            wc = yield pair.cq_b.wait()
            arrivals.append(pair.sim.now)

    pair.sim.process(watcher())
    for qp in (pair.qp_a, qp2_a, pair.qp_a, qp2_a):
        qp.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x", signaled=False))
    pair.sim.run()
    assert len(arrivals) == 4
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] > arrivals[0]  # not all at one instant


def test_lookup_qp_registry(pair):
    assert lookup_qp(pair.qp_a.qp_num) is pair.qp_a
    with pytest.raises(KeyError):
        lookup_qp(999_999)


def test_destroy_qp_drops_inbound(pair):
    """Packets for a destroyed QP are silently dropped (stale traffic)."""
    mr = pair.mr("b", 64, Access.local_only())
    pair.qp_b.post_recv(RecvWR(sge=Sge(mr)))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"late", signaled=False))
    pair.hca_b.destroy_qp(pair.qp_b)  # destroy while the frame flies
    pair.sim.run()  # no crash; the recv was flushed, the packet dropped
    wcs = pair.cq_b.poll(8)
    from repro.verbs import WcStatus

    assert len(wcs) == 1
    assert wcs[0].status is WcStatus.WR_FLUSH_ERR


def test_unknown_qp_lookup_raises(pair):
    with pytest.raises(KeyError):
        pair.hca_a.qp(424242)


def test_peer_nic_resolution(pair):
    assert pair.hca_a.peer_nic(pair.qp_b.qp_num) is pair.hca_b.nic
    with pytest.raises(KeyError):
        pair.hca_a.peer_nic(424242)


def test_cq_wait_fifo_ordering(pair):
    """Multiple waiters drain completions in wait order."""
    order = []

    def waiter(tag):
        wc = yield pair.cq_b.wait()
        order.append((tag, wc.wr_id))

    pair.sim.process(waiter("first"))
    pair.sim.process(waiter("second"))
    mr = pair.mr("b", 64, Access.local_only())
    pair.qp_b.post_recv(RecvWR(sge=Sge(mr)))
    pair.qp_b.post_recv(RecvWR(sge=Sge(mr)))
    wr1 = SendWR(opcode=Opcode.SEND, inline_data=b"1", signaled=False)
    wr2 = SendWR(opcode=Opcode.SEND, inline_data=b"2", signaled=False)
    pair.qp_a.post_send(wr1)
    pair.qp_a.post_send(wr2)
    pair.sim.run()
    assert [tag for tag, _ in order] == ["first", "second"]


def test_cq_poll_limits(pair):
    from repro.verbs.cq import WorkCompletion
    from repro.verbs.enums import Opcode as Op, WcStatus

    for i in range(5):
        pair.cq_a.push(WorkCompletion(i, Op.SEND, WcStatus.SUCCESS))
    first = pair.cq_a.poll(2)
    assert [wc.wr_id for wc in first] == [0, 1]
    assert len(pair.cq_a.poll(10)) == 3
    with pytest.raises(ValueError):
        pair.cq_a.poll(0)


def test_cq_depth_validation(pair):
    with pytest.raises(ValueError):
        pair.hca_a.create_cq(depth=0)


def test_nic_owner_backref(pair):
    assert pair.hca_a.nic.owner is pair.hca_a


def test_inline_vs_dma_post_overhead():
    from repro.verbs.params import HCA_CONNECTX_DDR as P

    assert P.post_overhead(64) < P.post_overhead(4096)
    assert P.post_overhead(P.max_inline_bytes) == P.doorbell_us
