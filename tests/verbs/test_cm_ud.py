"""Connection manager handshake and UD transport tests."""

import re

import pytest

from repro.verbs import Access, Opcode, QpType, RecvWR, SendWR, Sge
from repro.verbs.cm import ConnectionManager


def attach_cms(pair):
    return ConnectionManager(pair.hca_a), ConnectionManager(pair.hca_b)


def test_cm_connect_establishes_rc_pair(pair):
    cm_a, cm_b = attach_cms(pair)
    server_qps = []
    cm_b.listen(
        service_id=11211,
        on_connected=lambda qp, pdata: server_qps.append((qp, pdata)),
        pd=pair.pd_b,
        make_cqs=lambda: (pair.cq_b, pair.cq_b),
    )
    done = cm_a.connect(
        pair.hca_b, 11211, pair.pd_a, pair.cq_a, pair.cq_a, private_data="hi"
    )
    client_qp = pair.sim.run_until_event(done)
    assert re.fullmatch(r"cm-connect\(\d+\)", done.name)  # rendered on this read
    pair.sim.run()
    assert len(server_qps) == 1
    server_qp, pdata = server_qps[0]
    assert pdata == "hi"
    assert client_qp.remote is server_qp
    assert server_qp.remote is client_qp

    # Traffic flows over the CM-established pair.
    recv_mr = pair.pd_b.reg_mr(64, Access.local_only())
    server_qp.post_recv(RecvWR(sge=Sge(recv_mr)))
    client_qp.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"post-cm"))
    pair.sim.run()
    assert recv_mr.read(0, 7) == b"post-cm"


def test_cm_connect_refused_without_listener(pair):
    cm_a, cm_b = attach_cms(pair)
    done = cm_a.connect(pair.hca_b, 9999, pair.pd_a, pair.cq_a, pair.cq_a)

    def watcher():
        try:
            yield done
        except ConnectionRefusedError:
            return "refused"

    w = pair.sim.process(watcher())
    pair.sim.run()
    assert w.value == "refused"


def test_cm_handshake_takes_nonzero_time(pair):
    cm_a, cm_b = attach_cms(pair)
    cm_b.listen(1, lambda qp, p: None, pair.pd_b, lambda: (pair.cq_b, pair.cq_b))
    done = cm_a.connect(pair.hca_b, 1, pair.pd_a, pair.cq_a, pair.cq_a)
    pair.sim.run_until_event(done)
    # REQ + REP round trip with CPU processing on both sides: >= ~10 µs.
    assert pair.sim.now >= 10.0


def test_duplicate_listener_rejected(pair):
    _, cm_b = attach_cms(pair)
    cm_b.listen(5, lambda qp, p: None, pair.pd_b, lambda: (pair.cq_b, pair.cq_b))
    with pytest.raises(ValueError):
        cm_b.listen(5, lambda qp, p: None, pair.pd_b, lambda: (pair.cq_b, pair.cq_b))


def test_single_cm_per_hca(pair):
    ConnectionManager(pair.hca_a)
    with pytest.raises(RuntimeError):
        ConnectionManager(pair.hca_a)


# --------------------------------------------------------------------- UD


def make_ud_pair(pair):
    ud_a = pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a, QpType.UD)
    ud_b = pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b, QpType.UD)
    ud_a.ready_ud()
    ud_b.ready_ud()
    return ud_a, ud_b


def test_ud_send_delivers_with_posted_recv(pair):
    ud_a, ud_b = make_ud_pair(pair)
    mr = pair.pd_b.reg_mr(64, Access.local_only())
    ud_b.post_recv(RecvWR(sge=Sge(mr)))
    ud_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"dgram"), remote_qp=ud_b)
    pair.sim.run()
    assert mr.read(0, 5) == b"dgram"


def test_ud_send_completes_locally_even_if_dropped(pair):
    ud_a, ud_b = make_ud_pair(pair)
    # No recv posted: datagram is dropped silently, sender still completes OK.
    ud_a.post_send(
        SendWR(opcode=Opcode.SEND, inline_data=b"lost", signaled=True), remote_qp=ud_b
    )
    pair.sim.run()
    wcs = pair.cq_a.poll(8)
    assert len(wcs) == 1 and wcs[0].ok
    assert pair.cq_b.poll(8) == []


def test_ud_requires_address_handle(pair):
    ud_a, _ = make_ud_pair(pair)
    with pytest.raises(ValueError):
        ud_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x"))


def test_ud_rejects_rdma(pair):
    ud_a, ud_b = make_ud_pair(pair)
    mr = pair.mr("a", 16)
    with pytest.raises(ValueError):
        ud_a.post_send(
            SendWR(opcode=Opcode.RDMA_WRITE, sge=Sge(mr), remote_rkey=1),
            remote_qp=ud_b,
        )


def test_ud_connect_rejected(pair):
    ud_a, ud_b = make_ud_pair(pair)
    with pytest.raises(RuntimeError):
        ud_a.connect(ud_b)


def test_qp_error_flushes_recvs(pair):
    mr = pair.mr("b", 16, Access.local_only())
    pair.qp_b.post_recv(RecvWR(sge=Sge(mr), context="flushed-buf"))
    pair.qp_b.to_error()
    from repro.verbs import WcStatus

    wcs = pair.cq_b.poll(8)
    assert len(wcs) == 1
    assert wcs[0].status is WcStatus.WR_FLUSH_ERR
    assert wcs[0].context == "flushed-buf"
    with pytest.raises(RuntimeError):
        pair.qp_b.post_recv(RecvWR(sge=Sge(mr)))
