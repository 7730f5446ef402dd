"""What a work request owes its poster, whatever drives it underneath.

Two things the verbs data path must keep to the float and to the count:
the ``verbs.post`` / ``verbs.recv`` spans of a traced operation (recorded
at the commit where every WR and every inbound packet was still a
generator ``Process``), and ``_outstanding_sends`` -- the WQE a
``post_send`` takes is given back exactly once on every terminal arm, so
``max_send_wr`` bounds what is in flight and nothing else.
"""

import pytest

from repro.cluster.configs import CLUSTER_A
from repro.experiments.common import build_cluster
from repro.sim.engine import UnhandledFailure
from repro.telemetry.spans import tracing
from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge, WcStatus
from repro.workloads.memslap import MemslapRunner
from repro.workloads.patterns import GET_ONLY

from tests.verbs.conftest import VerbsPair

#: ``(name, start_us, end_us)`` of the verbs spans of the last timed GET of
#: a one-client UCR-IB run (2 warm-up + 3 timed ops), by value size.  4 KB
#: is eager: the request SEND and the reply SEND.  16 KB is a rendezvous:
#: request, the server's RTS, and the client's RDMA READ of the value.
PARENT_SPANS = {
    4096: [
        ("verbs.post", 103.51433566433563, 103.91433566433564),
        ("verbs.recv", 104.56279720279717, 104.71279720279718),
        ("verbs.post", 110.72461538461535, 111.42461538461535),
        ("verbs.recv", 115.21461538461534, 115.36461538461535),
    ],
    16384: [
        ("verbs.post", 143.6153846153847, 144.0153846153847),
        ("verbs.recv", 144.66461538461547, 144.81461538461548),
        ("verbs.post", 148.96461538461548, 149.3646153846155),
        ("verbs.recv", 150.00384615384627, 150.15384615384627),
        ("verbs.post", 150.50384615384627, 151.20384615384626),
    ],
}


@pytest.mark.parametrize("size", sorted(PARENT_SPANS))
def test_verbs_spans_of_a_traced_get_are_the_parents_to_the_float(size):
    cluster = build_cluster(CLUSTER_A)
    with tracing() as t:
        result = MemslapRunner(
            cluster, "UCR-IB", size, GET_ONLY,
            n_clients=1, n_ops_per_client=3, warmup_ops=2,
        ).run()
    last = [
        s for s in t.spans
        if s.parent_id is None and s.name == "client.get"
        and s.start_us >= result.started_at_us
    ][-1]
    spans = [
        (s.name, s.start_us, s.end_us)
        for s in t.spans
        if s.trace_id == last.trace_id and s.name.startswith("verbs.")
    ]
    assert spans == PARENT_SPANS[size]


# ------------------------------------------------- the WQE comes back, once


def _read(pair, remote):
    return SendWR(
        opcode=Opcode.RDMA_READ,
        sge=Sge(pair.mr("a", 64), 0, 8),
        remote_rkey=remote.rkey,
    )


def _rc_success(pair):
    pair.qp_b.post_recv(RecvWR(sge=Sge(pair.mr("b", 64, Access.local_only()))))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"ok"))
    return pair.qp_a, WcStatus.SUCCESS


def _rc_error_status(pair):
    pair.qp_b.post_recv(RecvWR(sge=Sge(pair.mr("b", 4, Access.local_only()))))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"way too long"))
    return pair.qp_a, WcStatus.REM_ACCESS_ERR


def _rc_write(pair):
    remote = pair.mr("b", 64)
    pair.qp_a.post_send(
        SendWR(opcode=Opcode.RDMA_WRITE, sge=Sge(pair.mr("a", 8)), remote_rkey=remote.rkey)
    )
    return pair.qp_a, WcStatus.SUCCESS


def _read_success(pair):
    pair.qp_a.post_send(_read(pair, pair.mr("b", 64)))
    return pair.qp_a, WcStatus.SUCCESS


def _read_rem_access_err(pair):
    remote = pair.mr("b", 64, Access.LOCAL_READ | Access.LOCAL_WRITE)
    pair.qp_a.post_send(_read(pair, remote))
    return pair.qp_a, WcStatus.REM_ACCESS_ERR


def _error_state_responder(pair):
    pair.qp_b.to_error()
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x"))
    return pair.qp_a, WcStatus.RNR_RETRY_EXC_ERR


def _empty_private_receive_queue(pair):
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x"))
    return pair.qp_a, WcStatus.RNR_RETRY_EXC_ERR


def _srq_retries_exhausted(pair):
    srq = pair.hca_b.create_srq(max_wr=8, low_watermark=0)
    qp_a = pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a)
    qp_b = pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b, srq=srq)
    qp_a.connect(qp_b)
    qp_b.connect(qp_a)
    qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x"))
    return qp_a, WcStatus.RNR_RETRY_EXC_ERR


@pytest.mark.parametrize(
    "arm",
    [
        _rc_success, _rc_error_status, _rc_write, _read_success,
        _read_rem_access_err, _error_state_responder,
        _empty_private_receive_queue, _srq_retries_exhausted,
    ],
    ids=lambda arm: arm.__name__.lstrip("_"),
)
def test_outstanding_sends_returns_to_zero_on_every_terminal_arm(arm):
    pair = VerbsPair()
    qp, status = arm(pair)
    assert qp._outstanding_sends == 1
    pair.sim.run()
    assert qp._outstanding_sends == 0
    wcs = pair.cq_a.poll(8)
    assert [wc.status for wc in wcs] == [status]


def test_max_send_wr_bounds_outstanding_reads():
    """A READ's WQE is held until its completion, not until its request
    frame has landed (where it used to be retired, so the bound never bit)."""
    pair = VerbsPair()
    qp_a = pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a, max_send_wr=2)
    qp_b = pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b)
    qp_a.connect(qp_b)
    qp_b.connect(qp_a)
    remote = pair.mr("b", 64)
    sim = pair.sim

    qp_a.post_send(_read(pair, remote))
    qp_a.post_send(_read(pair, remote))
    while pair.hca_b.nic.frames_received.value < 2:  # both requests delivered...
        sim.step()
    sim.step()  # ...and just past it
    assert len(pair.cq_a) == 0
    with pytest.raises(RuntimeError, match="send queue full"):
        qp_a.post_send(_read(pair, remote))

    sim.run()
    assert [wc.ok for wc in pair.cq_a.poll(8)] == [True, True]
    qp_a.post_send(_read(pair, remote))
    sim.run()
    assert [wc.ok for wc in pair.cq_a.poll(8)] == [True]
    assert qp_a._outstanding_sends == 0


# --------------------------------------- failing as a failed process failed


class _Boom(Exception):
    pass


def _raise_boom(*_args, **_kwargs):
    raise _Boom("not an IndexError, not a PermissionError")


@pytest.mark.parametrize(
    "opcode, patched, stage",
    [
        (Opcode.SEND, "remote_write", "verbs.recv"),  # the responder's scatter
        (Opcode.RDMA_READ, "remote_read", "verbs.read"),  # the responder's gather
        (Opcode.RDMA_WRITE, "read", "verbs.post"),  # the requester's own gather
    ],
    ids=["scatter", "remote_read", "gather"],
)
def test_unexpected_exception_in_a_stage_is_an_unhandled_failure(
    monkeypatch, opcode, patched, stage
):
    """Never a raw exception out of ``sim.run()``: the loop escalates a
    failed event that names the stage and the WR, as it did the failed process."""
    pair = VerbsPair()
    remote = pair.mr("b", 64)
    pair.qp_b.post_recv(RecvWR(sge=Sge(pair.mr("b", 64, Access.local_only()))))
    if opcode is Opcode.SEND:
        wr = SendWR(opcode=opcode, inline_data=b"x")
    else:
        wr = SendWR(opcode=opcode, sge=Sge(pair.mr("a", 8)), remote_rkey=remote.rkey)
    pair.qp_a.post_send(wr)
    monkeypatch.setattr(type(remote), patched, _raise_boom)
    where = rf"{stage}\(wr {wr.wr_id} on qp \d+\)"
    with pytest.raises(UnhandledFailure, match=where) as caught:
        pair.sim.run()
    assert isinstance(caught.value.__cause__, _Boom)


def test_responder_verdict_is_idempotent():
    """A stale-QP NAK followed by a late responder: one ACK timer, one CQE,
    the WQE retired once."""
    pair = VerbsPair()
    wr = SendWR(opcode=Opcode.SEND, inline_data=b"x")
    pair.qp_a.post_send(wr)
    pair.hca_b.destroy_qp(pair.qp_b)  # the frame finds no QP: the HCA NAKs
    sim = pair.sim
    while wr._remote_status is WcStatus.SUCCESS:
        sim.step()
    before = sim.events_processed
    wr.responder_done()  # the late responder
    wr.responder_done(WcStatus.REM_ACCESS_ERR)
    sim.run()
    assert sim.events_processed - before == 1  # the one ACK
    assert len(pair.cq_a.poll(8)) == 1
    assert pair.qp_a._outstanding_sends == 0
