"""A counted budget for the verbs data path (cannot flake).

The companion of ``tests/sockets/test_segment_budget.py`` on the other
stack: heap events per posted work request, counted by the engine, between
two adapters on one IB switch.  A work request is its modelled delays and
nothing else --

==========  ======  ===========================================================
RC SEND       7     doorbell, WQE engine, the frame's three, ``cq_gen``, ACK
RDMA WRITE    6     the same without ``cq_gen`` (no remote completion)
RDMA READ    10     doorbell, engine, request frame (3), responder turnaround,
                    response frame (3), ``cq_gen``
==========  ======  ===========================================================

-- chained by callbacks on those events.  It was 13 / 12 / 17 while
``post_send`` started a ``Process`` per WR and ``Hca._on_frame`` one per
inbound packet (``process-init`` and an unheard process end each, a
``delivered`` event the RC requester did not need, a ``resp-done``
hand-off).  A process or a helper event creeping back costs at least one
event per message and fails here in well under a second.
"""

import gc

import pytest

from repro.sim.process import Process
from repro.verbs import (
    Access, CompletionQueue, Opcode, QueuePair, RecvWR, SendWR, Sge,
)
from repro.verbs.srq import RNR_RETRY_DELAY_US

from tests.sim.test_kernel_budget import _python_calls
from tests.verbs.conftest import VerbsPair

MESSAGES = 200
#: Python functions entered per ping-pong RC SEND -- building and posting the
#: two WRs, the seven stages, both sides' CQ traffic -- as measured when the
#: callback chain landed, plus one of slack.  The process form took 90.
CALLS_PER_SEND = 58 + 1


def _send(pair):
    pair.qp_b.post_recv(RecvWR(sge=Sge(pair.recv_mr)))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"ping"))


def _write(pair):
    pair.qp_a.post_send(
        SendWR(opcode=Opcode.RDMA_WRITE, sge=Sge(pair.local_mr, 0, 8),
               remote_rkey=pair.remote_mr.rkey)
    )


def _read(pair):
    pair.qp_a.post_send(
        SendWR(opcode=Opcode.RDMA_READ, sge=Sge(pair.local_mr, 0, 8),
               remote_rkey=pair.remote_mr.rkey)
    )


@pytest.fixture
def pair():
    pair = VerbsPair()
    pair.recv_mr = pair.mr("b", 64, Access.local_only())
    pair.remote_mr = pair.mr("b", 64)
    pair.local_mr = pair.mr("a", 64)
    # Detach whatever the suite's fixtures hooked on: the budget is the bare model's.
    del pair.sim.pre_event_hooks[:]
    return pair


@pytest.mark.parametrize(
    "post, events",
    [(_send, 7), (_write, 6), (_read, 10)],
    ids=["rc-send", "rdma-write", "rdma-read"],
)
def test_events_per_work_request(pair, post, events):
    sim = pair.sim
    for _ in range(3):  # one at a time, so nothing queues behind anything
        before = sim.events_processed
        post(pair)
        sim.run()
        assert sim.events_processed - before == events
        assert len(pair.cq_a.poll(8)) == 1


def test_one_srq_rnr_retry_is_one_more_timeout(pair):
    srq = pair.hca_b.create_srq(max_wr=8, low_watermark=0)
    qp_a = pair.hca_a.create_qp(pair.pd_a, pair.cq_a, pair.cq_a)
    qp_b = pair.hca_b.create_qp(pair.pd_b, pair.cq_b, pair.cq_b, srq=srq)
    qp_a.connect(qp_b)
    qp_b.connect(qp_a)
    sim = pair.sim

    def one_send(repost_after_us):
        seen = []
        hook = lambda _sim, event: seen.append(type(event).__name__)  # noqa: E731
        sim.pre_event_hooks.append(hook)
        start = sim.now
        if repost_after_us is None:
            srq.post_recv(RecvWR(sge=Sge(pair.recv_mr)))
        qp_a.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"x"))
        if repost_after_us is not None:
            sim.run(until=start + repost_after_us)
            srq.post_recv(RecvWR(sge=Sge(pair.recv_mr)))
        sim.run()
        sim.pre_event_hooks.remove(hook)
        assert [wc.ok for wc in pair.cq_a.poll(8)] == [True]
        return seen, sim.now - start

    ready, ready_us = one_send(None)
    # The pool is dry when the SEND lands (a ``cq_gen`` and an ACK before the
    # send CQE); it is topped up half-way through the first backoff.
    hca = pair.hca_a
    ack_us = hca.nic.params.one_way_delay() + hca.params.ack_process_us
    landed_us = ready_us - ack_us - hca.params.cq_gen_us
    retried, retried_us = one_send(landed_us + RNR_RETRY_DELAY_US / 2)
    assert len(ready) == 7
    assert len(retried) == 8
    assert sorted(retried) == sorted(ready + ["Timeout"])
    assert retried_us == pytest.approx(ready_us + RNR_RETRY_DELAY_US)


def _ping_pong(pair, messages):
    """*messages* RC SENDs, alternating direction, each posted from the
    receiver's completion of the one before -- no process anywhere."""
    sim = pair.sim
    ends = ((pair.qp_a, pair.qp_b), (pair.qp_b, pair.qp_a))
    mrs = (pair.mr("a", 64, Access.local_only()), pair.recv_mr)
    left = [messages]

    def serve(event=None):
        if left[0] == 0:
            return
        left[0] -= 1
        src, dst = ends[left[0] % 2]
        dst.post_recv(RecvWR(sge=Sge(mrs[left[0] % 2 == 0])))
        src.post_send(SendWR(opcode=Opcode.SEND, inline_data=b"ping", signaled=False))
        dst.recv_cq.wait().callbacks.append(serve)

    serve()


def test_python_calls_per_send_stay_within_budget(pair, monkeypatch):
    # The suite's sanitizers observe every post and every CQE; not the model's calls.
    monkeypatch.setattr(QueuePair, "observers", [])
    monkeypatch.setattr(CompletionQueue, "observers", [])
    _ping_pong(pair, MESSAGES)
    calls = _python_calls(pair.sim)
    # 7 per SEND and the receiver's ``cq-wait`` wake.
    assert pair.sim.events_processed == MESSAGES * 8
    assert calls <= MESSAGES * CALLS_PER_SEND + 10, f"{(calls - 10) / MESSAGES:.2f} per SEND"


def test_no_process_is_started_on_the_data_path(pair, monkeypatch):
    started = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        started.append(kwargs.get("label") or args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    _ping_pong(pair, MESSAGES)
    for _ in range(5):
        _write(pair)
        _read(pair)
    pair.sim.run()
    assert started == []


def test_completed_wr_leaves_no_reference_cycle(pair):
    """``SendWR`` -> requester callback -> per-WR state -> ``SendWR`` is a
    cycle unless the link is cleared when used; with the collector off
    (as the benchmark's timed region runs) it would be a leak."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(MESSAGES):
            _send(pair)
            pair.sim.run()
        for _ in range(50):
            _read(pair)
            pair.sim.run()
        pair.cq_a.poll(1024)
        pair.cq_b.poll(1024)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
