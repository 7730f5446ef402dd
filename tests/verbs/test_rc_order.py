"""RC ordering: a QP's work requests execute and complete in post order.

IBA RC executes a QP's requests in PSN order at the responder and
completes send WRs in post order at the requester.  "WRITE the data, then
SEND to say it is there" rests on that, and so does an eager RDMA channel
that polls a flag behind the payload (*MPICH2 over InfiniBand*).

Each probe posts a large operation and then a 16 B SEND on the same QP.
Today the small SEND overtakes the large one (ROADMAP item 15), so every
probe is a strict xfail: the fix has to remove the marker.
"""

import pytest

from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge

pytestmark = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 15"
)

SMALL = 16
KB8 = 8 * 1024
MB1 = 1024 * 1024


def _post_small_send(pair):
    """Post the trailing 16 B SEND into a 64 B receive and return it."""
    recv_mr = pair.mr("b", 64, Access.local_only())
    pair.qp_b.post_recv(RecvWR(sge=Sge(recv_mr), context="small"))
    wr = SendWR(opcode=Opcode.SEND, inline_data=b"s" * SMALL)
    pair.qp_a.post_send(wr)
    return wr


def _send_completion_ids(pair):
    return [wc.wr_id for wc in pair.cq_a.poll(8)]


def test_small_send_after_8k_send_keeps_receive_order(pair):
    big_recv = pair.mr("b", KB8, Access.local_only())
    pair.qp_b.post_recv(RecvWR(sge=Sge(big_recv), context="big"))
    source = pair.mr("a", KB8)
    source.write(0, b"b" * KB8)
    big = SendWR(opcode=Opcode.SEND, sge=Sge(source, 0, KB8))
    pair.qp_a.post_send(big)
    small = _post_small_send(pair)
    pair.sim.run()

    received = [(wc.context, wc.ok, wc.byte_len) for wc in pair.cq_b.poll(8)]
    assert received == [("big", True, KB8), ("small", True, SMALL)]
    assert big_recv.read(0, KB8) == b"b" * KB8
    assert _send_completion_ids(pair) == [big.wr_id, small.wr_id]


def test_small_send_after_1m_write_sees_the_written_bytes(pair):
    target = pair.mr("b", MB1, Access.full())
    source = pair.mr("a", MB1)
    source.write(MB1 - 1, b"\x01")
    write = SendWR(
        opcode=Opcode.RDMA_WRITE, sge=Sge(source, 0, MB1), remote_rkey=target.rkey
    )
    pair.qp_a.post_send(write)
    small = _post_small_send(pair)
    seen = {}

    def receiver():
        wc = yield pair.cq_b.wait()
        seen["wc"] = (wc.context, wc.ok, wc.byte_len)
        seen["last_byte"] = target.read(MB1 - 1, 1)

    pair.sim.process(receiver())
    pair.sim.run()

    assert seen["wc"] == ("small", True, SMALL)
    assert seen["last_byte"] == b"\x01"  # the WRITE landed before the SEND
    assert _send_completion_ids(pair) == [write.wr_id, small.wr_id]


def test_small_send_after_1m_read_completes_in_post_order(pair):
    remote = pair.mr("b", MB1, Access.full())
    remote.write(MB1 - 1, b"\x01")
    local = pair.mr("a", MB1)
    read = SendWR(
        opcode=Opcode.RDMA_READ, sge=Sge(local, 0, MB1), remote_rkey=remote.rkey
    )
    pair.qp_a.post_send(read)
    small = _post_small_send(pair)
    pair.sim.run()

    received = [(wc.context, wc.ok, wc.byte_len) for wc in pair.cq_b.poll(8)]
    assert received == [("small", True, SMALL)]
    assert local.read(MB1 - 1, 1) == b"\x01"
    assert _send_completion_ids(pair) == [read.wr_id, small.wr_id]
