"""RC ordering: a QP's work requests execute and complete in post order.

IBA RC executes a QP's requests in PSN order at the responder and
completes send WRs in post order at the requester.  "WRITE the data, then
SEND to say it is there" rests on that, and so does an eager RDMA channel
that polls a flag behind the payload (*MPICH2 over InfiniBand*).

Each probe posts a large operation and then a small one on the same QP.
The small one skips the DMA fetch a non-inline WQE pays, so without the
per-QP order it would overtake.  The last test is the error arm: a QP
moved to ERROR flushes its outstanding send WRs in post order, and a READ
response that lands after the flush scatters nothing.
"""

from repro.verbs import Access, Opcode, QueuePair, RecvWR, SendWR, Sge, WcStatus

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


def test_small_read_after_a_fetched_read_executes_and_completes_in_post_order(
    pair, monkeypatch
):
    """A paired one-sided GET's stamped fetch and the slot probe behind
    it: the responder must read remote memory for them in post order."""
    assert 256 > pair.hca_a.params.max_inline_bytes >= 64  # only the first fetches
    remote = pair.mr("b", 512, Access.full())
    local = pair.mr("a", 512)
    executed = []
    respond = QueuePair._read_respond

    def recording(qp, packet, turnaround):
        executed.append((packet.wr.wr_id, pair.sim.now))
        respond(qp, packet, turnaround)

    monkeypatch.setattr(QueuePair, "_read_respond", recording)
    value = SendWR(
        opcode=Opcode.RDMA_READ, sge=Sge(local, 0, 256), remote_rkey=remote.rkey
    )
    confirm = SendWR(
        opcode=Opcode.RDMA_READ, sge=Sge(local, 256, 64),
        remote_rkey=remote.rkey, remote_offset=256,
    )
    pair.qp_a.post_send(value)
    pair.qp_a.post_send(confirm)
    pair.sim.run()

    assert [wr_id for wr_id, _ in executed] == [value.wr_id, confirm.wr_id]
    assert executed[0][1] < executed[1][1]
    assert _send_completion_ids(pair) == [value.wr_id, confirm.wr_id]


def test_to_error_flushes_outstanding_sends_in_post_order(pair):
    """A 1 MB READ whose response is on the wire, an unsignaled WRITE and a
    SEND behind it: all three flush, in post order, and the READ's late
    response neither scatters nor completes."""
    remote = pair.mr("b", MB1, Access.full())
    remote.write(0, b"\x01" * 64)
    local = pair.mr("a", MB1)
    read = SendWR(
        opcode=Opcode.RDMA_READ, sge=Sge(local, 0, MB1), remote_rkey=remote.rkey
    )
    write = SendWR(
        opcode=Opcode.RDMA_WRITE, sge=Sge(pair.mr("a", 64), 0, 64),
        remote_rkey=remote.rkey, remote_offset=MB1 - 64, signaled=False,
    )
    pair.qp_a.post_send(read)
    pair.qp_a.post_send(write)
    small = _post_small_send(pair)
    sim = pair.sim
    sim.run(until=100.0)  # the SEND landed and was ACKed; the READ's 1 MB flies
    assert [wc.context for wc in pair.cq_b.poll(8)] == ["small"]
    assert len(pair.cq_a) == 0  # held behind the READ
    pair.qp_a.to_error()
    flushed = [(wc.wr_id, wc.status) for wc in pair.cq_a.poll(8)]
    sim.run()

    assert flushed == [
        (wr.wr_id, WcStatus.WR_FLUSH_ERR) for wr in (read, write, small)
    ]
    assert pair.cq_a.poll(8) == []  # nothing completes after the flush
    assert local.read(0, 64) == bytes(64)  # the late response scattered nothing
    assert len(pair.qp_a._send_queue) == 0
