"""Queue pairs: the verbs data path.

The requester pipeline for every operation is::

    post (doorbell [+ DMA fetch for non-inline]) ->
    HCA WQE engine (serialized per adapter) ->
    wire frame ->
    responder action ->
    [ACK / response] ->
    signaled completion on the send CQ

The responder runs entirely in (simulated) hardware: SEND consumes a
posted receive and raises a CQE, RDMA WRITE/READ touch registered memory
without any remote-CPU involvement.  This asymmetry -- remote memory
access with zero remote CPU -- is the property the paper's design builds
on, and it falls out of the model for free: no ``cpu_run`` appears
anywhere in this file.

Nor does a process: a work request is its modelled delays, each one's
firing starting the next by a callback (:class:`_Wqe` on the requester
side; the ``responder_*`` methods, called by the HCA's receive path, on
the other).  ``docs/ARCHITECTURE.md`` ("A work request is its delays")
has the per-opcode event table.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim import Event, Timeout
from repro.verbs.cq import CompletionQueue, WorkCompletion
from repro.verbs.enums import Opcode, QpState, WcStatus, legal_transition
from repro.verbs.packets import (
    IB_HEADER_BYTES,
    RDMA_READ_REQUEST_BYTES,
    IbPacket,
)
from repro.telemetry import tracer
from repro.verbs.srq import RNR_RETRIES, RNR_RETRY_DELAY_US
from repro.verbs.wr import RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.device import Hca
    from repro.verbs.mr import ProtectionDomain


class QueuePair:
    """One communication endpoint (created via :meth:`Hca.create_qp`)."""

    __slots__ = (
        "hca",
        "qp_num",
        "pd",
        "send_cq",
        "recv_cq",
        "max_send_wr",
        "max_recv_wr",
        "state",
        "_recv_queue",
        "_outstanding_sends",
        "remote",
        "srq",
        "_ucr_endpoint",
    )

    #: Sanitizer observers notified of every posted WR (see
    #: :mod:`repro.sanitize.cq`); shared by all queue pairs, normally empty.
    observers: list = []

    def __init__(
        self,
        hca: "Hca",
        qp_num: int,
        pd: "ProtectionDomain",
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 1024,
        max_recv_wr: int = 1024,
        srq=None,
    ) -> None:
        self.hca = hca
        self.qp_num = qp_num
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.state = QpState.INIT
        self._recv_queue: Deque[RecvWR] = deque()
        self._outstanding_sends = 0
        #: The connected peer.
        self.remote: Optional["QueuePair"] = None
        #: When set, receives come from this shared pool instead of the
        #: private queue (and post_recv on the QP is an error).
        self.srq = srq
        #: Back-reference installed by the UCR runtime when this QP backs
        #: an endpoint (set during connection acceptance).
        self._ucr_endpoint = None

    # -- state management ------------------------------------------------------

    def _modify(self, new: QpState) -> None:
        """Transition the QP, enforcing :data:`LEGAL_QP_TRANSITIONS`.

        The same table backs the L010 lint rule; this runtime guard
        catches transitions the intraprocedural analysis cannot see.
        """
        if not legal_transition(self.state, new):
            raise RuntimeError(
                f"QP {self.qp_num}: illegal transition "
                f"{self.state.name} -> {new.name}"
            )
        self.state = new

    def connect(self, remote: "QueuePair") -> None:
        """Bind to *remote* and transition to RTS (one side of the pair).

        Both sides must call ``connect`` (the CM does this during its
        REQ/REP/RTU exchange) before traffic flows.
        """
        if self.state is QpState.ERROR:
            raise RuntimeError("cannot connect a QP in ERROR state")
        if self.remote is not None:
            raise RuntimeError(f"QP {self.qp_num} already connected")
        self.remote = remote
        self._modify(QpState.RTS)

    def to_error(self) -> None:
        """Flush the QP: pending receives complete with WR_FLUSH_ERR."""
        self._modify(QpState.ERROR)
        while self._recv_queue:
            rwr = self._recv_queue.popleft()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=Opcode.RECV,
                    status=WcStatus.WR_FLUSH_ERR,
                    qp_num=self.qp_num,
                    context=rwr.context,
                )
            )

    # -- posting ---------------------------------------------------------------

    def post_recv(self, wr: RecvWR) -> None:
        """Queue a landing buffer for one inbound SEND."""
        for observer in QueuePair.observers:
            observer.on_post_recv(self, wr)
        if self.srq is not None:
            raise RuntimeError(
                f"QP {self.qp_num} draws from an SRQ; post to the SRQ instead"
            )
        if self.state is QpState.ERROR:
            raise RuntimeError(f"QP {self.qp_num} is in ERROR state")
        if len(self._recv_queue) >= self.max_recv_wr:
            raise RuntimeError(f"QP {self.qp_num}: receive queue full")
        self._recv_queue.append(wr)

    def post_send(self, wr: SendWR) -> None:
        """Post a SEND / RDMA WRITE / RDMA READ work request to the
        connected peer."""
        for observer in QueuePair.observers:
            observer.on_post_send(self, wr)
        if self.state is not QpState.RTS:
            raise RuntimeError(f"QP {self.qp_num} not RTS (state={self.state})")
        if self._outstanding_sends >= self.max_send_wr:
            raise RuntimeError(f"QP {self.qp_num}: send queue full")
        target = self.remote
        if target is None:
            raise RuntimeError(f"QP {self.qp_num} is not connected")
        self._outstanding_sends += 1
        sim = self.hca.sim
        span = (
            tracer.begin("verbs.post", "verbs", sim.now,
                         parent=wr.trace, opcode=wr.opcode.name, nbytes=wr.nbytes)
            if tracer.enabled and wr.trace is not None
            else None
        )
        # Doorbell + optional DMA payload fetch; the WQE moves on from there.
        doorbell = Timeout(sim, self.hca.params.post_overhead(wr.nbytes))
        doorbell.callbacks.append(_Wqe(self, wr, target, span)._rung)

    # -- responder actions (called by the owning HCA's receive path) -------------

    def responder_send(self, packet: IbPacket) -> None:
        """Consume a receive WR for an inbound SEND; called by the HCA's
        receive path, finishes by callbacks (RNR backoff, ``cq_gen``)."""
        span = (
            tracer.begin("verbs.recv", "verbs", self.hca.sim.now,
                         parent=packet.trace, nbytes=packet.length)
            if tracer.enabled and packet.trace is not None
            else None
        )
        if self.state is QpState.ERROR:
            self._recv_done(packet, span, WcStatus.RNR_RETRY_EXC_ERR)
        else:
            self._claim_recv_wr(packet, span, RNR_RETRIES)

    def _claim_recv_wr(self, packet: IbPacket, span: Any, retries: int,
                       _backoff: Optional[Event] = None) -> None:
        """Take a landing buffer (private queue, or SRQ with RNR retries)
        and start the CQE-generation delay that ends in placing into it."""
        sim = self.hca.sim
        try:
            if self.srq is None:
                rwr = self._recv_queue.popleft() if self._recv_queue else None
            else:
                rwr = self.srq.pop()
                if rwr is None and retries:
                    # Shared pool transiently dry: RNR NAK + sender retransmits.
                    Timeout(sim, RNR_RETRY_DELAY_US).callbacks.append(
                        partial(self._claim_recv_wr, packet, span, retries - 1)
                    )
                    return
            if rwr is None:
                # Receiver not ready: fail the sender (a private queue's
                # exhausted retries are modeled as immediate, so upper-layer
                # flow control must be correct).
                self._recv_done(packet, span, WcStatus.RNR_RETRY_EXC_ERR)
                return
            Timeout(sim, self.hca.params.cq_gen_us).callbacks.append(
                partial(self._place_and_complete, packet, span, rwr)
            )
        except Exception as exc:
            _fail(self, "verbs.recv", packet.wr, exc)

    def _place_and_complete(self, packet: IbPacket, span: Any, rwr: RecvWR,
                            _cq_gen: Event) -> None:
        try:
            try:
                rwr.sge.scatter(packet.payload, require_remote=False)
            except (IndexError, PermissionError):
                status = WcStatus.REM_ACCESS_ERR
                wc = WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=Opcode.RECV,
                    status=WcStatus.LOC_LEN_ERR,
                    qp_num=self.qp_num,
                    context=rwr.context,
                )
            else:
                status = None
                wc = WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=Opcode.RECV,
                    status=WcStatus.SUCCESS,
                    byte_len=len(packet.payload),
                    qp_num=self.qp_num,
                    context=rwr.context,
                    data=packet.payload,
                    app_object=packet.wr.app_object if packet.wr is not None else None,
                )
            self.recv_cq.push(wc)
            self._recv_done(packet, span, status)
        except Exception as exc:
            _fail(self, "verbs.recv", packet.wr, exc)

    def _recv_done(self, packet: IbPacket, span: Any,
                   status: Optional[WcStatus] = None) -> None:
        """The SEND responder's one exit: the verdict goes to the requester
        (whose ACK may now fly) and the span closes."""
        if packet.wr is not None:
            packet.wr.responder_done(status)
        if tracer.enabled:
            tracer.end(span, self.hca.sim.now)

    def responder_write(self, packet: IbPacket) -> None:
        """Place an inbound RDMA WRITE; called by the HCA's receive path."""
        status = None
        if self.state is not QpState.ERROR:
            try:
                mr = self.pd.lookup_rkey(packet.remote_rkey)
                mr.remote_write(packet.remote_offset, packet.payload)
            except (PermissionError, IndexError):
                status = WcStatus.REM_ACCESS_ERR
        if packet.wr is not None:
            packet.wr.responder_done(status)

    def responder_read(self, packet: IbPacket) -> None:
        """Serve an inbound RDMA READ request; called by the HCA's receive
        path, answers when the adapter's turnaround delay fires."""
        Timeout(self.hca.sim, self.hca.params.rdma_read_turnaround_us).callbacks.append(
            partial(self._read_respond, packet)
        )

    def _read_respond(self, packet: IbPacket, _turnaround: Event) -> None:
        try:
            try:
                mr = self.pd.lookup_rkey(packet.remote_rkey)
                data = mr.remote_read(packet.remote_offset, packet.length)
            except (PermissionError, IndexError):
                # Error response: tiny frame, completes the WR with an error.
                data = b""
                packet.wr._remote_status = WcStatus.REM_ACCESS_ERR
            response = IbPacket(
                kind="read_resp",
                src_qpn=self.qp_num,
                dst_qpn=packet.src_qpn,
                payload=data,
                wr=packet.wr,
            )
            self.hca.nic.send_frame(
                self.hca.peer_nic(packet.src_qpn),
                len(data) + IB_HEADER_BYTES,
                response,
            )
        except Exception as exc:
            _fail(self, "verbs.read", packet.wr, exc)

    def requester_read_response(self, packet: IbPacket) -> None:
        """Complete a local RDMA READ when its response lands; called by the
        HCA's receive path, completes when the ``cq_gen`` delay fires."""
        Timeout(self.hca.sim, self.hca.params.cq_gen_us).callbacks.append(
            partial(self._read_complete, packet)
        )

    def _read_complete(self, packet: IbPacket, _cq_gen: Event) -> None:
        # The WQE is retired where its completion is pushed, on either arm:
        # ``max_send_wr`` bounds the READs in flight, not just the requests.
        self._outstanding_sends -= 1
        try:
            wr: SendWR = packet.wr
            status = wr._remote_status
            if status is WcStatus.SUCCESS:
                wr.sge.scatter(packet.payload, require_remote=False)
            # (An error response carries no payload: ``byte_len`` 0.)
            self.send_cq.push(self._wc(wr, len(packet.payload), status))
        except Exception as exc:
            _fail(self, "verbs.read", packet.wr, exc)

    # -- helpers -----------------------------------------------------------------

    def _wc(self, wr: SendWR, nbytes: int, status: WcStatus) -> WorkCompletion:
        return WorkCompletion(
            wr_id=wr.wr_id,
            opcode=wr.opcode,
            status=status,
            byte_len=nbytes,
            qp_num=self.qp_num,
            context=wr.context,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueuePair #{self.qp_num} {self.state.value}>"


def _fail(qp: QueuePair, stage: str, wr: Optional[SendWR], exc: Exception) -> None:
    """A stage raised something it does not handle: fail an event made on
    the spot, so the loop escalates it as ``UnhandledFailure`` naming the
    stage and the WR -- what the failed process gave -- not a raw exception."""
    name = ("%s(wr %s on qp %s)", stage, getattr(wr, "wr_id", None), qp.qp_num)
    Event(qp.hca.sim, name).fail(exc)


class _Wqe:
    """One posted work request on its way through the requester pipeline.

    Each stage is the callback of the delay before it: the doorbell
    ``Timeout`` (started by :meth:`QueuePair.post_send`), the hold on the
    adapter's WQE engine, and for SEND / WRITE the ACK ``Timeout`` that
    the responder starts through ``SendWR.responder_done``.  An RDMA READ
    leaves here with its request frame; its completion is the response's
    (:meth:`QueuePair.requester_read_response`).
    """

    __slots__ = ("qp", "wr", "target", "span", "nbytes")

    def __init__(self, qp: QueuePair, wr: SendWR, target: QueuePair, span: Any) -> None:
        self.qp = qp
        self.wr = wr
        self.target = target
        self.span = span
        self.nbytes = 0

    def _rung(self, _doorbell: Event) -> None:
        """The adapter's WQE engine is shared across all QPs on this HCA."""
        hca = self.qp.hca
        try:
            hca.tx_engine.hold(hca.params.wqe_process_us).callbacks.append(self._launch)
        except Exception as exc:
            _fail(self.qp, "verbs.post", self.wr, exc)

    def _launch(self, held: Event) -> None:
        """The engine hold fired: free it, put the message on the wire."""
        qp, wr, target = self.qp, self.wr, self.target
        hca = qp.hca
        hca.tx_engine.release(held)
        try:
            if tracer.enabled:
                tracer.end(self.span, hca.sim.now)
            if wr.opcode is Opcode.RDMA_READ:
                packet = IbPacket(
                    kind="read_req",
                    src_qpn=qp.qp_num,
                    dst_qpn=target.qp_num,
                    remote_rkey=wr.remote_rkey,
                    remote_offset=wr.remote_offset,
                    length=wr.sge.length or 0,
                    wr=wr,
                )
                hca.nic.send_frame(target.hca.nic, RDMA_READ_REQUEST_BYTES, packet)
                return
            payload = wr.payload_bytes()
            self.nbytes = len(payload)
            packet = IbPacket(
                kind="send" if wr.opcode is Opcode.SEND else "write",
                src_qpn=qp.qp_num,
                dst_qpn=target.qp_num,
                payload=payload,
                remote_rkey=wr.remote_rkey,
                remote_offset=wr.remote_offset,
                length=len(payload),
                wr=wr,
            )
            # The responder calls this once it has placed the data (or
            # decided on an error), so the completion carries the true
            # status even when SRQ RNR retries delayed the outcome.  Its
            # signal is strictly later than delivery: nobody asks for
            # ``delivered``.
            wr._on_responder_done = self._responded
            hca.nic.send_frame(target.hca.nic, len(payload) + IB_HEADER_BYTES, packet)
        except Exception as exc:
            _fail(qp, "verbs.post", wr, exc)

    def _responded(self) -> None:
        """The responder's outcome is in; the ACK flies back."""
        hca = self.qp.hca
        ack_us = hca.nic.params.one_way_delay() + hca.params.ack_process_us
        Timeout(hca.sim, ack_us).callbacks.append(self._acked)

    def _acked(self, _ack: Event) -> None:
        qp, wr = self.qp, self.wr
        qp._outstanding_sends -= 1
        try:
            status = wr._remote_status
            if wr.signaled or status is not WcStatus.SUCCESS:
                qp.send_cq.push(qp._wc(wr, self.nbytes, status))
        except Exception as exc:
            _fail(qp, "verbs.post", wr, exc)
