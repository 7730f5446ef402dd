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
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.verbs.cq import CompletionQueue, WorkCompletion
from repro.verbs.enums import Opcode, QpState, QpType, WcStatus, legal_transition
from repro.verbs.packets import (
    IB_HEADER_BYTES,
    RDMA_READ_REQUEST_BYTES,
    IbPacket,
)
from repro.telemetry import tracer
from repro.verbs.wr import RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.device import Hca
    from repro.verbs.mr import ProtectionDomain


class QueuePair:
    """One communication endpoint (created via :meth:`Hca.create_qp`)."""

    __slots__ = (
        "hca",
        "qp_num",
        "qp_type",
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
        qp_type: QpType,
        pd: "ProtectionDomain",
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 1024,
        max_recv_wr: int = 1024,
        srq=None,
    ) -> None:
        self.hca = hca
        self.qp_num = qp_num
        self.qp_type = qp_type
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.state = QpState.INIT
        self._recv_queue: Deque[RecvWR] = deque()
        self._outstanding_sends = 0
        #: RC only: the connected peer.
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
        """RC: bind to *remote* and transition to RTS (one side of the pair).

        Both sides must call ``connect`` (the CM does this during its
        REQ/REP/RTU exchange) before traffic flows.
        """
        if self.qp_type is not QpType.RC:
            raise RuntimeError("connect() only applies to RC queue pairs")
        if self.state is QpState.ERROR:
            raise RuntimeError("cannot connect a QP in ERROR state")
        if self.remote is not None:
            raise RuntimeError(f"QP {self.qp_num} already connected")
        self.remote = remote
        self._modify(QpState.RTS)

    def ready_ud(self) -> None:
        """UD: transition straight to RTS (no peer binding)."""
        if self.qp_type is not QpType.UD:
            raise RuntimeError("ready_ud() only applies to UD queue pairs")
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

    def post_send(self, wr: SendWR, remote_qp: Optional["QueuePair"] = None) -> None:
        """Post a SEND / RDMA WRITE / RDMA READ work request.

        For UD queue pairs *remote_qp* plays the role of the address
        handle; RC queue pairs use their connected peer.
        """
        for observer in QueuePair.observers:
            observer.on_post_send(self, wr)
        if self.state is not QpState.RTS:
            raise RuntimeError(f"QP {self.qp_num} not RTS (state={self.state})")
        if self._outstanding_sends >= self.max_send_wr:
            raise RuntimeError(f"QP {self.qp_num}: send queue full")
        if self.qp_type is QpType.RC:
            if remote_qp is not None:
                raise ValueError("RC QPs send to their connected peer only")
            target = self.remote
            if target is None:
                raise RuntimeError(f"QP {self.qp_num} is not connected")
        else:
            if remote_qp is None:
                raise ValueError("UD post_send requires an address handle (remote_qp)")
            if wr.opcode is not Opcode.SEND:
                raise ValueError("UD transport supports SEND only")
            target = remote_qp
        self._outstanding_sends += 1
        self.hca.sim.process(
            self._requester(wr, target), label=f"qp{self.qp_num}-send"
        )

    @property
    def recv_queue_depth(self) -> int:
        return len(self._recv_queue)

    # -- requester pipeline -----------------------------------------------------

    def _requester(self, wr: SendWR, target: "QueuePair"):
        sim = self.hca.sim
        params = self.hca.params
        span = (
            tracer.begin("verbs.post", "verbs", sim.now,
                         parent=wr.trace, opcode=wr.opcode.name, nbytes=wr.nbytes)
            if tracer.enabled and wr.trace is not None
            else None
        )

        # Doorbell + optional DMA payload fetch.
        yield sim.timeout(params.post_overhead(wr.nbytes))

        # The adapter's WQE engine is shared across all QPs on this HCA.
        engine = self.hca.tx_engine
        held = engine.hold(params.wqe_process_us)
        try:
            yield held
        finally:
            engine.release(held)
        if tracer.enabled:
            tracer.end(span, sim.now)

        try:
            if wr.opcode in (Opcode.SEND, Opcode.RDMA_WRITE):
                yield from self._requester_send_or_write(wr, target)
            elif wr.opcode is Opcode.RDMA_READ:
                yield from self._requester_read(wr, target)
            else:  # pragma: no cover - constructor rejects RECV already
                raise AssertionError(wr.opcode)
        finally:
            self._outstanding_sends -= 1

    def _requester_send_or_write(self, wr: SendWR, target: "QueuePair"):
        sim = self.hca.sim
        params = self.hca.params
        payload = wr.payload_bytes()
        if self.qp_type is QpType.RC:
            # The responder signals this once it has placed the data (or
            # decided on an error) so the completion carries the true
            # status even when SRQ RNR retries delayed the outcome.
            wr._responder_event = sim.event(("resp-done(%s)", wr.wr_id))
        packet = IbPacket(
            kind="send" if wr.opcode is Opcode.SEND else "write",
            src_qpn=self.qp_num,
            dst_qpn=target.qp_num,
            payload=payload,
            remote_rkey=wr.remote_rkey,
            remote_offset=wr.remote_offset,
            length=len(payload),
            wr=wr,
        )
        yield self.hca.nic.send_frame(
            target.hca.nic, len(payload) + IB_HEADER_BYTES, packet
        ).delivered

        if self.qp_type is QpType.UD:
            # Unreliable: local completion as soon as the frame left; no ACK.
            if wr.signaled:
                self.send_cq.push(self._success_wc(wr, len(payload)))
            return

        # RC: wait for the responder's outcome, then the ACK flight back.
        yield wr._responder_event
        yield sim.timeout(self.hca.nic.params.one_way_delay() + params.ack_process_us)
        status = wr._remote_status
        if wr.signaled or status is not WcStatus.SUCCESS:
            self.send_cq.push(self._wc(wr, len(payload), status))

    def _requester_read(self, wr: SendWR, target: "QueuePair"):
        packet = IbPacket(
            kind="read_req",
            src_qpn=self.qp_num,
            dst_qpn=target.qp_num,
            remote_rkey=wr.remote_rkey,
            remote_offset=wr.remote_offset,
            length=wr.sge.length or 0,
            wr=wr,
        )
        yield self.hca.nic.send_frame(
            target.hca.nic, RDMA_READ_REQUEST_BYTES, packet
        ).delivered
        # Completion arrives with the READ response (handled by the HCA
        # receive path); nothing further for the requester pipeline.

    # -- responder actions (invoked by the owning HCA's receive path) ------------

    def responder_send(self, packet: IbPacket):
        """Consume a receive WR for an inbound SEND; yields sim events."""
        sim = self.hca.sim
        span = (
            tracer.begin("verbs.recv", "verbs", sim.now,
                         parent=packet.trace, nbytes=packet.length)
            if tracer.enabled and packet.trace is not None
            else None
        )
        try:
            if self.state is QpState.ERROR:
                if packet.wr is not None:
                    packet.wr._remote_status = WcStatus.RNR_RETRY_EXC_ERR
                return
            rwr = yield from self._claim_recv_wr(packet)
            if rwr is None:
                return
            yield from self._place_and_complete(packet, rwr)
        finally:
            self._signal_responder_done(packet)
            if tracer.enabled:
                tracer.end(span, sim.now)

    def _claim_recv_wr(self, packet: IbPacket):
        """Take a landing buffer (private queue or SRQ with RNR retries)."""
        sim = self.hca.sim
        if self.srq is None:
            if not self._recv_queue:
                # Receiver not ready.  RC with a private queue: fail the
                # sender outright (exhausted retries modeled as immediate,
                # so upper-layer flow control must be correct).  UD: drop.
                if self.qp_type is QpType.RC and packet.wr is not None:
                    packet.wr._remote_status = WcStatus.RNR_RETRY_EXC_ERR
                return None
            return self._recv_queue.popleft()
        from repro.verbs.srq import RNR_RETRIES, RNR_RETRY_DELAY_US

        rwr = self.srq.pop()
        if rwr is not None:
            return rwr
        if self.qp_type is QpType.UD:
            return None  # datagram dropped
        # Shared pool transiently dry: RNR NAK + sender retransmits.
        for _ in range(RNR_RETRIES):
            yield sim.timeout(RNR_RETRY_DELAY_US)
            rwr = self.srq.pop()
            if rwr is not None:
                return rwr
        if packet.wr is not None:
            packet.wr._remote_status = WcStatus.RNR_RETRY_EXC_ERR
        return None

    def _place_and_complete(self, packet: IbPacket, rwr: RecvWR):
        sim = self.hca.sim
        yield sim.timeout(self.hca.params.cq_gen_us)
        try:
            rwr.sge.scatter(packet.payload, require_remote=False)
        except (IndexError, PermissionError):
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=Opcode.RECV,
                    status=WcStatus.LOC_LEN_ERR,
                    qp_num=self.qp_num,
                    context=rwr.context,
                )
            )
            if packet.wr is not None:
                packet.wr._remote_status = WcStatus.REM_ACCESS_ERR
            return
        self.recv_cq.push(
            WorkCompletion(
                wr_id=rwr.wr_id,
                opcode=Opcode.RECV,
                status=WcStatus.SUCCESS,
                byte_len=len(packet.payload),
                qp_num=self.qp_num,
                context=rwr.context,
                data=packet.payload,
                app_object=packet.wr.app_object if packet.wr is not None else None,
            )
        )

    def responder_write(self, packet: IbPacket):
        """Place an inbound RDMA WRITE; yields sim events."""
        try:
            if self.state is QpState.ERROR:
                return
            try:
                mr = self.pd.lookup_rkey(packet.remote_rkey)
                mr.remote_write(packet.remote_offset, packet.payload)
            except (PermissionError, IndexError):
                if packet.wr is not None:
                    packet.wr._remote_status = WcStatus.REM_ACCESS_ERR
        finally:
            self._signal_responder_done(packet)
        return
        yield  # pragma: no cover - keeps this a generator for uniform driving

    @staticmethod
    def _signal_responder_done(packet: IbPacket) -> None:
        """Wake the RC requester: the ACK for this operation may fly."""
        wr = packet.wr
        event = wr._responder_event if wr is not None else None
        if event is not None and not event.triggered:
            event.succeed()

    def responder_read(self, packet: IbPacket):
        """Serve an inbound RDMA READ request; yields sim events."""
        sim = self.hca.sim
        params = self.hca.params
        yield sim.timeout(params.rdma_read_turnaround_us)
        try:
            mr = self.pd.lookup_rkey(packet.remote_rkey)
            data = mr.remote_read(packet.remote_offset, packet.length)
        except (PermissionError, IndexError):
            # Error response: tiny frame, completes the WR with an error.
            response = IbPacket(
                kind="read_resp",
                src_qpn=self.qp_num,
                dst_qpn=packet.src_qpn,
                payload=b"",
                wr=packet.wr,
            )
            response.wr._remote_status = WcStatus.REM_ACCESS_ERR
            self.hca.nic.send_frame(
                self.hca.peer_nic(packet.src_qpn), IB_HEADER_BYTES, response
            )
            return
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

    def requester_read_response(self, packet: IbPacket):
        """Complete a local RDMA READ when its response lands; yields events."""
        sim = self.hca.sim
        wr: SendWR = packet.wr
        status = wr._remote_status
        yield sim.timeout(self.hca.params.cq_gen_us)
        if status is WcStatus.SUCCESS:
            wr.sge.scatter(packet.payload, require_remote=False)
            self.send_cq.push(self._success_wc(wr, len(packet.payload)))
        else:
            self.send_cq.push(self._wc(wr, 0, status))

    # -- helpers -----------------------------------------------------------------

    def _success_wc(self, wr: SendWR, nbytes: int) -> WorkCompletion:
        return self._wc(wr, nbytes, WcStatus.SUCCESS)

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
        return f"<QueuePair #{self.qp_num} {self.qp_type.name} {self.state.value}>"
