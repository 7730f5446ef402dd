"""UCR endpoints: the paper's connection model and ``ucr_send_message``.

An endpoint is bi-directional and private to one peer relationship; its
failure is contained (the runtime and all other endpoints keep working).
It rides an RC queue pair with credit-based flow control.

Transfer paths (paper Fig. 2):

- eager: header and data combined into one SEND; the target copies data
  off the bounce buffer (memcpy) into the destination chosen by the
  header handler.
- rendezvous: header-only SEND carrying an RDMA descriptor; the *target*
  issues an RDMA READ into the destination, then runs the completion
  handler, then sends one internal message back that releases the
  origin's staging buffer and bumps the origin/completion counters.

Ordering semantics (same contract as GASNet-class AM runtimes): headers
arrive in send order on an endpoint, and completion handlers of
same-path messages (eager/eager, rendezvous/rendezvous) run in that
order -- but an eager message may *complete* before an earlier
rendezvous message whose data fetch is still in flight.  Applications
needing cross-message ordering sequence via counters or request ids
(memcached requests are independent, so it never does).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.core.buffers import PooledBuffer
from repro.core.errors import EndpointClosed, FlowControlError
from repro.core.messages import AmWire, InternalWire, RdmaDescriptor
from repro.sim import Event
from repro.telemetry import tracer
from repro.verbs.enums import Opcode
from repro.verbs.wr import RecvWR, SendWR, Sge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import UcrContext
    from repro.verbs.qp import QueuePair

_ep_ids = itertools.count(1)


@dataclass(slots=True)
class _SendCompletionCookie:
    """Rides send-CQ completions so the progress engine can finish them."""

    kind: str  # 'eager' | 'rendezvous-read' | 'onesided-read' | 'header' | 'internal'
    endpoint: "Endpoint"
    origin_counter: Any = None
    wire: Optional[AmWire] = None
    dest: Any = None


# Examples and tests monkeypatch endpoint methods per instance (e.g.
# fault_tolerance.py replaces send_message on a live endpoint), which
# __slots__ would forbid -- so the endpoint stays a regular class.
class Endpoint:  # repro-lint: disable=L003
    """One UCR communication endpoint (see module docstring)."""

    def __init__(
        self,
        context: "UcrContext",
        qp: "QueuePair",
        peer_label: str = "",
    ) -> None:
        self.ep_id = next(_ep_ids)
        self.context = context
        self.runtime = context.runtime
        self.sim = context.sim
        self.qp = qp
        self.peer_label = peer_label
        self.failed = False
        self.failure_reason: Optional[str] = None
        params = self.runtime.params
        #: Credits left for sending (peer's pre-posted receives).
        self.send_credits = params.credits
        #: Credits consumed by the peer that we owe back.
        self.credits_owed = 0
        self._credit_waiters: list[Event] = []
        #: Staged rendezvous buffers (``PooledBuffer``), or holds on
        #: registered memory sent in place, awaiting the peer's release
        #: message; either is released with ``release()``.
        self._staged: dict[int, Any] = {}
        #: User hook invoked on failure (memcached drops the client here).
        self.on_failure = None
        context._register_endpoint(self)
        if params.use_srq:
            # SRQ mode: receives come from the runtime's shared pool; the
            # per-endpoint memory footprint is O(1) (paper lineage [11]).
            self.qp.srq = self.runtime.ensure_srq()
        else:
            # Pre-post one buffer per peer credit plus slack for internal
            # (control) messages, which bypass the credit window.
            for _ in range(params.credits + 16):
                self._post_recv_buffer()

    # -- public sending API ------------------------------------------------------

    def send_message(
        self,
        msg_id: int,
        header: Any,
        header_bytes: int,
        data: bytes = b"",
        origin_counter=None,
        target_counter_id: int = 0,
        completion_counter=None,
        data_location: Optional[tuple] = None,
        registered_hint: bool = False,
        location_hold=None,
    ):
        """Process helper: the paper's ``ucr_send_message``.

        ``header`` is any application object (its wire footprint is
        *header_bytes*); ``data`` is the payload.  The counters are
        optional :class:`~repro.core.counters.UcrCounter` objects -- pass
        ``None`` to suppress the associated tracking (and, for the
        completion counter, the internal message that would carry it);
        the target's is named by id (0: none), the only part that crosses.

        Non-blocking in the UCR sense: returns once the message is handed
        to the HCA (possibly after waiting for send credits); progress is
        observed through the counters.

        *location_hold* (with *data_location*) is the caller's hold on
        that memory, an object with ``release()``.  The endpoint takes it
        over and releases it once the bytes have left: at the eager copy,
        on the peer's ``rendezvous_done``, or when the endpoint fails --
        this call raising included.
        """
        params = self.runtime.params
        node = self.context.node

        cc_id = completion_counter.counter_id if completion_counter is not None else 0
        oc_id = origin_counter.counter_id if origin_counter is not None else 0

        try:
            self._check_alive()
            yield from node.cpu_run(params.am_post_cpu_us)
            yield from self._acquire_credit()
        except EndpointClosed:
            if location_hold is not None:
                location_hold.release()
            raise

        if data_location is not None:
            # Zero-copy from registered application memory (e.g. a slab
            # chunk): the data never touches a staging buffer.
            if data:
                raise ValueError("pass data OR data_location, not both")
            mr, offset, length = data_location
            if header_bytes + length <= params.eager_threshold_bytes:
                # Small registered values still go eager (one transaction
                # beats an RDMA round trip); the copy out of the region is
                # the eager-path copy.
                data = mr.read(offset, length)
                if location_hold is not None:
                    location_hold.release()
            else:
                self._send_rendezvous_registered(
                    msg_id, header, header_bytes, mr, offset, length,
                    oc_id, target_counter_id, cc_id, location_hold,
                )
                return

        total = header_bytes + len(data)
        if total <= params.eager_threshold_bytes:
            yield from self._send_eager(
                msg_id, header, header_bytes, data, origin_counter, target_counter_id, cc_id,
            )
        else:
            yield from self._send_rendezvous(
                msg_id, header, header_bytes, data, oc_id, target_counter_id, cc_id,
                registered_hint,
            )

    def _send_eager(
        self, msg_id, header, header_bytes, data, origin_counter, tc_id, cc_id,
    ):
        params = self.runtime.params
        node = self.context.node
        # Copy user data into the network buffer (the eager-path copy the
        # paper trades against rendezvous registration costs).
        if data:
            yield from node.memcpy(len(data))
        wire = AmWire(
            msg_id=msg_id,
            header=header,
            header_bytes=header_bytes,
            data=data,
            data_length=len(data),
            target_counter_id=tc_id,
            completion_counter_id=cc_id,
            credits_returned=self._take_owed_credits(),
            trace=getattr(header, "trace", None) if tracer.enabled else None,
        )
        payload = bytes(wire.wire_bytes())
        cookie = None
        signaled = origin_counter is not None
        if signaled:
            cookie = _SendCompletionCookie(
                kind="eager", endpoint=self, origin_counter=origin_counter
            )
        wr = SendWR(
            opcode=Opcode.SEND,
            inline_data=payload,
            signaled=True,  # completions also surface transport errors
            context=cookie,
            app_object=wire,
        )
        self._post(wr)

    def _send_rendezvous(
        self, msg_id, header, header_bytes, data, oc_id, tc_id, cc_id,
        registered_hint: bool = False,
    ):
        node = self.context.node
        # Stage the payload in a registered buffer the peer can RDMA READ.
        # With registered_hint the caller vouches that the application
        # buffer sits in the registration cache (MVAPICH-style, paper §I-B)
        # so no copy cost is charged -- the byte movement below is then the
        # simulation's bookkeeping, not modeled work.
        staging = self.runtime.rendezvous_pool_for(len(data)).get()
        if not registered_hint:
            yield from node.memcpy(len(data))
        staging.write(data)
        self._post_rendezvous_header(
            msg_id, header, header_bytes,
            RdmaDescriptor(rkey=staging.mr.rkey, offset=0, length=len(data)),
            oc_id, tc_id, cc_id, staging,
        )

    def _send_rendezvous_registered(
        self, msg_id, header, header_bytes, mr, offset, length, oc_id, tc_id, cc_id,
        hold=None,
    ):
        """Rendezvous straight out of registered app memory (no staging).

        The application owns the memory's lifetime.  Its *hold* (if any)
        is filed where a staging buffer would be, so the rendezvous_done
        message (or a failure) releases it; without one the caller must
        keep the region stable until the origin counter fires.
        """
        self._post_rendezvous_header(
            msg_id, header, header_bytes,
            RdmaDescriptor(rkey=mr.rkey, offset=offset, length=length),
            oc_id, tc_id, cc_id, hold,
        )

    def _post_rendezvous_header(
        self, msg_id, header, header_bytes, rdma, oc_id, tc_id, cc_id, staging=None
    ):
        """Send the header that tells the peer where to RDMA READ from."""
        wire = AmWire(
            msg_id=msg_id,
            header=header,
            header_bytes=header_bytes,
            data=None,
            data_length=rdma.length,
            rdma=rdma,
            origin_counter_id=oc_id,
            target_counter_id=tc_id,
            completion_counter_id=cc_id,
            credits_returned=self._take_owed_credits(),
            trace=getattr(header, "trace", None) if tracer.enabled else None,
        )
        if staging is not None:
            # Before the post: one that fails releases it through fail().
            self._staged[wire.seq] = staging
        wr = SendWR(
            opcode=Opcode.SEND,
            inline_data=bytes(wire.wire_bytes()),
            signaled=True,
            context=_SendCompletionCookie(kind="header", endpoint=self),
            app_object=wire,
        )
        self._post(wr)

    # -- credits -------------------------------------------------------------------

    def _acquire_credit(self):
        while self.send_credits <= 0:
            # Re-check on every pass: the endpoint may have failed while
            # this process was charging CPU between the entry check and
            # here -- enqueueing then would hang forever (fail() already
            # flushed its waiter list).
            self._check_alive()
            if tracer.enabled:
                tracer.instant("am.credit_stall", "am", self.sim.now, ep=self.ep_id)
            ev = self.sim.event(("ep%s.credit", self.ep_id))
            self._credit_waiters.append(ev)
            yield ev
            self._check_alive()
        self.send_credits -= 1

    def _grant_credits(self, n: int) -> None:
        if n < 0:
            raise FlowControlError(f"negative credit grant {n}")
        if n == 0:
            return
        self.send_credits += n
        if self.send_credits > self.runtime.params.credits:
            raise FlowControlError(
                f"credit overflow: {self.send_credits} > {self.runtime.params.credits}"
            )
        while self._credit_waiters and self.send_credits > 0:
            self._credit_waiters.pop(0).succeed()

    def _take_owed_credits(self) -> int:
        owed, self.credits_owed = self.credits_owed, 0
        return owed

    def note_peer_consumed_credit(self) -> None:
        """Receive path: a credited (data) message consumed a buffer."""
        self.credits_owed += 1
        if self.credits_owed >= self.runtime.params.credit_return_threshold:
            self._send_internal(
                InternalWire(kind="credits", credits_returned=self._take_owed_credits())
            )

    def repost_recv_buffer(self, buf: PooledBuffer) -> None:
        """Receive path: return a drained bounce buffer to the QP/SRQ."""
        if self.qp.srq is not None:
            # Shared pool: the buffer belongs to every endpoint, so it is
            # reposted even when this particular endpoint has failed.
            self.qp.srq.post_recv(RecvWR(sge=Sge(buf.mr), context=buf))
            return
        if self.failed:
            buf.release()
            return
        self.qp.post_recv(RecvWR(sge=Sge(buf.mr), context=buf))

    # -- internals -------------------------------------------------------------------

    def _post_recv_buffer(self) -> None:
        buf = self.runtime.recv_pool.get()
        self.qp.post_recv(RecvWR(sge=Sge(buf.mr), context=buf))

    def _post(self, wr: SendWR) -> None:
        if tracer.enabled and wr.trace is None:
            # Inherit the trace rider from the AM the WR carries (RDMA
            # READs get theirs set explicitly by the progress engine).
            wr.trace = getattr(wr.app_object, "trace", None)
        try:
            self.qp.post_send(wr)
        except RuntimeError as exc:
            self.fail(str(exc))
            raise EndpointClosed(str(exc)) from exc

    def _send_internal(self, wire: InternalWire) -> None:
        """Fire an internal message (no credit needed: control channel).

        Internal messages consume peer receives too; we reserve headroom
        by keeping them small and reposting immediately on the peer.  The
        accounting trick of real runtimes (separate control credits) is
        folded into the main window for simplicity.  Best-effort: on a
        failed endpoint the message is silently dropped (the peer's
        timeouts own the recovery), so progress engines never die here.
        """
        if self.failed:
            return
        wr = SendWR(
            opcode=Opcode.SEND,
            inline_data=bytes(wire.wire_bytes()),
            signaled=True,
            context=_SendCompletionCookie(kind="internal", endpoint=self),
            app_object=wire,
        )
        self._post(wr)

    def release_staged(self, seq: int) -> Any:
        """Origin side: peer finished its RDMA READ of staged buffer (or
        held region) *seq*."""
        buf = self._staged.pop(seq, None)
        if buf is not None:
            buf.release()
        return buf

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    # -- failure handling ---------------------------------------------------------------

    def fail(self, reason: str) -> None:
        """Contained failure: this endpoint dies, nothing else does."""
        if self.failed:
            return
        self.failed = True
        self.failure_reason = reason
        self.qp.to_error()
        for buf in self._staged.values():
            buf.release()
        self._staged.clear()
        waiters, self._credit_waiters = self._credit_waiters, []
        for ev in waiters:
            ev.succeed()  # wake them; _check_alive will raise in their frame
        if self.on_failure is not None:
            self.on_failure(self)

    def _check_alive(self) -> None:
        if self.failed:
            raise EndpointClosed(
                f"endpoint {self.ep_id} ({self.peer_label}): {self.failure_reason}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "failed" if self.failed else "up"
        return f"<Endpoint #{self.ep_id} {self.peer_label} {state}>"
