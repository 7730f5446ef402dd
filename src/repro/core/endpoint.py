"""UCR endpoints: the paper's connection model and ``ucr_send_message``.

An endpoint is bi-directional and private to one peer relationship; its
failure is contained (the runtime and all other endpoints keep working).
It rides an RC queue pair with credit-based flow control.

Flow control.  Each endpoint pre-posts ``params.posted_receives``
buffers: one per credit, plus ``params.control_slack`` (= ``credits``)
for the uncredited control messages -- explicit ``credits`` returns,
``counters`` and ``rendezvous_done``.  The bound holds because every
control message carries at least one credit home: an explicit return
fires at ``credits // 2`` owed, and the AM that a ``counters`` or
``rendezvous_done`` answers returns its credit on that reply, not
before.  A credit is owed only once its buffer is back on the queue, so
credited AMs hold at most ``credits`` buffers and control messages at
most ``credits`` more; a private receive queue never runs dry.

A send never waits for a credit.  One that finds none queues its work
request on the endpoint, and the grant that returns a credit posts it
(piggybacked credits are taken at that post).  So a handler that replies
from inside the progress engine never parks it, and the credit return
the engine would have had to process next is never stuck behind it.

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
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.core.buffers import PooledBuffer
from repro.core.errors import EndpointClosed, FlowControlError
from repro.core.messages import AmWire, InternalWire, RdmaDescriptor
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
        #: Credited AMs built while no credit was free, in send order;
        #: :meth:`_grant_credits` posts them.
        self._backlog: deque[SendWR] = deque()
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
            # One buffer per peer credit plus the control slack (module
            # docstring).
            for _ in range(params.posted_receives):
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
        to the HCA, or queued on the endpoint when no send credit is free
        (the grant that frees one posts it); progress is observed through
        the counters.  It never waits for a credit, so a handler may call
        it from inside the progress engine.

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
        self._post_credited(wr)

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
            trace=getattr(header, "trace", None) if tracer.enabled else None,
        )
        if staging is not None:
            # Before the post (or the backlog): one that fails releases
            # it through fail().
            self._staged[wire.seq] = staging
        wr = SendWR(
            opcode=Opcode.SEND,
            inline_data=bytes(wire.wire_bytes()),
            signaled=True,
            context=_SendCompletionCookie(kind="header", endpoint=self),
            app_object=wire,
        )
        self._post_credited(wr)

    # -- credits -------------------------------------------------------------------

    def _post_credited(self, wr: SendWR) -> None:
        """Post a credited AM now, or queue it until a credit is granted."""
        if self.send_credits > 0:
            self.send_credits -= 1
            wr.app_object.credits_returned = self._take_owed_credits()
            self._post(wr)
            return
        if self.failed:
            # It failed while the sender charged CPU: fail() already ran,
            # so a queued AM would strand its staging buffer.
            self.release_staged(wr.app_object.seq)
            self._check_alive()
        if tracer.enabled:
            tracer.instant("am.credit_stall", "am", self.sim.now, ep=self.ep_id)
        self._backlog.append(wr)

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
        try:
            while self._backlog and self.send_credits > 0:
                self._post_credited(self._backlog.popleft())
        except EndpointClosed:
            pass  # the post failed the endpoint; fail() dropped the rest

    def _take_owed_credits(self) -> int:
        owed, self.credits_owed = self.credits_owed, 0
        return owed

    def note_peer_consumed_credit(self) -> None:
        """Receive path: a credited AM's buffer is back on the queue, so
        its credit is owed; return the lot at half a window."""
        self.credits_owed += 1
        if self.credits_owed >= self.runtime.params.credits // 2:
            self._send_internal(
                InternalWire(kind="credits", credits_returned=self._take_owed_credits())
            )

    def send_control_reply(self, kind: str, counter_ids: tuple, seq: int = 0) -> None:
        """Receive path: the ``counters`` or ``rendezvous_done`` message
        that ends a credited AM's handling.  It carries that AM's credit
        home with whatever else is owed (module docstring: the bound)."""
        self.credits_owed += 1
        self._send_internal(
            InternalWire(kind=kind, counter_ids=counter_ids,
                         credits_returned=self._take_owed_credits(), seq=seq)
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

        Internal messages consume peer receives too, from the peer's
        control slack: each carries at least one credit home, so no more
        than a window of them is ever in flight (module docstring), and
        the peer reposts their buffers as it processes them.  Best-effort:
        on a failed endpoint the message is silently dropped (the peer's
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
        self._backlog.clear()  # queued AMs never leave; their senders time out
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
