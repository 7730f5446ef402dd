"""UCR contexts: per-thread progress engines.

A context maps to one software thread in the modeled system -- a
memcached worker thread or a client library instance.  It owns one
completion queue shared by all of its endpoints' queue pairs and a
progress process that polls it, dispatches active-message handlers, and
drives the rendezvous state machine.

All handler CPU time is charged inside the progress process, so a worker
saturates exactly like a real thread: its endpoints' messages queue up
behind each other while other contexts on the same node keep running on
other cores.

A handler never waits for send credits: a reply sent from inside the
engine queues on its endpoint when the window is shut
(:meth:`~repro.core.endpoint.Endpoint.send_message`), and the engine
goes on to process the credit return that reopens it.  The engine owes
a credited AM's credit once the AM's bounce buffer is reposted -- or,
for an AM answered by ``counters`` or ``rendezvous_done``, on that
reply -- which is what bounds the control messages an endpoint's
receive queue must hold (:attr:`~repro.core.params.UcrParams.control_slack`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.endpoint import Endpoint, _SendCompletionCookie
from repro.core.errors import EndpointClosed, UcrTimeout
from repro.core.messages import AmWire, InternalWire
from repro.sim import Expired
from repro.telemetry import tracer
from repro.verbs.enums import Opcode, WcStatus
from repro.verbs.wr import SendWR, Sge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import UcrRuntime
    from repro.verbs.cq import WorkCompletion


class UcrContext:
    """One progress engine (thread) of a UCR runtime."""

    __slots__ = (
        "runtime",
        "sim",
        "node",
        "name",
        "cq",
        "_endpoints",
        "messages_processed",
        "_progress",
    )

    def __init__(self, runtime: "UcrRuntime", name: str = "ctx") -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.node = runtime.node
        self.name = name
        self.cq = runtime.hca.create_cq(name=f"{runtime.name}/{name}.cq")
        self._endpoints: dict[int, Endpoint] = {}
        self.messages_processed = 0
        self._progress = self.sim.process(self._progress_loop(), label=f"{name}-progress")

    # -- endpoint management ---------------------------------------------------

    def _register_endpoint(self, ep: Endpoint) -> None:
        self._endpoints[ep.qp.qp_num] = ep

    def connect(
        self,
        remote_runtime: "UcrRuntime",
        service_id: int,
        timeout_us: Optional[float] = None,
        private_data: Any = None,
    ):
        """Process helper: establish an endpoint to a listener.

        Raises :class:`UcrTimeout` if the handshake exceeds *timeout_us*
        (the data-center requirement: connection attempts must not hang).
        """
        done = self.runtime.cm.connect(
            remote_runtime.hca,
            service_id,
            self.runtime.pd,
            self.cq,
            self.cq,
            private_data=private_data,
        )
        if timeout_us is None:
            timeout_us = self.runtime.params.default_timeout_us
        try:
            qp = yield done.expire_after(timeout_us)
        except Expired:
            # The CM tears the attempt down when the late REP/REJ arrives.
            raise UcrTimeout(
                f"connect to service {service_id} exceeded {timeout_us} µs"
            ) from None
        return Endpoint(self, qp, peer_label=remote_runtime.name)

    # -- the progress engine ---------------------------------------------------------

    def _progress_loop(self):
        params = self.runtime.params
        while True:
            wc: "WorkCompletion" = yield self.cq.wait()
            yield from self.node.cpu_run(params.progress_dispatch_cpu_us)
            self.messages_processed += 1
            try:
                if wc.opcode is Opcode.RECV:
                    yield from self._handle_recv(wc)
                else:
                    yield from self._handle_send_completion(wc)
            except EndpointClosed:
                # Fault isolation (paper §IV-A): one endpoint dying during
                # handler execution must not take the progress engine --
                # and with it every sibling endpoint -- down.  The failed
                # endpoint's own cleanup already ran inside fail().
                continue

    def _handle_send_completion(self, wc: "WorkCompletion"):
        cookie = wc.context
        if not isinstance(cookie, _SendCompletionCookie):
            return
        ep = cookie.endpoint
        if wc.status is not WcStatus.SUCCESS:
            if cookie.kind == "rendezvous-read":
                self._drop_landing(cookie.dest)  # a failed READ scattered nothing
            if wc.status is not WcStatus.WR_FLUSH_ERR:
                ep.fail(f"transport error: {wc.status.value}")
            return
        if cookie.kind == "eager" and cookie.origin_counter is not None:
            # Local completion: the application buffer is reusable.
            cookie.origin_counter.add()
        elif cookie.kind == "onesided-read":
            # A client-issued RDMA READ (one-sided GET path): the data is
            # already scattered into the landing buffer, so the counter
            # wake is all that remains.
            cookie.origin_counter.add()
        elif cookie.kind == "rendezvous-read":
            yield from self._finish_rendezvous(ep, cookie)
        # 'header' and 'internal' completions need no action on success.

    def _handle_recv(self, wc: "WorkCompletion"):
        ep = self._endpoints.get(wc.qp_num)
        buf = wc.context  # the bounce PooledBuffer
        if ep is None or ep.failed:
            if buf is not None:
                buf.release()
            return
        if wc.status is not WcStatus.SUCCESS:
            if buf is not None:
                buf.release()
            if wc.status is not WcStatus.WR_FLUSH_ERR:
                ep.fail(f"receive error: {wc.status.value}")
            return
        wire = wc.app_object
        if isinstance(wire, InternalWire):
            self._handle_internal(ep, wire)
            ep.repost_recv_buffer(buf)
            return
        if not isinstance(wire, AmWire):
            buf.release()
            ep.fail(f"malformed message {type(wire).__name__}")
            return
        if wire.credits_returned:
            ep._grant_credits(wire.credits_returned)
        if wire.is_eager:
            yield from self._handle_eager(ep, wire, buf)
        else:
            yield from self._handle_rendezvous_header(ep, wire, buf)

    def _handle_internal(self, ep: Endpoint, wire: InternalWire) -> None:
        if wire.kind == "credits":
            ep._grant_credits(wire.credits_returned)
            return
        if wire.kind in ("counters", "rendezvous_done"):
            if wire.kind == "rendezvous_done":
                ep.release_staged(wire.seq)
            for cid in wire.counter_ids:
                counter = self.runtime.counter_by_id(cid)
                if counter is not None:
                    counter.add()
            if wire.credits_returned:
                ep._grant_credits(wire.credits_returned)
            return
        ep.fail(f"unknown internal message kind {wire.kind!r}")

    # -- eager path --------------------------------------------------------------------

    def _handle_eager(self, ep: Endpoint, wire: AmWire, buf):
        params = self.runtime.params
        span = (
            tracer.begin("am.deliver", "am", self.sim.now,
                         parent=wire.trace, msg_id=wire.msg_id)
            if tracer.enabled and wire.trace is not None
            else None
        )
        try:
            yield from self.node.cpu_run(params.header_handler_cpu_us)
            entry = self.runtime.handler_for(wire.msg_id)
            dest = None
            if entry.header_handler is not None:
                dest = entry.header_handler(ep, wire.header, wire.data_length)
            data = wire.data or b""
            # Copy off the bounce buffer into the destination (or keep the
            # runtime-temp bytes when the handler named no destination).
            if data:
                yield from self.node.memcpy(len(data))
            if dest is not None:
                mr, offset, _abandon = self._resolve_dest(dest)
                mr.write(offset, data)
            ep.repost_recv_buffer(buf)
            if not wire.completion_counter_id:
                ep.note_peer_consumed_credit()  # else its `counters` reply carries it
            yield from self._complete_delivery(ep, wire, data, entry)
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)

    # -- rendezvous path ------------------------------------------------------------------

    def _handle_rendezvous_header(self, ep: Endpoint, wire: AmWire, buf):
        params = self.runtime.params
        span = (
            tracer.begin("am.rdv_header", "am", self.sim.now,
                         parent=wire.trace, msg_id=wire.msg_id)
            if tracer.enabled and wire.trace is not None
            else None
        )
        try:
            yield from self.node.cpu_run(params.header_handler_cpu_us)
            entry = self.runtime.handler_for(wire.msg_id)
            dest = None
            if entry.header_handler is not None:
                dest = entry.header_handler(ep, wire.header, wire.data_length)
            # Header consumed: free the bounce slot.  The AM's credit rides
            # its rendezvous_done.
            ep.repost_recv_buffer(buf)
            self._post_rendezvous_read(ep, wire, dest)
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)

    def _post_rendezvous_read(self, ep: Endpoint, wire: AmWire, dest) -> None:
        """Post the RDMA READ that pulls *wire*'s data into *dest*, or into
        a staging buffer that the completion cookie then owns."""
        staging = None
        if dest is None:
            staging = self.runtime.rendezvous_pool_for(wire.data_length).get()
            dest = (staging.mr, 0)
        landing = (*self._resolve_dest(dest), staging)
        try:
            assert wire.rdma is not None
            cookie = _SendCompletionCookie(
                kind="rendezvous-read", endpoint=ep, wire=wire, dest=landing
            )
            read_wr = SendWR(
                opcode=Opcode.RDMA_READ,
                sge=Sge(landing[0], landing[1], wire.rdma.length),
                remote_rkey=wire.rdma.rkey,
                remote_offset=wire.rdma.offset,
                context=cookie,
                trace=wire.trace if tracer.enabled else None,
            )
            ep._post(read_wr)
        except BaseException:
            # The READ never went out, so no completion will reach
            # _finish_rendezvous or the completion handler.
            self._drop_landing(landing)
            raise

    @staticmethod
    def _drop_landing(landing) -> None:
        """A READ that failed or was never posted gives back its landing
        place, whoever named it: staging buffer or handler reservation."""
        _mr, _offset, abandon, staging = landing
        if abandon is not None:
            abandon()
        if staging is not None:
            staging.release()

    def _finish_rendezvous(self, ep: Endpoint, cookie: _SendCompletionCookie):
        wire = cookie.wire
        assert wire is not None and wire.rdma is not None
        mr, offset, _abandon, staging = cookie.dest
        data = mr.read(offset, wire.rdma.length)
        entry = self.runtime.handler_for(wire.msg_id)
        span = (
            tracer.begin("am.deliver", "am", self.sim.now,
                         parent=wire.trace, msg_id=wire.msg_id, rendezvous=True)
            if tracer.enabled and wire.trace is not None
            else None
        )
        try:
            yield from self._complete_delivery(ep, wire, data, entry)
        finally:
            if staging is not None:
                staging.release()
            if tracer.enabled:
                tracer.end(span, self.sim.now)
        # Tell the origin its staging buffer is free (+ any counters).
        counter_ids = []
        if wire.origin_counter_id:
            counter_ids.append(wire.origin_counter_id)
        if wire.completion_counter_id:
            counter_ids.append(wire.completion_counter_id)
        ep.send_control_reply("rendezvous_done", tuple(counter_ids), seq=wire.seq)

    # -- shared tail --------------------------------------------------------------------

    def _complete_delivery(self, ep: Endpoint, wire: AmWire, data: bytes, entry):
        params = self.runtime.params
        if entry.completion_handler is not None:
            yield from self.node.cpu_run(params.completion_dispatch_cpu_us)
            yield from entry.completion_handler(ep, wire.header, data)
        if wire.target_counter_id:
            counter = self.runtime.counter_by_id(wire.target_counter_id)
            if counter is not None:
                counter.add()
        # Eager messages with a completion counter need the extra internal
        # message (rendezvous folds it into rendezvous_done).
        if wire.is_eager and wire.completion_counter_id:
            ep.send_control_reply("counters", (wire.completion_counter_id,))

    @staticmethod
    def _resolve_dest(dest) -> tuple[Any, int, Any]:
        """A header handler's destination as ``(mr, offset, abandon)``."""
        return dest if len(dest) == 3 else (*dest, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcrContext {self.runtime.name}/{self.name} eps={len(self._endpoints)}>"
