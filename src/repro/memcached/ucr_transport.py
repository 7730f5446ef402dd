"""The UCR client transport: active messages over RC endpoints.

:class:`UcrTransport` sends each command as one active message (the
structs of :mod:`repro.memcached.protocol_ucr`) and blocks on a client
counter **with a timeout**, declaring the server dead when it trips (the
paper's §IV-A failure model).  It offers the transport contract stated
in :mod:`repro.memcached.client`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import EndpointClosed, UcrTimeout
from repro.memcached import protocol_ucr as ucrp
from repro.memcached.client import _OP_ERRORS, DEFAULT_TIMEOUT_US, ClientCosts
from repro.memcached.command import MEMCACHED_PORT, Command
from repro.memcached.errors import ServerDownError
from repro.telemetry import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import UcrContext
    from repro.core.runtime import UcrRuntime

class UcrTransport:
    """Client side of the active-message protocol."""

    def __init__(
        self,
        context: "UcrContext",
        costs: ClientCosts = ClientCosts(),
        timeout_us: float = DEFAULT_TIMEOUT_US,
    ) -> None:
        self.context = context
        self.runtime = context.runtime
        self.sim = context.sim
        self.node = context.node
        self.costs = costs
        self.timeout_us = timeout_us
        #: Response counters ("counter C" of paper §V-B/C), one checked
        #: out per request in flight and returned after it.
        self._counter_pool: list = []
        self._endpoints: dict[str, "object"] = {}
        self._runtimes: dict[str, "UcrRuntime"] = {}
        #: In-flight request table: request_id -> (header, payload).
        self._pending: dict[int, tuple[ucrp.McResponse, bytes]] = {}
        self._next_request_id = 1
        self._register_response_handler()

    def _checkout_counter(self):
        if self._counter_pool:
            return self._counter_pool.pop()
        return self.runtime.create_counter("mc-client-extra")

    def _checkin_counter(self, counter) -> None:
        self._counter_pool.append(counter)

    def _server_down(self, server: str, ep, exc) -> ServerDownError:
        """Corrective action when a wait on *ep* times out or finds it
        dead (paper §V-B): fail it and forget it, so failover takes over.
        Returns the error to raise."""
        if not ep.failed:
            ep.fail(str(exc))
        self._endpoints.pop(server, None)
        return ServerDownError(f"{server}: {exc}")

    def add_server(self, name: str, runtime: "UcrRuntime") -> None:
        """Declare how to reach *name* (its UCR runtime)."""
        self._runtimes[name] = runtime

    def _register_response_handler(self) -> None:
        try:
            self.runtime.register_handler(
                ucrp.MSG_MC_RESPONSE, None, _client_response_handler
            )
        except ValueError:
            pass  # another client on this runtime already registered it

    def endpoint(self, server: str):
        """Process helper: the (lazily established) endpoint to *server*."""
        ep = self._endpoints.get(server)
        if ep is not None and not ep.failed:
            return ep
        runtime = self._runtimes.get(server)
        if runtime is None:
            raise ServerDownError(f"unknown UCR server {server!r}")
        try:
            ep = yield from self.context.connect(
                runtime, MEMCACHED_PORT, timeout_us=self.timeout_us
            )
        except (UcrTimeout, ConnectionRefusedError) as exc:
            # A crashed server stops listening: surface the refused (or
            # hung) handshake the same way as a dead connection so the
            # failover layer sees one error family.
            raise ServerDownError(f"{server}: {exc}") from exc
        ep._mc_response_sink = self._deliver_response
        self._endpoints[server] = ep
        return ep

    def _deliver_response(self, header: ucrp.McResponse, data: bytes) -> None:
        self._pending[header.request_id] = (header, data)

    # -- the command path -------------------------------------------------------

    def execute(self, server: str, cmd: Command, trace=None):
        """Process helper: one command, one reply."""
        request, data = ucrp.command_to_request(cmd, trace)
        header, payload = yield from self.roundtrip(server, request, data)
        return ucrp.response_to_reply(cmd, header, payload)

    def execute_many(self, server: str, commands: list, window: int, trace=None):
        """Process helper: issue *commands* with up to *window* in flight.

        A pool of ``window`` worker processes pulls commands in order,
        so up to ``window`` AMs are outstanding on the endpoint at once;
        responses route back by echoed request id (the client face of
        the AM layer's per-message seq matching).  Returns one entry per
        command: its :class:`Reply` or the exception that felled it.
        """
        if len(commands) == 1:  # one command needs no worker process
            try:
                return [(yield from self.execute(server, commands[0], trace=trace))]
            except _OP_ERRORS as exc:
                return [exc]
        try:
            # Establish the endpoint once, before fanning out: concurrent
            # first-contact connects would race and duplicate endpoints.
            yield from self.endpoint(server)
        except ServerDownError as exc:
            return [exc] * len(commands)
        results: list = [None] * len(commands)
        cursor = {"next": 0}

        def worker():
            while True:
                i = cursor["next"]
                if i >= len(commands):
                    return
                cursor["next"] = i + 1
                try:
                    results[i] = yield from self.execute(
                        server, commands[i], trace=trace
                    )
                except _OP_ERRORS as exc:
                    results[i] = exc

        procs = [
            self.sim.process(worker(), label="mc-pipeline")
            for _ in range(min(window, len(commands)))
        ]
        for proc in procs:
            yield proc
        return results

    def roundtrip(self, server: str, request: ucrp.McRequest, data: bytes = b""):
        """Process helper: one request/response over active messages.

        Re-entrant: the server echoes ``request_id`` so concurrent calls
        (a parallel mget fan-out, a pipelined window) route their
        responses independently.
        """
        yield from self.node.cpu_run(self.node.host.cpu_time(self.costs.build_ucr_us))
        span = (
            tracer.begin("am.roundtrip", "am", self.sim.now,
                         parent=request.trace, server=server, op=request.op)
            if tracer.enabled and request.trace is not None
            else None
        )
        if span is not None:
            # Downstream layers (WQE post, fabric, remote handler) parent
            # their spans under the round-trip, not the client root.
            request.trace = span.ctx
        ep = yield from self.endpoint(server)
        counter = self._checkout_counter()
        request.counter_id = counter.counter_id
        request.request_id = self._next_request_id
        self._next_request_id += 1
        rid = request.request_id
        header_bytes = ucrp.MC_REQUEST_HEADER_BYTES + sum(len(k) for k in request.keys)
        try:
            yield from ep.send_message(
                ucrp.MSG_MC_REQUEST,
                header=request,
                header_bytes=header_bytes,
                data=data,
                # Value buffers live in the library's registration cache
                # (MVAPICH lineage), so large sets go zero-copy.
                registered_hint=True,
            )
            # Block on counter C with a timeout (paper §V-B).
            yield from counter.wait_increment(timeout_us=self.timeout_us)
        except (UcrTimeout, EndpointClosed) as exc:
            raise self._server_down(server, ep, exc) from exc
        finally:
            entry = self._pending.pop(rid, None)
            self._checkin_counter(counter)
            if tracer.enabled:
                tracer.end(span, self.sim.now)
        yield from self.node.cpu_run(self.node.host.cpu_time(self.costs.parse_ucr_us))
        assert entry is not None, "counter fired before response landed"
        return entry


def _client_response_handler(ep, header: ucrp.McResponse, data: bytes):
    """Runtime-registered completion handler: route to the owning client."""
    sink = getattr(ep, "_mc_response_sink", None)
    if sink is not None:
        sink(header, data)
    if False:  # pragma: no cover - generator protocol
        yield
