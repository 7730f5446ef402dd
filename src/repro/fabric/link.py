"""NIC and frame transfer model.

A :class:`Nic` is one port on one node attached to one network.  Its
transmit side is a capacity-1 resource -- frames queued for transmission
serialize, which is what creates bandwidth contention when a memcached
server answers many clients at once.  The receive side charges a small
per-frame processing cost on a capacity-1 resource, which models incast
pressure at the server's port without double-counting serialization.

A frame's end-to-end latency is::

    tx queueing + serialization + propagation + switch + rx processing

and a frame in flight is exactly those three events -- the tx hold, the
fly ``Timeout``, the rx hold -- each one's firing starting the next by a
callback; there is no process per frame.

Payloads ride along as opaque Python objects; the protocol stacks above
decide what a frame means (an Ethernet packet, an IB message, an RDMA read
request...).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim import Event, Resource, Timeout
from repro.sim.trace import Counter
from repro.telemetry import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.params import LinkParams
    from repro.fabric.topology import Node
    from repro.sim import Simulator
    from repro.sim.resources import Request

_frame_ids = itertools.count(1)


class Frame:
    """One unit of transmission on the wire, and its way across it.

    :meth:`Nic.send_frame` returns the frame already queued on the sender's
    wire.  :attr:`tx_done` is that transmit hold itself: it fires when the
    local wire is free again, which is all a stack that segments back to
    back (TCP) waits for.  :attr:`delivered` is for a caller that wants to
    know when the frame has landed; nobody has to -- frames in flight
    progress on their own.
    """

    __slots__ = ("src", "dst", "nbytes", "payload", "frame_id", "sent_at", "delivered_at",
                 "tx_done", "_delivered", "_landed", "_span")

    def __init__(self, src: "Nic", dst: "Nic", nbytes: int, payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.frame_id = next(_frame_ids)
        self.sent_at = src.sim.now
        self.delivered_at = 0.0
        #: The transmit hold (a :class:`~repro.sim.resources.Request`).
        self.tx_done: Optional[Event] = None
        self._delivered: Optional[Event] = None
        self._landed = False
        self._span = None

    @property
    def delivered(self) -> Event:
        """Fires at the receiver with this frame as its value; fails if the
        receiver has no rx handler or the handler raises.

        The event is made when somebody asks.  Asked for while the frame is
        in flight it is triggered at delivery and goes through the heap
        like any event with a waiter; asked for after the frame landed its
        outcome is known, so it is born processed; never asked for, a
        delivery schedules nothing.
        """
        event = self._delivered
        if event is None:
            event = Event(self.src.sim, ("delivered(%s)", self.frame_id))
            if self._landed:
                event._settle(self)
            else:
                self._delivered = event
        return event

    # -- the three events of a frame; each callback starts the next --------------

    def _sent(self, held: "Request") -> None:
        """The tx hold fired: the wire is free, the frame flies."""
        src = self.src
        tx = src.tx
        tx.release(held)
        src.frames_sent.value += 1
        src.bytes_sent.value += self.nbytes
        # Through the switch (``tx.stretch`` is :attr:`Nic.slowdown`).
        fly_us = src.params.one_way_delay() * tx.stretch
        Timeout(src.sim, fly_us).callbacks.append(self._arrived)

    def _arrived(self, _fly: Event) -> None:
        """At the receiving port: per-frame processing (incast pressure point)."""
        dst = self.dst
        dst.rx.hold(dst.params.rx_frame_process_us).callbacks.append(self._received)

    def _received(self, held: "Request") -> None:
        """The rx hold fired: stamp, count, hand the frame to the stack."""
        dst = self.dst
        dst.rx.release(held)
        self.delivered_at = now = dst.sim.now
        dst.frames_received.value += 1
        if tracer.enabled:
            tracer.end(self._span, now)
        try:
            handler = dst.rx_handler
            if handler is None:
                raise RuntimeError(f"{dst.name}: no rx handler installed")
            handler(self)
        except Exception as exc:
            # A failed event, not a raw exception out of the loop: a waiter
            # sees it raised at its yield, and with no waiter the engine
            # escalates it as ``UnhandledFailure``.
            self.delivered.fail(exc)
        else:
            self._landed = True
            event = self._delivered
            if event is not None:
                # The event carries the frame from here on; a frame that kept
                # pointing back at it would be a cycle only the collector frees.
                self._delivered = None
                event.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame #{self.frame_id} {self.src.name}->{self.dst.name} "
            f"{self.nbytes}B>"
        )


class Nic:
    """One network port: a serializing transmitter and a receive handler.

    Parameters
    ----------
    sim:
        Owning simulator.
    node:
        The host this NIC is plugged into.
    params:
        Link-generation characteristics (:class:`LinkParams`).
    name:
        Debug label, conventionally ``"<node>:<network>"``.
    """

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        params: "LinkParams",
        name: str = "nic",
    ) -> None:
        self.sim = sim
        self.node = node
        self.params = params
        self.name = name
        self.tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self.rx = Resource(sim, capacity=1, name=f"{name}.rx")
        #: Installed by the protocol stack bound to this NIC; called with
        #: each delivered frame.  Exactly one stack owns a NIC.
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        #: The owning protocol stack object (Hca or SocketStack); set by
        #: the owner at bind time.  Stable even when probes wrap
        #: ``rx_handler`` for instrumentation.
        self.owner: Any = None
        self.frames_sent = Counter()
        self.bytes_sent = Counter()
        self.frames_received = Counter()

    @property
    def slowdown(self) -> float:
        """Chaos hook (repro.chaos): multiplies this port's serialization
        and propagation times.  1.0 is nominal; a LinkDegrade fault raises
        it for a window (cable renegotiation, congested uplink)."""
        return self.tx.stretch

    @slowdown.setter
    def slowdown(self, factor: float) -> None:
        self.tx.stretch = factor

    def install_rx_handler(self, handler: Callable[[Frame], None]) -> None:
        """Bind the owning protocol stack's receive entry point."""
        if self.rx_handler is not None:
            raise RuntimeError(f"{self.name}: rx handler already installed")
        self.rx_handler = handler

    def send_frame(self, dst: "Nic", nbytes: int, payload: Any) -> Frame:
        """Transmit one frame to *dst*; the one way onto the wire.

        Returns the :class:`Frame`, already holding (or queued for) this
        port's transmitter.  Wait on ``frame.tx_done`` for the local wire
        to be free again, on ``frame.delivered`` for the receiver to have
        it, or on neither.  ``slowdown`` stretches the serialization as of
        the moment the frame gets the wire and the flight as of the moment
        it leaves it.
        """
        if nbytes < 0:
            raise ValueError(f"negative frame size: {nbytes}")
        if dst is self:
            raise ValueError(f"{self.name}: loopback frames are not modeled")
        if dst.params.name != self.params.name:
            raise ValueError(
                f"cannot bridge networks: {self.params.name} -> {dst.params.name}"
            )
        frame = Frame(self, dst, nbytes, payload)
        if tracer.enabled:
            rider = getattr(payload, "trace", None)
            if rider is not None:
                frame._span = tracer.begin(
                    "fabric.xfer", "fabric", frame.sent_at, parent=rider,
                    nbytes=nbytes, src=self.name, dst=dst.name,
                )
        # Serialize on the local wire.
        frame.tx_done = held = self.tx.hold(self.params.serialization_time(nbytes))
        held.callbacks.append(frame._sent)
        return frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic {self.name} ({self.params.name})>"
