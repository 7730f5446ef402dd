"""NIC and frame transfer model.

A :class:`Nic` is one port on one node attached to one network.  Its
transmit side is a capacity-1 resource -- frames queued for transmission
serialize, which is what creates bandwidth contention when a memcached
server answers many clients at once.  The receive side charges a small
per-frame processing cost on a capacity-1 resource, which models incast
pressure at the server's port without double-counting serialization.

A frame's end-to-end latency is::

    tx queueing + serialization + propagation + switch + rx processing

Payloads ride along as opaque Python objects; the protocol stacks above
decide what a frame means (an Ethernet packet, an IB message, an RDMA read
request...).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim import Event, Process, Resource, Timeout
from repro.sim.trace import Counter
from repro.telemetry import tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.params import LinkParams
    from repro.fabric.topology import Node
    from repro.sim import Simulator

_frame_ids = itertools.count(1)


class Frame:
    """One unit of transmission on the wire."""

    __slots__ = ("src", "dst", "nbytes", "payload", "frame_id", "sent_at", "delivered_at")

    def __init__(self, src: "Nic", dst: "Nic", nbytes: int, payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.frame_id = next(_frame_ids)
        self.sent_at = 0.0
        self.delivered_at = 0.0

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
        self.frames_sent = Counter(sim, f"{name}.frames_sent")
        self.bytes_sent = Counter(sim, f"{name}.bytes_sent")
        self.frames_received = Counter(sim, f"{name}.frames_received")

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

    def send_frame(self, dst: "Nic", nbytes: int, payload: Any) -> Event:
        """Transmit one frame to *dst*; the event fires at delivery.

        The returned event is the transfer process itself: its value is
        the :class:`Frame`, and it fails if *dst* has no rx handler.  The
        caller does not need to wait on it -- frames in flight progress on
        their own -- but stacks that implement back-to-back segmentation
        (TCP) wait for transmit-side completion via
        :meth:`send_frame_tx_done`.
        """
        return self._launch(dst, nbytes, payload, False)[1]

    def send_frame_tx_done(self, dst: "Nic", nbytes: int, payload: Any) -> tuple[Event, Event]:
        """Like :meth:`send_frame` but also returns a transmit-done event.

        Returns ``(tx_done, delivered)``.  ``tx_done`` fires when the local
        wire is free again (the next segment may start); ``delivered``
        fires at the receiver.
        """
        return self._launch(dst, nbytes, payload, True)

    # -- internals -----------------------------------------------------------

    def _launch(
        self, dst: "Nic", nbytes: int, payload: Any, want_tx_done: bool
    ) -> tuple[Optional[Event], Process]:
        """Validate, build the :class:`Frame` and start its transfer."""
        if nbytes < 0:
            raise ValueError(f"negative frame size: {nbytes}")
        if dst is self:
            raise ValueError(f"{self.name}: loopback frames are not modeled")
        if dst.params.name != self.params.name:
            raise ValueError(
                f"cannot bridge networks: {self.params.name} -> {dst.params.name}"
            )
        frame = Frame(self, dst, nbytes, payload)
        sim = self.sim
        tx_done = Event(sim, ("txdone(%s)", frame.frame_id)) if want_tx_done else None
        return tx_done, Process(sim, self._transfer(frame, tx_done), "xfer")

    def _transfer(self, frame: Frame, tx_done: Optional[Event]):
        sim = self.sim
        dst = frame.dst
        nbytes = frame.nbytes
        frame.sent_at = sim.now
        span = None
        if tracer.enabled:
            rider = getattr(frame.payload, "trace", None)
            if rider is not None:
                span = tracer.begin(
                    "fabric.xfer", "fabric", sim.now, parent=rider,
                    nbytes=nbytes, src=self.name, dst=dst.name,
                )

        # Serialize on the local wire.
        tx = self.tx
        held = tx.hold(self.params.serialization_time(nbytes))
        try:
            yield held
        finally:
            tx.release(held)
        self.frames_sent.value += 1
        self.bytes_sent.value += nbytes
        if tx_done is not None:
            tx_done.succeed()

        # Fly through the switch (``tx.stretch`` is :attr:`slowdown`).
        yield Timeout(sim, self.params.one_way_delay() * tx.stretch)

        # Receive-side per-frame processing (incast pressure point).
        rx = dst.rx
        held = rx.hold(dst.params.rx_frame_process_us)
        try:
            yield held
        finally:
            rx.release(held)

        frame.delivered_at = sim.now
        dst.frames_received.value += 1
        if tracer.enabled:
            tracer.end(span, sim.now)
        handler = dst.rx_handler
        if handler is None:
            raise RuntimeError(f"{dst.name}: no rx handler installed")
        handler(frame)
        return frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic {self.name} ({self.params.name})>"
