"""Completion queues and work completions.

Polling a CQ is free of kernel involvement (the paper's latency numbers
assume polling, not interrupts); :meth:`CompletionQueue.wait` gives the
event-driven form used by simulation processes -- it costs nothing extra in
simulated time beyond the completion's own generation latency, matching a
tight polling loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.sim import Event
from repro.telemetry import tracer
from repro.verbs.enums import Opcode, WcStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass(slots=True)
class WorkCompletion:
    """One CQE: the result of a posted work request."""

    wr_id: int
    opcode: Opcode
    status: WcStatus
    byte_len: int = 0
    qp_num: int = 0
    context: Any = None
    #: For RECV completions: the bytes placed in the receive buffer (a
    #: convenience mirror; the data is also in the posted MR slice).
    data: Optional[bytes] = None
    #: Structured rider attached by the sender (see SendWR.app_object).
    app_object: Any = None
    timestamp: float = field(default=0.0)

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


class CompletionQueue:
    """FIFO of work completions with poll and event-wait interfaces."""

    __slots__ = ("sim", "depth", "name", "_cqes", "_waiters", "overflowed")

    #: Sanitizer observers notified as ``on_push(cq, wc, dropped)`` for
    #: every deposited completion (see :mod:`repro.sanitize.cq`); shared
    #: by all completion queues, normally empty.
    observers: list = []

    def __init__(self, sim: "Simulator", depth: int = 4096, name: str = "cq") -> None:
        if depth < 1:
            raise ValueError("CQ depth must be >= 1")
        self.sim = sim
        self.depth = depth
        self.name = name
        self._cqes: list[WorkCompletion] = []
        self._waiters: list[Event] = []
        self.overflowed = False

    def __len__(self) -> int:
        return len(self._cqes)

    def push(self, wc: WorkCompletion) -> None:
        """HCA-side: deposit a completion, waking one waiter if present."""
        wc.timestamp = self.sim.now
        if tracer.enabled:
            rider = getattr(wc.app_object, "trace", None)
            if rider is not None:
                tracer.instant(
                    "verbs.cqe", "verbs", self.sim.now, trace=rider,
                    cq=self.name, status=wc.status.value,
                )
        if self._waiters:
            self._waiters.pop(0).succeed(wc)
            for observer in CompletionQueue.observers:
                observer.on_push(self, wc, dropped=False)
            return
        if len(self._cqes) >= self.depth:
            # Real hardware transitions the CQ to error; we record and drop.
            self.overflowed = True
            for observer in CompletionQueue.observers:
                observer.on_push(self, wc, dropped=True)
            return
        self._cqes.append(wc)
        for observer in CompletionQueue.observers:
            observer.on_push(self, wc, dropped=False)

    def poll(self, max_entries: int = 1) -> list[WorkCompletion]:
        """Non-blocking: drain up to *max_entries* completions."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        taken, self._cqes = self._cqes[:max_entries], self._cqes[max_entries:]
        return taken

    def wait(self) -> Event:
        """Event firing with the next completion (immediate if available)."""
        ev = Event(self.sim, ("cq-wait(%s)", self.name))
        if self._cqes:
            ev.succeed(self._cqes.pop(0))
        else:
            self._waiters.append(ev)
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompletionQueue {self.name} cqes={len(self._cqes)} waiters={len(self._waiters)}>"
