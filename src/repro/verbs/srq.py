"""Shared receive queues (SRQ).

The paper's UCR "reuses previous research findings" from the MVAPICH
shared-receive-queue work (its reference [11], Sur et al., IPDPS 2006):
instead of pre-posting a private receive window per connection -- whose
memory grows linearly with the number of peers -- many QPs draw receive
buffers from one shared pool.

Semantics modeled:

- any QP attached to the SRQ consumes its WRs in FIFO order;
- when the SRQ is empty the responder returns RNR and the
  sender retries after a backoff, up to ``rnr_retries`` times -- unlike
  the private-queue model where an empty queue is an immediate error,
  because with a shared pool transient exhaustion is expected and
  recoverable;
- a low-watermark callback lets the owner top the pool up before it
  runs dry (the MVAPICH "limit event" design).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.verbs.wr import RecvWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator

#: Backoff before a sender retries after an RNR NAK (µs).
RNR_RETRY_DELAY_US = 8.0
#: Retries before the send completes with RNR_RETRY_EXC_ERR.
RNR_RETRIES = 6


class SharedReceiveQueue:
    """One pool of receive WRs shared by any number of QPs."""

    __slots__ = (
        "sim",
        "max_wr",
        "low_watermark",
        "name",
        "_queue",
        "on_low",
        "_low_signaled",
        "rnr_events",
    )

    def __init__(
        self,
        sim: "Simulator",
        max_wr: int = 4096,
        low_watermark: int = 16,
        name: str = "srq",
    ) -> None:
        if max_wr < 1 or low_watermark < 0:
            raise ValueError("max_wr >= 1 and low_watermark >= 0 required")
        self.sim = sim
        self.max_wr = max_wr
        self.low_watermark = low_watermark
        self.name = name
        self._queue: Deque[RecvWR] = deque()
        #: Invoked (once per crossing) when depth falls below the
        #: watermark; the owner reposts buffers from here.
        self.on_low: Optional[Callable[["SharedReceiveQueue"], None]] = None
        self._low_signaled = False
        self.rnr_events = 0

    def __len__(self) -> int:
        return len(self._queue)

    def post_recv(self, wr: RecvWR) -> None:
        """Add one landing buffer to the shared pool."""
        if len(self._queue) >= self.max_wr:
            raise RuntimeError(f"{self.name}: SRQ full ({self.max_wr})")
        self._queue.append(wr)
        if len(self._queue) >= self.low_watermark:
            self._low_signaled = False

    def pop(self) -> Optional[RecvWR]:
        """Consume the oldest WR; None when exhausted (caller RNRs)."""
        if not self._queue:
            self.rnr_events += 1
            self._signal_low()
            return None
        wr = self._queue.popleft()
        if len(self._queue) < self.low_watermark:
            self._signal_low()
        return wr

    def _signal_low(self) -> None:
        if self._low_signaled or self.on_low is None:
            return
        self._low_signaled = True
        self.on_low(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedReceiveQueue {self.name} depth={len(self._queue)}>"
