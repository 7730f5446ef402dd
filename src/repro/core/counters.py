"""Active message counters (paper §IV-C).

Counters are monotonically increasing objects used to track message
progress.  Three roles exist per message, all optional:

``origin_counter``
    Incremented at the origin when the message's buffers may be reused.
``target_counter_id``
    Incremented at the target when data has arrived and the completion
    handler has run.  Named across the wire by its small integer id.
``completion_counter``
    Incremented at the origin when the *target's* completion handler has
    finished (requires an internal message unless suppressed by passing
    ``None``).

The synchronization primitive is :meth:`UcrCounter.wait_for` -- a wait
that carries its deadline (``Event.expire_after``), because in the
data-center model a hung peer must not hang the waiter (paper §IV-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.errors import UcrTimeout
from repro.sim import Event, Expired

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


class UcrCounter:
    """A monotone counter with threshold waiting.

    Created via :meth:`repro.core.runtime.UcrRuntime.create_counter`, which
    assigns the wire-visible id.
    """

    __slots__ = ("sim", "counter_id", "name", "_value", "_waiters")

    def __init__(self, sim: "Simulator", counter_id: int, name: str = "") -> None:
        self.sim = sim
        self.counter_id = counter_id
        self.name = name or f"cntr{counter_id}"
        self._value = 0
        #: (threshold, event) pairs waiting for the counter to reach a value.
        self._waiters: list[tuple[int, Event]] = []

    @property
    def value(self) -> int:
        return self._value

    def add(self, amount: int = 1) -> None:
        """Increment; wakes every waiter whose threshold is now met."""
        if amount < 1:
            raise ValueError("counters only move forward")
        self._value += amount
        still_waiting = []
        for threshold, event in self._waiters:
            if self._value >= threshold:
                # An expired waiter is withdrawn when its process resumes,
                # which may be later in this same instant.
                if not event.triggered:
                    event.succeed(self._value)
            else:
                still_waiting.append((threshold, event))
        self._waiters = still_waiting

    def reached(self, threshold: int) -> Event:
        """Event firing when the counter reaches *threshold* (maybe already)."""
        ev = Event(self.sim, ("%s>= %s", self.name, threshold))
        if self._value >= threshold:
            ev.succeed(self._value)
        else:
            self._waiters.append((threshold, ev))
        return ev

    def wait_for(self, threshold: int, timeout_us: Optional[float] = None):
        """Process helper: block until value >= threshold or raise UcrTimeout.

        Usage::

            yield from counter.wait_for(1, timeout_us=50_000)
        """
        target = self.reached(threshold)
        if timeout_us is not None:
            target.expire_after(timeout_us)
        try:
            yield target
        except Expired:
            # Withdraw the stale waiter so a late increment doesn't leak
            # an event nobody owns.
            self._waiters = [(t, e) for (t, e) in self._waiters if e is not target]
            raise UcrTimeout(
                f"{self.name}: still {self._value} < {threshold} after {timeout_us} µs"
            ) from None
        return self._value

    def wait_increment(self, timeout_us: Optional[float] = None):
        """Process helper: wait for the *next* increment from here."""
        return self.wait_for(self._value + 1, timeout_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcrCounter {self.name}={self._value} waiters={len(self._waiters)}>"


class SanitizerCounters:
    """Tallies of what the runtime sanitizers observed (see :mod:`repro.sanitize`).

    One instance lives on each :class:`~repro.sanitize.SanitizerConfig`;
    record-mode sanitizers bump these instead of raising, so a suite-wide
    fixture can assert on them after the fact.
    """

    __slots__ = (
        "buffer_gets",
        "buffer_puts",
        "use_after_release",
        "double_release",
        "write_after_free",
        "cq_pushes",
        "cq_overflows",
        "bad_state_posts",
        "events_digested",
        "slab_checks",
        "slab_violations",
        "export_checks",
        "export_violations",
    )

    def __init__(self) -> None:
        self.buffer_gets = 0
        self.buffer_puts = 0
        self.use_after_release = 0
        self.double_release = 0
        self.write_after_free = 0
        self.cq_pushes = 0
        self.cq_overflows = 0
        self.bad_state_posts = 0
        self.events_digested = 0
        self.slab_checks = 0
        self.slab_violations = 0
        self.export_checks = 0
        self.export_violations = 0

    def snapshot(self) -> dict:
        """Name -> value mapping (stable order, for reports and tests)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = {k: v for k, v in self.snapshot().items() if v}
        return f"<SanitizerCounters {hot or 'idle'}>"
