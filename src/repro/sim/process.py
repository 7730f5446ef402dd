"""Generator-backed processes.

A *process* is a plain Python generator that yields :class:`Event` objects.
Yielding suspends the process until the event is processed; the event's
value becomes the result of the ``yield`` expression (or its exception is
raised at the yield point).  A process is itself an :class:`Event` that
fires with the generator's return value, so processes can wait on each
other -- this is how, e.g., a memcached client op waits for the UCR
progress engine to deliver a response.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PENDING, PROCESSED, TRIGGERED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The UCR timeout machinery uses interrupts to cancel in-flight waits when
    a client declares a server dead.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "_target", "label")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, label: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {type(generator).__name__}")
        self.sim = sim
        self._state = PENDING
        self._value = None
        self._exception = None
        self.callbacks = []
        self.defused = False
        self._generator = generator
        #: The event this process is currently waiting on (None when running).
        self._target: Optional[Event] = None
        self.label = label
        # Kick off at the current simulated time.
        self._resume_on(Event(sim, "process-init"))

    @property
    def name(self) -> str:
        return self.label or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event currently being waited on (for introspection/tests)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait point.

        Interrupting a finished process is an error; interrupting a process
        that is waiting removes it from the waited event's callbacks so the
        event's eventual firing does not resume it twice.
        """
        if self._state is not PENDING:
            raise RuntimeError(f"{self!r} has already terminated")
        interrupt_ev = Event(self.sim, "interrupt")
        interrupt_ev.callbacks.append(self._deliver_interrupt)
        interrupt_ev.succeed(cause)

    def _deliver_interrupt(self, event: Event) -> None:
        if self._state is not PENDING:  # process ended before the interrupt landed
            return
        if self._target is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # already detached (event fired this step)
                pass
            self._target = None
        self._resume_slow(None, Interrupt(event._value))

    # -- engine driving ----------------------------------------------------

    def _resume_on(self, event: Event) -> None:
        """Schedule *event*, already carrying its outcome, to fire now and
        resume this process (process start, and the bridge below)."""
        event.callbacks.append(self._resume)
        event._state = TRIGGERED
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, seq, event))

    def _resume(self, event: Event) -> None:
        """Callback attached to whatever event the process last yielded.

        The success path is spelled out: send the value, and if what comes
        back is a pending event of this simulator, wait on it.  Anything
        else is :meth:`_resume_slow`'s.
        """
        self._target = None
        if event._exception is not None:
            event.defused = True
            self._resume_slow(None, event._exception)
            return
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            sim._active_process = prev
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = prev
            self.fail(exc)
            return
        sim._active_process = prev
        if isinstance(target, Event) and target.sim is sim and target._state is not PROCESSED:
            target.callbacks.append(self._resume)
            self._target = target
        else:
            self._resume_slow(target, None)

    def _resume_slow(self, target: Any, exc: Optional[BaseException]) -> None:
        """Everything off the straight line.

        Throws *exc* (a failed event's exception, an interrupt) into the
        generator to learn what it yields next, or starts from the *target*
        it already yielded; rejects misuse by raising inside the generator,
        so tracebacks point at it; and bridges an already-processed target.
        """
        sim = self.sim
        while True:
            if exc is not None:
                prev = sim._active_process
                sim._active_process = self
                try:
                    target = self._generator.throw(exc)
                except StopIteration as stop:
                    sim._active_process = prev
                    self.succeed(stop.value)
                    return
                except BaseException as raised:
                    sim._active_process = prev
                    self.fail(raised)
                    return
                sim._active_process = prev
            if not isinstance(target, Event):
                exc = TypeError(
                    f"process {self.name!r} yielded {target!r}; processes may "
                    "only yield Event instances"
                )
            elif target.sim is not sim:
                exc = ValueError("yielded event belongs to a different simulator")
            else:
                break
        if target._state is PROCESSED:
            # Already done: resume immediately (same simulated instant) via
            # a zero-delay bridge so stack depth stays bounded.
            if target._exception is not None:
                target.defused = True
            bridge = Event(sim, "bridge")
            bridge._value = target._value
            bridge._exception = target._exception
            self._resume_on(bridge)
            self._target = bridge
        else:
            target.callbacks.append(self._resume)
            self._target = target
