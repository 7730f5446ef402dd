"""Generator-backed processes.

A *process* is a plain Python generator that yields :class:`Event` objects.
Yielding suspends the process until the event is processed; the event's
value becomes the result of the ``yield`` expression (or its exception is
raised at the yield point).  Yielding an event that is *already* processed
does not suspend at all: the process continues in the same engine step,
with no event in between.  A process is itself an :class:`Event` that fires
with the generator's return value, so processes can wait on each other --
this is how, e.g., a memcached client op waits for the UCR progress engine
to deliver a response.
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
        init = Event(sim, "process-init")
        init.callbacks.append(self._resume)
        init._state = TRIGGERED
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, seq, init))

    @property
    def name(self) -> str:
        return self.label or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state is PENDING

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

    def _resume(self, event: Event) -> None:
        """Callback attached to whatever event the process last yielded.

        The success path is spelled out: send the value; while what comes
        back is an event of this simulator that was already processed
        successfully (a grant on the spot, an accepted put, a ready get),
        send its value too -- a loop, so stack depth stays bounded; once it
        is a pending event, wait on it.  The rest is :meth:`_resume_slow`'s.
        """
        self._target = None
        if event._exception is not None:
            event.defused = True
            self._resume_slow(None, event._exception)
            return
        sim = self.sim
        send = self._generator.send
        value = event._value
        prev = sim._active_process
        sim._active_process = self
        try:
            while True:
                target = send(value)
                if not isinstance(target, Event) or target.sim is not sim:
                    break
                if target._state is not PROCESSED:
                    target.callbacks.append(self._resume)
                    self._target = target
                    sim._active_process = prev
                    return
                if target._exception is not None:
                    break
                value = target._value
        except StopIteration as stop:
            sim._active_process = prev
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = prev
            self.fail(exc)
            return
        sim._active_process = prev
        self._resume_slow(target, None)

    def _resume_slow(self, target: Any, exc: Optional[BaseException]) -> None:
        """Everything off the straight line, as one loop.

        Throws *exc* (a failed event's exception, an interrupt) into the
        generator to learn what it yields next, or starts from the *target*
        it already yielded.  Misuse is rejected by raising inside the
        generator, so tracebacks point at it; a processed target is thrown
        in if it failed and sent if it succeeded; the loop ends when the
        generator does or yields something pending.
        """
        sim = self.sim
        generator = self._generator
        step, arg = (None, None) if exc is None else (generator.throw, exc)
        while True:
            if step is not None:
                prev = sim._active_process
                sim._active_process = self
                try:
                    target = step(arg)
                except StopIteration as stop:
                    sim._active_process = prev
                    self.succeed(stop.value)
                    return
                except BaseException as raised:
                    sim._active_process = prev
                    self.fail(raised)
                    return
                sim._active_process = prev
            step = generator.throw
            if not isinstance(target, Event):
                arg = TypeError(
                    f"process {self.name!r} yielded {target!r}; processes may "
                    "only yield Event instances"
                )
            elif target.sim is not sim:
                arg = ValueError("yielded event belongs to a different simulator")
            elif target._state is not PROCESSED:
                target.callbacks.append(self._resume)
                self._target = target
                return
            elif target._exception is not None:
                target.defused = True
                arg = target._exception
            else:
                step, arg = generator.send, target._value
