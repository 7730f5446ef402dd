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


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "label")

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

    # -- engine driving ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Callback attached to whatever event the process last yielded.

        The success path is spelled out: send the value; while what comes
        back is an event of this simulator that was already processed
        successfully (a grant on the spot), send its value too -- a loop,
        so stack depth stays bounded; once it is a pending event, wait on
        it.  The rest is :meth:`_resume_slow`'s.
        """
        if event._exception is not None:
            event.defused = True
            self._resume_slow(None, event._exception)
            return
        sim = self.sim
        send = self._generator.send
        value = event._value
        try:
            while True:
                target = send(value)
                if not isinstance(target, Event) or target.sim is not sim:
                    break
                if target._state is not PROCESSED:
                    target.callbacks.append(self._resume)
                    return
                if target._exception is not None:
                    break
                value = target._value
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._resume_slow(target, None)

    def _resume_slow(self, target: Any, exc: Optional[BaseException]) -> None:
        """Everything off the straight line, as one loop.

        Throws *exc* (a failed event's exception) into the generator to
        learn what it yields next, or starts from the *target* it already
        yielded.  Misuse is rejected by raising inside the generator, so
        tracebacks point at it; a processed target is thrown in if it
        failed and sent if it succeeded; the loop ends when the generator
        does or yields something pending.
        """
        sim = self.sim
        generator = self._generator
        step, arg = (None, None) if exc is None else (generator.throw, exc)
        while True:
            if step is not None:
                try:
                    target = step(arg)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as raised:
                    self.fail(raised)
                    return
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
                return
            elif target._exception is not None:
                target.defused = True
                arg = target._exception
            else:
                step, arg = generator.send, target._value
