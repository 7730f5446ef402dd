"""A deterministic per-event budget for the kernel's hot paths.

Wall-clock gates flake on shared runners; the number of Python-level calls
the kernel makes per processed event does not -- ``sys.setprofile`` counts
them and the count repeats exactly.  Each scenario below is pinned at the
value measured when the fast path landed, plus one call per iteration of
slack for interpreter differences.  A property read, an eager f-string name
helper or a ``super().__init__`` chain creeping back into the kernel costs at
least one call per event and fails here.

Calls per iteration at the commit before the fast path, for the record:
ping-pong 10, ``cpu_run`` 25, one frame 90; with the fast path 4, 11 and 36.
Since born-processed events the *events* per iteration moved too --
``cpu_run`` 2 -> 1 (the uncontended grant is no event), one frame 8 -> 5
(two grants and the separate ``delivered`` event are gone: process start,
three timeouts, process end remain) -- and the calls were 4, 10 and 32.
With ``Resource.hold`` a timed occupancy is one event made by one call pair
(``hold`` + ``Request.__init__``) and ended by ``release``; the
``request()``, the extra trip down the ``yield from`` chain its grant cost
and the ``Timeout`` are gone: events stay 1 and 5, calls were 4, 7 and 28.
Since a frame is three events and no process (the tx hold, the fly
``Timeout`` and the rx hold chained by callbacks; ``process-init`` is gone
and the process end became a ``delivered`` event made only on request) an
awaited frame is 4 events and 22 calls, and a frame nobody waits for at
delivery -- the sockets pump's, which yields the tx hold itself -- is 3
events and 19 calls.  The four-step idiom coming back at ``cpu_run`` costs
3 calls per hold, a process or a helper event creeping back into the frame
path costs an event, and either fails here.  A wait with a deadline that is
met (``Event.expire_after``) is 2 events -- the wake and the stale timer --
and 8 calls; as an ``AnyOf`` over ``[event, timer]`` it was 3 and 18.
"""

import sys

import pytest

from repro.fabric import HOST_WESTMERE, IB_QDR, Network, Node
from repro.sim import Simulator

ITERATIONS = 200


def _python_calls(sim: Simulator) -> int:
    """Run *sim* dry; return how many Python functions (and generator
    resumptions) were entered meanwhile."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    return calls


def _timeout_ping_pong(sim: Simulator) -> None:
    def proc():
        for _ in range(ITERATIONS):
            yield sim.timeout(1.0)

    sim.process(proc())


def _cpu_run_loop(sim: Simulator) -> None:
    node = Node(sim, "n0", HOST_WESTMERE)

    def proc():
        for _ in range(ITERATIONS):
            yield from node.cpu_run(1.0)

    sim.process(proc())


def _frames(sim: Simulator, wait_for: str = "delivered") -> None:
    net = Network(sim, IB_QDR)
    src = net.attach(Node(sim, "n0", HOST_WESTMERE))
    dst = net.attach(Node(sim, "n1", HOST_WESTMERE))
    dst.install_rx_handler(lambda frame: None)

    def proc():
        for _ in range(ITERATIONS):
            yield getattr(src.send_frame(dst, 256, b"x"), wait_for)

    sim.process(proc())


def _frames_tx_done_only(sim: Simulator) -> None:
    """Nobody asks for ``delivered``: the last frame lands after the loop."""
    _frames(sim, wait_for="tx_done")


def _deadline_wait_met(sim: Simulator) -> None:
    """The wake and, a microsecond behind it, the timer nobody hears."""

    def proc():
        for _ in range(ITERATIONS):
            yield sim.event().succeed(delay=1.0).expire_after(2.0)

    sim.process(proc())


@pytest.mark.parametrize(
    "scenario, events_per_iteration, calls_per_iteration",
    [
        (_timeout_ping_pong, 1, 4 + 1),
        (_cpu_run_loop, 1, 7 + 1),
        (_frames, 4, 22 + 1),
        (_frames_tx_done_only, 3, 19 + 1),
        (_deadline_wait_met, 2, 8 + 1),
    ],
    ids=["timeout-ping-pong", "cpu_run", "send_frame", "send_frame-tx_done-only",
         "deadline-wait-met"],
)
def test_calls_per_event_stay_within_budget(
    scenario, events_per_iteration, calls_per_iteration
):
    sim = Simulator()
    scenario(sim)
    # Detach whatever the suite's fixtures hooked on: the budget is the bare kernel's.
    del sim.pre_event_hooks[:]
    calls = _python_calls(sim)
    # Process start and exit, and run() itself, are outside the loop.
    assert sim.events_processed == ITERATIONS * events_per_iteration + 2
    assert calls <= ITERATIONS * calls_per_iteration + 10, (
        f"{calls / sim.events_processed:.2f} calls/event, "
        f"{(calls - 10) / ITERATIONS:.2f} per iteration"
    )
