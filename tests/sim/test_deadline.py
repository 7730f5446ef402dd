"""Unit tests for ``Event.expire_after``: a wait that carries its deadline."""

import pytest

from repro.sim import Expired, Simulator, Timeout
from repro.sim.engine import UnhandledFailure


def _produce(sim, event, value, delay):
    """Succeed *event* after *delay* -- unless its deadline got there first:
    a producer that can be late checks ``triggered``."""

    def fire(_timer):
        if not event.triggered:
            event.succeed(value)

    sim.timeout(delay).callbacks.append(fire)


def test_event_that_wins_passes_its_value_through():
    sim = Simulator()
    data = sim.event()
    _produce(sim, data, "data", 1.0)

    def proc():
        value = yield data.expire_after(10.0)
        return (sim.now, value)

    p = sim.process(proc())
    sim.run()
    assert p.value == (1.0, "data")


def test_deadline_that_wins_raises_expired():
    """The UCR wait-with-timeout idiom: the same wait, met and missed.  The
    missed one's producer still fires at 500.0, guarded, and is a no-op."""
    sim = Simulator()

    def proc(arrival_delay, deadline):
        data = sim.event()
        _produce(sim, data, "data", arrival_delay)
        try:
            return (yield data.expire_after(deadline)), sim.now
        except Expired as exc:
            return "timed-out", sim.now, exc.args

    p_fast = sim.process(proc(5.0, 50.0))
    p_slow = sim.process(proc(500.0, 50.0))
    sim.run()
    assert p_fast.value == ("data", 5.0)
    assert p_slow.value == ("timed-out", 50.0, (50.0,))
    assert sim.now == 500.0


def test_already_processed_event_does_not_suspend():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("pre")

    def proc():
        yield sim.timeout(5.0)
        before = sim.events_processed
        value = yield ev.expire_after(100.0)
        return (sim.now, value, sim.events_processed - before)

    p = sim.process(proc())
    sim.run(until=20.0)
    assert p.value == (5.0, "pre", 0)


def test_event_that_fails_first_raises_its_own_exception():
    sim = Simulator()
    ev = sim.event()

    def proc():
        try:
            yield ev.expire_after(100.0)
        except KeyError:
            return "failed-branch"

    p = sim.process(proc())
    ev.fail(KeyError("nope"))
    sim.run()  # the deadline passes at 100.0 and changes nothing
    assert p.value == "failed-branch"
    assert sim.now == 100.0


def test_unguarded_late_producer_is_told():
    sim = Simulator()
    ev = sim.event(name="reply")

    def waiter():
        with pytest.raises(Expired):
            yield ev.expire_after(1.0)

    sim.process(waiter())
    sim.run()
    assert ev.triggered and not ev.ok
    with pytest.raises(RuntimeError, match="'reply'.* already triggered"):
        ev.succeed("late")
    with pytest.raises(RuntimeError, match="already triggered"):
        ev.fail(ValueError("late"))


def test_stale_timer_pops_as_a_no_op():
    sim = Simulator()
    ev = sim.event()
    popped = []
    sim.pre_event_hooks.append(lambda s, e: popped.append((s.now, type(e))))

    def proc():
        return (yield ev.expire_after(7.0))

    p = sim.process(proc())
    ev.succeed("won", delay=2.0)
    sim.run()
    assert p.value == "won"
    assert popped[-1] == (7.0, Timeout)  # after the process ended, unheard
    assert ev.ok and ev.value == "won"


def test_expiry_nobody_waits_for_escalates_like_any_failure():
    sim = Simulator()
    sim.event().expire_after(3.0)
    with pytest.raises(UnhandledFailure, match="Expired"):
        sim.run()


def test_negative_delay_is_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative"):
        sim.event().expire_after(-1.0)
