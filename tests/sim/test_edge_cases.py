"""Engine edge cases: limits, hooks, rejected triggers."""

import pytest

from repro.sim import Simulator


def test_run_until_event_with_limit():
    sim = Simulator()

    def slow():
        yield sim.timeout(1000.0)

    p = sim.process(slow())
    with pytest.raises(RuntimeError, match="time limit"):
        sim.run_until_event(p, limit=10.0)


def test_pre_event_hooks_see_every_event():
    sim = Simulator()
    seen = []
    sim.pre_event_hooks.append(lambda s, e: seen.append(s.now))

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    sim.process(proc())
    sim.run()
    assert len(seen) >= 3  # init + two timeouts
    assert seen == sorted(seen)


@pytest.mark.parametrize("outcome", ["value", KeyError("gone")], ids=["succeed", "fail"])
def test_schedule_into_past_rejected(outcome):
    """A rejected trigger leaves the event pending and schedules nothing, so
    waiters are not stranded and a corrected retry goes through."""
    sim = Simulator(start_time=10.0)
    ev = sim.event()
    trigger = ev.succeed if outcome == "value" else ev.fail
    with pytest.raises(ValueError, match="into the past"):
        trigger(outcome, delay=-1.0)
    assert not ev.triggered and sim.peek() == float("inf")
    trigger(outcome, delay=1.0)
    ev.defused = True  # nobody waits on the failed one
    sim.run()
    assert (sim.now, ev.processed, ev.ok) == (11.0, True, outcome == "value")


def test_process_label_and_repr():
    sim = Simulator()

    def named():
        yield sim.timeout(1.0)

    p = sim.process(named(), label="my-process")
    assert p.label == "my-process"
    assert "my-process" in repr(p)
    sim.run()


def test_zero_delay_timeout_runs_same_instant():
    sim = Simulator()
    order = []

    def proc():
        order.append(("before", sim.now))
        yield sim.timeout(0.0)
        order.append(("after", sim.now))

    sim.process(proc())
    sim.run()
    assert order == [("before", 0.0), ("after", 0.0)]


def test_condition_with_failed_preprocessed_event():
    sim = Simulator()
    bad = sim.event()

    def watcher():
        try:
            yield bad
        except ValueError:
            pass

    sim.process(watcher())
    bad.fail(ValueError("pre"))
    sim.run()

    def late():
        try:
            yield bad.expire_after(5.0)
        except ValueError:
            return "propagated"

    p = sim.process(late())
    sim.run()
    assert p.value == "propagated"
