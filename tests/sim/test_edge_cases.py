"""Engine edge cases: limits, hooks, interrupt interactions."""

import pytest

from repro.sim import Interrupt, Resource, Simulator


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


def test_interrupt_while_waiting_on_store():
    """The wait every queue in the tree is built from (a consumer parked on
    an armed wake event; the name is from when ``sim`` had a ``Store``)."""
    sim = Simulator()
    wake = sim.event()

    def consumer():
        try:
            yield wake
        except Interrupt:
            return "interrupted"

    p = sim.process(consumer())

    def interrupter():
        yield sim.timeout(5.0)
        p.interrupt()

    sim.process(interrupter())
    sim.run()
    assert p.value == "interrupted"
    # The abandoned event remains armed, and firing it later must not
    # crash the engine (its value lands with nobody listening).
    wake.succeed("orphan")
    sim.run()


def test_interrupt_while_holding_resource_then_release():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        # The manual catch-then-release shape is this test's subject.
        req = res.request()  # repro-lint: disable=L011 -- exercises explicit release after a caught interrupt
        yield req
        try:
            yield sim.timeout(1000.0)
        except Interrupt:
            pass
        res.release(req)

    p = sim.process(holder())

    def interrupter():
        yield sim.timeout(3.0)
        p.interrupt()

    sim.process(interrupter())

    def waiter():
        req = res.request()
        try:
            yield req
        finally:
            res.release(req)
        return sim.now

    w = sim.process(waiter())
    sim.run()
    assert w.value == pytest.approx(3.0)  # freed right after the interrupt


def test_schedule_into_past_rejected():
    sim = Simulator(start_time=10.0)
    ev = sim.event()
    with pytest.raises(ValueError):
        ev.succeed(delay=-1.0)


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


def test_nested_process_interrupt_propagation():
    """Interrupting a parent that waits on a child leaves the child alive."""
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(100.0)
        log.append("child-done")
        return "payload"

    def parent():
        c = sim.process(child())
        try:
            yield c
        except Interrupt:
            log.append("parent-interrupted")
            # Child keeps running; reattach and get its value.
            value = yield c
            log.append(value)

    p = sim.process(parent())

    def interrupter():
        yield sim.timeout(10.0)
        p.interrupt()

    sim.process(interrupter())
    sim.run()
    assert log == ["parent-interrupted", "child-done", "payload"]


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
