"""Unit tests for processes: chaining, error propagation, misuse."""

import pytest

from repro.sim import Simulator


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert p.value == "done"


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return 7

    def parent():
        result = yield sim.process(child())
        return result * 2

    p = sim.process(parent())
    sim.run()
    assert p.value == 14
    assert sim.now == 5.0


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            return str(exc)

    p = sim.process(parent())
    sim.run()
    assert p.value == "child failed"


def test_yield_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def proc():
        yield sim.timeout(10.0)  # ev processes long before this
        got = yield ev
        return got

    p = sim.process(proc())
    sim.run()
    assert p.value == "early"
    assert sim.now == 10.0  # waiting on a processed event takes zero time


def test_yield_on_already_failed_event():
    sim = Simulator()
    ev = sim.event()

    def watcher():
        try:
            yield ev
        except ValueError:
            pass

    sim.process(watcher())

    def late():
        yield sim.timeout(10.0)
        try:
            yield ev
        except ValueError:
            return "late-caught"

    p = sim.process(late())
    ev.fail(ValueError("x"))
    sim.run()
    assert p.value == "late-caught"


def test_yielding_non_event_raises_in_process():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    p = sim.process(bad())

    def watcher():
        try:
            yield p
        except TypeError as exc:
            return "typeerror" in str(exc).lower() or "Event" in str(exc)

    w = sim.process(watcher())
    sim.run()
    assert w.value is True


def test_cross_simulator_event_rejected():
    sim_a = Simulator()
    sim_b = Simulator()
    foreign = sim_b.event()

    def bad():
        yield foreign

    p = sim_a.process(bad())

    def watcher():
        try:
            yield p
        except ValueError:
            return "caught"

    w = sim_a.process(watcher())
    sim_a.run()
    assert w.value == "caught"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_many_sequential_yields_do_not_overflow_stack():
    sim = Simulator()
    done = sim.event()

    def proc():
        for _ in range(50_000):
            yield done  # already-processed event each iteration after first
        return "ok"

    done.succeed()
    p = sim.process(proc())
    sim.run()
    assert p.value == "ok"
