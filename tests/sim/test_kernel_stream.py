"""The kernel's processed-event stream, pinned.

One synthetic scenario walks the kernel paths the figures only reach by
accident: same-timestamp ties, ``Resource`` contention with
release-wakes-next for ``request()`` and ``hold()``, ``run(until=)``
landing between events, ``step()``, a hook attached mid-run, deadlines on
processed and failed events, ``run_until_event`` with and without a limit,
misuse thrown into the generator, and a failure that escalates.  The digest
of ``(now, type, name)`` per processed event plus ``events_processed`` is
pinned below, so a kernel edit that moves the stream fails here in under a
second instead of minutes into ``tests/golden``.  Why the stream is what it
is belongs to ``tests/sim/reference.py``: a change to the kernel's
semantics shows as a diff to that reference, and re-pinning here only
follows it.
"""

import hashlib

import pytest

from repro.sim import Resource, Simulator
from repro.sim.engine import UnhandledFailure

PINNED_EVENTS = 55
PINNED_STREAM = "0668d00b4924ab46225f73c094d8552e"
PINNED_LOG = "9a988b03a649d7c5a0acdfd6a3d940e9"
#: The log with order within the run set aside.
PINNED_LOG_LINES = "6fa2f1e79c2fa731ec728c2ce5ee0f3e"


def _scenario(sim: Simulator, log: list) -> None:
    """Drive *sim* through the scenario; processes append to *log*."""

    def note(tag, *detail):
        log.append((sim.now, tag) + detail)

    # -- same-timestamp ties: schedule order is run order --------------------
    def tie(tag, delay):
        yield sim.timeout(delay)
        note("tie", tag)

    for tag in range(4):
        sim.process(tie(tag, 5), label=f"tie{tag}")  # int delay: "timeout(5)"
    plain = [sim.event(name=f"plain{i}") for i in range(3)]
    for i, ev in enumerate(plain):
        ev.callbacks.append(lambda e: note("plain", e.name, e.value))
        ev.succeed(i, delay=5.0)

    # -- Resource: contention, release-wakes-next (FIFO) --------------------
    cpu = Resource(sim, capacity=1, name="cpu")

    def worker(tag, work_us):
        req = cpu.request()
        try:
            yield req
            note("granted", tag)
            yield sim.timeout(work_us)
        finally:
            cpu.release(req)
        return tag

    holder = sim.process(worker("holder", 7.0), label="holder")
    queued = sim.process(worker("queued", 1.5), label="queued")
    waker = sim.process(worker("next", 2.25))  # named after its generator

    # -- Resource.hold: on the spot, then granted by each release.  Silent
    # and over by t=3.5. ----------------------------------------------------
    dma = Resource(sim, capacity=1, name="dma")

    def dma_user(duration):
        held = dma.hold(duration)
        try:
            yield held
        finally:
            dma.release(held)

    sim.process(dma_user(1.0), label="dma-first")  # on the spot, fires at 1.0
    sim.process(dma_user(2.0))  # granted at 1.0, fires at 3.0
    sim.process(dma_user(0.5), label="dma-last")  # granted at 3.0, fires at 3.5

    # -- run(until=) landing between events, then step() --------------------
    sim.run(until=4.5)
    note("until")
    sim.step()
    note("stepped")

    # -- a hook appended from inside a callback, mid-run() -------------------
    late_hook_seen = []

    def attach_late_hook(_event):
        sim.pre_event_hooks.append(lambda s, e: late_hook_seen.append(s.now))

    trigger = sim.event(name="attach-hook")
    trigger.callbacks.append(attach_late_hook)
    trigger.succeed(delay=1.0)
    sim.run()
    note("late-hook", len(late_hook_seen), late_hook_seen[0])
    note("results", holder.value, queued.value, waker.value)

    # -- deadlines on processed and failed events ---------------------------
    done = sim.event(name="done")
    done.succeed(b"payload")
    failed = sim.event(name="failed")

    def observer():
        try:
            yield failed
        except KeyError as exc:
            note("observed", exc.args[0])

    sim.process(observer())
    failed.fail(KeyError("sub-event"))
    sim.run()

    def conditions():
        # Met before it was asked for: no suspension, the timer pops unheard.
        note("met", (yield done.expire_after(9.0)))
        t1, t2 = sim.timeout(1.0, value="a"), sim.timeout(2.0, value="b")
        note("timeouts", (yield t1), (yield t2))
        try:
            yield failed.expire_after(3.0)
        except KeyError as exc:  # its own exception, not Expired
            note("failed-first", exc.args[0])
        # Already-processed events do not suspend the process at all.
        value = yield done
        note("bridge", value)
        try:
            yield failed
        except KeyError as exc:
            note("bridge-failed", exc.args[0])
        return "conditions-done"

    cond = sim.process(conditions())
    note("run_until_event", sim.run_until_event(cond))

    # -- run_until_event(limit=) ---------------------------------------------
    def slow():
        yield sim.timeout(1000.0)
        return "slow-done"

    slow_proc = sim.process(slow())
    with pytest.raises(RuntimeError, match="time limit"):
        sim.run_until_event(slow_proc, limit=sim.now + 10.0)
    note("limit")
    assert sim.run_until_event(slow_proc, limit=sim.now + 2000.0) == "slow-done"

    # -- misuse is raised inside the offending generator --------------------
    foreign = Simulator().event()

    def misuse():
        try:
            yield 42
        except TypeError as exc:
            note("non-event", str(exc))
        try:
            yield foreign
        except ValueError as exc:
            note("foreign", str(exc))

    sim.process(misuse())
    sim.run()

    # -- a process that fails with nobody waiting ----------------------------
    def doomed():
        yield sim.timeout(1.0)
        raise LookupError("nobody waits")

    sim.process(doomed())
    sim.timeout(2.0)  # still scheduled when the failure escalates
    with pytest.raises(UnhandledFailure) as escalated:
        sim.run()
    note("escalated", str(escalated.value))
    sim.run()
    note("drained", sim.peek())


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()[:32]


def test_event_stream_matches_the_pinned_digest():
    sim = Simulator()
    stream: list = []
    sim.pre_event_hooks.append(
        lambda sim, event: stream.append((sim.now, type(event).__name__, event.name))
    )
    log: list = []
    _scenario(sim, log)
    assert len(stream) == sim.events_processed
    assert _digest(sorted(log, key=repr)) == PINNED_LOG_LINES
    assert (sim.events_processed, _digest(stream), _digest(log)) == (
        PINNED_EVENTS, PINNED_STREAM, PINNED_LOG,
    )


def test_stream_is_the_same_with_no_hook_installed():
    """The hook-free loop makes the same decisions: what the processes
    observe, and how many events it took, do not depend on an observer."""
    sim = Simulator()
    log: list = []
    _scenario(sim, log)
    assert _digest(sorted(log, key=repr)) == PINNED_LOG_LINES
    assert (sim.events_processed, _digest(log)) == (PINNED_EVENTS, PINNED_LOG)
