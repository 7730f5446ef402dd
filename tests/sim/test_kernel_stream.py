"""The kernel's processed-event stream, pinned.

One synthetic scenario walks the kernel paths the figures only reach by
accident, and the digest of ``(now, type, name)`` per processed event plus
``events_processed`` is pinned below, so a kernel edit that moves the
stream fails here in under a second instead of minutes into
``tests/golden``.

Re-pinned once, for the born-processed rule (86 -> 76 events).  The classes
that left the stream are exactly the events whose outcome was known at
creation: the on-the-spot ``Request`` (1 -- the two behind it queue, and
still arrive through the heap), accepted ``put``s (2; the three that met a
full ring still fire), ready ``get``s (5) and the zero-delay ``bridge`` under
an already-processed yield (2).  With them went one same-instant reorder: at
t=3.0 the consumer, no longer suspended on its ready ``get``, logs ``got``
before the interrupted ``queued`` worker logs instead of after.  What did
not move is pinned separately as ``PINNED_LOG_LINES``, recorded before the
change: every line the processes logged, timestamp included, as a multiset.

Re-pinned a second time when ``Resource.hold`` arrived (76 -> 93 events),
this time because the *scenario* grew: the kernel change alone left the 76
events above bit-identical (``request()`` is the same grant path), and the
17 new ones are the ``dma`` block -- five process starts and ends, two
timeouts, two interrupts and three holds (the on-the-spot one, the one a
release granted, and the interrupted one's entry popping unheard); the
hold cancelled while queued never reaches the heap.  The block logs
nothing, so ``PINNED_LOG`` and ``PINNED_LOG_LINES`` did not move.

Re-pinned a third time when ``Store`` left the kernel (93 -> 81 events, 39
-> 29 log lines), because the scenario *shrank*: the "bounded Store
back-pressure" block the first paragraph talks about went with the class.
The 81 events are the 93 with twelve rows struck and nothing reordered --
the block's two process starts and two ends, the consumer's five
``timeout(1.0)`` and the three ``put(ring)`` that had met a full ring --
and the 29 log lines are the 39 without its five ``put`` and five ``got``
(both checked as subsequences against the parent's run).

Re-pinned a fourth time when ``Condition`` / ``AnyOf`` / ``AllOf`` left the
kernel (81 -> 77 events, 29 -> 28 log lines).  The ``conditions`` block now
puts deadlines (``Event.expire_after``) on a processed and on a failed event
and waits for its two timeouts one after the other.  The 77 events are the
81 with four rows struck and nothing reordered -- the ``AnyOf`` at 20.0 and
the ``AllOf``, the empty ``AllOf`` and the failed ``AnyOf`` at 22.0 (checked
as a subsequence against the parent's run); every ``Timeout`` pops where it
did.  The log differs in that block's lines only: ``any`` / ``all`` /
``empty`` / ``any-failed`` became ``met`` / ``timeouts`` / ``failed-first``,
at the same timestamps.
"""

import hashlib

import pytest

from repro.sim import Interrupt, Resource, Simulator
from repro.sim.engine import UnhandledFailure

PINNED_EVENTS = 77
PINNED_STREAM = "5fd807cd7de539a51b3b0da3abb7c21e"
PINNED_LOG = "6aa50922163e7f073f2052655ec86d79"
#: The log with order within the run set aside.
PINNED_LOG_LINES = "9603c1e84ba369e51f1e2d60dff1231c"


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

    # -- Resource: contention, cancel-while-queued, release-wakes-next ------
    cpu = Resource(sim, capacity=1, name="cpu")

    def worker(tag, work_us):
        req = cpu.request()
        try:
            yield req
            note("granted", tag)
            yield sim.timeout(work_us)
        except Interrupt as intr:
            note("interrupted", tag, intr.cause)
        finally:
            cpu.release(req)
        return tag

    holder = sim.process(worker("holder", 20.0), label="holder")
    queued = sim.process(worker("queued", 1.5), label="queued")
    waker = sim.process(worker("next", 2.25))  # named after its generator

    def canceller():
        yield sim.timeout(3.0)
        queued.interrupt("cancel-queued")  # waiting on a queued request
        yield sim.timeout(4.0)
        holder.interrupt("cancel-timeout")  # waiting on a timeout

    sim.process(canceller())

    # -- Resource.hold: contended, cancelled while queued, interrupted while
    # running.  Silent and over by t=3.0, so the log pinned below and the
    # events the late hook counts are the ones they were. -------------------
    dma = Resource(sim, capacity=1, name="dma")

    def dma_user(duration):
        held = dma.hold(duration)
        try:
            yield held
        except Interrupt:
            pass
        finally:
            dma.release(held)

    sim.process(dma_user(1.0), label="dma-first")  # on the spot, fires at 1.0
    dma_running = sim.process(dma_user(2.0))  # granted at 1.0, interrupted at 2.0
    dma_queued = sim.process(dma_user(1.0))  # interrupted at 0.5, never granted
    sim.process(dma_user(0.5), label="dma-last")  # granted at 2.0, fires at 2.5

    def dma_canceller():
        yield sim.timeout(0.5)
        dma_queued.interrupt()
        yield sim.timeout(1.5)
        dma_running.interrupt()  # its heap entry still pops at 3.0, unheard

    sim.process(dma_canceller())

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

    # -- an interrupt that lands after its victim has finished ---------------
    def killer():
        yield sim.timeout(2.0)
        victim.interrupt("too late")

    def short_lived():
        yield sim.timeout(2.0)
        sim.process(killer_late())
        return "finished"

    def killer_late():
        yield sim.timeout(0.0)
        with pytest.raises(RuntimeError, match="already terminated"):
            victim.interrupt()

    sim.process(killer())
    victim = sim.process(short_lived(), label="victim")
    sim.run()
    note("victim", victim.value)

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
