"""The kernel against its reference: generated programs, two executors.

Each program is 2-6 processes over three shared events and two resources
(capacity 1 and 2).  A process runs a script of 1-6 steps -- a timeout, a
wait on a shared event (with or without a deadline), ``succeed`` / ``fail``
of a shared event after a delay (skipped if it is already triggered), a
timed hold, a request held over a timeout, or a child process it joins.
Delays come from ``{0, 0.5, 1, 2}``, so same-timestamp ties are the rule.

The program runs on :class:`repro.sim.Simulator` and on
``tests/sim/reference.py``, and the two must agree on the global log of
``(now, pid, what it saw)`` in order, every process's outcome, the
``(now, exception type)`` of each ``UnhandledFailure``, and
``events_processed``.  Three seeded kernel mutations show the property can
tell: each is caught inside the search budget, and its shrunk program is
pinned as an ``@example``.
"""

import heapq

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro.sim
import repro.sim.engine
from repro.sim import Resource
from tests.sim import reference

N_EVENTS = 3
CAPACITIES = (1, 2)
DELAYS = (0.0, 0.5, 1.0, 2.0)

KERNEL = {
    "Simulator": repro.sim.Simulator,
    "Resource": repro.sim.Resource,
    "UnhandledFailure": repro.sim.engine.UnhandledFailure,
}
REFERENCE = {
    "Simulator": reference.Simulator,
    "Resource": reference.Resource,
    "UnhandledFailure": reference.UnhandledFailure,
}


class Boom(Exception):
    """What a ``fail`` step fails a shared event with: ``(pid, i)``."""


def _raised(exc):
    return (type(exc).__name__,) + exc.args


def _script(sim, shared, resources, log, pid, steps):
    """One process: run *steps*, appending what it saw to *log*."""
    for k, step in enumerate(steps):
        op = step[0]
        if op == "timeout":
            yield sim.timeout(step[1])
            log.append((sim.now, pid, "timeout"))
        elif op == "wait":
            _, i, deadline, catch = step
            ev = shared[i] if deadline is None else shared[i].expire_after(deadline)
            try:
                seen = ("value", (yield ev))
            except Exception as exc:
                if not catch:
                    raise
                seen = _raised(exc)
            log.append((sim.now, pid, "wait", i, seen))
        elif op in ("succeed", "fail"):
            _, i, delay = step
            ev = shared[i]
            if ev.triggered:
                log.append((sim.now, pid, op, i, "skipped"))
            elif op == "succeed":
                ev.succeed((pid, i), delay=delay)
            else:
                ev.fail(Boom(pid, i), delay=delay)
        elif op == "hold":
            _, r, delay = step
            res = resources[r]
            held = res.hold(delay)
            try:
                yield held
            finally:
                res.release(held)
            log.append((sim.now, pid, "held", r))
        elif op == "request":
            _, r, delay = step
            res = resources[r]
            req = res.request()
            try:
                yield req
                log.append((sim.now, pid, "granted", r))
                yield sim.timeout(delay)
            finally:
                res.release(req)
        else:  # spawn a child and join it
            cid = f"{pid}.{k}"
            child = sim.process(_script(sim, shared, resources, log, cid, step[1]))
            try:
                seen = ("value", (yield child))
            except Exception as exc:
                seen = _raised(exc)
            log.append((sim.now, pid, "joined", cid, seen))
    return pid


def run_program(kernel, program):
    """Run *program* on *kernel* to the end; what the property compares."""
    sim = kernel["Simulator"]()
    shared = [sim.event() for _ in range(N_EVENTS)]
    resources = [kernel["Resource"](sim, capacity=c) for c in CAPACITIES]
    log: list = []
    procs = [
        sim.process(_script(sim, shared, resources, log, f"p{n}", steps))
        for n, steps in enumerate(program)
    ]
    escalated = []
    while True:
        try:
            sim.run()
            break
        except kernel["UnhandledFailure"] as failure:
            escalated.append((sim.now, type(failure.__cause__).__name__))
    return log, [_outcome(p) for p in procs], escalated, sim.events_processed


def _outcome(proc):
    if not proc.triggered:
        return "alive"
    return ("value", proc.value) if proc.ok else _raised(proc.exception)


def _steps(spawn: bool, max_size: int):
    delay = st.sampled_from(DELAYS)
    event = st.integers(0, N_EVENTS - 1)
    resource = st.integers(0, len(CAPACITIES) - 1)
    kinds = [
        st.tuples(st.just("timeout"), delay),
        st.tuples(st.just("wait"), event, st.none() | delay, st.booleans()),
        st.tuples(st.sampled_from(["succeed", "fail"]), event, delay),
        st.tuples(st.just("hold"), resource, delay),
        st.tuples(st.just("request"), resource, delay),
    ]
    if spawn:
        kinds.append(st.tuples(st.just("spawn"), _steps(False, 3)))
    return st.lists(st.one_of(kinds), min_size=1, max_size=max_size)


PROGRAMS = st.lists(_steps(True, 6), min_size=2, max_size=6)
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


# -- seeded kernel mutations ---------------------------------------------------


def _lifo_heappop(heap):
    """Pop the earliest time, but the *last* scheduled among equal times."""
    when = heap[0][0]
    newest = max((entry[1], k) for k, entry in enumerate(heap) if entry[0] == when)[1]
    entry = heap.pop(newest)
    heapq.heapify(heap)
    return entry


def _release_newest(self, request):
    if request not in self._users:
        raise ValueError(f"{request!r} does not hold {self.name!r}")
    self._users.remove(request)
    if self._queue:
        nxt = self._queue.pop()
        self._users.add(nxt)
        if nxt.duration is None:
            nxt.succeed(nxt)
        else:
            nxt.succeed(delay=nxt.duration * self.stretch)


def _request_through_the_heap(self):
    req = repro.sim.resources.Request(self.sim, self)
    if len(self._users) < self.capacity:
        self._users.add(req)
        req.succeed(req)
    else:
        self._queue.append(req)
    return req


MUTATIONS = {
    "ties-run-lifo": (repro.sim.engine, "heappop", _lifo_heappop),
    "release-grants-newest": (Resource, "release", _release_newest),
    "request-through-the-heap": (Resource, "request", _request_through_the_heap),
}

#: Each mutation's shrunk counterexample, as the search found it.
CAUGHT = {
    "ties-run-lifo": [[("timeout", 0.0)], [("timeout", 0.0)]],
    "release-grants-newest": [
        [("hold", 0, 0.0)],
        [("hold", 0, 0.0)],
        [("hold", 0, 0.0)],
    ],
    "request-through-the-heap": [[("timeout", 0.0)], [("request", 0, 0.0)]],
}


@SETTINGS
@given(PROGRAMS)
@example(CAUGHT["ties-run-lifo"])
@example(CAUGHT["release-grants-newest"])
@example(CAUGHT["request-through-the-heap"])
def test_kernel_matches_the_reference(program):
    assert run_program(KERNEL, program) == run_program(REFERENCE, program)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_seeded_kernel_mutation_is_caught(mutation, monkeypatch):
    """The pinned program fails under its mutation, and so does the
    property's own search -- same seed, same budget, pinned examples off."""
    monkeypatch.setattr(*MUTATIONS[mutation])
    prop = test_kernel_matches_the_reference.hypothesis.inner_test
    with pytest.raises(AssertionError):
        prop(CAUGHT[mutation])
    search = settings(SETTINGS, phases=[Phase.generate])(given(PROGRAMS)(prop))
    with pytest.raises(AssertionError):
        search()
