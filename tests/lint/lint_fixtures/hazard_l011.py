"""Seeded L011 hazards: grants held across yields without try/finally.

Each ``HAZARD`` marker comment sits on the exact line of the acquire
whose grant is orphaned if something raises at one of its yields (a failed
or ``Expired`` event, ``GeneratorExit`` when the process is closed).
"""


def unprotected_hold(sim, res):
    """The classic shape every fixed call site in the tree used to have."""
    req = res.request()  # HAZARD: L011
    yield req
    yield sim.timeout(5.0)
    res.release(req)


def protected_late(sim, res):
    """The grant yield itself is outside the try: it is a yield with the
    request live, granted or not yet, and the rule counts it."""
    req = res.request()  # HAZARD: L011
    yield req
    try:
        yield sim.timeout(5.0)
    finally:
        res.release(req)


def wrong_finally(sim, res, other):
    """A finally that releases a *different* request does not protect."""
    token = other.request()
    req = res.request()  # HAZARD: L011
    try:
        yield req
        yield sim.timeout(5.0)
    finally:
        other.release(token)


def unprotected_timed_hold(res, work_us):
    """``hold`` is an acquire too: its one yield is where the unit is held,
    so an exception raised there orphans it."""
    held = res.hold(work_us)  # HAZARD: L011
    yield held
    res.release(held)
