"""Clean counterparts: none of these may produce a flow finding.

Every function here walks right up to an L008-L012 hazard and then does
the correct thing; the test asserts the flow rules report nothing, which
pins the rules' false-positive controls (re-reads, stable terminals,
destructive reads, escapes, finally protection, seqlock bracketing).
"""

from repro.verbs.enums import QpState


class CleanProcesses:
    """Shared-state access patterns the rules must accept."""

    def reread_after_yield(self, sim, key):
        """Re-reading after the boundary clears the taint (L008)."""
        owner = self.ring.server_for(key)
        yield sim.timeout(1.0)
        owner = self.ring.server_for(key)
        return owner

    def use_before_yield_only(self, sim, key):
        """Pre-yield uses of a fresh binding are fine (L008)."""
        owner = self.ring.server_for(key)
        self.audit(owner)
        yield sim.timeout(1.0)

    def stable_terminal_alias(self, sim):
        """Chains ending in a STABLE_ATTRS name are exempt (L008)."""
        clock = self.cluster.sim
        yield clock.timeout(1.0)
        return clock.now

    def destructive_read(self, sim):
        """``pop`` removes the value: the local cannot go stale (L008)."""
        job = self._pending.pop(7, None)
        yield sim.timeout(1.0)
        return job


def released_on_all_paths(pool, cond):
    """Both branches release: no leak (L009)."""
    buf = pool.get()
    if cond:
        buf.write(b"x")
        buf.release()
    else:
        buf.release()


def released_in_finally(pool):
    """Exception edges land in the finally, which releases (L009)."""
    buf = pool.get()
    try:
        buf.write(b"payload")
    finally:
        buf.release()


def ownership_handoff(pool, ep):
    """Passing the buffer onward transfers ownership (L009)."""
    buf = pool.get()
    ep.post_recv_buffer(buf)


def returned_to_caller(pool):
    """Returning the buffer transfers ownership too (L009)."""
    buf = pool.get()
    buf.write(b"warm")
    return buf


def legal_qp_bringup(qp, tear_down):
    """INIT -> RTS and any -> ERROR follow the table (L010)."""
    qp.state = QpState.INIT
    qp.state = QpState.RTS
    if tear_down:
        qp.state = QpState.ERROR
        qp.state = QpState.RESET


def finally_protected_hold(sim, res):
    """``request()`` with the wait spelled out, finally-protected (L011)."""
    req = res.request()
    try:
        yield req
        yield sim.timeout(5.0)
    finally:
        res.release(req)


def finally_protected_timed_hold(res, work_us):
    """``Resource.hold``: one yield, released in the finally (L011)."""
    held = res.hold(work_us)
    try:
        yield held
    finally:
        res.release(held)


def no_yield_while_held(sim, res):
    """Yields after the release window need no protection (L011)."""
    req = res.request()
    try:
        yield req
    finally:
        res.release(req)
    yield sim.timeout(1.0)


class CleanIndex:
    """Seqlock access patterns L012 must accept."""

    def bracketed_publish(self, bucket, item):
        """The index's own idiom: every field store sits inside the
        seq_begin/seq_end window (L012)."""
        slot = self._mirror[bucket]
        self.seq_begin(bucket)
        slot.key_hash = 7
        slot.value_length = item.value_length
        slot.cas = item.cas
        slot.deadline_us = 0
        self.seq_end(bucket)

    def seq_begin(self, bucket):
        """The helpers themselves may move the version (L012)."""
        slot = self._mirror[bucket]
        if slot.version % 2 == 0:
            slot.version += 1

    def seq_end(self, bucket):
        slot = self._mirror[bucket]
        slot.version += 1

    def unrelated_same_named_fields(self, item, flags):
        """Field names overlap the entry layout, but *item* never came
        from index state -- not L012's business."""
        item.flags = flags
        item.cas = 9
        item.value_length = 4
