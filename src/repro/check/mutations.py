"""Test-only fault injection for the checking pipeline itself.

:data:`MUTATIONS` patches a live store with a named semantic bug
(off-by-one incr, truncating set, lying delete, a silent eviction, a
leaky slab mover, a skipped index invalidation, a stamp left valid, an
unenforced stale window) so that detection and shrinking can be
exercised end to end:
``replay(mutation=...)``, ``repro-check fuzz --mutation``.
"""

from __future__ import annotations

from typing import Callable


def _mutate_incr_off_by_one(store) -> None:
    orig = store.arith
    store.arith = lambda key, delta: orig(key, delta + 1 if delta >= 0 else delta)


def _mutate_set_truncates(store) -> None:
    # The one storage path: every set, bytes (sockets, zero-length UCR
    # values) or a reserved zero-copy item (UCR with a payload).
    orig = store.store

    def store_(op, key, value, flags=0, exptime=0, cas_token=0, reserved=None):
        if op == "set":
            if reserved is not None and reserved.value_length > 1:
                reserved.value_length -= 1
            elif len(value) > 1:
                value = value[:-1]
        return orig(op, key, value, flags, exptime, cas_token, reserved)

    store.store = store_


def _mutate_delete_lies(store) -> None:
    orig = store.delete
    store.delete = lambda key: orig(key) or True


def _mutate_skip_eviction_counter(store) -> None:
    # The store still evicts under pressure, but silently: neither the
    # stats counters nor the on_evict hook fire, so the oracle keeps the
    # victim and the next read of it mismatches.  Exercises the
    # soundness gate of eviction adoption (verified losses only).
    store._record_eviction = lambda victim, kind: None


def _mutate_double_free_on_rebalance(store) -> None:
    # Slab-mover use-after-free: a page is reassigned to the needy class
    # but its chunks are left on the donor's free list too, so both
    # classes hand out overlapping memory and values corrupt each other.
    orig = store.slabs.reassign_page

    def reassign(src, dst):
        """Leaky page move: the donor keeps its moved chunks on the
        free list (and in its totals), so two classes carve one page."""
        before = list(src.free_chunks)
        moved = orig(src, dst)
        if moved:
            leaked = [c for c in before if c not in src.free_chunks]
            src.free_chunks.extend(leaked)
            src.total_chunks += len(leaked)
        return moved

    store.slabs.reassign_page = reassign


def _mutate_onesided_skip_version_bump(store) -> None:
    # Exported-index invalidation bug: unpublish never brackets the
    # entry, so a stale *live* entry keeps naming the chunk after
    # delete/eviction frees it.  A one-sided GET then reads a stable,
    # matching-hash entry and serves the dead value.  Only UCR-1S can
    # see it: no other config wires a reader, so no server exports an
    # index to break.  ExportSanitizer flags it immediately as a live
    # entry no linked item owns.
    index = store.onesided
    if index is not None:
        index.unpublish = lambda item: None


def _mutate_onesided_stale_stamp(store) -> None:
    # Stamp invalidation bug: unpublish clears the entry under the
    # seqlock but leaves the item's stamp valid behind its value, so a
    # client that remembers the old entry finds that stamp and serves the
    # dead value.  An own delete forgets the remembered entry, so the
    # sequential replay cannot see it: another client's GET must, which
    # is the concurrent UCR-1S replay.
    index = store.onesided
    if index is None:
        return
    unpublish = index.unpublish

    def unpublish_(item):
        """The real unpublish, then the item's stamp put back."""
        stamp = index.stamp(item)
        unpublish(item)
        mr, offset = item.chunk.rdma_location()
        mr.write(offset + item.value_length, stamp)

    index.unpublish = unpublish_


def _mutate_lease_serve_stale_past_deadline(store) -> None:
    # Anti-dogpile bug: the stale window stops being enforced, so getl
    # hands lease losers (and winners) arbitrarily old ghosts -- a
    # value expired minutes ago still rides back as "stale" data.  The
    # oracle's window-respecting _stale_servable disagrees the first
    # time a sequence sleeps past exptime + STALE_WINDOW_S and reads
    # the key with a stale-tolerant getl.
    orig = store._stale_servable

    def _stale_servable(item, now):
        verdict = orig(item, now)
        if not verdict and not store._is_flushed(item) and item.exptime > 0:
            return True  # deadline ignored: serve it anyway
        return verdict

    store._stale_servable = _stale_servable


#: name -> patcher(store).  Applied to a live cluster's store by
#: ``replay(mutation=...)``; TEST-ONLY, never in production paths.
MUTATIONS: dict[str, Callable] = {
    "incr-off-by-one": _mutate_incr_off_by_one,
    "set-truncates": _mutate_set_truncates,
    "delete-lies": _mutate_delete_lies,
    "skip-eviction-counter": _mutate_skip_eviction_counter,
    "double-free-on-rebalance": _mutate_double_free_on_rebalance,
    "onesided-skip-version-bump": _mutate_onesided_skip_version_bump,
    "onesided-stale-stamp": _mutate_onesided_stale_stamp,
    "lease-serve-stale-past-deadline": _mutate_lease_serve_stale_past_deadline,
}
