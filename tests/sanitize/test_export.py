"""Exported-index sanitizer: a clean index verifies, and every violation
arm fires on exactly the corruption it names.

Each case seeds one violation into a freshly populated index -- through
the seqlock helpers where the region must stay coherent with the mirror,
so that the seeded arm is the only one that fires.
"""

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.onesided import STAMP_BYTES, WINDOW, hash64
from repro.sanitize import ExportIndexError, ExportSanitizer, SanitizerCounters


@pytest.fixture()
def store():
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server().export_index()
    store = cluster.server.store
    for key in ("a", "b", "c"):
        store.set(key, key.encode() * 8, flags=1)
    return store


def _slot(store, key):
    return store.onesided.slot_of(store.by_key[key])


def _rewrite(index, slot, **fields):
    """Change entry fields the way the server does: under the seqlock."""
    index.seq_begin(slot)
    entry = index.mirror_entry(slot)
    for name, value in fields.items():
        setattr(entry, name, value)
    index.seq_end(slot)


def _copy_into(index, src, dst, owner):
    """Publish *src*'s entry fields in empty slot *dst* for *owner*."""
    entry = index.mirror_entry(src)
    _rewrite(index, dst, **{
        name: getattr(entry, name)
        for name in ("key_hash", "value_rkey", "value_offset", "value_length",
                     "flags", "cas", "deadline_us")
    })
    index._owner[dst] = owner


def _empty_slot(index, inside, home):
    """The first empty slot inside (or outside) the window from *home*."""
    return next(
        slot for slot in range(index.n_slots)
        if index.owner(slot) is None
        and not index.mirror_entry(slot).live
        and (home <= slot < home + WINDOW) == inside
    )


def _odd_version(store):
    # An empty slot: over an owned one the entry also reads as dead.
    index = store.onesided
    index.seq_begin(_empty_slot(index, inside=True, home=index.bucket_for("a")))


def _live_without_owner(store):
    store.onesided._owner[_slot(store, "a")] = None


def _owner_over_dead_entry(store):
    index, slot = store.onesided, _slot(store, "a")
    index._clear(slot)
    index._owner[slot] = store.by_key["a"]


def _unlinked_owner(store):
    store.by_key["a"].linked = False


def _foreign_hash(store):
    _rewrite(store.onesided, _slot(store, "a"), key_hash=hash64("not-a"))


def _freed_chunk(store):
    chunk = store.by_key["a"].chunk
    chunk.slab_class.release(chunk)


def _location_mismatch(store):
    index, slot = store.onesided, _slot(store, "a")
    _rewrite(index, slot, value_offset=index.mirror_entry(slot).value_offset + 8)


def _length_mismatch(store):
    index, slot = store.onesided, _slot(store, "a")
    _rewrite(index, slot, value_length=index.mirror_entry(slot).value_length + 1)


def _cas_mismatch(store):
    index, slot = store.onesided, _slot(store, "a")
    _rewrite(index, slot, cas=index.mirror_entry(slot).cas + 1)


def _mirror_drift(store):
    store.onesided.mirror_entry(_slot(store, "a")).flags += 1  # no seqlock


def _out_of_window(store):
    index, item = store.onesided, store.by_key["a"]
    slot = index.slot_of(item)
    away = _empty_slot(index, inside=False, home=index.bucket_for("a"))
    _copy_into(index, slot, away, item)
    index._clear(slot)


def _duplicate_hash(store):
    index, item = store.onesided, store.by_key["a"]
    spare = _empty_slot(index, inside=True, home=index.bucket_for("a"))
    _copy_into(index, index.slot_of(item), spare, item)


def _stamp_missing(store):
    item = store.by_key["a"]
    mr, offset = item.chunk.rdma_location()
    mr.write(offset + item.value_length, bytes(STAMP_BYTES))


def _stamp_outlives_its_entry(store):
    index, slot = store.onesided, _slot(store, "a")
    index._owner[slot] = None  # the clear then zeroes no stamp
    index._clear(slot)


SEEDED = {
    "odd-version": (_odd_version, "at rest (unclosed seqlock bracket)"),
    "live-without-owner": (_live_without_owner, "live entry with no owner"),
    "owner-over-dead-entry": (_owner_over_dead_entry, "but entry is dead"),
    "unlinked-owner": (_unlinked_owner, "is unlinked but still exported"),
    "foreign-hash": (_foreign_hash, "is not owner 'a''s"),
    "freed-chunk": (_freed_chunk, "live entry over a freed chunk"),
    "location": (_location_mismatch, "entry points at"),
    "length": (_length_mismatch, "entry length"),
    "cas": (_cas_mismatch, "entry cas"),
    "mirror-drift": (_mirror_drift, "exported bytes diverge from the mirror"),
    "out-of-window": (_out_of_window, "is outside its window"),
    "duplicate-hash": (_duplicate_hash, "is also live in slot"),
    "stamp-missing": (_stamp_missing, "does not carry its entry's stamp"),
    "stamp-outlives-entry": (
        _stamp_outlives_its_entry, "is not published but carries a valid stamp"
    ),
}


def test_clean_index_passes(store):
    counters = SanitizerCounters()
    assert ExportSanitizer(counters).check(store) == []
    assert (counters.export_checks, counters.export_violations) == (1, 0)


@pytest.mark.parametrize("case", SEEDED)
def test_seeded_violation_is_the_only_one_reported(store, case):
    seed, message = SEEDED[case]
    seed(store)
    violations = ExportSanitizer(strict=False).check(store)
    assert len(violations) == 1, violations
    assert message in violations[0]


def test_strict_mode_raises_and_counts(store):
    counters = SanitizerCounters()
    _duplicate_hash(store)
    with pytest.raises(ExportIndexError, match="also live in slot"):
        ExportSanitizer(counters).check(store)
    assert (counters.export_checks, counters.export_violations) == (1, 1)


def test_a_store_without_an_index_passes_vacuously():
    from repro.memcached.store import ItemStore
    from repro.sim import Simulator

    assert ExportSanitizer().check(ItemStore(Simulator())) == []
