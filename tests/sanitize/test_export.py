"""Exported-index sanitizer: a clean index verifies, and every violation
arm fires on exactly the corruption it names.

Each case seeds one violation into a freshly populated index -- through
the seqlock helpers where an entry changes, so that the seeded arm is
the only one that fires.  No case reaches into a private table: a lying
entry is one ``seq_end`` wrote from a doctored copy of its item.
"""

import copy

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.onesided import STAMP_BYTES, WINDOW, unpack_entry
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


def _rewrite(index, slot, item, **fields):
    """Write *slot* the way the server does, under the seqlock, from
    *item* -- or from a copy of it with *fields* changed: an entry that
    lies about its item."""
    liar = copy.copy(item)
    for name, value in fields.items():
        setattr(liar, name, value)
    index.seq_begin(slot)
    index.seq_end(slot, liar)


def _write_stamp(item, raw):
    mr, offset = item.chunk.rdma_location()
    mr.write(offset + item.value_length, raw)


def _empty_slot(index, inside, home):
    """The first empty slot inside (or outside) the window from *home*."""
    return next(
        slot for slot in range(index.n_slots)
        if not unpack_entry(index.entry_bytes(slot)).live
        and (home <= slot < home + WINDOW) == inside
    )


def _odd_version(store):
    # An empty slot: over a live one the odd stamp it writes would also
    # read as a stamp left on an unpublished item.
    index = store.onesided
    index.seq_begin(_empty_slot(index, inside=True, home=index.bucket_for("a")))


def _live_without_owner(store):
    store.onesided.unpublish = lambda item: None  # the invalidation skipped
    store.delete("a")


def _unlinked_owner(store):
    store.by_key["a"].linked = False


def _foreign_hash(store):
    _rewrite(store.onesided, _slot(store, "a"), store.by_key["a"], key="not-a")


def _freed_chunk(store):
    chunk = store.by_key["a"].chunk
    chunk.slab_class.release(chunk)


def _length_mismatch(store):
    item = store.by_key["a"]
    _rewrite(store.onesided, _slot(store, "a"), item,
             value_length=item.value_length + 1)


def _cas_mismatch(store):
    item = store.by_key["a"]
    _rewrite(store.onesided, _slot(store, "a"), item, cas=item.cas + 1)


def _out_of_window(store):
    index, item = store.onesided, store.by_key["a"]
    away = _empty_slot(index, inside=False, home=index.bucket_for("a"))
    index.unpublish(item)
    _rewrite(index, away, item)


def _duplicate_hash(store):
    index, item = store.onesided, store.by_key["a"]
    slot = _slot(store, "a")
    spare = _empty_slot(index, inside=True, home=index.bucket_for("a"))
    _rewrite(index, spare, item)
    _rewrite(index, slot, item)  # the first copy carries the item's stamp


def _stamp_missing(store):
    _write_stamp(store.by_key["a"], bytes(STAMP_BYTES))


def _stamp_outlives_its_entry(store):
    index, item = store.onesided, store.by_key["a"]
    stamp = index.stamp(item)
    index.unpublish(item)
    _write_stamp(item, stamp)  # the clear's zeroing undone


SEEDED = {
    "odd-version": (_odd_version, "at rest (unclosed seqlock bracket)"),
    "live-without-owner": (_live_without_owner, "live entry with no owner"),
    "unlinked-owner": (_unlinked_owner, "is unlinked but still exported"),
    "foreign-hash": (_foreign_hash, "is not owner 'a''s"),
    "freed-chunk": (_freed_chunk, "live entry over a freed chunk"),
    "length": (_length_mismatch, "entry length"),
    "cas": (_cas_mismatch, "entry cas"),
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
