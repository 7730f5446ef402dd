"""The exported bucket-index wire layout.

The server pins one fixed-layout memory region that clients probe with
RDMA READ (no server CPU).  Both sides must agree on the byte layout, so
it is specified here once, as a :mod:`struct` format, and the pack/
unpack pair is property-tested for round-trip fidelity.

Region layout::

    offset 0                 HEADER_BYTES          HEADER_BYTES + i*ENTRY_BYTES
    +------------------------+---------------------+----+--------------------+
    | magic u64 | buckets u32| slot 0 (64 bytes)   | .. | slot n+WINDOW-2    |
    +------------------------+---------------------+----+--------------------+

The index is window-associative: a key may sit in any of the ``WINDOW``
slots starting at its home bucket ``hash64(key) % n_buckets``.  The
region has ``WINDOW - 1`` spill slots past the last bucket, so a window
never wraps and one READ of ``WINDOW_BYTES`` fetches all of it.  A key
whose window is full displaces its home slot's holder, and the loser
falls back to RPC, which is always correct -- absence from the index
never proves absence from the cache.

Entry layout (64 bytes, little-endian, 16 trailing pad bytes)::

    version      u64   seqlock counter: even = stable, odd = mutating
    key_hash     u64   hash64(key); 0 marks an empty slot
    value_rkey   u32   rkey of the slab page holding the value
    value_offset u32   byte offset of the value within that page
    value_length u32   exact value length in bytes
    flags        u32   client opaque flags
    cas          u64   CAS token at publish time (served by ``gets``)
    deadline_us  u64   absolute expiry on the sim clock in µs; 0 = never

``version`` is the seqlock: the server bumps it to odd before touching
any other field and back to even after, and it strictly increases, so
a changed version names any concurrent mutation.  ``deadline_us``
folds both the item's exptime and any pending ``flush_all`` horizon into
one client-checkable instant -- it is rounded *down* so the client never
serves a value the server would already consider expired (expiring early
merely causes an RPC fallback, which is authoritative).

Stamp layout (24 bytes, little-endian), in the value's own slab chunk
right behind its last byte::

    version u64 | key_hash u64 | cas u64

The server rewrites a published item's stamp in the steps that open
(odd version) and close (even version) each mutation of its entry, and
zeroes it in the step that clears or takes the slot, so a stamp equal to
a stable entry's ``(version, key_hash, cas)`` proves that entry still
publishes that item.  A client fetches ``value_length +
STAMP_BYTES`` in one READ and checks the tail: the stamp is the last
thing the READ reads, and a linked chunk's value is never rewritten, so
the value bytes before a valid stamp are that item's.  Every slab class
reserves ``ITEM_HEADER_OVERHEAD`` plus the key behind the value, so the
stamp always fits in the chunk.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

#: Identifies the region layout; bumped if the struct format or the
#: placement rule changes.
INDEX_MAGIC = 0x1D5EC0DE_0003
#: Header: magic u64 + bucket count u32, padded to one entry slot.
HEADER_FORMAT = "<QI52x"
HEADER_BYTES = struct.calcsize(HEADER_FORMAT)
#: One entry (48 significant bytes padded to a 64-byte slot).
ENTRY_FORMAT = "<QQIIIIQQ16x"
ENTRY = struct.Struct(ENTRY_FORMAT)
ENTRY_BYTES = ENTRY.size
#: The stamp behind a published value: the entry's version, key_hash, cas.
STAMP_FORMAT = "<QQQ"
STAMP_BYTES = struct.calcsize(STAMP_FORMAT)
#: Slots a key may occupy, from its home bucket on.
WINDOW = 8
#: One window: what a first GET READs to find its key's slot.
WINDOW_BYTES = WINDOW * ENTRY_BYTES
#: Where ``key_hash`` sits within an entry (after the u64 version).
KEY_HASH_OFFSET = 8
#: What names an entry's item: ``key_hash``, ``value_rkey`` and
#: ``value_offset``, contiguous from ``KEY_HASH_OFFSET``.
IDENTITY_FORMAT = "<QII"
#: Default bucket count: power of two, sized well above the working sets
#: the experiments drive so displacement stays rare.
DEFAULT_BUCKETS = 4096

#: Where ``cas`` sits within an entry.
CAS_OFFSET = 32
#: The ``version`` word that leads both an entry and a stamp: a seqlock
#: bracket's opening step rewrites only this word, in both.
VERSION = struct.Struct("<Q")
#: What a bracket reads of an entry, from offset 0: ``version``,
#: ``key_hash``, and the value it names (``value_rkey``,
#: ``value_offset``, ``value_length``: its stamp sits right behind it).
HELD = struct.Struct("<QQIII")
#: One slot's ``key_hash``, the rest of the slot skipped: walks a run of slots.
_SLOT_KEY_HASH = struct.Struct(f"<{KEY_HASH_OFFSET}xQ{ENTRY_BYTES - KEY_HASH_OFFSET - 8}x")

assert HEADER_BYTES == 64 and ENTRY_BYTES == 64 and STAMP_BYTES == 24


def hash64(key: str) -> int:
    """The 64-bit key fingerprint stored in ``key_hash``.

    blake2b is stable across processes (unlike ``hash()``), and the zero
    digest -- the empty-slot marker -- is remapped to 1.
    """
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    return value or 1


@dataclass(slots=True)
class IndexEntry:
    """One unpacked slot entry (see module docstring for semantics)."""

    version: int = 0
    key_hash: int = 0
    value_rkey: int = 0
    value_offset: int = 0
    value_length: int = 0
    flags: int = 0
    cas: int = 0
    deadline_us: int = 0

    @property
    def stable(self) -> bool:
        """True when the version marks the entry as not mid-mutation."""
        return self.version % 2 == 0

    @property
    def live(self) -> bool:
        """True for a stable, occupied slot."""
        return self.stable and self.key_hash != 0


def pack_entry(entry: IndexEntry) -> bytes:
    """Serialize *entry* into its 64-byte slot representation."""
    return ENTRY.pack(
        entry.version,
        entry.key_hash,
        entry.value_rkey,
        entry.value_offset,
        entry.value_length,
        entry.flags,
        entry.cas,
        entry.deadline_us,
    )


def unpack_entry(raw: bytes) -> IndexEntry:
    """Deserialize a 64-byte slot back into an :class:`IndexEntry`."""
    return IndexEntry(*ENTRY.unpack(raw))


def stamp_of(raw: bytes) -> bytes:
    """The 24-byte stamp a value carries while the packed 64-byte entry
    *raw* publishes it, cut from its bytes: its version, key_hash, cas."""
    return raw[:KEY_HASH_OFFSET + 8] + raw[CAS_OFFSET:CAS_OFFSET + 8]


def pack_header(n_buckets: int) -> bytes:
    """Serialize the region header."""
    return struct.pack(HEADER_FORMAT, INDEX_MAGIC, n_buckets)


def unpack_header(raw: bytes) -> tuple[int, int]:
    """(magic, n_buckets) from the region header bytes."""
    magic, n_buckets = struct.unpack(HEADER_FORMAT, raw)
    return magic, n_buckets


def region_bytes(n_buckets: int) -> int:
    """Size of the exported region: the header, then one slot per bucket
    and the ``WINDOW - 1`` spill slots behind the last one."""
    return HEADER_BYTES + (n_buckets + WINDOW - 1) * ENTRY_BYTES


def entry_offset(slot: int) -> int:
    """Byte offset of *slot*'s entry within the exported region (a
    window starts at its home bucket's slot)."""
    return HEADER_BYTES + slot * ENTRY_BYTES


def find_slot(window: bytes, key_hash: int) -> int | None:
    """Position within *window* (the bytes of ``WINDOW`` slots) of the
    first entry holding *key_hash* (0: the first empty one), or None.
    Compares the 8-byte hash field of each slot without unpacking the
    entries."""
    return _find(window, key_hash.to_bytes(8, "little"))


def find_value(window: bytes, key_hash: int, rkey: int, offset: int) -> int | None:
    """Position within *window* of the first entry holding *key_hash*
    and naming the value at (*rkey*, *offset*), or None."""
    return _find(window, struct.pack(IDENTITY_FORMAT, key_hash, rkey, offset))


def place_slot(window: bytes, key_hash: int) -> int:
    """Where a publish of *key_hash* goes in *window*: the first slot
    already holding it, else the first empty one, else the home slot (0).
    One pass over the slots' ``key_hash`` fields."""
    empty = None
    for at, (held,) in enumerate(_SLOT_KEY_HASH.iter_unpack(window)):
        if held == key_hash:
            return at
        if not held and empty is None:
            empty = at
    return empty or 0


def occupied(slots: bytes) -> list[int]:
    """Positions within *slots* (the bytes of consecutive slots) of the
    entries whose ``key_hash`` is not 0, without unpacking the entries."""
    return [at for at, (key_hash,) in enumerate(_SLOT_KEY_HASH.iter_unpack(slots)) if key_hash]


def _find(window: bytes, want: bytes) -> int | None:
    """The first slot of *window* whose bytes from ``key_hash`` on
    start with *want*."""
    for at in range(KEY_HASH_OFFSET, len(window), ENTRY_BYTES):
        if window[at:at + len(want)] == want:
            return at // ENTRY_BYTES
    return None
