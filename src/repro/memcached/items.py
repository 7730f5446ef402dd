"""Items: the unit of storage.

An :class:`Item` mirrors memcached's ``item`` struct: key, client flags,
expiry and CAS id.  The store's key index and per-class LRUs hold items
by reference (no intrusive links; ``linked`` says whether they do).  The
value bytes live in the slab chunk the item was allocated from, not in
the item object -- that indirection is what lets the UCR server
RDMA-expose values directly from registered slab pages.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memcached.slabs import SlabChunk

#: Bytes of per-item metadata (struct item + key + CAS), mirroring the
#: ~50-60 byte overhead of the real implementation; used for slab-class
#: sizing so our class distribution matches memcached's.
ITEM_HEADER_OVERHEAD = 56

_cas_ids = itertools.count(1)


def next_cas_id() -> int:
    """Globally unique CAS token (memcached uses a per-process counter)."""
    return next(_cas_ids)


def reset_cas_ids() -> None:
    """Restart the token counter (cluster setup, like the QPN registry).

    Raw tokens ride the text wire as ASCII digits, so a counter that
    keeps growing across simulations changes message sizes -- and with
    them transfer times -- between otherwise identical runs.
    """
    global _cas_ids
    _cas_ids = itertools.count(1)


class Item:
    """One stored key/value pair."""

    __slots__ = (
        "key",
        "flags",
        "exptime",
        "cas",
        "value_length",
        "chunk",
        "linked",
        "last_access",
        "created_at",
    )

    def __init__(
        self,
        key: str,
        flags: int,
        exptime: float,
        value_length: int,
        chunk: "SlabChunk",
    ) -> None:
        self.key = key
        self.flags = flags
        #: Absolute expiry in sim-seconds; 0.0 means never.
        self.exptime = exptime
        self.cas = next_cas_id()
        self.value_length = value_length
        self.chunk = chunk
        self.linked = False
        self.last_access = 0.0
        self.created_at = 0.0

    @property
    def total_bytes(self) -> int:
        """Footprint used for slab class selection and stats."""
        return ITEM_HEADER_OVERHEAD + len(self.key) + self.value_length

    def value(self) -> bytes:
        """Read the value bytes out of the slab chunk."""
        return self.chunk.read(self.value_length)

    def set_value(self, data: bytes) -> None:
        """Write value bytes into the slab chunk of a fresh item.

        A linked item is immutable: a zero-copy reply or a one-sided
        reader may still be reading its chunk, so a new value is always a
        new item (``ItemStore._replace``).
        """
        if self.linked:
            raise ValueError(f"{self!r} is linked: its value cannot change")
        if len(data) > self.chunk.capacity:
            raise ValueError(
                f"value of {len(data)} bytes exceeds chunk of {self.chunk.capacity}"
            )
        self.chunk.write(data)
        self.value_length = len(data)

    def is_expired(self, now_seconds: float) -> bool:
        return self.exptime != 0.0 and now_seconds >= self.exptime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Item {self.key!r} {self.value_length}B cas={self.cas}>"
