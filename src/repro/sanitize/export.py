"""Exported-index sanitizer (the one-sided GET path's ground truth).

Cross-checks the pinned region remote clients actually read -- a
store's :class:`~repro.memcached.onesided.index.ExportedIndex` keeps no
other copy of its entries -- against the live item population.
Invariants:

1. at rest (between store operations) no entry is mid-mutation: every
   version is even -- an odd version here means a seqlock bracket was
   opened and never closed;
2. every *live* entry (stable, non-zero hash) names the value location
   of a linked item -- its owner -- that hashes to that entry's
   ``key_hash`` and whose chunk is marked used: a live entry over a
   freed chunk is the one-sided use-after-free in the making (the
   remote reader would serve dead or re-carved bytes with a perfectly
   even version), and a location no linked item holds is an
   invalidation that was skipped;
3. a live entry's length and cas match its owner's exactly;
4. a live entry lies inside its owner's window (the ``WINDOW`` slots
   from its home bucket): a client only ever READs that window, so an
   entry outside it is unreachable;
5. a key hash is live in at most one slot: two would leave a client's
   window scan free to serve either one;
6. the owner of a sound live entry carries that entry's stamp
   (``version``, ``key_hash``, ``cas``) right behind its value -- a
   client accepts a fetch by exactly that comparison, so a missing or
   outdated stamp turns every hit into a retry;
7. no linked item that is not published carries a stamp naming it
   (its ``key_hash`` and ``cas``) unless a live entry carries that very
   stamp -- a valid stamp left on an unpublished or displaced item
   would let a client that remembers the old entry serve it.

Any of these firing *before* a client reads the slot is the point:
the sanitizer sees the corruption at the mutation checkpoint, not two
hundred operations later when a differential replay finally mismatches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import struct

from repro.memcached.onesided.layout import (
    STAMP_FORMAT,
    WINDOW,
    hash64,
    stamp_of,
    unpack_entry,
)
from repro.sanitize.errors import ExportIndexError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.counters import SanitizerCounters
    from repro.memcached.store import ItemStore


class ExportSanitizer:
    """Checkpoint validator for the server's exported one-sided index."""

    __slots__ = ("counters", "strict")

    def __init__(
        self, counters: Optional["SanitizerCounters"] = None, strict: bool = True
    ) -> None:
        self.counters = counters
        self.strict = strict

    def check(self, store: "ItemStore") -> list[str]:
        """Validate *store*'s index; returns violations (raises when strict).

        A store without an exported index (no one-sided client was ever
        wired to its server) passes vacuously.
        """
        violations: list[str] = []
        index = getattr(store, "onesided", None)
        if index is None:
            return violations

        # The owner of an entry is the linked item stored where it points.
        located = {}
        for item in store.by_key.values():
            mr, offset = item.chunk.rdma_location()
            located[mr.rkey, offset] = item
        live_in: dict[int, int] = {}  # key hash -> first slot holding it
        owners = set()
        live_stamps = set()
        for slot in range(index.n_slots):
            raw = index.entry_bytes(slot)
            entry = unpack_entry(raw)
            sound = len(violations)
            if not entry.stable:
                violations.append(
                    f"slot {slot}: odd version {entry.version} at rest "
                    f"(unclosed seqlock bracket)"
                )
            if entry.live:
                live_stamps.add(stamp_of(raw))
                first = live_in.setdefault(entry.key_hash, slot)
                if first != slot:
                    violations.append(
                        f"slot {slot}: key hash {entry.key_hash:#x} is also "
                        f"live in slot {first}"
                    )
                owner = located.get((entry.value_rkey, entry.value_offset))
                if owner is None:
                    violations.append(
                        f"slot {slot}: live entry with no owner "
                        f"(invalidation skipped?)"
                    )
                else:
                    owners.add(owner)
                    home = index.bucket_for(owner.key)
                    if not home <= slot < home + WINDOW:
                        violations.append(
                            f"slot {slot}: owner {owner.key!r} is outside "
                            f"its window [{home}, {home + WINDOW})"
                        )
                    violations.extend(self._check_owned(slot, entry, owner))
                    # The stamp is derived state: judged on a sound entry.
                    if len(violations) == sound and (
                        index.stamp(owner) != stamp_of(raw)
                    ):
                        violations.append(
                            f"slot {slot}: owner {owner.key!r} does not carry "
                            f"its entry's stamp"
                        )

        for item in store.by_key.values():
            if item in owners:
                continue
            raw = index.stamp(item)
            _version, key_hash, cas = struct.unpack(STAMP_FORMAT, raw)
            if (key_hash == hash64(item.key) and cas == item.cas
                    and raw not in live_stamps):
                violations.append(
                    f"item {item.key!r} is not published but carries a "
                    f"valid stamp"
                )

        if self.counters is not None:
            self.counters.export_checks += 1
            self.counters.export_violations += len(violations)
        if violations and self.strict:
            raise ExportIndexError("; ".join(violations))
        return violations

    @staticmethod
    def _check_owned(slot: int, entry, owner) -> list[str]:
        """Invariants 2-3 for one (live entry, owner item) pair."""
        violations: list[str] = []
        if not owner.linked:
            violations.append(
                f"slot {slot}: owner {owner.key!r} is unlinked but "
                f"still exported"
            )
        if hash64(owner.key) != entry.key_hash:
            violations.append(
                f"slot {slot}: entry hash {entry.key_hash:#x} is not "
                f"owner {owner.key!r}'s"
            )
        if not owner.chunk.used:
            violations.append(
                f"slot {slot}: live entry over a freed chunk "
                f"(one-sided use-after-free)"
            )
        if entry.value_length != owner.value_length:
            violations.append(
                f"slot {slot}: entry length {entry.value_length} != "
                f"owner {owner.key!r} length {owner.value_length}"
            )
        if entry.cas != owner.cas:
            violations.append(
                f"slot {slot}: entry cas {entry.cas} != owner "
                f"{owner.key!r} cas {owner.cas}"
            )
        return violations
