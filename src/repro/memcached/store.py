"""The storage engine: slabs + key index + per-class LRUs + expiry + stats.

:class:`ItemStore` is shared by the sockets workers and the UCR contexts
of one server (the paper's dual-mode design): all transports see the same
data.  Methods are synchronous Python -- the *time* cost of each
operation is charged by the calling server layer, which knows whose CPU
is doing the work (``MemcachedCosts.op_execute_us``: hash, lookup, LRU
and slab bookkeeping as one flat cost).

The key index is a ``dict`` and each slab class's LRU an
``OrderedDict`` (oldest first, most recently used last): memcached's
chained hash table and intrusive tail queues, minus the machinery that
only bounds a C request's worst case.  Eviction stays per class, so
pressure in one size class never evicts items of another (memcached's
"calcification", reproduced on purpose).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Optional

from repro.memcached.errors import ClientError, ServerError
from repro.memcached.items import ITEM_HEADER_OVERHEAD, Item
from repro.memcached.serving.leases import LeaseTable
from repro.memcached.slabs import CHUNK_MIN, GROWTH_FACTOR, PAGE_BYTES, SlabAllocator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator
    from repro.verbs.mr import ProtectionDomain

#: Above this, exptime is an absolute timestamp (memcached convention).
RELATIVE_EXPTIME_LIMIT = 60 * 60 * 24 * 30
#: Maximum key length (bytes), per the protocol spec.
MAX_KEY_LENGTH = 250
#: Counters are uint64: incr wraps here, and a stored value at or above
#: it fails safe_strtoull-style parsing (memcached's behaviour).
COUNTER_LIMIT = 2**64
#: How many of a class's coldest items the reclaim pass inspects for an
#: expired or flushed victim before falling back to evicting the coldest.
RECLAIM_SCAN = 50


#: Minimum sim-seconds between slab page moves (memcached's automover is
#: similarly rate-limited; this keeps the mover off the hot path).
SLAB_AUTOMOVE_WINDOW_S = 1.0
#: How long a won ``getl`` fill lease stays exclusive before the next
#: miss may re-win it (holder presumed dead).  See docs/SERVING.md; the
#: table itself lives at ``ItemStore.leases``.
LEASE_TTL_S = 2.0
#: How long past its exptime an expired value stays servable to
#: ``getl ... stale`` callers that lost the lease race.
STALE_WINDOW_S = 10.0


@dataclass(frozen=True)
class StoreConfig:
    """Engine sizing knobs (memcached command-line equivalents).  The
    chunk ladder (-n, -f) is memcached's default, ``slabs.CHUNK_MIN`` /
    ``slabs.GROWTH_FACTOR``."""

    max_bytes: int = 64 * PAGE_BYTES        # -m
    evictions_enabled: bool = True           # -M inverts this
    #: The slab mover: when an allocation fails, reassign an empty page
    #: from another class before evicting.  Off by default -- enabling it
    #: changes eviction victims, so default runs stay digest-identical.
    slab_automove: bool = False


@dataclass
class StoreStats:
    """The counters behind the ``stats`` command."""

    cmd_get: int = 0
    cmd_set: int = 0
    get_hits: int = 0
    get_misses: int = 0
    delete_hits: int = 0
    delete_misses: int = 0
    incr_hits: int = 0
    incr_misses: int = 0
    decr_hits: int = 0
    decr_misses: int = 0
    cas_hits: int = 0
    cas_misses: int = 0
    cas_badval: int = 0
    evictions: int = 0
    expired_unfetched: int = 0
    reclaimed: int = 0
    oom_errors: int = 0
    slab_moves: int = 0
    total_items: int = 0
    curr_items: int = 0
    bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class ItemStore:
    """See module docstring."""

    def __init__(
        self,
        sim: "Simulator",
        config: StoreConfig = StoreConfig(),
        pd: Optional["ProtectionDomain"] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.slabs = SlabAllocator(max_bytes=config.max_bytes, pd=pd)
        #: key -> linked item: the index every lookup goes through.
        self.by_key: dict[str, Item] = {}
        #: One LRU per slab class, indexed by class id: linked items,
        #: coldest first, most recently used last.
        self.lrus: list[OrderedDict[Item, None]] = [
            OrderedDict() for _ in self.slabs.classes
        ]
        self.stats = StoreStats()
        #: Items created strictly before this instant are flushed.
        self._flush_before = -1.0
        #: Per-class pressure counters for ``stats items``:
        #: class_id -> {evicted, reclaimed, outofmemory}.
        self._class_stats: dict[int, dict[str, int]] = {}
        #: Optional observer called as ``on_evict(key, kind)`` whenever
        #: memory pressure destroys a value: kind is 'evicted' (live LRU
        #: tail), 'reclaimed' (expired/flushed reap) or 'lost' (the old
        #: value of an unlink-first replacement whose re-store failed).
        #: Pure Python, never touches the sim clock: digest-neutral.
        self.on_evict: Optional[Callable[[str, str], None]] = None
        self._last_automove_s = float("-inf")
        #: Anti-dogpile fill leases, keyed by key (docs/SERVING.md).
        self.leases = LeaseTable(self.now_seconds, LEASE_TTL_S)
        #: The exported one-sided index, when this store backs an
        #: RDMA-capable server (set by ExportedIndex itself).  Every
        #: write-path hook below is pure Python: digest-neutral.
        self.onesided = None

    # -- time helpers ------------------------------------------------------------

    def now_seconds(self) -> float:
        return self.sim.now / 1e6

    def absolute_exptime(self, exptime: float) -> float:
        """Apply memcached's relative-vs-absolute exptime convention."""
        if exptime == 0:
            return 0.0
        if exptime < 0:
            return -1.0  # sentinel: expired at any time (including t=0)
        if exptime <= RELATIVE_EXPTIME_LIMIT:
            return self.now_seconds() + exptime
        return float(exptime)

    # -- storage commands: one path ---------------------------------------------------

    def store(self, op: str, key: str, value: bytes, flags: int = 0, exptime: float = 0,
              cas_token: int = 0, reserved: Optional[Item] = None) -> tuple[str, Optional[Item]]:
        """set / add / replace / append / prepend / cas, the one way in.

        Returns ``("stored", linked item)`` or ``(status, None)`` with
        status ``not_stored`` (add of a present key; replace, append or
        prepend of an absent one) or, for cas, ``not_found`` / ``exists``.
        Every call counts one ``cmd_set``, as memcached's
        ``process_update_command`` does.  Replacement is unlink-first:
        the old item is gone before the new one is allocated, so a
        failed allocation reports the old value ``"lost"`` to
        ``on_evict``.  append / prepend keep the old flags and deadline.

        *reserved* is a two-phase UCR item (:meth:`reserve`): its chunk
        already holds the value, and it keeps the flags and exptime it
        was reserved with, so *value*, *flags* and *exptime* are unused.
        A reserved item that is not stored is abandoned here.
        """
        self.validate_key(key)
        self.stats.cmd_set += 1
        old = self._live_item(key)
        status = "stored"
        if op == "cas":
            if old is None:
                self.stats.cas_misses += 1
                status = "not_found"
            elif old.cas != cas_token:
                self.stats.cas_badval += 1
                status = "exists"
            else:
                self.stats.cas_hits += 1
        elif op != "set" and (old is None) != (op == "add"):
            # add needs the key absent; replace / append / prepend present.
            status = "not_stored"
        if status != "stored":
            if reserved is not None:
                self.abandon(reserved)
            return status, None
        if op in ("append", "prepend"):
            value = old.value() + value if op == "append" else value + old.value()
            flags, deadline = old.flags, old.exptime
        else:
            deadline = self.absolute_exptime(exptime)
        return "stored", self._replace(old, key, value, flags, deadline, reserved)

    def set(self, key: str, value: bytes, flags: int = 0, exptime: float = 0) -> Item:
        return self.store("set", key, value, flags, exptime)[1]

    def add(self, key: str, value: bytes, flags: int = 0, exptime: float = 0) -> Optional[Item]:
        return self.store("add", key, value, flags, exptime)[1]

    def replace(self, key: str, value: bytes, flags: int = 0, exptime: float = 0) -> Optional[Item]:
        return self.store("replace", key, value, flags, exptime)[1]

    def append(self, key: str, suffix: bytes) -> Optional[Item]:
        return self.store("append", key, suffix)[1]

    def prepend(self, key: str, prefix: bytes) -> Optional[Item]:
        return self.store("prepend", key, prefix)[1]

    def cas(self, key: str, value: bytes, cas_token: int, flags: int = 0, exptime: float = 0) -> str:
        """Compare-and-swap; returns 'stored' | 'exists' | 'not_found'."""
        return self.store("cas", key, value, flags, exptime, cas_token)[0]

    # -- retrieval ---------------------------------------------------------------------

    def get(self, key: str) -> Optional[Item]:
        """Retrieve a live item (lazy expiry; bumps LRU and stats)."""
        self.validate_key(key)
        self.stats.cmd_get += 1
        item = self._live_item(key)
        if item is None:
            self.stats.get_misses += 1
            return None
        return self._hit(item, self.now_seconds())

    def _hit(self, item: Item, now: float) -> Item:
        """A read hit (get and getl alike): count it and bump the LRU."""
        self.stats.get_hits += 1
        item.last_access = now
        self.lrus[item.chunk.slab_class.class_id].move_to_end(item)
        if self.onesided is not None:
            # Collision takeover / republish after a flush invalidation.
            self.onesided.ensure(item)
        return item

    def getl(self, key: str, stale_ok: bool = False) -> tuple[str, Optional[Item], int]:
        """Get-with-lease (the anti-dogpile read, docs/SERVING.md).

        Returns ``(state, item, token)``:

        - ``("hit", item, 0)`` -- live value, exactly like :meth:`get`;
        - ``("won", stale_or_None, token)`` -- miss, and the caller won
          the fill lease: regenerate and ``set`` with *token*;
        - ``("lost", stale_or_None, 0)`` -- miss, someone else holds the
          lease; with *stale_ok* the expired ghost (if still within
          ``STALE_WINDOW_S`` of its exptime) rides along to serve.

        Unlike :meth:`get`, an expired ghost is **not** unlinked here:
        the stale value must survive for lease losers to serve while
        the winner regenerates.  Lazy reaping stays with the ordinary
        read/write paths.  The stale peek is deliberately LRU-neutral.
        """
        self.validate_key(key)
        self.stats.cmd_get += 1
        item = self.by_key.get(key)
        now = self.now_seconds()
        if item is not None and not (item.is_expired(now) or self._is_flushed(item)):
            return "hit", self._hit(item, now), 0
        self.stats.get_misses += 1
        stale: Optional[Item] = None
        if stale_ok and item is not None and self._stale_servable(item, now):
            stale = item
        lease = self.leases.acquire(key)
        if lease is not None:
            return "won", stale, lease.token
        return "lost", stale, 0

    def _stale_servable(self, item: Item, now: float) -> bool:
        """An expired-by-exptime ghost within the stale window.

        Flushed items are never servable (``flush_all`` is a promise),
        and neither are negative-exptime items (expired-at-birth has no
        meaningful window).
        """
        if self._is_flushed(item):
            return False
        if item.exptime <= 0:
            return False
        return now < item.exptime + STALE_WINDOW_S

    # -- mutation ----------------------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Unlink *key*; True if it was present and live."""
        self.validate_key(key)
        item = self._live_item(key)
        if item is None:
            self.stats.delete_misses += 1
            return False
        self.stats.delete_hits += 1
        self.leases.clear(key)
        self._unlink(item)
        return True

    def incr(self, key: str, delta: int) -> Optional[int]:
        return self.arith(key, delta)[0]

    def decr(self, key: str, delta: int) -> Optional[int]:
        return self.arith(key, -delta)[0]

    def arith(self, key: str, delta: int) -> tuple[Optional[int], Optional[Item]]:
        """incr (*delta* >= 0, wraps at uint64) or decr (clamps at zero).

        Returns ``(new value, item)``, or ``(None, None)`` on a miss.  A
        result that outgrows its chunk is re-stored with the old flags and
        deadline, as memcached's ``do_add_delta`` allocates it."""
        self.validate_key(key)
        item = self._live_item(key)
        counter = "incr" if delta >= 0 else "decr"
        if item is None:
            setattr(self.stats, f"{counter}_misses", getattr(self.stats, f"{counter}_misses") + 1)
            return None, None
        raw = item.value()
        if not raw.isdigit() or int(raw) >= COUNTER_LIMIT:
            raise ClientError("cannot increment or decrement non-numeric value")
        if delta >= 0:
            value = (int(raw) + delta) % COUNTER_LIMIT  # incr wraps (uint64)
        else:
            value = max(0, int(raw) + delta)  # decr clamps at zero, per spec
        new = str(value).encode()
        setattr(self.stats, f"{counter}_hits", getattr(self.stats, f"{counter}_hits") + 1)
        if len(new) > item.chunk.capacity - ITEM_HEADER_OVERHEAD - len(key):
            return value, self._replace(item, key, new, item.flags, item.exptime)
        old_len = item.value_length
        if self.onesided is not None:
            # In-place chunk mutation: open the seqlock window first
            # (bump-to-odd) so no one-sided reader can accept bytes
            # torn across this edit, republish (bump-to-even) after.
            self.onesided.withdraw(item)
        item.set_value(new)
        item.bump_cas()
        if self.onesided is not None:
            self.onesided.publish(item)
        self.stats.bytes += len(new) - old_len
        return value, item

    def touch(self, key: str, exptime: float) -> bool:
        """Update expiry without touching the value; True on hit."""
        item = self._live_item(key)
        if item is None:
            return False
        item.exptime = self.absolute_exptime(exptime)
        if self.onesided is not None:
            self.onesided.publish(item)  # refresh the exported deadline
        return True

    def flush_all(self, delay_seconds: float = 0.0) -> None:
        """Invalidate everything created before now (+delay)."""
        self._flush_before = self.now_seconds() + delay_seconds
        self.leases.clear_all()
        if self.onesided is not None:
            self.onesided.invalidate_all()

    # -- two-phase store (the UCR set path, paper §V-B) -----------------------------

    def reserve(self, key: str, value_length: int, flags: int = 0, exptime: float = 0) -> Item:
        """Phase 1: allocate an (unlinked) item so its slab chunk can be
        named as the RDMA READ destination before the value arrives."""
        self.validate_key(key)
        return self._alloc(key, value_length, flags, self.absolute_exptime(exptime))

    def commit(self, item: Item) -> Item:
        """Phase 2: the value is in the chunk; link the item (replacing any
        existing entry for the key)."""
        return self.store("set", item.key, b"", reserved=item)[1]

    def abandon(self, item: Item) -> None:
        """Cancel a reservation (transfer failed): free the chunk."""
        if item.linked:
            raise ValueError("cannot abandon a linked item")
        self.slabs.free(item.chunk)

    # -- internals ------------------------------------------------------------------------

    def _replace(self, old: Optional[Item], key: str, value: bytes, flags: int,
                 deadline: float, reserved: Optional[Item] = None) -> Item:
        """Unlink *old*, then link *reserved* or a new item holding
        *value* (memcached's order: an allocation failure here has already
        destroyed the old value, and the loss is reported so verification
        can adopt it)."""
        if old is not None:
            self._unlink(old)
        item = reserved
        if item is None:
            try:
                item = self._alloc(key, len(value), flags, deadline)
            except ServerError:
                if old is not None and self.on_evict is not None:
                    self.on_evict(key, "lost")
                raise
            item.set_value(value)
        self._link(item)
        return item

    def _alloc(self, key: str, value_length: int, flags: int, deadline: float) -> Item:
        """An unlinked item with a chunk for *value_length* bytes, evicting
        from the class's LRU if the slab allocator is full."""
        total = ITEM_HEADER_OVERHEAD + len(key) + value_length
        if total > PAGE_BYTES:
            raise ServerError("object too large for cache")
        chunk = self.slabs.alloc(total)
        if chunk is None:
            chunk = self._evict_and_retry(total)
        item = Item(key, flags, deadline, value_length, chunk)
        item.created_at = self.now_seconds()
        item.last_access = item.created_at
        return item

    def _evict_and_retry(self, total: int):
        cls = self.slabs.class_for(total)
        assert cls is not None
        if not self.config.evictions_enabled:
            # -M mode: never evict, answer SERVER_ERROR instead.
            self._record_oom(cls)
            raise ServerError("out of memory storing object")
        if self._try_rebalance(cls):
            chunk = self.slabs.alloc(total)
            if chunk is not None:
                return chunk
        now = self.now_seconds()
        lru = self.lrus[cls.class_id]
        # Pass 1: reap expired from the cold end; pass 2: evict the coldest.
        victim = None
        kind = "evicted"
        for candidate in islice(lru, RECLAIM_SCAN):
            if candidate.is_expired(now) or self._is_flushed(candidate):
                victim = candidate
                kind = "reclaimed"
                break
        if victim is None:
            victim = next(iter(lru), None)
        if victim is None:
            self._record_oom(cls)
            raise ServerError("out of memory storing object")
        self._record_eviction(victim, kind)
        self._unlink(victim)
        chunk = self.slabs.alloc(total)
        if chunk is None:  # single eviction always frees a same-class chunk
            self._record_oom(cls)
            raise ServerError("out of memory storing object")
        return chunk

    def _try_rebalance(self, needy) -> bool:
        """The slab mover: pull an empty page from another class before
        evicting.  Rate-limited on the sim clock (one move per automove
        window); donors are scanned in class order, so victim selection
        stays deterministic."""
        if not self.config.slab_automove:
            return False
        now = self.now_seconds()
        if now - self._last_automove_s < SLAB_AUTOMOVE_WINDOW_S:
            return False
        for donor in self.slabs.classes:
            if donor is needy:
                continue
            if self.slabs.reassign_page(donor, needy):
                self.stats.slab_moves += 1
                self._last_automove_s = now
                return True
        return False

    def _record_eviction(self, victim: Item, kind: str) -> None:
        """Count (and report) the pressure-driven removal of *victim*;
        kind is 'evicted' (live LRU tail) or 'reclaimed' (expired or
        flushed, reaped instead of evicting)."""
        cid = victim.chunk.slab_class.class_id
        if kind == "reclaimed":
            self.stats.expired_unfetched += 1
            self.stats.reclaimed += 1
            self._bump_class(cid, "reclaimed")
        else:
            self.stats.evictions += 1
            self._bump_class(cid, "evicted")
        if self.on_evict is not None:
            self.on_evict(victim.key, kind)

    def _record_oom(self, cls) -> None:
        self.stats.oom_errors += 1
        self._bump_class(cls.class_id, "outofmemory")

    def _bump_class(self, class_id: int, counter: str) -> None:
        per = self._class_stats.setdefault(
            class_id, {"evicted": 0, "reclaimed": 0, "outofmemory": 0}
        )
        per[counter] += 1

    def _live_item(self, key: str) -> Optional[Item]:
        """Lookup with lazy expiry and flush filtering."""
        item = self.by_key.get(key)
        if item is None:
            return None
        if item.is_expired(self.now_seconds()) or self._is_flushed(item):
            self._unlink(item)
            return None
        return item

    def _is_flushed(self, item: Item) -> bool:
        return item.created_at < self._flush_before and self._flush_before <= self.now_seconds()

    def _link(self, item: Item) -> None:
        if item.linked:
            raise ValueError(f"{item!r} already linked")
        # Any successful value write settles the key's fill race.
        self.leases.clear(item.key)
        self.by_key[item.key] = item
        self.lrus[item.chunk.slab_class.class_id][item] = None
        item.linked = True
        self.stats.total_items += 1
        self.stats.curr_items += 1
        self.stats.bytes += item.total_bytes
        if self.onesided is not None:
            self.onesided.publish(item)

    def _unlink(self, item: Item) -> None:
        if self.onesided is not None:
            # Invalidate before the chunk returns to the free list: no
            # exported entry may ever name a reusable chunk (eviction and
            # slab rebalancing both route through here).
            self.onesided.unpublish(item)
        del self.by_key[item.key]
        del self.lrus[item.chunk.slab_class.class_id][item]
        item.linked = False
        self.stats.curr_items -= 1
        self.stats.bytes -= item.total_bytes
        self.slabs.free(item.chunk)

    @staticmethod
    def validate_key(key: str) -> None:
        if not key or len(key) > MAX_KEY_LENGTH:
            raise ClientError(f"bad key length {len(key)}")
        if any(c in key for c in " \r\n\t\0"):
            raise ClientError("key contains whitespace or control characters")

    def stats_dict(self) -> dict[str, int]:
        """The counters behind the top-level ``stats`` command."""
        d = self.stats.as_dict()
        d.update(self.slabs.stats())
        return d

    def slab_stats_detail(self) -> dict[str, int]:
        """``stats slabs``: per-class chunk accounting (active classes)."""
        out: dict[str, int] = {}
        for cls in self.slabs.classes:
            if cls.total_pages == 0:
                continue
            prefix = str(cls.class_id)
            out[f"{prefix}:chunk_size"] = cls.chunk_size
            out[f"{prefix}:chunks_per_page"] = cls.chunks_per_page
            out[f"{prefix}:total_pages"] = cls.total_pages
            out[f"{prefix}:total_chunks"] = cls.total_chunks
            out[f"{prefix}:used_chunks"] = cls.total_chunks - len(cls.free_chunks)
            out[f"{prefix}:free_chunks"] = len(cls.free_chunks)
        out["active_slabs"] = sum(1 for c in self.slabs.classes if c.total_pages)
        out["total_malloced"] = self.slabs.allocated_bytes
        return out

    def item_stats_detail(self) -> dict[str, int]:
        """``stats items``: per-class LRU occupancy, ages and pressure
        counters (evicted/reclaimed/outofmemory, memcached's names)."""
        out: dict[str, int] = {}
        now = self.now_seconds()
        for class_id, lru in enumerate(self.lrus):
            counters = self._class_stats.get(class_id)
            if not lru and counters is None:
                continue
            prefix = f"items:{class_id}"
            out[f"{prefix}:number"] = len(lru)
            coldest = next(iter(lru), None)
            out[f"{prefix}:age"] = int(now - coldest.last_access) if coldest else 0
            if counters is not None:
                out[f"{prefix}:evicted"] = counters["evicted"]
                out[f"{prefix}:reclaimed"] = counters["reclaimed"]
                out[f"{prefix}:outofmemory"] = counters["outofmemory"]
        return out

    def settings_dict(self) -> dict[str, int]:
        """``stats settings``: the -m/-M view of :class:`StoreConfig` and the
        fixed -n/-f chunk ladder (growth factor scaled by 100 to stay
        integral on the wire)."""
        cfg = self.config
        return {
            "maxbytes": cfg.max_bytes,
            "evictions": int(cfg.evictions_enabled),
            "chunk_size": CHUNK_MIN,
            "growth_factor_x100": int(round(GROWTH_FACTOR * 100)),
            "slab_automove": int(cfg.slab_automove),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ItemStore {self.stats.curr_items} items, {self.stats.bytes}B>"
