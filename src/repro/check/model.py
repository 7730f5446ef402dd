"""A pure-Python reference memcached: the oracle for differential checks.

:class:`ModelMemcached` implements the observable semantics of
:class:`repro.memcached.store.ItemStore` -- the full command surface,
flags, CAS, and exptime on the sim clock -- as plain dictionaries, with
*idealized* memory: no LRU, no eviction, no slab accounting.  Every
value write re-stores, as the store's does, so nothing clients observe
depends on slab geometry; where behaviour depends on memory *pressure*,
the model intentionally diverges and :data:`MODEL_DIVERGENCES` documents
how.

The model raises the same error taxonomy as the store
(:class:`~repro.memcached.errors.ClientError` /
:class:`~repro.memcached.errors.ServerError`) so callers can compare
failure modes, not just values.

:meth:`ModelMemcached.apply` is the front door the replay layer uses:
one IR ``Command`` in, one ``Reply`` out, total like the engine's.  It
shares the contract types with the code under test and nothing else:
the oracle never imports the engine it is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.memcached.command import Command, Reply
from repro.memcached.errors import ClientError, ServerError
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import (
    COUNTER_LIMIT,
    LEASE_TTL_S,
    MAX_KEY_LENGTH,
    RELATIVE_EXPTIME_LIMIT,
    STALE_WINDOW_S,
)

#: Where the model knowingly differs from :class:`ItemStore`.  Each entry
#: is (name, description); ``docs/CHECKING.md`` renders this list.
#:
#: Memory pressure is NOT on this list any more: the model still never
#: evicts *spontaneously*, but the replay layer adopts the store's
#: reported eviction/loss events through :meth:`ModelMemcached.evict`
#: and expects SERVER_ERROR where the store counted an OOM, so pressure
#: workloads verify exactly (see docs/CHECKING.md).
MODEL_DIVERGENCES: list[tuple[str, str]] = [
    (
        "no-stats",
        "stats/stats slabs/stats items counters are not modelled; the "
        "oracle checks data-path semantics only.",
    ),
    (
        "cas-token-values",
        "CAS tokens are allocated from a model-local counter, not the "
        "process-global item counter, so raw token values differ from "
        "any live store.  Comparators must canonicalize tokens by first "
        "occurrence (repro.check.differential does).",
    ),
]

@dataclass
class ModelItem:
    """Observable state of one stored key."""

    value: bytes
    flags: int
    exptime: float  # absolute sim-seconds; 0.0 = never, -1.0 = immediate
    cas: int
    created_at: float


@dataclass
class ModelResult:
    """Normalized outcome of a get/gets in the model."""

    value: bytes
    flags: int
    cas: int


class ModelMemcached:
    """See module docstring.

    ``clock`` returns the current time in (sim-)seconds; wire it to the
    live simulator (``lambda: sim.now / 1e6``) when checking against a
    running cluster, or to a manual counter in unit tests.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._items: dict[str, ModelItem] = {}
        self._next_cas = 1
        self._flush_before = -1.0
        #: Lease mirror (the store's LEASE_TTL_S): key -> (token,
        #: expires_at).  Tokens come from a model-local counter, like cas.
        self._leases: dict[str, tuple[int, float]] = {}
        self._next_lease_token = 1

    # -- time / validation helpers ---------------------------------------------

    def now_seconds(self) -> float:
        return self.clock()

    def absolute_exptime(self, exptime: float) -> float:
        """0 = immortal, negative = already expired, <= 30 days = relative,
        larger = an absolute unix-style timestamp (memcached's rule)."""
        if exptime == 0:
            return 0.0
        if exptime < 0:
            return -1.0
        if exptime <= RELATIVE_EXPTIME_LIMIT:
            return self.now_seconds() + exptime
        return float(exptime)

    @staticmethod
    def _validate_key(key: str) -> None:
        if not key or len(key) > MAX_KEY_LENGTH:
            raise ClientError(f"bad key length {len(key)}")
        if any(c in key for c in " \r\n\t\0"):
            raise ClientError("key contains whitespace or control characters")

    def _check_size(self, key: str, value: bytes) -> None:
        if ITEM_HEADER_OVERHEAD + len(key) + len(value) > PAGE_BYTES:
            raise ServerError("object too large for cache")

    def _bump_cas(self) -> int:
        cas = self._next_cas
        self._next_cas += 1
        return cas

    def _live(self, key: str) -> Optional[ModelItem]:
        item = self._items.get(key)
        if item is None:
            return None
        now = self.now_seconds()
        expired = item.exptime != 0.0 and now >= item.exptime
        flushed = item.created_at < self._flush_before <= now
        if expired or flushed:
            del self._items[key]
            return None
        return item

    def _store_unlink_first(
        self, key: str, value: bytes, flags: int, exptime: float
    ) -> None:
        """A replacing store, mirroring memcached's unlink-first order:
        the store unlinks the old item before allocating the new one, so
        a too-large value destroys the old entry *and* raises."""
        try:
            self._check_size(key, value)
        except ServerError:
            self._items.pop(key, None)
            raise
        self._store(key, value, flags, exptime)

    def _store(self, key: str, value: bytes, flags: int, exptime: float) -> None:
        self._check_size(key, value)
        self._link(key, value, flags, self.absolute_exptime(exptime))

    def _link(self, key: str, value: bytes, flags: int, deadline: float) -> None:
        """Every value write links a fresh item with a new cas (the
        store's ``_replace``), and settles the fill race (``_link``)."""
        self._items[key] = ModelItem(
            value=value,
            flags=flags,
            exptime=deadline,
            cas=self._bump_cas(),
            created_at=self.now_seconds(),
        )
        self._leases.pop(key, None)

    # -- storage commands ---------------------------------------------------------

    def set(self, key: str, value: bytes, flags: int = 0, exptime: float = 0) -> str:
        """Unconditional store."""
        self._validate_key(key)
        self._store_unlink_first(key, value, flags, exptime)
        return "stored"

    def add(self, key: str, value: bytes, flags: int = 0, exptime: float = 0) -> str:
        """Store only if the key is absent (or expired)."""
        self._validate_key(key)
        if self._live(key) is not None:
            return "not_stored"
        self._store(key, value, flags, exptime)
        return "stored"

    def replace(self, key: str, value: bytes, flags: int = 0, exptime: float = 0) -> str:
        """Store only if the key is present and live."""
        self._validate_key(key)
        if self._live(key) is None:
            return "not_stored"
        self._store_unlink_first(key, value, flags, exptime)
        return "stored"

    def _concat(self, key: str, data: bytes, append: bool) -> str:
        self._validate_key(key)
        item = self._live(key)
        if item is None:
            return "not_stored"
        combined = item.value + data if append else data + item.value
        try:
            self._check_size(key, combined)
        except ServerError:
            # Unlink-first order: the store drops the old item before
            # re-allocating, so a too-large concat destroys it too.
            self._items.pop(key, None)
            raise
        # The store re-allocates but keeps the (already absolute) exptime.
        self._link(key, combined, item.flags, item.exptime)
        return "stored"

    def append(self, key: str, value: bytes) -> str:
        return self._concat(key, value, append=True)

    def prepend(self, key: str, value: bytes) -> str:
        return self._concat(key, value, append=False)

    def cas(
        self, key: str, value: bytes, cas_token: int, flags: int = 0, exptime: float = 0
    ) -> str:
        """Store only if *cas_token* still matches the live item's token."""
        self._validate_key(key)
        item = self._live(key)
        if item is None:
            return "not_found"
        if item.cas != cas_token:
            return "exists"
        self._store_unlink_first(key, value, flags, exptime)
        return "stored"

    # -- retrieval ----------------------------------------------------------------

    def get(self, key: str) -> Optional[ModelResult]:
        """Value/flags/cas of the live item, or ``None`` on a miss."""
        self._validate_key(key)
        item = self._live(key)
        if item is None:
            return None
        return ModelResult(value=item.value, flags=item.flags, cas=item.cas)

    gets = get

    # -- leases (mirrors store.getl / the engine's fill gate) ---------------------

    def _stale_servable(self, item: ModelItem, now: float) -> bool:
        if item.created_at < self._flush_before <= now:
            return False
        if item.exptime <= 0:
            return False
        return now < item.exptime + STALE_WINDOW_S

    def getl(self, key: str, stale_ok: bool = False):
        """Get-with-lease: ``(state, ModelResult_or_None, token)``.

        Mirrors :meth:`ItemStore.getl` exactly -- in particular the raw
        table peek: an expired ghost is NOT reaped here (it must stay
        servable for lease losers), unlike :meth:`_live`'s lazy delete.
        """
        self._validate_key(key)
        item = self._items.get(key)
        now = self.now_seconds()
        if item is not None:
            expired = item.exptime != 0.0 and now >= item.exptime
            flushed = item.created_at < self._flush_before <= now
            if not (expired or flushed):
                return "hit", ModelResult(item.value, item.flags, item.cas), 0
        stale = None
        if stale_ok and item is not None and self._stale_servable(item, now):
            stale = ModelResult(item.value, item.flags, item.cas)
        current = self._leases.get(key)
        if current is not None and now < current[1]:
            return "lost", stale, 0
        token = self._next_lease_token
        self._next_lease_token += 1
        self._leases[key] = (token, now + LEASE_TTL_S)
        return "won", stale, token

    def _lease_live(self, key: str, token: int) -> bool:
        current = self._leases.get(key)
        return (
            current is not None
            and current[0] == token
            and self.now_seconds() < current[1]
        )

    # -- mutation -----------------------------------------------------------------

    def delete(self, key: str) -> bool:
        """True if a live item was removed (also voids its lease)."""
        self._validate_key(key)
        if self._live(key) is None:
            return False
        self._leases.pop(key, None)
        return self._items.pop(key, None) is not None

    def incr(self, key: str, delta: int) -> Optional[int]:
        return self._arith(key, delta)

    def decr(self, key: str, delta: int) -> Optional[int]:
        return self._arith(key, -delta)

    def _arith(self, key: str, delta: int) -> Optional[int]:
        self._validate_key(key)
        item = self._live(key)
        if item is None:
            return None
        raw = item.value
        digits = raw.lstrip(b"0") or b"0"  # int() refuses thousands of digits
        if not raw.isdigit() or len(digits) > 20 or int(digits) >= COUNTER_LIMIT:
            raise ClientError("cannot increment or decrement non-numeric value")
        if delta >= 0:
            value = (int(digits) + delta) % COUNTER_LIMIT  # incr wraps, per spec
        else:
            value = max(0, int(digits) + delta)  # decr clamps at zero, per spec
        # A re-store that keeps flags and deadline, as the store's arith.
        self._link(key, str(value).encode(), item.flags, item.exptime)
        return value

    def touch(self, key: str, exptime: float) -> bool:
        """Reset the expiry of a live item without reading it."""
        item = self._live(key)
        if item is None:
            return False
        item.exptime = self.absolute_exptime(exptime)
        return True

    def flush_all(self, delay_seconds: float = 0.0) -> None:
        self._flush_before = self.now_seconds() + delay_seconds
        self._leases.clear()

    # -- eviction adoption (the pressure-aware specification) ---------------------

    def evict(self, key: str) -> bool:
        """Adopt a store-reported eviction: *key*'s value is gone.

        The model never evicts on its own -- it has idealized memory.
        Under pressure the replay layer forwards the store's eviction
        hook events here *before* running the next operation, turning
        "missing key" from a divergence into the specified outcome.
        Soundness: adoption is gated on events the store actually
        reported (and counted in ``StoreStats``), so a store that loses
        keys without reporting them still fails verification.
        """
        return self._items.pop(key, None) is not None

    # -- the front door: one IR command in, one reply out -------------------------

    def apply(self, cmd: Command) -> Reply:
        """Run one IR command; total, like ``CommandEngine.apply``: the
        error taxonomy comes back as an error reply, never as a raise."""
        try:
            return self._dispatch(cmd)
        except ClientError as exc:
            return Reply("error", message=str(exc), error_kind="client")
        except ServerError as exc:
            return Reply("error", message=str(exc), error_kind="server")

    def _dispatch(self, cmd: Command) -> Reply:
        op = cmd.op
        if op in ("get", "gets"):
            hits = [(key, self.get(key)) for key in cmd.keys]
            return Reply("values", values=[
                (key, hit.flags, hit.value, hit.cas) for key, hit in hits if hit
            ])
        if op == "getl":
            state, hit, token = self.getl(cmd.key, cmd.stale_ok)
            values = [(cmd.key, hit.flags, hit.value, hit.cas)] if hit else []
            if state == "hit":
                return Reply("values", values=values)
            return Reply("values", values=values, lease_state=state,
                         lease_token=token, stale=hit is not None)
        if op in ("set", "add", "replace"):
            # The lease gate runs before key validation, as the engine's
            # does: a fill whose token is not live never reaches the store.
            if cmd.lease_token and not self._lease_live(cmd.key, cmd.lease_token):
                return Reply("not_stored")
            return Reply(getattr(self, op)(cmd.key, cmd.value, cmd.flags, cmd.exptime))
        if op == "cas":
            return Reply(self.cas(cmd.key, cmd.value, cmd.cas, cmd.flags, cmd.exptime))
        if op in ("append", "prepend"):
            return Reply(getattr(self, op)(cmd.key, cmd.value))
        if op == "delete":
            return Reply("deleted" if self.delete(cmd.key) else "not_found")
        if op in ("incr", "decr"):
            number = getattr(self, op)(cmd.key, cmd.delta)
            if number is None:
                return Reply("not_found")
            return Reply("number", number=number)
        if op == "touch":
            return Reply("touched" if self.touch(cmd.key, cmd.exptime) else "not_found")
        if op == "flush_all":
            self.flush_all(cmd.exptime)
            return Reply("ok")
        return Reply("error", message=f"unknown op {op!r}",
                     error_kind="client", detail="unknown")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModelMemcached {len(self._items)} items>"
