"""Seeded script generation: :class:`Step`, its JSON, and the generator.

A replayed script is a list of :class:`Step`.  A step *is* an IR
:class:`~repro.memcached.command.Command` -- op, key, value, flags,
exptime, delta, ``stale_ok`` are the IR's own fields -- plus only what a
script has and a wire command has not: a symbolic token reference
(raw cas / lease tokens differ per run, so a script names them), a
``sleep`` pseudo-op that advances the clock, and a ``setl`` pseudo-op
(a ``set`` carrying the lease token of the key's latest won ``getl``).

:func:`generate_commands` draws a seeded step sequence (valid ops with
boundary keys and values at slab-class edges, integer-second expiry).
Its RNG draw order is a contract -- ``tests/check/test_generator_pins.py``
pins it -- so every seed quoted anywhere keeps meaning one sequence.

Expiry note: sequences only use *integer-second* exptimes and sleeps
while per-op latencies are microseconds, so whether an item is expired
at any observation point is transport-independent (elapsed time is
S + delta with delta << 1 s) -- see docs/CHECKING.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memcached.command import Command
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES, build_chunk_sizes
from repro.sim.rng import RngStream

#: A cas token no store ever allocates (tokens count up from 1).
BOGUS_CAS = 2**61

#: op -> the fields it reads beyond op and key, each with the value a
#: repro dump may leave out.  The JSON and the printed witness both go
#: through this table.  (The dump defaults are the script's, not the
#: IR's: ``{"op": "incr", "key": "k"}`` means ``delta=1`` and a bare
#: ``getl`` means ``stale_ok=True``, as dumps have always read.)
_STORE_FIELDS = {"value": b"", "flags": 0, "exptime": 0}
_TOKEN_FIELDS = {**_STORE_FIELDS, "token_ref": "last"}
_FIELDS: dict[str, dict] = {
    "set": _STORE_FIELDS, "add": _STORE_FIELDS, "replace": _STORE_FIELDS,
    "cas": _TOKEN_FIELDS, "setl": _TOKEN_FIELDS,
    "append": {"value": b""}, "prepend": {"value": b""},
    "incr": {"delta": 1}, "decr": {"delta": 1},
    "touch": {"exptime": 0}, "flush_all": {"exptime": 0},
    "getl": {"stale_ok": True},
    "sleep": {"sleep_s": 0},
    "get": {}, "gets": {}, "delete": {},
}


@dataclass
class Step(Command):
    """One scripted operation (JSON round-trippable for repro dumps)."""

    #: cas steps name their token symbolically: 'last' (the token of
    #: the most recent gets on this key) or 'bogus' (never valid) --
    #: raw tokens come from a process-global counter and would not
    #: replay.  'setl' (a lease-carrying fill) resolves 'last' against
    #: the most recent *won* getl on the key instead.
    token_ref: str = "last"
    #: 'sleep' pseudo-op: advance the sim clock (integer seconds).
    sleep_s: int = 0

    @property
    def key(self) -> str:
        """The step's key; ``""`` for a keyless step (``sleep``)."""
        return self.keys[0] if self.keys else ""

    def command(self, tokens: dict[str, int]) -> Command:
        """The wire command this step issues.  *tokens* is one side's
        memory of the raw tokens it was handed (see :meth:`remember`);
        client and oracle each keep their own, since raw tokens differ
        (``MODEL_DIVERGENCES`` 'cas-token-values')."""
        if self.op not in ("cas", "setl"):
            return self  # a step is a command; only tokens need resolving
        slot = self.key if self.op == "cas" else "lease:" + self.key
        token = tokens.get(slot, BOGUS_CAS) if self.token_ref == "last" else BOGUS_CAS
        if self.op == "cas":
            return Command("cas", self.keys, self.value, self.flags, self.exptime,
                           cas=token)
        return Command("set", self.keys, self.value, self.flags, self.exptime,
                       lease_token=token)

    def remember(self, result, tokens: dict[str, int]) -> None:
        """Stash the raw token a successful *result* carries: a gets hit's
        cas, a won getl's lease token (beside the cas tokens, under a
        composite key)."""
        if self.op == "gets" and result is not None:
            tokens[self.key] = result[1]
        elif self.op == "getl" and isinstance(result, tuple) and result[0] == "won":
            tokens["lease:" + self.key] = result[2]

    def to_json(self) -> dict:
        """Op, key, and the fields the op reads that are not at their
        dump defaults."""
        doc: dict = {"op": self.op}
        if self.keys:
            doc["key"] = self.key
        for name, default in _FIELDS[self.op].items():
            value = getattr(self, name)
            if value != default:
                doc[name] = value.decode("latin-1") if name == "value" else value
        return doc

    @classmethod
    def from_json(cls, d: dict) -> "Step":
        """Inverse of :meth:`to_json`; also reads every dump written
        before fields at their defaults were left out."""
        step = cls(op=d["op"], keys=[d["key"]] if d.get("key") else [])
        for name, default in _FIELDS[step.op].items():
            setattr(step, name, d.get(name, default))
        if isinstance(step.value, str):
            step.value = step.value.encode("latin-1")
        return step

    def describe(self) -> str:
        """One short line for a printed witness: op, key, and the fields
        the op reads -- a value as its length and head, never in full."""
        parts = [self.op]
        if self.keys:
            parts.append(repr(self.key) if len(self.key) <= 40
                         else f"<{len(self.key)}-byte key>")
        for name in _FIELDS[self.op]:
            value = getattr(self, name)
            if name == "value":
                head = repr(value[:16]) + ("..." if len(value) > 16 else "")
                parts.append(f"<{len(value)} bytes> {head}")
            else:
                parts.append(f"{name}={value!r}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

#: Ops the sequential generator draws from (weights roughly memslap-ish,
#: mutation-heavy so state actually churns).
_SEQ_OPS = (
    "set", "set", "set", "get", "get", "gets", "add", "replace",
    "append", "prepend", "delete", "incr", "decr", "touch", "cas",
    "flush_all", "sleep",
)

#: Concurrent workloads stay inside the checker's register/counter
#: surface: no cas, no expiry, no flush (docs/CHECKING.md).
_CONCURRENT_OPS = (
    "set", "set", "set", "get", "get", "gets", "add", "replace",
    "append", "prepend", "delete", "incr", "decr", "touch",
)

#: Pressure workloads drop flush_all (a flush resets occupancy, so LRU
#: pressure never builds; the plain sequential mode keeps covering
#: flush) and lean harder on set so one slab class overfills.
_PRESSURE_OPS = (
    "set", "set", "set", "set", "get", "get", "gets", "add", "replace",
    "append", "prepend", "delete", "incr", "decr", "touch", "cas",
    "sleep",
)

#: Extra ops mixed in by lease mode: get-with-lease reads plus
#: lease-carrying fills (the anti-dogpile surface, docs/SERVING.md).
_LEASE_OPS = ("getl", "getl", "setl")


def _value_pool(rng: RngStream) -> list[bytes]:
    """Boundary-heavy values: slab-class edges, counters, text."""
    pool: list[bytes] = [b"", b"x", b"hello world"]
    # Counter values including the uint64 edge (wrap/overflow checks).
    pool += [b"0", b"1", b"41", b"18446744073709551615", b"18446744073709551616", b"007"]
    pool += [b"not-a-number"]
    # Values straddling the first few slab-class edges (key length is
    # charged too; subtracting a mid-sized key keeps these near edges
    # for most of the pool's keys).
    for size in build_chunk_sizes()[:4]:
        for delta in (-1, 0, 1):
            n = size - ITEM_HEADER_OVERHEAD - 6 + delta
            if n > 0:
                pool.append(bytes([rng.randint(97, 123)]) * n)
    return pool


def _pressure_value_pool(rng: RngStream) -> list[bytes]:
    """Slab-edge values for the memory-pressure rig.

    Most values land at (and a few bytes under) the chunk edge of the
    class that packs 8 chunks into a 1 MiB page, so on a
    ``PRESSURE_STORE_CONFIG`` store that single class overfills and
    its LRU must evict live victims.  Concentrating on one class is
    deliberate: spreading values across several large classes calcifies
    instead (each class pins a page, every other class OOMs with an
    empty LRU), which exercises only the OOM path -- concat growth into
    page-less neighbour classes still covers OOM plentifully here.  A
    few small counter/text values keep incr/append/etc. meaningful.
    """
    pool: list[bytes] = [b"41", b"18446744073709551615", b"hello world"]
    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    size = by_density[8]
    for delta in (-3, -2, -1, 0, 0, 0):
        n = size - ITEM_HEADER_OVERHEAD - 6 + delta
        pool.append(bytes([rng.randint(97, 123)]) * n)
    return pool


def _key_pool(n_keys: int) -> list[str]:
    keys = [f"key{i}" for i in range(n_keys)]
    keys.append("k" * 250)      # longest legal key
    keys.append("k" * 251)      # one past the limit: CLIENT_ERROR everywhere
    return keys


def generate_commands(
    seed: int,
    n: int,
    n_keys: int = 8,
    concurrent: bool = False,
    with_expiry: bool = True,
    pressure: bool = False,
    zipf: bool = False,
    lease: bool = False,
) -> list[Step]:
    """Draw *n* steps from a seeded stream (bit-for-bit reproducible).

    With ``concurrent=True`` the sequence stays inside the
    linearizability checker's op surface (no cas / expiry / flush) so a
    recorded multi-client history is checkable.  With ``pressure=True``
    the value pool switches to slab-edge large values (run against a
    ``PRESSURE_STORE_CONFIG`` store to force evictions and OOMs).

    ``zipf=True`` skews key choice hot (Zipf 0.99 over the pool, the
    hot-key-storm shape); ``lease=True`` mixes in get-with-lease reads
    and lease-carrying fills, makes expiry twice as likely, and
    lengthens sleeps so sequences cross lease TTLs and stale windows.
    Both default off, so pre-existing seeds replay bit-identically.
    """
    rng = RngStream(seed, "check.generate")
    keys = _key_pool(n_keys)
    values = _pressure_value_pool(rng) if pressure else _value_pool(rng)
    if concurrent:
        ops = _CONCURRENT_OPS
    elif pressure:
        ops = _PRESSURE_OPS
    else:
        ops = _SEQ_OPS
    if lease:
        ops = ops + _LEASE_OPS
    expiry_p = 0.5 if lease else 0.25
    out: list[Step] = []
    for _ in range(n):
        op = rng.choice(ops)
        # Drawn for every op, used or not (sleep; flush_all carries it
        # unread): the draw order is what a seed means.
        if zipf:
            key = keys[rng.zipf_index(len(keys), 0.99)]
        else:
            key = rng.choice(keys)
        if op == "sleep":
            out.append(Step(op="sleep", sleep_s=rng.randint(1, 9 if lease else 4)))
            continue
        step = Step(op=op, keys=[key])
        if op in ("set", "add", "replace", "cas", "setl"):
            step.value = rng.choice(values)
            step.flags = rng.randint(0, 2**16)
            if with_expiry and not concurrent and rng.uniform() < expiry_p:
                step.exptime = rng.randint(1, 5)
        elif op in ("append", "prepend"):
            step.value = rng.choice(values[:8])  # keep concats bounded
        elif op in ("incr", "decr"):
            step.delta = rng.choice((1, 2, 7, 2**32, 2**64 - 1))
        elif op == "touch":
            if concurrent or not with_expiry:
                step.exptime = 0
            else:
                step.exptime = rng.choice((0, 1, 3))
        elif op == "flush_all":
            step.exptime = rng.choice((0, 0, 2))
        elif op == "getl":
            step.stale_ok = rng.uniform() < 0.75
        if op in ("cas", "setl"):
            step.token_ref = "last" if rng.uniform() < 0.8 else "bogus"
        out.append(step)
    return out
