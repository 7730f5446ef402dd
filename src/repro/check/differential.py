"""Cross-transport / cross-protocol differential replay and fuzzing.

The paper's implicit claim (§5-6) is that the RDMA-enabled memcached is
*semantically identical* to the sockets one -- only latency and
throughput change.  This module makes that claim checkable:

- :func:`generate_commands` draws a seeded command sequence (valid ops
  with boundary keys and values at slab-class edges, integer-second
  expiry, cas via token references);
- :func:`replay_sequential` replays it through one (transport,
  protocol) configuration against a live cluster, comparing every
  response with the :class:`~repro.check.model.ModelMemcached` oracle
  at the client's completion instant;
- :func:`differential_run` replays the same sequence through every
  configuration (UCR-IB plus text and binary over SDP / IPoIB /
  10GigE-TOE) and asserts response-for-response agreement;
- :func:`replay_concurrent` drives a multi-client sharded workload
  (optionally under a seeded chaos schedule) with history recording on,
  and hands the history to the linearizability checker;
- :func:`shrink_commands` ddmin-minimizes a failing sequence;
  :func:`dump_mismatch` writes a JSON repro case (optionally linking a
  Chrome trace of the offending run).

Expiry note: command sequences only use *integer-second* exptimes and
sleeps while per-op latencies are microseconds, so whether an item is
expired at any observation point is transport-independent (elapsed time
is S + delta with delta << 1 s) -- see docs/CHECKING.md.

Test-only fault injection: :data:`MUTATIONS` patches a live store with a
named semantic bug (off-by-one incr, truncating set, lying delete) so
the pipeline's detection and shrinking can be exercised end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.check.history import CheckResult, check_history, history_digest, recorder
from repro.check.model import ModelMemcached
from repro.memcached.command import Command as IRCommand
from repro.memcached.errors import (
    ClientError,
    ProtocolError,
    ServerDownError,
    ServerError,
)
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES, build_chunk_sizes
from repro.memcached.store import StoreConfig
from repro.sim.rng import RngStream

#: A cas token no store ever allocates (tokens count up from 1).
BOGUS_CAS = 2**61

#: The standard memory-pressure rig: a store two slab pages deep with
#: the rebalancer on, so the pressure value pool (slab-edge values in
#: the 8/5/3-chunks-per-page classes) forces evictions, OOMs, and page
#: reassignment within a few dozen operations.
PRESSURE_STORE_CONFIG = StoreConfig(max_bytes=2 * PAGE_BYTES, slab_automove=True)

#: The issue's four transports; UCR's active messages are already
#: structs, the sockets transports each speak text and binary.  UCR-1S
#: is UCR-IB with GET/gets served by one-sided RDMA READs against the
#: server-exported index (docs/ONESIDED.md) -- semantically it must be
#: indistinguishable from every other config.
CONFIGS: tuple[tuple[str, str, bool], ...] = (
    ("UCR-IB", "UCR-IB", False),
    ("SDP/text", "SDP", False),
    ("SDP/bin", "SDP", True),
    ("IPoIB/text", "IPoIB", False),
    ("IPoIB/bin", "IPoIB", True),
    ("10GigE-TOE/text", "10GigE-TOE", False),
    ("10GigE-TOE/bin", "10GigE-TOE", True),
    ("UCR-1S", "UCR-1S", False),
)


@dataclass
class Command:
    """One generated operation (JSON round-trippable for repro dumps)."""

    op: str
    key: str = ""
    value: bytes = b""
    flags: int = 0
    exptime: int = 0
    delta: int = 1
    #: cas commands name their token symbolically: 'last' (the token of
    #: the most recent gets on this key) or 'bogus' (never valid) --
    #: raw tokens come from a process-global counter and would not
    #: replay.  'setl' (a lease-carrying fill) resolves 'last' against
    #: the most recent *won* getl on the key instead.
    token_ref: str = "last"
    #: 'sleep' pseudo-op: advance the sim clock (integer seconds).
    sleep_s: int = 0
    #: 'getl': ask for the stale ghost on a lost/won lease.
    stale_ok: bool = True

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "key": self.key,
            "value": self.value.decode("latin-1"),
            "flags": self.flags,
            "exptime": self.exptime,
            "delta": self.delta,
            "token_ref": self.token_ref,
            "sleep_s": self.sleep_s,
            "stale_ok": self.stale_ok,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Command":
        return cls(
            op=d["op"],
            key=d.get("key", ""),
            value=d.get("value", "").encode("latin-1"),
            flags=d.get("flags", 0),
            exptime=d.get("exptime", 0),
            delta=d.get("delta", 1),
            token_ref=d.get("token_ref", "last"),
            sleep_s=d.get("sleep_s", 0),
            stale_ok=d.get("stale_ok", True),
        )


# ---------------------------------------------------------------------------
# Command generation
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
    :data:`PRESSURE_STORE_CONFIG` store that single class overfills and
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


def _key_pool(rng: RngStream, n_keys: int) -> list[str]:
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
) -> list[Command]:
    """Draw *n* commands from a seeded stream (bit-for-bit reproducible).

    With ``concurrent=True`` the sequence stays inside the
    linearizability checker's op surface (no cas / expiry / flush) so a
    recorded multi-client history is checkable.  With ``pressure=True``
    the value pool switches to slab-edge large values (run against a
    :data:`PRESSURE_STORE_CONFIG` store to force evictions and OOMs).

    ``zipf=True`` skews key choice hot (Zipf 0.99 over the pool, the
    hot-key-storm shape); ``lease=True`` mixes in get-with-lease reads
    and lease-carrying fills, makes expiry twice as likely, and
    lengthens sleeps so sequences cross lease TTLs and stale windows.
    Both default off, so pre-existing seeds replay bit-identically.
    """
    rng = RngStream(seed, "check.generate")
    keys = _key_pool(rng, n_keys)
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
    out: list[Command] = []
    for _ in range(n):
        op = rng.choice(ops)
        if zipf:
            key = keys[rng.zipf_index(len(keys), 0.99)]
        else:
            key = rng.choice(keys)
        if op == "sleep":
            out.append(
                Command(op="sleep", sleep_s=rng.randint(1, 9 if lease else 4))
            )
            continue
        cmd = Command(op=op, key=key)
        if op in ("set", "add", "replace", "cas", "setl"):
            cmd.value = rng.choice(values)
            cmd.flags = rng.randint(0, 2**16)
            if with_expiry and not concurrent and rng.uniform() < expiry_p:
                cmd.exptime = rng.randint(1, 5)
        elif op in ("append", "prepend"):
            cmd.value = rng.choice(values[:8])  # keep concats bounded
        elif op in ("incr", "decr"):
            cmd.delta = rng.choice((1, 2, 7, 2**32, 2**64 - 1))
        elif op == "touch":
            if concurrent or not with_expiry:
                cmd.exptime = 0
            else:
                cmd.exptime = rng.choice((0, 1, 3))
        elif op == "flush_all":
            cmd.exptime = rng.choice((0, 0, 2))
        elif op == "getl":
            cmd.stale_ok = rng.uniform() < 0.75
        if op in ("cas", "setl"):
            cmd.token_ref = "last" if rng.uniform() < 0.8 else "bogus"
        out.append(cmd)
    return out


# ---------------------------------------------------------------------------
# Outcome normalization
# ---------------------------------------------------------------------------


def _normalize(result, cas_map: dict[int, int]):
    """Fold a raw op result into a JSON-able, cas-canonical form."""
    if isinstance(result, bytes):
        return result.decode("latin-1")
    if isinstance(result, tuple) and len(result) == 2:
        value, cas = result  # a gets() hit: (value, raw cas token)
        token = cas_map.setdefault(cas, len(cas_map))
        return [_normalize(value, cas_map), f"cas#{token}"]
    if isinstance(result, tuple) and len(result) == 3:
        # A get_lease miss verdict: (state, stale_value, lease_token).
        # Lease tokens are canonicalized like cas tokens, namespaced so
        # the two counters cannot collide in the shared first-occurrence
        # map.
        state, stale_value, token = result
        label = (
            f"lease#{cas_map.setdefault(('lease', token), len(cas_map))}"
            if token
            else None
        )
        return [state, _normalize(stale_value, cas_map), label]
    return result


def _normalize_outcome(outcome, cas_map: dict[int, int]):
    """Normalize a ('ok', result) / ('error', kind) outcome pair.

    Only ``ok`` payloads are canonicalized -- error kinds are plain
    strings and must not be fed to the cas map.
    """
    status, payload = outcome
    if status != "ok":
        return [status, payload]
    return ["ok", _normalize(payload, cas_map)]


def _token(cmd: Command, last_cas: dict[str, int]) -> int:
    """Resolve a cas/setl command's symbolic token: 'last' names the
    most recent gets (cas) or won lease (setl, under a composite key
    beside the cas tokens) on the key, 'bogus' is never valid."""
    if cmd.token_ref != "last":
        return BOGUS_CAS
    slot = cmd.key if cmd.op == "cas" else "lease:" + cmd.key
    return last_cas.get(slot, BOGUS_CAS)


def _ir_command(cmd: Command, last_cas: dict[str, int]) -> IRCommand:
    """Build the transport-neutral IR command for one generated op (the
    one generated-op -> IR mapping blocking and pipelined replay share)."""
    op = cmd.op
    if op in ("set", "add", "replace"):
        return IRCommand(op=op, keys=[cmd.key], value=cmd.value,
                         flags=cmd.flags, exptime=cmd.exptime)
    if op == "cas":
        return IRCommand(op="cas", keys=[cmd.key], value=cmd.value, flags=cmd.flags,
                         exptime=cmd.exptime, cas=_token(cmd, last_cas))
    if op == "setl":
        return IRCommand(op="set", keys=[cmd.key], value=cmd.value, flags=cmd.flags,
                         exptime=cmd.exptime, lease_token=_token(cmd, last_cas))
    if op in ("append", "prepend"):
        return IRCommand(op=op, keys=[cmd.key], value=cmd.value)
    if op in ("incr", "decr"):
        return IRCommand(op=op, keys=[cmd.key], delta=cmd.delta)
    if op == "touch":
        return IRCommand(op="touch", keys=[cmd.key], exptime=cmd.exptime)
    if op == "getl":
        return IRCommand(op="getl", keys=[cmd.key], stale_ok=cmd.stale_ok)
    if op == "flush_all":
        return IRCommand(op="flush_all", exptime=cmd.exptime)
    if op in ("get", "gets", "delete"):
        return IRCommand(op=op, keys=[cmd.key])
    raise ValueError(f"unknown op {op!r}")


def _run_client_op(client, cmd: Command, last_cas: dict[str, int]):
    """Process helper: execute *cmd*, return a normalized-ready outcome.

    The raw gets() token and a won lease's token are stashed in
    *last_cas* for later cas / setl commands (see :func:`_token`);
    outcomes are ('ok', raw_result) or ('error', kind).
    """
    try:
        result = yield from client.call(_ir_command(cmd, last_cas))
    except (ClientError, ServerError, ProtocolError) as exc:
        return _pipeline_outcome(exc)
    if cmd.op == "gets" and result is not None:
        last_cas[cmd.key] = result[1]
    elif cmd.op == "getl" and isinstance(result, tuple) and result[0] == "won":
        last_cas["lease:" + cmd.key] = result[2]
    return ("ok", result)


def _run_oracle_op(oracle: ModelMemcached, cmd: Command, last_cas: dict[str, int]):
    """Execute *cmd* against the oracle; mirrors `_run_client_op`."""
    op = cmd.op
    try:
        if op in ("set", "add", "replace"):
            result = getattr(oracle, op)(cmd.key, cmd.value, cmd.flags, cmd.exptime)
            result = result == "stored"
        elif op in ("append", "prepend"):
            result = getattr(oracle, op)(cmd.key, cmd.value) == "stored"
        elif op == "cas":
            result = oracle.cas(
                cmd.key, cmd.value, _token(cmd, last_cas), cmd.flags, cmd.exptime
            )
        elif op == "get":
            hit = oracle.get(cmd.key)
            result = hit.value if hit is not None else None
        elif op == "gets":
            hit = oracle.gets(cmd.key)
            if hit is None:
                result = None
            else:
                last_cas[cmd.key] = hit.cas
                result = (hit.value, hit.cas)
        elif op == "getl":
            state, hit, token = oracle.getl(cmd.key, cmd.stale_ok)
            if state == "hit":
                result = hit.value
            else:
                if state == "won":
                    last_cas["lease:" + cmd.key] = token
                result = (state, hit.value if hit is not None else None, token)
        elif op == "setl":
            result = oracle.set_with_lease(
                cmd.key, cmd.value, _token(cmd, last_cas), cmd.flags, cmd.exptime
            )
            result = result == "stored"
        elif op == "delete":
            result = oracle.delete(cmd.key)
        elif op in ("incr", "decr"):
            result = getattr(oracle, op)(cmd.key, cmd.delta)
        elif op == "touch":
            result = oracle.touch(cmd.key, cmd.exptime)
        elif op == "flush_all":
            result = oracle.flush_all(cmd.exptime)
        else:  # pragma: no cover
            raise ValueError(f"unknown op {op!r}")
    except ClientError:
        return ("error", "client")
    except ServerError:
        return ("error", "server")
    return ("ok", result)


# ---------------------------------------------------------------------------
# Test-only store mutations (fault injection for the pipeline itself)
# ---------------------------------------------------------------------------


def _mutate_incr_off_by_one(store) -> None:
    orig = store.incr
    store.incr = lambda key, delta: orig(key, delta + 1)


def _mutate_set_truncates(store) -> None:
    # Two entry points: plain set (sockets, zero-length UCR values) and
    # the reserve/commit zero-copy path (UCR with a payload).
    orig_set = store.set
    store.set = lambda key, value, flags=0, exptime=0: orig_set(
        key, value[:-1] if len(value) > 1 else value, flags, exptime
    )
    orig_commit = store.commit

    def commit(item):
        if item.value_length > 1:
            item.value_length -= 1
        return orig_commit(item)

    store.commit = commit


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
    # Exported-index invalidation bug: unpublish forgets the owner but
    # never brackets the entry with a version bump, so a stale *live*
    # entry keeps naming the chunk after delete/eviction frees it.  A
    # one-sided GET then reads a stable, matching-hash entry and serves
    # the dead value (only the UCR-1S config can see this; the index is
    # bystander state for every RPC transport).  ExportSanitizer flags
    # it immediately as an ownerless live entry.
    index = store.onesided
    if index is None:  # pragma: no cover - servers always export here
        return

    def unpublish(item):
        bucket = index.bucket_for(item.key)
        if index._owner[bucket] is item:
            index._owner[bucket] = None  # bookkeeping only: no seqlock bump

    index.unpublish = unpublish


def _mutate_lease_serve_stale_past_deadline(store) -> None:
    # Anti-dogpile bug: the stale window stops being enforced, so getl
    # hands lease losers (and winners) arbitrarily old ghosts -- a
    # value expired minutes ago still rides back as "stale" data.  The
    # oracle's window-respecting _stale_servable disagrees the first
    # time a sequence sleeps past exptime + stale_window_s and reads
    # the key with a stale-tolerant getl.
    orig = store._stale_servable

    def _stale_servable(item, now):
        verdict = orig(item, now)
        if not verdict and not store._is_flushed(item) and item.exptime > 0:
            return True  # deadline ignored: serve it anyway
        return verdict

    store._stale_servable = _stale_servable


#: name -> patcher(store).  Applied to a live cluster's store by
#: replay_sequential(mutation=...); TEST-ONLY, never in production paths.
MUTATIONS: dict[str, Callable] = {
    "incr-off-by-one": _mutate_incr_off_by_one,
    "set-truncates": _mutate_set_truncates,
    "delete-lies": _mutate_delete_lies,
    "skip-eviction-counter": _mutate_skip_eviction_counter,
    "double-free-on-rebalance": _mutate_double_free_on_rebalance,
    "onesided-skip-version-bump": _mutate_onesided_skip_version_bump,
    "lease-serve-stale-past-deadline": _mutate_lease_serve_stale_past_deadline,
}


# ---------------------------------------------------------------------------
# Sequential replay vs the oracle
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of one sequential replay."""

    config: str
    #: Normalized outcome per command, cas tokens canonicalized.
    outcomes: list = field(default_factory=list)
    #: (index, actual, expected) triples where client != oracle.
    mismatches: list = field(default_factory=list)
    trace_file: Optional[str] = None
    #: Store pressure counters at end of run (from ``StoreStats``), so
    #: pressure tests can assert that evictions demonstrably happened.
    evictions: int = 0
    reclaimed: int = 0
    oom_errors: int = 0
    slab_moves: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _build_cluster(n_client_nodes: int = 1, n_servers: int = 1, seed: int = 42):
    # Deferred: the cluster builder imports the client, which imports
    # repro.check.history -- importing it at module load would cycle.
    from repro.cluster.builder import Cluster
    from repro.cluster.configs import CLUSTER_A

    return Cluster(
        CLUSTER_A, n_client_nodes=n_client_nodes, seed=seed, n_servers=n_servers
    )


def replay_sequential(
    config: tuple[str, str, bool],
    commands: list[Command],
    seed: int = 42,
    mutation: Optional[str] = None,
    trace_path: Optional[str] = None,
    store_config: Optional[StoreConfig] = None,
) -> ReplayResult:
    """Replay *commands* one at a time, comparing every response with
    the oracle at the client's completion instant.

    With a small-capacity *store_config* the run goes through real
    memory pressure; the oracle stays exact because the store's
    eviction hook events are adopted (:meth:`ModelMemcached.evict`)
    before each oracle op, and a SERVER_ERROR backed by a counted OOM
    is itself the specified outcome.  Adoption is gated on events the
    store actually reported, so silent key loss still mismatches.
    """
    name, transport, binary = config
    sc = store_config or StoreConfig()
    cluster = _build_cluster(seed=seed)
    cluster.start_server(store_config=sc)
    store = cluster.server.store
    if mutation is not None:
        MUTATIONS[mutation](store)
    client = cluster.client(transport, binary=binary)
    oracle = ModelMemcached(
        lambda: cluster.sim.now / 1e6,
        lease_ttl_s=sc.lease_ttl_s,
        stale_window_s=sc.stale_window_s,
    )
    result = ReplayResult(config=name)
    client_cas: dict[str, int] = {}
    oracle_cas: dict[str, int] = {}
    client_map: dict[int, int] = {}
    oracle_map: dict[int, int] = {}

    # Eviction adoption: every key the store destroys under pressure
    # (LRU eviction, expiry reap, unlink-first loss) queues here and is
    # drained into the oracle before the matching oracle op runs.
    pending_evictions: list[str] = []
    store.on_evict = lambda key, kind: pending_evictions.append(key)
    oom_seen = store.stats.oom_errors

    def driver():
        nonlocal oom_seen
        for index, cmd in enumerate(commands):
            if cmd.op == "sleep":
                yield cluster.sim.timeout(cmd.sleep_s * 1_000_000)
                result.outcomes.append(["sleep", cmd.sleep_s])
                continue
            actual_raw = yield from _run_client_op(client, cmd, client_cas)
            for lost_key in pending_evictions:
                oracle.evict(lost_key)
            pending_evictions.clear()
            oom_now = store.stats.oom_errors
            if actual_raw == ("error", "server") and oom_now > oom_seen:
                # The client saw SERVER_ERROR and the store counted an
                # out-of-memory for this op: under pressure that is the
                # specified outcome.  The oracle op does not run, but
                # the key still ends absent -- a failed storage op
                # unlinks the old item first (or lazily reaps an
                # expired/flushed one while probing it), so the oracle
                # must drop it too; otherwise a later flush_all that
                # pushes the deadline into the future would resurrect a
                # stale oracle entry the store already reaped.  An OOM
                # bump behind a *successful* op (a bounced zero-copy
                # reservation that fell back to the plain path) takes
                # the normal comparison branch instead.
                expected_raw = ("error", "server")
                oracle.evict(cmd.key)
            else:
                # The oracle executes at the client's completion
                # instant: its clock reads the live simulator, so
                # expiry agrees (integer seconds vs microsecond
                # latencies).
                expected_raw = _run_oracle_op(oracle, cmd, oracle_cas)
            oom_seen = oom_now
            actual = _normalize_outcome(actual_raw, client_map)
            expected = _normalize_outcome(expected_raw, oracle_map)
            result.outcomes.append(actual)
            if actual != expected:
                result.mismatches.append((index, actual, expected))

    if trace_path is not None:
        from repro.telemetry.chrome import chrome_document, write_chrome
        from repro.telemetry.spans import tracing

        with tracing() as t:
            cluster.sim.process(driver())
            cluster.sim.run()
        write_chrome(trace_path, chrome_document([(name, t.spans, t.instants)]))
        result.trace_file = trace_path
    else:
        cluster.sim.process(driver())
        cluster.sim.run()
    result.evictions = store.stats.evictions
    result.reclaimed = store.stats.reclaimed
    result.oom_errors = store.stats.oom_errors
    result.slab_moves = store.stats.slab_moves
    return result


#: Ops a pipelined replay may batch into one in-flight window.  cas is a
#: barrier (its token resolves against the latest gets, which may sit in
#: the same window); sleep and flush_all are barriers by nature.
_BATCHABLE_OPS = frozenset(
    {"set", "add", "replace", "append", "prepend", "get", "gets",
     "delete", "incr", "decr", "touch"}
)


def _pipeline_outcome(raw):
    """Fold one client.pipeline() entry (a value, or the exception that
    felled the op) into the ('ok'/'error', x) outcome form."""
    if isinstance(raw, ClientError):
        return ("error", "client")
    if isinstance(raw, ServerError):
        return ("error", "server")
    if isinstance(raw, ProtocolError):
        return ("error", "protocol")
    if isinstance(raw, Exception):
        raise raw  # ServerDownError etc: the caller's policy decides
    return ("ok", raw)


def replay_pipelined(
    config: tuple[str, str, bool],
    commands: list[Command],
    depth: int = 4,
    seed: int = 42,
) -> ReplayResult:
    """Replay *commands* with up to *depth* in flight, comparing every
    response with the oracle.

    Windows batch consecutive ops from :data:`_BATCHABLE_OPS`, breaking
    on barriers (cas / sleep / flush_all) and on a repeated key -- the
    in-window completion order of same-key ops is transport-dependent
    (UCR's window workers race), so only key-disjoint windows have a
    transport-independent outcome.  The oracle executes each window's
    ops in issue order at the window's completion instant; gets tokens
    feed ``last_cas`` after the window, matching what a pipelining
    application could observe.
    """
    name, transport, binary = config
    cluster = _build_cluster(seed=seed)
    cluster.start_server()
    client = cluster.client(transport, binary=binary)
    oracle = ModelMemcached(lambda: cluster.sim.now / 1e6)
    result = ReplayResult(config=f"{name}/pipe{depth}")
    client_cas: dict[str, int] = {}
    oracle_cas: dict[str, int] = {}
    client_map: dict[int, int] = {}
    oracle_map: dict[int, int] = {}

    def compare(cmd: Command, actual_raw) -> None:
        """Record one outcome against the oracle's, noting mismatches."""
        expected_raw = _run_oracle_op(oracle, cmd, oracle_cas)
        actual = _normalize_outcome(actual_raw, client_map)
        expected = _normalize_outcome(expected_raw, oracle_map)
        index = len(result.outcomes)
        result.outcomes.append(actual)
        if actual != expected:
            result.mismatches.append((index, actual, expected))

    def run_window(window: list[Command]):
        """Process helper: one key-disjoint batch through the pipeline."""
        ir = [_ir_command(cmd, client_cas) for cmd in window]
        raws = yield from client.pipeline(ir, depth)
        for cmd, raw in zip(window, raws):
            outcome = _pipeline_outcome(raw)
            if cmd.op == "gets" and outcome[0] == "ok" and outcome[1] is not None:
                client_cas[cmd.key] = outcome[1][1]
            compare(cmd, outcome)

    def driver():
        """Window consecutive batchable ops; barriers run blocking."""
        window: list[Command] = []
        window_keys: set[str] = set()
        cursor = 0
        while cursor < len(commands):
            cmd = commands[cursor]
            barrier = cmd.op not in _BATCHABLE_OPS or cmd.key in window_keys
            if window and (barrier or len(window) == depth):
                yield from run_window(window)
                window, window_keys = [], set()
                continue  # re-examine cmd against the empty window
            if cmd.op in _BATCHABLE_OPS:
                window.append(cmd)
                window_keys.add(cmd.key)
                cursor += 1
                continue
            cursor += 1
            if cmd.op == "sleep":
                yield cluster.sim.timeout(cmd.sleep_s * 1_000_000)
                result.outcomes.append(["sleep", cmd.sleep_s])
                continue
            # Non-batchable real op (cas / flush_all): run it blocking.
            actual_raw = yield from _run_client_op(client, cmd, client_cas)
            compare(cmd, actual_raw)
        if window:
            yield from run_window(window)

    cluster.sim.process(driver())
    cluster.sim.run()
    return result


@dataclass
class DifferentialResult:
    """Outcome of one sequence replayed across every configuration."""

    replays: list[ReplayResult]
    #: Config pairs whose outcome lists differ: (config_a, config_b, index).
    disagreements: list = field(default_factory=list)
    #: Pressure-mode only: cross-config differences excused as divergent
    #: eviction histories (same triples as ``disagreements``).
    tolerated: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and all(r.ok for r in self.replays)


#: The cas trichotomy: any pair of these can arise from divergent
#: eviction histories (key presence / token staleness differ per run).
_CAS_STATES = frozenset({"stored", "exists", "not_found"})


def _strip_cas_tokens(outcome):
    """Erase canonical cas token *numbers* from a normalized outcome.

    Token indices count distinct tokens across the whole replay, so one
    excess re-store on an already-diverged key shifts the numbering of
    every later token -- including on keys whose values agree exactly.
    """
    if isinstance(outcome, list):
        return [_strip_cas_tokens(x) for x in outcome]
    if isinstance(outcome, str) and outcome.startswith("cas#"):
        return "cas#"
    return outcome


def _absentish(payload) -> bool:
    """Does this ok-payload read as 'the key was not there'?"""
    return payload is None or payload is False or payload == "not_found"


def _eviction_explains(a, b) -> bool:
    """Could divergent eviction/OOM histories alone produce this pair?

    Only presence-flavored differences qualify: an OOM error on one
    side, present-vs-absent, or two cas states.  A value-vs-value
    difference on a key that never diverged on presence is real
    corruption and is never excused.
    """
    for outcome in (a, b):
        if outcome[0] == "error" and outcome[1] == "server":
            return True
    if a[0] != "ok" or b[0] != "ok":
        return False
    va, vb = a[1], b[1]
    if va in _CAS_STATES and vb in _CAS_STATES:
        return True
    return _absentish(va) != _absentish(vb)


def differential_run(
    commands: list[Command],
    seed: int = 42,
    configs=CONFIGS,
    mutation: Optional[str] = None,
    store_config: Optional[StoreConfig] = None,
    tolerant: bool = False,
) -> DifferentialResult:
    """Replay *commands* through every configuration; compare each with
    the oracle and all of them with each other.

    ``tolerant=True`` is the pressure-mode comparator: transports evict
    different victims (the zero-copy UCR path allocates before the old
    item is unlinked, and its add/replace existence probe touches the
    LRU), so cross-config agreement is latched per key -- the first
    difference on a key must be presence-flavored (see
    :func:`_eviction_explains`); after that the key's divergence is an
    accepted fact and later differences on it are excused.  Every
    replay is still held to exact per-op agreement with its own oracle.
    """
    replays = [
        replay_sequential(
            cfg, commands, seed=seed, mutation=mutation, store_config=store_config
        )
        for cfg in configs
    ]
    result = DifferentialResult(replays=replays)
    baseline = replays[0]
    for other in replays[1:]:
        diverged: set[str] = set()
        for idx, (a, b) in enumerate(zip(baseline.outcomes, other.outcomes)):
            if a == b:
                continue
            pair = (baseline.config, other.config, idx)
            if not tolerant:
                result.disagreements.append(pair)
                break
            if _strip_cas_tokens(a) == _strip_cas_tokens(b):
                # Pure token-numbering skew downstream of a divergence.
                result.tolerated.append(pair)
                continue
            key = commands[idx].key
            if key in diverged or _eviction_explains(a, b):
                diverged.add(key)
                result.tolerated.append(pair)
                continue
            result.disagreements.append(pair)
            break
    return result


# ---------------------------------------------------------------------------
# Concurrent replay: sharded clients, chaos, linearizability
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentResult:
    """Outcome of one recorded multi-client run."""

    config: str
    check: CheckResult
    digest: str
    n_records: int
    chaos_log: list = field(default_factory=list)
    #: Pressure counters summed over all servers (0 when unpressured).
    evictions: int = 0
    oom_errors: int = 0

    @property
    def ok(self) -> bool:
        return self.check.ok


def replay_concurrent(
    config: tuple[str, str, bool],
    seed: int = 42,
    n_clients: int = 4,
    n_servers: int = 2,
    n_ops: int = 500,
    n_keys: int = 8,
    chaos: bool = False,
    pipeline_depth: int = 1,
    store_config: Optional[StoreConfig] = None,
) -> ConcurrentResult:
    """Drive *n_clients* sharded clients concurrently (optionally under
    a seeded chaos schedule), record the history, check linearizability
    per (key, shard), and return a deterministic history digest.

    With *pipeline_depth* > 1 each client issues windows of that many
    commands through ``client.pipeline`` instead of blocking per op;
    every command is still individually recorded, so the checker sees
    the same op surface with wider (batch-granular) intervals.

    With a small-capacity *store_config* the generator switches to the
    pressure value pool and every server's eviction hook feeds a
    per-(key, shard) budget into :func:`check_history`: a key may
    vanish spontaneously at most as many times as its shard reported
    destroying it, and groups that need the budget come back as
    ``evictable`` rather than failed.
    """
    name, transport, binary = config
    cluster = _build_cluster(
        n_client_nodes=n_clients, n_servers=n_servers, seed=seed
    )
    cluster.start_server(store_config=store_config or StoreConfig())
    pressure = store_config is not None
    evicted: dict[tuple[str, str], int] = {}
    for server_name, server in cluster.servers.items():
        def _hook(key, kind, _server=server_name):
            evicted[(key, _server)] = evicted.get((key, _server), 0) + 1

        server.store.on_evict = _hook
    clients = [
        cluster.sharded_client(transport, client_node=i, binary=binary)
        for i in range(n_clients)
    ]
    per_client = n_ops // n_clients
    streams = [
        generate_commands(
            seed * 1000 + i,
            per_client,
            n_keys=n_keys,
            concurrent=True,
            pressure=pressure,
        )
        for i in range(n_clients)
    ]

    chaos_log: list = []
    if chaos:
        from repro.chaos.controller import ChaosController
        from repro.chaos.schedule import random_schedule

        schedule = random_schedule(
            seed, cluster.server_names, n_faults=3, horizon_us=400_000.0
        )
        controller = ChaosController(cluster, schedule).arm()
        chaos_log = controller.log

    def driver(client, commands):
        last_cas: dict[str, int] = {}
        for cmd in commands:
            try:
                yield from _run_client_op(client, cmd, last_cas)
            except ServerDownError:
                # Retry budget exhausted mid-fault: recorded as lost.
                continue

    def pipelined_driver(client, commands):
        # The concurrent op surface has no cas, so every op is
        # batchable; pipeline() records each command and folds lost ops
        # into per-entry outcomes instead of raising.
        last_cas: dict[str, int] = {}
        for start in range(0, len(commands), pipeline_depth):
            window = commands[start : start + pipeline_depth]
            ir = [_ir_command(cmd, last_cas) for cmd in window]
            yield from client.pipeline(ir, pipeline_depth)

    drive = driver if pipeline_depth <= 1 else pipelined_driver
    with recorder.recording():
        for client, stream in zip(clients, streams):
            cluster.sim.process(drive(client, stream))
        cluster.sim.run()
        records = list(recorder.records)
        digest = recorder.digest()

    check = check_history(records, by_server=True, evicted=evicted)
    return ConcurrentResult(
        config=name if pipeline_depth <= 1 else f"{name}/pipe{pipeline_depth}",
        check=check,
        digest=digest,
        n_records=len(records),
        chaos_log=chaos_log,
        evictions=sum(s.store.stats.evictions for s in cluster.servers.values()),
        oom_errors=sum(s.store.stats.oom_errors for s in cluster.servers.values()),
    )


# ---------------------------------------------------------------------------
# Parser fuzzing (malformed frames)
# ---------------------------------------------------------------------------


def fuzz_parsers(seed: int, n_cases: int = 200) -> list[str]:
    """Throw mutated and garbage frames at both wire parsers.

    The property is crash-freedom and determinism, not agreement (the
    framings are different by design): every feed either yields
    messages or raises :class:`ProtocolError`; any other exception, or
    a chunking-dependent result -- including which requests came out
    before a parse error -- is reported.  Returns failure strings
    (empty = pass).
    """
    from repro.memcached import protocol, protocol_binary as binp

    rng = RngStream(seed, "check.fuzz-parsers")
    seeds_text = [
        b"set key0 0 0 5\r\nhello\r\n",
        b"get key0 key1\r\n",
        b"incr key0 7\r\n",
        b"delete key0\r\nstats\r\n",
    ]
    seeds_bin = [
        binp.build_set("key0", b"hello"),
        binp.build_get("key0"),
        binp.build_arith("key0", 3),
        binp.build_flush(2),
    ]
    failures: list[str] = []

    def one_feed(parser_cls, blob: bytes, chunk: int):
        """Feed *blob* in *chunk*-byte slices, then nothing (a parser holds
        a parse error back behind the requests completed before it);
        classify the outcome."""
        parser = parser_cls()
        out = []
        try:
            for i in range(0, len(blob), chunk):
                out.extend(parser.feed(blob[i : i + chunk]))
            parser.feed(b"")
        except ProtocolError:
            return f"{out!r} then protocol-error"
        except Exception as exc:  # noqa: BLE001 - the property under test
            return f"CRASH {type(exc).__name__}: {exc}"
        return repr(out)

    for case in range(n_cases):
        base = bytearray(rng.choice(seeds_text if case % 2 else seeds_bin))
        for _ in range(rng.randint(1, 6)):
            mutation = rng.randint(0, 3)
            if mutation == 0 and base:
                base[rng.randint(0, len(base))] = rng.randint(0, 256)
            elif mutation == 1:
                base.extend(rng.random_bytes(rng.randint(1, 16)))
            elif mutation == 2 and len(base) > 1:
                del base[rng.randint(0, len(base)) :]
        blob = bytes(base)
        for parser_cls in (protocol.RequestParser, binp.BinaryParser):
            whole = one_feed(parser_cls, blob, len(blob) or 1)
            byte_wise = one_feed(parser_cls, blob, 1)
            if whole.startswith("CRASH"):
                failures.append(f"{parser_cls.__name__} case {case}: {whole}")
            elif byte_wise.startswith("CRASH"):
                failures.append(f"{parser_cls.__name__} case {case} (chunked): {byte_wise}")
            elif whole != byte_wise:
                # Chunking must change neither the parse nor what was
                # parsed before a parse error.
                failures.append(
                    f"{parser_cls.__name__} case {case}: chunked parse differs"
                )
    return failures


# ---------------------------------------------------------------------------
# Shrinking + repro dumps
# ---------------------------------------------------------------------------


def shrink_commands(
    commands: list[Command], failing: Callable[[list[Command]], bool]
) -> list[Command]:
    """ddmin: a minimal subsequence on which *failing* still holds.

    *failing* must be deterministic (replays are).  The result is
    1-minimal at chunk granularity: removing any single command makes
    the failure disappear.
    """
    if not failing(commands):
        raise ValueError("shrink_commands needs a failing input")
    current = list(commands)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and failing(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def dump_mismatch(
    path: str,
    seed: int,
    config_name: str,
    commands: list[Command],
    result: ReplayResult,
    mutation: Optional[str] = None,
    pressure: bool = False,
    versus: Optional[DifferentialResult] = None,
) -> str:
    """Write a JSON repro case; returns the path written.

    *versus* is the differential run of a cross-config repro (*result* is
    its first replay): the other config names and both outcomes at each
    disagreeing op are written too, so a case where every replay matches
    its own oracle still says what failed.
    """
    doc = {
        "seed": seed,
        "config": config_name,
        "mutation": mutation,
        "pressure": pressure,
        "commands": [c.to_json() for c in commands],
        "mismatches": [
            {"index": i, "actual": a, "expected": e}
            for i, a, e in result.mismatches
        ],
        "trace_file": result.trace_file,
    }
    if versus is not None and versus.disagreements:
        outcomes = {r.config: r.outcomes for r in versus.replays}
        doc["versus"] = [r.config for r in versus.replays[1:]]
        doc["disagreements"] = [
            {"index": i, a: outcomes[a][i], b: outcomes[b][i]}
            for a, b, i in versus.disagreements
        ]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return str(out)


def load_commands(path: str) -> tuple[dict, list[Command]]:
    """Read a repro dump back: (document, commands)."""
    doc = json.loads(Path(path).read_text())
    return doc, [Command.from_json(c) for c in doc["commands"]]


__all__ = [
    "BOGUS_CAS",
    "CONFIGS",
    "PRESSURE_STORE_CONFIG",
    "Command",
    "ConcurrentResult",
    "DifferentialResult",
    "MUTATIONS",
    "ReplayResult",
    "differential_run",
    "dump_mismatch",
    "fuzz_parsers",
    "generate_commands",
    "history_digest",
    "load_commands",
    "replay_concurrent",
    "replay_pipelined",
    "replay_sequential",
    "shrink_commands",
]
