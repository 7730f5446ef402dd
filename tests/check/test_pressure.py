"""Verification under memory pressure.

The eviction-aware pipeline end to end: the pressure differential run
across every transport/protocol configuration (with real, asserted
evictions), the tolerant cross-config comparator, concurrent histories
with per-shard eviction budgets, and the two pressure-only store
mutations -- a silent eviction and a slab-mover double free -- each
detected and shrunk to a small counterexample.
"""

import pytest

from repro.check.differential import (
    CONFIGS,
    PRESSURE_STORE_CONFIG,
    _eviction_explains,
    _strip_cas_tokens,
    differential_run,
    replay,
    replay_concurrent,
)
from repro.check.generate import Step, generate_commands
from repro.check.mutations import MUTATIONS
from repro.check.shrink import dump_mismatch, load_commands, shrink_commands
from repro.memcached.items import ITEM_HEADER_OVERHEAD
from repro.memcached.slabs import PAGE_BYTES, build_chunk_sizes

UCR = CONFIGS[0]
SDP_BIN = CONFIGS[2]

#: The stream every pressure test replays: on a 2-page store this seed
#: demonstrably evicts, reclaims, OOMs, and moves a slab page.
PRESSURE_COMMANDS = generate_commands(7, 200, n_keys=32, pressure=True)


def test_pressure_generator_builds_pressure():
    """The pressure pool concentrates on one large class and never
    flushes (a flush would reset occupancy and defuse the rig)."""
    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    edge = by_density[8]
    assert all(c.op != "flush_all" for c in PRESSURE_COMMANDS)
    big = [
        c for c in PRESSURE_COMMANDS
        if c.op in ("set", "add", "replace", "cas") and len(c.value) > 1000
    ]
    assert big, "no slab-edge values drawn"
    band = edge - ITEM_HEADER_OVERHEAD - 6
    for cmd in big:
        # Every large value sits within a few bytes of the 8-per-page
        # class edge (for the regular short-key pool; boundary-length
        # keys push the total one class up, which is fine).
        assert band - 3 <= len(cmd.value) <= band


def test_pressure_differential_across_all_configs():
    """Acceptance: the pressure run passes on all 8 configurations with
    evictions demonstrably occurring (store-reported counters), every
    replay exact against its own eviction-adopting oracle, and the
    configurations agreeing exactly: on this stream every wire format
    evicts the same victims."""
    result = differential_run(
        PRESSURE_COMMANDS,
        seed=7,
        configs=CONFIGS,
        store_config=PRESSURE_STORE_CONFIG,
        tolerant=True,
    )
    assert result.ok, (
        result.disagreements,
        [r.mismatches[:2] for r in result.replays],
    )
    assert len(result.replays) == len(CONFIGS)
    for replay in result.replays:
        assert replay.evictions > 0, f"{replay.config}: no evictions"
        assert replay.oom_errors > 0, f"{replay.config}: no OOMs"
    assert any(r.slab_moves > 0 for r in result.replays)
    assert any(r.reclaimed > 0 for r in result.replays)
    assert not result.tolerated and not result.disagreements


def test_reserve_before_unlink_divergence_is_tolerated():
    """The one remaining cause of cross-config divergence: a UCR set
    reserves its chunk (possibly evicting) before the old item is
    unlinked, where the byte path unlinks first.  On this stream that
    makes UCR-IB evict other victims than the sockets configs; the
    tolerant comparator excuses exactly those presence differences."""
    result = differential_run(
        generate_commands(25, 120, pressure=True),
        seed=25,
        configs=CONFIGS,
        store_config=PRESSURE_STORE_CONFIG,
        tolerant=True,
    )
    assert result.ok, result.disagreements
    assert result.tolerated and not result.disagreements


def test_tolerant_comparator_only_excuses_presence_differences():
    # Token numbering skew is stripped before comparing.
    assert _strip_cas_tokens(["ok", ["v", "cas#3"]]) == ["ok", ["v", "cas#"]]
    # Lease labels share the numbering (fuzz --lease --zipf --pressure
    # --seed 108: a lease won on an evicted key shifts the next label).
    assert _strip_cas_tokens(["ok", ["won", None, "lease#1"]]) == ["ok", ["won", None, "lease#"]]
    # Presence-flavored pairs: excusable as divergent eviction history.
    assert _eviction_explains(("ok", None), ("ok", "x"))
    assert _eviction_explains(("error", "server"), ("ok", True))
    assert _eviction_explains(("ok", "stored"), ("ok", "not_found"))
    # Value-vs-value on a present key is real corruption: never excused.
    assert not _eviction_explains(("ok", "aaa"), ("ok", "bbb"))
    assert not _eviction_explains(("ok", 41), ("ok", 42))
    # 0 is a legitimate decr result, not an absence marker.
    assert _eviction_explains(("ok", 0), ("ok", None))
    # A getl miss verdict with nothing stale reads as absent (fuzz --lease
    # --zipf --pressure --seed 10: a lease won against a hit).
    assert _eviction_explains(("ok", ["won", None, "lease#4"]), ("ok", "x"))
    assert _eviction_explains(("ok", "x"), ("ok", ["lost", None, None]))
    # With a stale value it reads as present: against a hit, value-vs-value.
    assert not _eviction_explains(("ok", ["lost", "old", None]), ("ok", "x"))
    assert _eviction_explains(("ok", ["lost", "old", None]), ("ok", None))
    # A gets hit is a list too, and present.
    assert not _eviction_explains(("ok", ["v", "cas#"]), ("ok", ["w", "cas#"]))
    assert _eviction_explains(("ok", ["v", "cas#"]), ("ok", None))


def test_arithmetic_client_error_reads_as_presence():
    """incr / decr answer a present non-numeric value with CLIENT_ERROR
    and an evicted one with not-found: that pair is present-vs-absent
    spoken through arithmetic's error, and nothing else is excused."""
    absent, non_numeric = ["ok", None], ["error", "client"]
    assert _eviction_explains(absent, non_numeric, "incr")
    assert _eviction_explains(non_numeric, absent, "decr")
    # CLIENT_ERROR vs a number is value-vs-value on a present key.
    assert not _eviction_explains(["ok", 42], non_numeric, "incr")
    # Only arithmetic speaks presence this way.
    assert not _eviction_explains(absent, non_numeric, "get")
    assert not _eviction_explains(absent, non_numeric)


def test_seed_202_witness_is_a_divergent_eviction_not_a_disagreement():
    """The shrunk repro of ``fuzz --pressure --seed 202 --ops 120``: UCR-IB
    has evicted key15 by the final incr (not-found), SDP/text still holds
    its 124 514 non-numeric bytes (CLIENT_ERROR).  Each replay agrees with
    its own oracle; the tolerant comparator used to refuse the pair
    because one side was not ``ok``."""
    def big(ch: str, n: int = 124514) -> bytes:
        return ch.encode() * n

    witness = [
        Step("set", ["key9"], big("t"), 57729),
        Step("set", ["key15"], big("x"), 13494),
        Step("get", ["key9"]),
        Step("set", ["key6"], big("h"), 35541),
        Step("set", ["key10"], big("b", 124513), 56607, 4),
        Step("set", ["key22"], big("t"), 59072),
        Step("set", ["key5"], big("t"), 30389, 2),
        Step("set", ["key7"], big("x"), 61908),
        Step("set", ["key19"], big("b", 124513), 49364),
        Step("set", ["key8"], b"41", 33210),
        Step("set", ["key10"], big("b", 124513), 15023),
        Step("incr", ["key15"], delta=2**64 - 1),
    ]
    result = differential_run(
        witness,
        seed=202,
        configs=[CONFIGS[0], CONFIGS[1]],
        store_config=PRESSURE_STORE_CONFIG,
        tolerant=True,
    )
    ucr, sdp_text = result.replays
    assert ucr.ok and sdp_text.ok
    assert (ucr.outcomes[-1], sdp_text.outcomes[-1]) == (
        ["ok", None], ["error", "client"],
    )
    assert result.ok, result.disagreements
    assert ("UCR-IB", "SDP/text", len(witness) - 1) in result.tolerated


def test_seed_108_witness_is_a_lease_won_on_an_evicted_key():
    """The shrunk repro of ``fuzz --lease --zipf --pressure --seed 108``:
    after the slab-edge append, UCR-IB's set of key0 runs out of memory
    and loses the key, so its getl wins a lease where SDP/text hits, and
    the next lease label is numbered one higher on UCR-IB.  Presence skew
    and numbering skew, not disagreements."""
    witness = [
        Step("add", ["key0"], b"y" * 124511, 58297),
        Step("setl", ["key15"], b"hello world", 42360),
        Step("append", ["key0"], b"y" * 124513),
        Step("set", ["key0"], b"18446744073709551615", 54756),
        Step("getl", ["key0"], stale_ok=False),
        Step("getl", ["key3"], stale_ok=True),
    ]
    result = differential_run(
        witness,
        seed=108,
        configs=[CONFIGS[0], CONFIGS[1]],
        store_config=PRESSURE_STORE_CONFIG,
        tolerant=True,
    )
    ucr, sdp_text = result.replays
    assert ucr.ok and sdp_text.ok
    assert ucr.outcomes[4] == ["ok", ["won", None, "lease#0"]]
    assert sdp_text.outcomes[4] == ["ok", "18446744073709551615"]
    assert result.ok, result.disagreements
    assert result.tolerated == [("UCR-IB", "SDP/text", i) for i in (3, 4, 5)]


def test_concurrent_pressure_is_linearizable_with_eviction_budgets():
    result = replay_concurrent(
        UCR,
        seed=7,
        n_clients=4,
        n_servers=2,
        n_ops=480,
        n_keys=32,
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert result.ok, result.check.failures[:2]
    assert result.evictions > 0
    # Some groups needed their shard's eviction budget to linearize.
    assert result.check.evictable


def test_concurrent_pressure_sockets_path_has_no_torn_reads():
    """Regression: the sockets server yields (memcpy + response build)
    between executing a get and encoding it.  It used to keep the live
    Item across that window, so a concurrent overwrite could free the
    chunk and a same-class reuse would serve the *new* bytes at the
    *old* length -- a torn read no linearization explains.  The server
    now snapshots value bytes at the linearization point (real memcached
    pins the item with a refcount); this exact run failed before that."""
    result = replay_concurrent(
        SDP_BIN,
        seed=7,
        n_clients=4,
        n_servers=2,
        n_ops=480,
        n_keys=32,
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert result.ok, result.check.failures[:2]
    assert result.check.evictable


def test_skip_eviction_counter_is_caught_and_shrinks():
    """A store that evicts silently (no counter, no hook) can no longer
    launder the loss through eviction adoption: the oracle keeps the
    victim and the replay mismatches."""
    result = replay(
        UCR,
        PRESSURE_COMMANDS,
        seed=7,
        mutation="skip-eviction-counter",
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert not result.ok

    def failing(sub):
        return not replay(
            UCR,
            sub,
            seed=7,
            mutation="skip-eviction-counter",
            store_config=PRESSURE_STORE_CONFIG,
        ).ok

    small = shrink_commands(PRESSURE_COMMANDS, failing)
    assert 1 <= len(small) <= 20
    assert failing(small)


def _val(key: str, chunk_size: int, ch: int) -> bytes:
    """A value filling its chunk to one byte under *chunk_size*."""
    return bytes([ch]) * (chunk_size - ITEM_HEADER_OVERHEAD - len(key) - 1)


def _double_free_witness() -> list[Step]:
    """A handcrafted stream that corrupts data iff the slab mover leaks
    the donor's chunks (the double-free-on-rebalance mutation).

    On the 2-page pressure store: a1 carves page 1 for the 3-per-page
    class, b1..b8 fill page 2 (8 per page), deleting a1 frees page 1,
    and b9 forces the rebalancer to move it.  A leaky mover leaves a1's
    stale chunks on the donor's free list -- so a2 lands *inside* the
    moved page and overwrites whichever of b9..b16 live there.  An
    honest mover passes the same stream (a2 is a clean, adopted OOM:
    the automove window blocks a second immediate move).
    """
    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    c3, c8 = by_density[3], by_density[8]
    cmds = [Step(op="set", keys=["a1"], value=_val("a1", c3, ord("A")))]
    cmds += [
        Step(op="set", keys=[f"b{i}"], value=_val(f"b{i}", c8, ord("a") + i))
        for i in range(1, 9)
    ]
    cmds.append(Step(op="delete", keys=["a1"]))
    cmds += [
        Step(op="set", keys=[f"b{i}"], value=_val(f"b{i}", c8, ord("a") + i))
        for i in range(9, 17)
    ]
    cmds.append(Step(op="set", keys=["a2"], value=_val("a2", c3, ord("Z"))))
    cmds += [Step(op="get", keys=[f"b{i}"]) for i in range(9, 17)]
    return cmds


def test_double_free_on_rebalance_is_caught_and_shrinks():
    witness = _double_free_witness()
    honest = replay(
        UCR, witness, seed=7, store_config=PRESSURE_STORE_CONFIG
    )
    assert honest.ok, honest.mismatches[:2]

    bad = replay(
        UCR,
        witness,
        seed=7,
        mutation="double-free-on-rebalance",
        store_config=PRESSURE_STORE_CONFIG,
    )
    assert not bad.ok  # overlapping chunks genuinely corrupt page bytes

    def failing(sub):
        return not replay(
            UCR,
            sub,
            seed=7,
            mutation="double-free-on-rebalance",
            store_config=PRESSURE_STORE_CONFIG,
        ).ok

    small = shrink_commands(witness, failing)
    assert 1 <= len(small) <= 20
    assert failing(small)


def test_sanitizer_catches_the_double_free_directly():
    """The slab sanitizer's chunk-conservation invariant flags the leaky
    mover at the accounting level, before any value corrupts."""
    from repro.memcached.store import ItemStore
    from repro.sanitize.errors import SlabAccountingError
    from repro.sanitize.slabs import SlabSanitizer
    from repro.sim import Simulator

    by_density = {PAGE_BYTES // size: size for size in build_chunk_sizes()}
    c3, c8 = by_density[3], by_density[8]
    store = ItemStore(Simulator(), PRESSURE_STORE_CONFIG)
    MUTATIONS["double-free-on-rebalance"](store)
    store.set("a1", _val("a1", c3, ord("A")))
    for i in range(1, 9):
        store.set(f"b{i}", _val(f"b{i}", c8, ord("a") + i))
    store.delete("a1")
    store.set("b9", _val("b9", c8, ord("j")))  # the leaky page move
    assert store.stats.slab_moves == 1
    with pytest.raises(SlabAccountingError, match="page reassignment leak"):
        SlabSanitizer().check(store)


def test_pressure_dump_roundtrip(tmp_path):
    result = replay(
        UCR,
        PRESSURE_COMMANDS[:60],
        seed=7,
        mutation="skip-eviction-counter",
        store_config=PRESSURE_STORE_CONFIG,
    )
    path = dump_mismatch(
        str(tmp_path / "case.json"),
        7,
        UCR[0],
        PRESSURE_COMMANDS[:60],
        result,
        mutation="skip-eviction-counter",
        pressure=True,
    )
    doc, loaded = load_commands(path)
    assert loaded == PRESSURE_COMMANDS[:60]
    assert doc["pressure"] is True
    assert doc["mutation"] == "skip-eviction-counter"
