"""Differential replay: oracle agreement, cross-config agreement,
determinism, fault-injection detection, shrinking, parser fuzzing."""

import json

import pytest

from repro.check.differential import (
    CONFIGS,
    PRESSURE_STORE_CONFIG,
    differential_run,
    replay,
    replay_concurrent,
)
from repro.check.generate import Step, generate_commands
from repro.check.mutations import MUTATIONS
from repro.check.parser_fuzz import fuzz_parsers
from repro.check.shrink import dump_mismatch, load_commands, shrink_commands

UCR = CONFIGS[0]
SDP_BIN = CONFIGS[2]


def test_generator_is_deterministic():
    a = generate_commands(7, 50)
    b = generate_commands(7, 50)
    assert a == b
    assert generate_commands(8, 50) != a


def test_generator_concurrent_stays_checkable():
    for cmd in generate_commands(3, 200, concurrent=True):
        assert cmd.op not in ("cas", "flush_all", "sleep")
        if cmd.op == "touch":
            assert cmd.exptime == 0


def test_command_json_roundtrip():
    for cmd in generate_commands(11, 60):
        assert Step.from_json(cmd.to_json()) == cmd


def test_step_json_says_what_the_op_reads_and_old_dumps_still_load():
    assert Step("set", ["k"], b"v").to_json() == {"op": "set", "key": "k", "value": "v"}
    assert Step("incr", ["k"], delta=1).to_json() == {"op": "incr", "key": "k"}
    assert Step("sleep", sleep_s=3).to_json() == {"op": "sleep", "sleep_s": 3}
    # Dumps come from outside the program: their defaults are the
    # script's (delta 1, stale-tolerant getl), not the IR's (0 / False) ...
    assert Step.from_json({"op": "incr", "key": "k"}).delta == 1
    assert Step.from_json({"op": "getl", "key": "k"}).stale_ok is True
    # ... and a dump written before defaults were left out reads the same.
    old = {"op": "set", "key": "k", "value": "v", "flags": 0, "exptime": 0,
           "delta": 1, "token_ref": "last", "sleep_s": 0, "stale_ok": True}
    assert Step.from_json(old) == Step("set", ["k"], b"v")
    assert Step.from_json({**old, "op": "sleep", "key": "", "sleep_s": 2}) == Step(
        "sleep", sleep_s=2
    )


def test_sequential_replay_matches_oracle():
    result = replay(UCR, generate_commands(7, 60))
    assert result.ok, result.mismatches[:3]


def test_differential_agreement_across_all_configs():
    """The PR's core claim: all four transports and both protocols are
    response-for-response identical to each other and the oracle."""
    result = differential_run(generate_commands(7, 50), configs=CONFIGS)
    assert result.ok, (result.disagreements, [r.mismatches[:2] for r in result.replays])
    assert len(result.replays) == len(CONFIGS)


def test_pipelined_replay_is_the_same_replay_at_depth():
    """Windows of four in flight: every config still matches the oracle
    and the others, the outcomes are the blocking replay's, and the
    feature set is the one replay's (a mutation is caught here too)."""
    steps = generate_commands(1, 80)
    configs = [UCR, CONFIGS[1], SDP_BIN, CONFIGS[-1]]
    piped = differential_run(steps, seed=1, configs=configs, depth=4)
    assert piped.ok, (piped.disagreements, [r.mismatches[:2] for r in piped.replays])
    assert [r.config for r in piped.replays] == [f"{c[0]}/pipe4" for c in configs]
    assert piped.replays[0].outcomes == replay(UCR, steps, seed=1).outcomes
    assert not replay(UCR, generate_commands(9, 80), depth=4, mutation="delete-lies").ok


def test_a_replay_can_be_traced_at_any_depth(tmp_path):
    path = str(tmp_path / "trace.json")
    result = replay(SDP_BIN, generate_commands(1, 12), depth=4, trace_path=path)
    assert result.ok and result.trace_file == path
    names = {e["name"] for e in json.loads((tmp_path / "trace.json").read_text())["traceEvents"]}
    assert "client.pipeline" in names  # the windows really rode the pipeline


def test_pipelined_replay_refuses_eviction_adoption():
    with pytest.raises(ValueError, match="depth 1"):
        replay(UCR, generate_commands(1, 5), depth=4, store_config=PRESSURE_STORE_CONFIG)


#: Mutations only expressible under memory pressure get their own rig
#: (tests/check/test_pressure.py); the classic three are caught by the
#: plain sequential replay.
_PLAIN_MUTATIONS = ("delete-lies", "incr-off-by-one", "set-truncates")


def test_pressure_mutations_are_registered():
    assert set(_PLAIN_MUTATIONS) | {
        "skip-eviction-counter",
        "double-free-on-rebalance",
        "onesided-skip-version-bump",
        "onesided-stale-stamp",
        "lease-serve-stale-past-deadline",
    } == set(MUTATIONS)


@pytest.mark.parametrize("mutation", _PLAIN_MUTATIONS)
def test_injected_mutations_are_caught_and_shrink_small(mutation):
    """A deliberately broken store is detected, and ddmin produces a
    counterexample of at most 10 commands (the acceptance bound)."""
    commands = generate_commands(9, 80)
    result = replay(UCR, commands, mutation=mutation)
    assert not result.ok, f"{mutation} not detected"

    def failing(sub):
        return not replay(UCR, sub, mutation=mutation).ok

    small = shrink_commands(commands, failing)
    assert 1 <= len(small) <= 10
    assert failing(small)


@pytest.mark.parametrize("depth", [1, 4])
def test_onesided_mutation_is_caught_and_shrinks_small(depth):
    """Skipping the index invalidation's version bump is invisible to
    RPC transports but serves a dead value on the one-sided config --
    blocking or in windows, whose GETs take the ladder too -- and
    leaves an entry the end-of-replay sanitizer refuses; the
    counterexample shrinks to set/delete/get commands."""
    onesided = CONFIGS[-1]
    assert onesided[0] == "UCR-1S"
    mutation = "onesided-skip-version-bump"
    # Seed 8 produces a set -> delete -> read window with no intervening
    # flush or republish of the bucket, which the bug needs to show.
    commands = generate_commands(8, 80)
    result = replay(onesided, commands, depth=depth, mutation=mutation)
    assert not result.ok, f"{mutation} not detected"
    # A served value differs, not only the end-of-replay export check.
    assert result.mismatches[0][0] < len(commands)

    def failing(sub):
        return not replay(onesided, sub, depth=depth, mutation=mutation).ok

    small = shrink_commands(commands, failing)
    assert 1 <= len(small) <= 10
    assert failing(small)
    assert {cmd.op for cmd in small} <= {"set", "delete", "get", "gets"}


def test_onesided_mutation_is_invisible_to_rpc_transports():
    """The same bug on an active-message config never surfaces: RPC
    answers come from the authoritative store, not the index."""
    commands = generate_commands(8, 80)
    result = replay(UCR, commands, mutation="onesided-skip-version-bump")
    assert result.ok


def test_a_replay_fails_on_an_unsound_exported_index():
    """Seed 1 orphans an entry (its delete skips the invalidation) that
    no later read, flush or re-set of the key touches: every response
    matches the oracle, and the export sanitizer run at the end of the
    replay fails it, reported like a mismatch after the last step."""
    commands = generate_commands(1, 80)
    result = replay(CONFIGS[-1], commands, mutation="onesided-skip-version-bump")
    assert result.mismatches == [(
        len(commands),
        ["export", "slot 960: live entry with no owner (invalidation skipped?)"],
        ["export", "sound"],
    )]


@pytest.mark.parametrize("depth", [1, 4])
def test_a_stale_stamp_is_caught_by_the_concurrent_onesided_replay(monkeypatch, depth):
    """Unpublish leaving the stamp valid serves a deleted value to a
    client that remembers the old entry.  An own delete forgets that
    entry, so the sequential replay cannot see it; with the row armed on
    every server a one-sided client exports, another client's GET does
    -- blocking or in a pipelined window -- and the concurrent history
    does not linearize."""
    from repro.memcached.server import MemcachedServer

    mutation = "onesided-stale-stamp"
    onesided = CONFIGS[-1]
    export = MemcachedServer.export_index

    def export_mutated(server):
        descriptor = export(server)
        MUTATIONS[mutation](server.store)
        return descriptor

    monkeypatch.setattr(MemcachedServer, "export_index", export_mutated)
    assert replay(onesided, generate_commands(1, 80), mutation=mutation).ok
    assert not replay_concurrent(onesided, seed=1, pipeline_depth=depth).ok


def test_dump_and_load_roundtrip(tmp_path):
    commands = generate_commands(9, 80)
    result = replay(UCR, commands, mutation="delete-lies")
    path = dump_mismatch(
        str(tmp_path / "case.json"), 9, UCR[0], commands, result, mutation="delete-lies"
    )
    doc, loaded = load_commands(path)
    assert loaded == commands
    assert doc["mutation"] == "delete-lies"
    assert doc["mismatches"]


def test_concurrent_histories_linearizable_and_deterministic():
    """Acceptance: 4 clients x 2 shards, seeded -- linearizable, and the
    same seed yields the same digest and verdict on a rerun."""
    a = replay_concurrent(SDP_BIN, seed=42, n_clients=4, n_servers=2, n_ops=200)
    b = replay_concurrent(SDP_BIN, seed=42, n_clients=4, n_servers=2, n_ops=200)
    assert a.ok and b.ok
    assert a.n_records == 200
    assert a.digest == b.digest
    c = replay_concurrent(SDP_BIN, seed=43, n_clients=4, n_servers=2, n_ops=200)
    assert c.digest != a.digest  # the digest actually depends on the seed


def test_concurrent_under_chaos_stays_linearizable():
    """Failover may lose in-flight ops (allowed) but never invent
    phantom completions; the checker enforces exactly that contract."""
    a = replay_concurrent(
        UCR, seed=42, n_clients=4, n_servers=2, n_ops=200, chaos=True
    )
    assert a.ok, a.check.failures[:2]
    assert a.chaos_log  # faults actually fired
    b = replay_concurrent(
        UCR, seed=42, n_clients=4, n_servers=2, n_ops=200, chaos=True
    )
    assert (a.digest, a.chaos_log) == (b.digest, b.chaos_log)


def test_ucr_zero_copy_get_seed_3_is_linearizable():
    """A UCR GET hit is served zero-copy out of its slab chunk after the
    handler yields.  Unpinned, a concurrent prepend freed and refilled the
    chunk in that window, and a GET on key2/server0 returned the old
    item's length over the new item's bytes (history digest
    b41de36119737008).  The reply's slab pin keeps the chunk until the
    bytes have left."""
    result = replay_concurrent(UCR, seed=3, pipeline_depth=1)
    failed = [(key, server) for key, server, _ in result.check.failures]
    assert failed == [], (result.digest[:16], result.check.failures[:1])


def test_ucr_pipelined_seed_1_is_linearizable():
    """The same window in a pipelined run: without the pin no
    linearization explained the 60 ops on one key of server1, whose
    first op is a touch (history digest 803ca10c0985cbb9, the same for
    UCR-1S/pipe4, whose pipelined batches ride active messages)."""
    result = replay_concurrent(UCR, seed=1, pipeline_depth=4)
    failed = [(key, server) for key, server, _ in result.check.failures]
    assert failed == [], (result.digest[:16], result.check.failures[:1])


def test_ucr_pipelined_seed_42_is_linearizable():
    """CI's default seed, pipelined: once RC kept post order per QP the
    timing moved into the same window, and without the pin no
    linearization explained the 46 ops on key3 of server1 (history
    digest 4a4e33cbccddddf3, the same for UCR-1S/pipe4)."""
    result = replay_concurrent(UCR, seed=42, pipeline_depth=4)
    failed = [(key, server) for key, server, _ in result.check.failures]
    assert failed == [], (result.digest[:16], result.check.failures[:1])


def test_fuzz_parsers_crash_free():
    assert fuzz_parsers(1, n_cases=150) == []


def test_shrink_rejects_an_input_that_does_not_fail():
    with pytest.raises(ValueError, match="needs a failing input"):
        shrink_commands(generate_commands(1, 5), lambda sub: False)
