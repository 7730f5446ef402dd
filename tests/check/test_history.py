"""The history recorder and the Wing--Gong linearizability checker."""

import pytest

from repro.check.history import (
    CHECKABLE_OPS,
    OpRecord,
    check_history,
    history_digest,
    recorder,
)


def rec(
    op_id,
    op,
    key,
    args,
    invoked,
    completed,
    outcome,
    status="complete",
    client=0,
    server="s0",
):
    return OpRecord(
        op_id=op_id,
        client=client,
        op=op,
        key=key,
        args=args,
        invoked_us=invoked,
        server=server,
        completed_us=completed,
        status=status,
        outcome=outcome,
    )


# -- recorder -----------------------------------------------------------------


def test_recorder_disabled_by_default():
    assert recorder.enabled is False


def test_recording_context_scopes_and_clears():
    with recorder.recording():
        assert recorder.enabled
        r = recorder.invoke(object(), "get", "k", (), 1.0)
        recorder.complete(r, b"v", 2.0, "s0")
        assert len(recorder.records) == 1
    assert not recorder.enabled
    with recorder.recording():
        assert recorder.records == []  # fresh per recording


def test_client_ids_stable_in_first_invoke_order():
    a, b = object(), object()
    with recorder.recording():
        r1 = recorder.invoke(b, "get", "k", (), 1.0)
        r2 = recorder.invoke(a, "get", "k", (), 2.0)
        r3 = recorder.invoke(b, "get", "k", (), 3.0)
    assert (r1.client, r2.client, r3.client) == (0, 1, 0)


def test_lost_and_fail_shapes():
    with recorder.recording():
        r1 = recorder.invoke(object(), "set", "k", (b"v",), 1.0)
        recorder.lost(r1, 5.0, "s0")
        r2 = recorder.invoke(object(), "incr", "k", (1,), 2.0)
        recorder.fail(r2, "client", 6.0, "s0")
    assert r1.status == "lost" and r1.completed_us is None
    assert r1.completion_instant == float("inf")
    assert r2.status == "fail" and r2.outcome == ("error", "client")


@pytest.mark.parametrize("sharded", [False, True])
def test_record_args_follow_the_command_not_the_call_spelling(sharded):
    """Records are built from the Command: keyword, positional and
    pipelined spellings of one op record identical args (the checker
    indexes them), on plain and sharded clients alike; lease variants
    record as the op they refine."""
    from repro.cluster import CLUSTER_A, Cluster
    from repro.memcached.command import Command

    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    client = cluster.sharded_client() if sharded else cluster.client("UCR-IB")

    def scenario():
        yield from client.set("k", b"v")
        yield from client.set("k", value=b"v", exptime=0)
        yield from client.touch("k", 3)
        yield from client.touch("k", exptime=3)
        yield from client.cas("k", b"w", cas_token=7, flags=1)
        yield from client.set("n", b"1")
        yield from client.incr("n", delta=2)
        yield from client.pipeline([
            Command(op="set", keys=["k"], value=b"v"),
            Command(op="touch", keys=["k"], exptime=3),
        ])
        lease = yield from client.get_lease("miss", stale_ok=False)
        yield from client.set_with_lease("miss", value=b"f", lease_token=lease[2])
        yield from client.set_with_lease("miss", b"g", 12345)

    with recorder.recording():
        cluster.sim.process(scenario())
        cluster.sim.run()
        got = [(r.op, r.key, r.args, r.annotations) for r in recorder.records]
    assert got == [
        ("set", "k", (b"v",), ()),
        ("set", "k", (b"v",), ()),
        ("touch", "k", (3,), ()),
        ("touch", "k", (3,), ()),
        ("cas", "k", (b"w", 7), ()),
        ("set", "n", (b"1",), ()),
        ("incr", "n", (2,), ()),
        ("set", "k", (b"v",), ()),
        ("touch", "k", (3,), ()),
        ("get", "miss", (), ("lease-won",)),
        ("set", "miss", (b"f",), ()),
        ("set", "miss", (b"g",), ("lease-denied",)),
    ]
    assert check_history(
        [r for r in recorder.records if r.op in CHECKABLE_OPS and r.key == "miss"]
    ).ok


def test_digest_canonicalizes_cas_tokens():
    """Histories identical up to raw cas token values digest identically."""

    def history(base):
        return [
            rec(0, "set", "k", (b"v",), 1.0, 2.0, True),
            rec(1, "gets", "k", (), 3.0, 4.0, (b"v", base)),
            rec(2, "gets", "k", (), 5.0, 6.0, (b"v", base)),
            rec(3, "gets", "k", (), 7.0, 8.0, (b"v", base + 9)),
        ]

    assert history_digest(history(17)) == history_digest(history(40017))
    # ... but a *different token pattern* digests differently.
    different = [
        rec(0, "set", "k", (b"v",), 1.0, 2.0, True),
        rec(1, "gets", "k", (), 3.0, 4.0, (b"v", 17)),
        rec(2, "gets", "k", (), 5.0, 6.0, (b"v", 18)),  # changed between
        rec(3, "gets", "k", (), 7.0, 8.0, (b"v", 19)),
    ]
    assert history_digest(different) != history_digest(history(17))


def test_digest_covers_annotations():
    """An annotated record digests with its annotations; the same record
    bare digests as it did before annotations existed."""
    bare = rec(0, "get", "k", (), 1.0, 2.0, None)
    noted = rec(0, "get", "k", (), 1.0, 2.0, None)
    noted.annotations = ("lease-won",)
    assert history_digest([noted]) != history_digest([bare])
    other = rec(0, "get", "k", (), 1.0, 2.0, None)
    other.annotations = ("lease-denied",)
    assert history_digest([noted]) != history_digest([other])


# -- checker: sequential histories --------------------------------------------


def test_sequential_valid_history():
    records = [
        rec(0, "set", "k", (b"a",), 1.0, 2.0, True),
        rec(1, "get", "k", (), 3.0, 4.0, b"a"),
        rec(2, "append", "k", (b"b",), 5.0, 6.0, True),
        rec(3, "get", "k", (), 7.0, 8.0, b"ab"),
        rec(4, "delete", "k", (), 9.0, 10.0, True),
        rec(5, "get", "k", (), 11.0, 12.0, None),
    ]
    assert check_history(records).ok


def test_phantom_read_fails():
    records = [
        rec(0, "set", "k", (b"a",), 1.0, 2.0, True),
        rec(1, "get", "k", (), 3.0, 4.0, b"GHOST"),
    ]
    result = check_history(records)
    assert not result.ok
    assert "no linearization" in result.failures[0][2]


def test_counter_semantics():
    records = [
        rec(0, "set", "n", (str(2**64 - 1).encode(),), 1.0, 2.0, True),
        rec(1, "incr", "n", (1,), 3.0, 4.0, 0),  # wraps
        rec(2, "decr", "n", (7,), 5.0, 6.0, 0),  # clamps
        rec(3, "incr", "n", (41,), 7.0, 8.0, 41),
    ]
    assert check_history(records).ok
    records[3] = rec(3, "incr", "n", (41,), 7.0, 8.0, 42)  # off by one
    assert not check_history(records).ok


def test_arith_client_error_needs_non_numeric_state():
    ok = [
        rec(0, "set", "k", (b"text",), 1.0, 2.0, True),
        rec(1, "incr", "k", (1,), 3.0, 4.0, ("error", "client"), status="fail"),
    ]
    assert check_history(ok).ok
    bad = [
        rec(0, "set", "k", (b"5",), 1.0, 2.0, True),
        rec(1, "incr", "k", (1,), 3.0, 4.0, ("error", "client"), status="fail"),
    ]
    assert not check_history(bad).ok  # numeric state: the error is a phantom


# -- checker: concurrency ------------------------------------------------------


def test_overlapping_writes_linearize_either_way():
    """Two concurrent sets; a later get may see either one."""
    for winner in (b"a", b"b"):
        records = [
            rec(0, "set", "k", (b"a",), 1.0, 10.0, True, client=0),
            rec(1, "set", "k", (b"b",), 2.0, 9.0, True, client=1),
            rec(2, "get", "k", (), 20.0, 21.0, winner, client=0),
        ]
        assert check_history(records).ok, winner
    records = [
        rec(0, "set", "k", (b"a",), 1.0, 10.0, True, client=0),
        rec(1, "set", "k", (b"b",), 2.0, 9.0, True, client=1),
        rec(2, "get", "k", (), 20.0, 21.0, b"c", client=0),
    ]
    assert not check_history(records).ok


def test_realtime_order_is_respected():
    """A set that completes before the next begins cannot be reordered."""
    records = [
        rec(0, "set", "k", (b"old",), 1.0, 2.0, True),
        rec(1, "set", "k", (b"new",), 3.0, 4.0, True),
        rec(2, "get", "k", (), 5.0, 6.0, b"old"),
    ]
    assert not check_history(records).ok


#: id -> (op, args, the value before it, the value after it) for each
#: op a lost record can carry.
LOST_OPS = {
    "set": ("set", (b"v",), None, b"v"),
    "add": ("add", (b"v",), None, b"v"),
    "replace": ("replace", (b"v",), b"1", b"v"),
    "append": ("append", (b"v",), b"1", b"1v"),
    "prepend": ("prepend", (b"v",), b"1", b"v1"),
    "delete": ("delete", (), b"1", None),
    "incr": ("incr", (2,), b"5", b"7"),
    "decr": ("decr", (2,), b"5", b"3"),
    "incr-not-a-number": ("incr", (2,), b"x", b"x"),
}


@pytest.mark.parametrize(
    "op, args, before, after", list(LOST_OPS.values()), ids=list(LOST_OPS)
)
def test_lost_op_may_or_may_not_have_executed(op, args, before, after):
    """A lost op's effect may or may not have happened: a later read may
    see the value before it or after it, and nothing else."""
    setup = []
    if before is not None:
        setup = [rec(9, "set", "k", (before,), 0.1, 0.2, True, client=0)]
    lost = rec(0, op, "k", args, 1.0, None, None, status="lost", client=0)
    for observed in (before, after):
        records = setup + [
            lost,
            rec(1, "get", "k", (), 100.0, 101.0, observed, client=1),
        ]
        assert check_history(records).ok, observed
    records = setup + [
        lost,
        rec(1, "get", "k", (), 100.0, 101.0, b"phantom", client=1),
    ]
    assert not check_history(records).ok


def test_by_server_grouping():
    """The same key on two shards is two registers; merged it's a bug."""
    records = [
        rec(0, "set", "k", (b"a",), 1.0, 2.0, True, server="s0"),
        rec(1, "set", "k", (b"b",), 3.0, 4.0, True, server="s1"),
        rec(2, "get", "k", (), 5.0, 6.0, b"a", server="s0"),
    ]
    assert check_history(records, by_server=True).ok
    assert not check_history(records, by_server=False).ok


def test_invalid_key_ops_must_fail():
    long_key = "k" * 251
    records = [
        rec(0, "set", long_key, (b"v",), 1.0, 2.0, ("error", "client"), status="fail"),
        rec(1, "touch", long_key, (0,), 3.0, 4.0, False),  # touch skips validation
    ]
    assert check_history(records).ok
    bypass = [rec(0, "set", long_key, (b"v",), 1.0, 2.0, True)]
    assert not check_history(bypass).ok  # a success IS the bug


# -- checker: surface guards ---------------------------------------------------


def test_uncheckable_ops_raise():
    with pytest.raises(ValueError):
        check_history([rec(0, "cas", "k", (b"v", 1), 1.0, 2.0, "stored")])
    with pytest.raises(ValueError):
        check_history([rec(0, "touch", "k", (5,), 1.0, 2.0, True)])
    assert "cas" not in CHECKABLE_OPS


def test_pending_ops_are_ignored():
    records = [
        rec(0, "set", "k", (b"v",), 1.0, None, None, status="pending"),
        rec(1, "get", "k", (), 2.0, 3.0, None),
    ]
    result = check_history(records)
    assert result.ok and result.ops == 1
