"""Semantic parity across UCR, text and binary protocol paths.

Regression pins for divergences the differential fuzzer (repro.check)
uncovered: every (transport, protocol) pair must produce the same
outcome -- value, boolean, or *error kind* -- for the same command.
"""

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.errors import ClientError
from repro.memcached.store import COUNTER_LIMIT


@pytest.fixture()
def cluster():
    c = Cluster(CLUSTER_A, n_client_nodes=1)
    c.start_server()
    return c


def clients(cluster):
    """One client per protocol family: UCR structs, text, binary."""
    return {
        "ucr": cluster.client("UCR-IB"),
        "text": cluster.client("SDP"),
        "bin": cluster.client("SDP", binary=True),
    }


def run(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run()
    assert p.processed
    return p.value


LONG_KEY = "k" * 251  # one past MAX_KEY_LENGTH: invalid everywhere


def test_invalid_key_is_client_error_on_every_path(cluster):
    """The fuzzer's first catch: text get used to surface CLIENT_ERROR
    lines as ServerError, and binary cas mapped INVALID_ARGUMENTS to
    ServerError.  All paths must agree on ClientError."""

    def scenario():
        kinds = {}
        for name, client in clients(cluster).items():
            for op, call in [
                ("set", lambda c: c.set(LONG_KEY, b"v")),
                ("get", lambda c: c.get(LONG_KEY)),
                ("gets", lambda c: c.gets(LONG_KEY)),
                ("delete", lambda c: c.delete(LONG_KEY)),
                ("incr", lambda c: c.incr(LONG_KEY, 1)),
                ("cas", lambda c: c.cas(LONG_KEY, b"v", 1)),
            ]:
                try:
                    yield from call(client)
                    kinds[(name, op)] = "ok"
                except ClientError:
                    kinds[(name, op)] = "client"
                except Exception as exc:  # noqa: BLE001 - recording the kind
                    kinds[(name, op)] = type(exc).__name__
        return kinds

    kinds = run(cluster, scenario())
    assert set(kinds.values()) == {"client"}, {
        k: v for k, v in kinds.items() if v != "client"
    }


def test_zero_length_add_replace_respect_presence(cluster):
    """UCR's zero-length storage path used to funnel add/replace into
    plain set: replace on a missing key wrongly stored it."""

    def scenario():
        out = {}
        for name, client in clients(cluster).items():
            out[(name, "replace-missing")] = yield from client.replace(
                f"zl-none-{name}", b""
            )
            out[(name, "add-missing")] = yield from client.add(f"zl-add-{name}", b"")
            out[(name, "add-existing")] = yield from client.add(f"zl-add-{name}", b"")
            yield from client.set(f"zl-set-{name}", b"full")
            out[(name, "replace-existing")] = yield from client.replace(
                f"zl-set-{name}", b""
            )
            out[(name, "replaced-value")] = yield from client.get(f"zl-set-{name}")
        return out

    out = run(cluster, scenario())
    for name in ("ucr", "text", "bin"):
        assert out[(name, "replace-missing")] is False, name
        assert out[(name, "add-missing")] is True, name
        assert out[(name, "add-existing")] is False, name
        assert out[(name, "replace-existing")] is True, name
        assert out[(name, "replaced-value")] == b"", name


def test_append_prepend_parity(cluster):
    def scenario():
        out = {}
        for name, client in clients(cluster).items():
            key = f"cat-{name}"
            out[(name, "append-missing")] = yield from client.append(key, b"x")
            yield from client.set(key, b"mid", flags=3)
            out[(name, "append")] = yield from client.append(key, b">")
            out[(name, "prepend")] = yield from client.prepend(key, b"<")
            out[(name, "value")] = yield from client.get(key)
        return out

    out = run(cluster, scenario())
    for name in ("ucr", "text", "bin"):
        assert out[(name, "append-missing")] is False, name
        assert out[(name, "append")] is True, name
        assert out[(name, "prepend")] is True, name
        assert out[(name, "value")] == b"<mid>", name


def test_arith_wrap_clamp_reject_parity(cluster):
    """incr wraps mod 2^64, decr clamps at 0, non-numeric and over-wide
    values raise ClientError -- identically on every path."""

    def scenario():
        out = {}
        for name, client in clients(cluster).items():
            key = f"ctr-{name}"
            yield from client.set(key, str(COUNTER_LIMIT - 1).encode())
            out[(name, "wrap")] = yield from client.incr(key, 1)
            yield from client.set(key, b"3")
            out[(name, "clamp")] = yield from client.decr(key, 10)
            yield from client.set(key, b"not-a-number")
            try:
                yield from client.incr(key, 1)
                out[(name, "reject")] = "ok"
            except ClientError:
                out[(name, "reject")] = "client"
            yield from client.set(key, str(COUNTER_LIMIT).encode())
            try:
                yield from client.decr(key, 1)
                out[(name, "overwide")] = "ok"
            except ClientError:
                out[(name, "overwide")] = "client"
            out[(name, "missing")] = yield from client.incr(f"ctr-miss-{name}", 1)
        return out

    out = run(cluster, scenario())
    for name in ("ucr", "text", "bin"):
        assert out[(name, "wrap")] == 0, name
        assert out[(name, "clamp")] == 0, name
        assert out[(name, "reject")] == "client", name
        assert out[(name, "overwide")] == "client", name
        assert out[(name, "missing")] is None, name


def test_arith_on_a_long_value_parity(cluster):
    """A value of 5 001 digits used to reach ``int()``, which refuses
    more than 4 300, and the ValueError killed the server's worker.  Only
    significant digits count: a zero-padded counter is a number, and a
    long one is at least 2**64, so non-numeric -- on every path, with the
    server still answering afterwards."""

    def scenario():
        out = {}
        for name, client in clients(cluster).items():
            key = f"long-{name}"
            yield from client.set(key, b"0" * 5000 + b"9")
            out[(name, "padded")] = yield from client.incr(key, 1)
            yield from client.set(key, b"1" * 5001)
            try:
                yield from client.decr(key, 1)
                out[(name, "long")] = "ok"
            except ClientError:
                out[(name, "long")] = "client"
            out[(name, "after")] = yield from client.get(key)
        return out

    out = run(cluster, scenario())
    for name in ("ucr", "text", "bin"):
        assert out[(name, "padded")] == 10, name
        assert out[(name, "long")] == "client", name
        assert out[(name, "after")] == b"1" * 5001, name


def test_binary_flush_with_delay(cluster):
    """The FLUSH delay rides the optional extras; it used to be dropped."""
    client = cluster.client("SDP", binary=True)
    sim = cluster.sim

    def scenario():
        yield from client.set("f", b"v")
        yield from client.flush_all(2)  # flush 2 simulated seconds out
        before = yield from client.get("f")
        yield sim.timeout(3 * 1e6)
        after = yield from client.get("f")
        return before, after

    before, after = run(cluster, scenario())
    assert before == b"v"
    assert after is None


def test_exptime_truncation_parity(cluster):
    """The text protocol truncates exptime to an int on the wire; the
    struct-based paths must truncate too rather than smuggle precision."""
    sim = cluster.sim

    def scenario():
        out = {}
        for name, client in clients(cluster).items():
            yield from client.set(f"tr-{name}", b"v", 0, 1.9)  # truncates to 1 s
        yield sim.timeout(int(1.5 * 1e6))
        for name, client in clients(cluster).items():
            out[name] = yield from client.get(f"tr-{name}")
        return out

    out = run(cluster, scenario())
    assert out == {"ucr": None, "text": None, "bin": None}
