"""The reference oracle: unit semantics + property agreement with the
real store on a shared simulated clock."""

import dataclasses
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.check.generate import BOGUS_CAS
from repro.check.model import MODEL_DIVERGENCES, ModelMemcached
from repro.memcached.command import Command, entry_data
from repro.memcached.engine import CommandEngine
from repro.memcached.errors import ClientError, ServerError
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import COUNTER_LIMIT, ItemStore, StoreConfig
from repro.sim import Simulator


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def model(clock):
    return ModelMemcached(clock)


# -- unit semantics -----------------------------------------------------------


def test_set_get_roundtrip(model):
    assert model.set("k", b"v", flags=7) == "stored"
    hit = model.get("k")
    assert (hit.value, hit.flags) == (b"v", 7)


def test_add_replace_presence(model):
    assert model.add("k", b"a") == "stored"
    assert model.add("k", b"b") == "not_stored"
    assert model.replace("k", b"c") == "stored"
    assert model.replace("missing", b"x") == "not_stored"
    assert model.get("k").value == b"c"


def test_append_prepend(model):
    assert model.append("k", b"x") == "not_stored"
    model.set("k", b"mid")
    assert model.append("k", b">") == "stored"
    assert model.prepend("k", b"<") == "stored"
    assert model.get("k").value == b"<mid>"


def test_cas_flow(model):
    model.set("k", b"v1")
    token = model.gets("k").cas
    assert model.cas("k", b"v2", token) == "stored"
    assert model.cas("k", b"v3", token) == "exists"  # token went stale
    assert model.cas("missing", b"x", token) == "not_found"
    assert model.get("k").value == b"v2"


def test_delete(model):
    model.set("k", b"v")
    assert model.delete("k") is True
    assert model.delete("k") is False
    assert model.get("k") is None


def test_incr_wraps_at_uint64(model):
    model.set("n", str(COUNTER_LIMIT - 1).encode())
    assert model.incr("n", 1) == 0
    assert model.incr("n", 5) == 5


def test_decr_clamps_at_zero(model):
    model.set("n", b"3")
    assert model.decr("n", 10) == 0


def test_arith_rejects_non_numeric_and_overwide(model):
    model.set("s", b"not-a-number")
    with pytest.raises(ClientError):
        model.incr("s", 1)
    model.set("w", str(COUNTER_LIMIT).encode())  # one past the ceiling
    with pytest.raises(ClientError):
        model.decr("w", 1)
    assert model.incr("missing", 1) is None


def test_incr_keeps_deadline_and_flags(model, clock):
    """As the store does: every incr re-stores the counter with its old
    flags and deadline, and a new cas."""
    model.set("n", b"9", flags=7, exptime=10)
    cas = model.gets("n").cas
    assert model.incr("n", 1) == 10
    hit = model.gets("n")
    assert (hit.value, hit.flags) == (b"10", 7) and hit.cas != cas
    clock.now = 11.0
    assert model.get("n") is None


def test_arith_counts_only_significant_digits(model):
    """``int()`` refuses a string of more than 4 300 digits; the model
    must not crash where the store answers."""
    model.set("padded", b"0" * 5000 + b"9")
    assert model.incr("padded", 1) == 10
    model.set("long", b"1" * 5001)
    with pytest.raises(ClientError):
        model.decr("long", 1)


def test_key_validation(model):
    for bad in ("", "k" * 251, "sp ace", "tab\tkey"):
        with pytest.raises(ClientError):
            model.set(bad, b"v")
    assert model.set("k" * 250, b"v") == "stored"


def test_value_too_large(model):
    with pytest.raises(ServerError):
        model.set("k", bytes(PAGE_BYTES))


def test_exptime_relative_absolute_negative(model, clock):
    model.set("rel", b"v", exptime=10)
    model.set("abs", b"v", exptime=100 * 24 * 3600)  # > 30 days: absolute
    model.set("neg", b"v", exptime=-1)
    assert model.get("neg") is None
    clock.now = 11.0
    assert model.get("rel") is None
    assert model.get("abs") is not None
    clock.now = 100 * 24 * 3600 + 1.0
    assert model.get("abs") is None


def test_touch_and_flush(model, clock):
    model.set("k", b"v")
    assert model.touch("k", 5) is True
    assert model.touch("missing", 5) is False
    clock.now = 6.0
    assert model.get("k") is None
    model.set("a", b"1")
    model.flush_all(2)  # delayed flush
    assert model.get("a") is not None
    clock.now = 9.0
    assert model.get("a") is None
    model.set("b", b"2")  # born after the flush point
    assert model.get("b") is not None


def test_divergences_documented():
    names = [name for name, _ in MODEL_DIVERGENCES]
    assert len(names) == len(set(names))  # no duplicate entries
    assert "cas-token-values" in names and "no-stats" in names
    # Retired in the memory-pressure PR: the replay layer now adopts
    # store-reported evictions/OOM, so pressure is a verified surface.
    assert "no-eviction" not in names and "no-oom" not in names


def test_model_eviction_adoption():
    model = ModelMemcached(lambda: 0.0)
    model.set("k", b"v")
    assert model.evict("k") is True
    assert model.get("k") is None
    assert model.evict("k") is False  # nothing left to adopt


def test_model_too_large_set_destroys_old_value():
    # Bug-for-bug mirror of the store's unlink-first order: a too-large
    # replacement raises SERVER_ERROR *and* destroys the old value.
    model = ModelMemcached(lambda: 0.0)
    model.set("k", b"old")
    with pytest.raises(ServerError):
        model.set("k", bytes(PAGE_BYTES))
    assert model.get("k") is None
    model.set("k", b"fresh")
    with pytest.raises(ServerError):
        model.append("k", bytes(PAGE_BYTES))
    assert model.get("k") is None


# -- property: the oracle vs the engine, at the IR, on one clock ---------------

#: Few keys, so that a won lease or a gets token usually meets a later op
#: on its key; the two boundary keys are the longest legal and one past.
KEYS = st.sampled_from(["a", "a", "b", "b", "k" * 250, "k" * 251])
VALUES = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.sampled_from(
        [b"0", b"41", b"18446744073709551615", b"18446744073709551616", b"x"]
    ),
)
DELTAS = st.sampled_from([1, 7, 2**32, 2**64 - 1])
EXPTIMES = st.sampled_from([0, 0, 1, 3])
FLAGS = st.integers(0, 2**16 - 1)
#: A symbolic token, resolved per side: the latest gets (cas) or won
#: lease (a fill) on the key, or one no store ever issued.
TOKEN_REFS = st.sampled_from(["last", "last", "bogus"])


def _keyed(ops, **fields):
    keys = st.lists(KEYS, min_size=1, max_size=1)
    return st.builds(Command, op=st.sampled_from(ops), keys=keys, **fields)


_STORE = {"value": VALUES, "flags": FLAGS, "exptime": EXPTIMES}

#: (strategy of (command, token_ref), weight): stores and reads dominate so
#: state builds up between the flushes and clock advances that wipe it.
_WEIGHTED = [
    (st.tuples(_keyed(["set", "set", "add", "replace"], **_STORE), st.none()), 4),
    (st.tuples(_keyed(["cas", "cas", "set", "add", "replace"], **_STORE), TOKEN_REFS), 3),
    (st.tuples(_keyed(["append", "prepend"], value=VALUES), st.none()), 1),
    (st.tuples(_keyed(["get", "gets", "gets", "delete"]), st.none()), 3),
    (st.tuples(st.builds(Command, op=st.just("get"),
                         keys=st.lists(KEYS, min_size=2, max_size=3)), st.none()), 1),
    (st.tuples(_keyed(["getl"], stale_ok=st.booleans()), st.none()), 3),
    (st.tuples(_keyed(["incr", "decr"], delta=DELTAS), st.none()), 1),
    (st.tuples(_keyed(["touch"], exptime=EXPTIMES), st.none()), 1),
    (st.tuples(st.builds(Command, op=st.just("flush_all"), exptime=EXPTIMES), st.none()), 1),
    (st.tuples(st.just("advance"), st.sampled_from([1, 1, 3, 12])), 3),
]

STEPS = st.lists(
    # one_of() folds repeated alternatives into one; a drawn index keeps them.
    st.sampled_from(
        [i for i, (_, weight) in enumerate(_WEIGHTED) for _ in range(weight)]
    ).flatmap(lambda i: _WEIGHTED[i][0]),
    min_size=25,
    max_size=60,
)

class _Side:
    """One implementation of ``apply`` with its own token maps (raw cas
    tokens differ across sides: MODEL_DIVERGENCES 'cas-token-values')."""

    def __init__(self, apply) -> None:
        self.apply = apply
        self.tokens: dict = {}
        self.cas_seen: dict[int, int] = {}

    def step(self, cmd: Command, token_ref) -> tuple:
        """Apply *cmd* (its symbolic token resolved on this side) and
        return everything a client could observe of the reply."""
        if token_ref is not None:
            field = "cas" if cmd.op == "cas" else "lease_token"
            token = self.tokens.get((field, cmd.key), BOGUS_CAS) if token_ref == "last" else BOGUS_CAS
            cmd = dataclasses.replace(cmd, **{field: token})
        reply = self.apply(cmd)
        if cmd.op == "gets" and reply.values:
            self.tokens["cas", cmd.key] = reply.values[0][3]
        if reply.lease_state == "won":
            self.tokens["lease_token", cmd.key] = reply.lease_token
        values = [
            (key, flags, entry_data(data), self.cas_seen.setdefault(cas, len(self.cas_seen)))
            for key, flags, data, cas in reply.values
        ]
        return (reply.status, reply.number, values, reply.error_kind,
                reply.lease_state, reply.lease_token, reply.stale)


def _first_divergence(steps):
    """Run *steps* through both ``apply``s on one clock; the first step
    whose observable replies differ, or None.  (A helper so that a failing
    example's traceback does not keep its megabytes of slab pages alive
    while hypothesis shrinks.)"""
    sim = Simulator()
    store = ItemStore(sim, StoreConfig(max_bytes=64 * PAGE_BYTES))
    engine = _Side(CommandEngine(SimpleNamespace(store=store)).apply)
    oracle = _Side(ModelMemcached(lambda: sim.now / 1e6).apply)
    for index, (cmd, arg) in enumerate(steps):
        if cmd == "advance":
            sim._now += arg * 1e6
            continue
        got, want = engine.step(cmd, arg), oracle.step(cmd, arg)
        if got != want:
            return index, cmd, arg, got, want
    return None


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(STEPS)
def test_oracle_apply_matches_engine_apply(steps):
    """Same IR commands, same clock, two ``apply``s: every reply field a
    codec could put on a wire agrees -- status, counter value, hit
    values/flags, cas identity, error kind, lease verdict and token,
    staleness.  cas and lease fills use each side's own latest token."""
    assert _first_divergence(steps) is None
