"""Property-based tests: the storage engine behaves like a dict.

The model: a plain Python dict driven by the same random command
sequence.  Any divergence (modulo eviction, which we disable by giving
the store ample memory) is a bug in slabs/index/LRU wiring.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import ItemStore, StoreConfig
from repro.sim import Simulator

KEYS = st.text(
    alphabet="abcdefghij0123456789_", min_size=1, max_size=16
).map(lambda s: "k_" + s)
VALUES = st.binary(min_size=0, max_size=2048)

COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), KEYS, VALUES),
        st.tuples(st.just("add"), KEYS, VALUES),
        st.tuples(st.just("replace"), KEYS, VALUES),
        st.tuples(st.just("delete"), KEYS, st.just(b"")),
        st.tuples(st.just("get"), KEYS, st.just(b"")),
    ),
    min_size=1,
    max_size=60,
)


def big_store() -> ItemStore:
    return ItemStore(Simulator(), StoreConfig(max_bytes=32 * PAGE_BYTES))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(COMMANDS)
def test_store_matches_dict_model(commands):
    store = big_store()
    model: dict[str, bytes] = {}
    for cmd, key, value in commands:
        if cmd == "set":
            store.set(key, value)
            model[key] = value
        elif cmd == "add":
            ok = store.store("add", key, value)[0] == "stored"
            assert ok == (key not in model)
            if ok:
                model[key] = value
        elif cmd == "replace":
            ok = store.store("replace", key, value)[0] == "stored"
            assert ok == (key in model)
            if ok:
                model[key] = value
        elif cmd == "delete":
            assert store.delete(key) == (key in model)
            model.pop(key, None)
        else:  # get
            item = store.get(key)
            if key in model:
                assert item is not None and item.value() == model[key]
            else:
                assert item is None
    # Final state agrees exactly.
    assert store.stats.curr_items == len(model)
    for key, value in model.items():
        assert store.get(key).value() == value


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=40))
def test_curr_items_never_negative_and_bytes_consistent(pairs):
    store = big_store()
    for key, value in pairs:
        store.set(key, value)
        assert store.stats.curr_items >= 0
        assert store.stats.bytes >= 0
    for key, _ in pairs:
        store.delete(key)
    assert store.stats.curr_items == 0
    assert store.stats.bytes == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=30))
def test_overwrites_never_leak_chunks(values):
    """Re-setting one key must not consume unbounded slab memory."""
    store = big_store()
    for v in values:
        store.set("the-key", v)
    stats = store.slabs.stats()
    used = stats["total_chunks"] - stats["free_chunks"]
    assert used == 1  # exactly the live item's chunk


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=4096), st.binary(min_size=0, max_size=4096))
def test_append_prepend_equivalence(a, b):
    store = big_store()
    store.set("k", a)
    store.store("append", "k", b)
    assert store.get("k").value() == a + b
    store.set("k2", b)
    store.store("prepend", "k2", a)
    assert store.get("k2").value() == a + b


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=10**6))
def test_incr_matches_arithmetic(start, delta):
    store = big_store()
    store.set("n", str(start).encode())
    assert store.arith("n", delta)[0] == start + delta
    assert store.arith("n", -delta)[0] == start
    assert store.arith("n", -(start + delta + 1))[0] == 0  # clamps
