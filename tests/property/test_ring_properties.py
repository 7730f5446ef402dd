"""Property-based tests: the consistent-hash ring keeps its contract.

Three pinned invariants (the acceptance bar for the sharded client):

- **balance**: with the default 100 vnodes and the canonical server
  names the cluster builder generates (``server0..serverN``), the
  max/min key-load ratio over 10k keys stays <= 1.5;
- **monotonicity**: adding a server only moves keys *to* it (~1/N of
  them); removing a server only moves the *departed* server's keys;
- **determinism**: rebuilding a ring from the same membership yields an
  identical mapping (pure MD5, no entropy).
"""

import hashlib

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster.router import DEFAULT_VNODES, HashRing, RingNode
from repro.memcached import KetamaDistribution, ModulaDistribution

N_KEYS = 10_000


def canonical_ring(n_servers: int, vnodes: int = DEFAULT_VNODES) -> HashRing:
    """The ring the cluster builder constructs for an n-server pool."""
    return HashRing([f"server{i}" for i in range(n_servers)], vnodes=vnodes)


def keys_for(seed: int, n: int = N_KEYS) -> list[str]:
    return [f"key-{seed}-{i}" for i in range(n)]


def load_per_server(ring: HashRing, keys: list[str]) -> dict[str, int]:
    load = dict.fromkeys(ring.servers, 0)
    for key in keys:
        load[ring.server_for(key)] += 1
    return load


# -- balance -----------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    n_servers=st.integers(min_value=2, max_value=8),
    key_seed=st.integers(min_value=0, max_value=10_000),
)
def test_balance_within_budget(n_servers, key_seed):
    """Max/min shard load over 10k keys stays <= 1.5 at 100 vnodes."""
    ring = canonical_ring(n_servers)
    load = load_per_server(ring, keys_for(key_seed))
    assert min(load.values()) > 0
    ratio = max(load.values()) / min(load.values())
    assert ratio <= 1.5, f"imbalance {ratio:.3f} over {load}"


@settings(max_examples=10, deadline=None)
@given(n_servers=st.integers(min_value=2, max_value=8))
def test_arc_shares_match_key_shares(n_servers):
    """Analytic arc ownership predicts the empirical key split."""
    ring = canonical_ring(n_servers)
    load = load_per_server(ring, keys_for(1))
    shares = ring.arc_shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    for name, arc in shares.items():
        empirical = load[name] / N_KEYS
        assert abs(empirical - arc) < 0.03, (name, empirical, arc)


def test_weighted_server_owns_proportional_share():
    """A weight-2 server draws ~2x the keys of each weight-1 peer.

    Extra vnodes here: share variance goes as 1/sqrt(vnodes), and this
    test pins a *ratio between two noisy shares*, so 100 vnodes would
    need uselessly loose bounds.
    """
    ring = HashRing(
        [RingNode("server0", weight=2), "server1", "server2"],
        vnodes=400,
    )
    load = load_per_server(ring, keys_for(2))
    heavy = load["server0"]
    for light in ("server1", "server2"):
        ratio = heavy / load[light]
        assert 1.6 <= ratio <= 2.5, (ratio, load)


# -- monotonicity ------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n_servers=st.integers(min_value=2, max_value=8),
    key_seed=st.integers(min_value=0, max_value=10_000),
)
def test_add_only_moves_keys_to_the_new_server(n_servers, key_seed):
    keys = keys_for(key_seed)
    before = canonical_ring(n_servers)
    owners_before = {k: before.server_for(k) for k in keys}
    before.add_server(f"server{n_servers}")
    moved = 0
    for k in keys:
        after = before.server_for(k)
        if after != owners_before[k]:
            # Every remapped key lands on the newcomer -- never a shuffle
            # between survivors.
            assert after == f"server{n_servers}", (k, owners_before[k], after)
            moved += 1
    expected = 1 / (n_servers + 1)
    assert abs(moved / len(keys) - expected) <= 0.2 * expected + 0.02, (
        moved,
        expected * len(keys),
    )


@settings(max_examples=15, deadline=None)
@given(
    n_servers=st.integers(min_value=2, max_value=8),
    victim=st.integers(min_value=0, max_value=7),
    key_seed=st.integers(min_value=0, max_value=10_000),
)
def test_remove_only_moves_the_departed_servers_keys(n_servers, victim, key_seed):
    victim_name = f"server{victim % n_servers}"
    keys = keys_for(key_seed)
    ring = canonical_ring(n_servers)
    owners_before = {k: ring.server_for(k) for k in keys}
    ring.remove_server(victim_name)
    for k in keys:
        after = ring.server_for(k)
        if owners_before[k] == victim_name:
            assert after != victim_name
        else:
            # Survivors keep every key they already owned.
            assert after == owners_before[k], (k, owners_before[k], after)


# -- determinism -------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n_servers=st.integers(min_value=1, max_value=8),
    key_seed=st.integers(min_value=0, max_value=10_000),
)
def test_identical_membership_yields_identical_mapping(n_servers, key_seed):
    keys = keys_for(key_seed, n=500)
    a = canonical_ring(n_servers)
    b = canonical_ring(n_servers)
    assert [a.server_for(k) for k in keys] == [b.server_for(k) for k in keys]


#: SHA-256 over ``placement_stream`` per distribution.  A key that moves
#: to another server under any of these pools moves a digest.
PLACEMENT_PINS = {
    "modula": "5a57eedcd0acb9ec6a41df7116d6f34d30e53cf7b08b6611b07ceaeb8f381f98",
    "ketama": "3e34dcc80a0e922b9f6b59cdfb102c84712d41ae56434592f18448363641a2c8",
    "ring": "c53f9ebaa962d75710e17f12b117164218edb37a7a5625ab3a0b511c03556e2a",
}


def placement_stream(make) -> bytes:
    """The owner of 2 000 keys on pools of 1-8 servers, and again after
    the middle server of each pool of two or more leaves."""
    keys = keys_for(6, n=2_000)
    out = []
    for n_servers in range(1, 9):
        servers = [f"server{i}" for i in range(n_servers)]
        dist = make(servers)
        out.append(",".join(dist.server_for(k) for k in keys))
        if n_servers > 1:
            dist.remove_server(servers[n_servers // 2])
            out.append(",".join(dist.server_for(k) for k in keys))
    return "\n".join(out).encode()


def test_key_placement_is_pinned():
    makers = {
        "modula": ModulaDistribution,
        "ketama": KetamaDistribution,
        "ring": HashRing,
    }
    digests = {
        name: hashlib.sha256(placement_stream(make)).hexdigest()
        for name, make in makers.items()
    }
    assert digests == PLACEMENT_PINS


def test_membership_order_does_not_matter_for_routing():
    keys = keys_for(3, n=500)
    a = HashRing(["server0", "server1", "server2"])
    b = HashRing(["server2", "server0", "server1"])
    assert [a.server_for(k) for k in keys] == [b.server_for(k) for k in keys]


# -- routing contract --------------------------------------------------------


def test_avoid_set_routes_to_next_preference():
    """Avoiding servers routes a key where removing them would."""
    ring = canonical_ring(4)
    for k in keys_for(5, n=200):
        first = ring.server_for(k)
        without = canonical_ring(4)
        without.remove_server(first)
        second = without.server_for(k)
        assert ring.server_for(k, avoid={first}) == second
        without.remove_server(second)
        assert ring.server_for(k, avoid={first, second}) == without.server_for(k)


def test_avoid_all_is_fail_open():
    ring = canonical_ring(3)
    key = "key-fail-open"
    assert ring.server_for(key, avoid=set(ring.servers)) == ring.server_for(key)


def test_membership_validation():
    import pytest

    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["a", "a"])
    with pytest.raises(ValueError):
        HashRing(["a"], vnodes=0)
    with pytest.raises(ValueError):
        RingNode("a", weight=0)
    ring = HashRing(["a"])
    with pytest.raises(ValueError):
        ring.remove_server("a")
    with pytest.raises(KeyError):
        ring.remove_server("missing")
    ring.add_server("b")
    with pytest.raises(ValueError):
        ring.add_server("b")
