"""Serving scenarios: seeded determinism, validation, replay digests."""

import pytest

from repro.chaos import (
    ChaosController,
    FaultSchedule,
    NodeCrash,
    ServingScenario,
    SlowServer,
    expiry_stampede,
    hot_key_storm,
    shard_loss,
)
from repro.cluster import CLUSTER_B, Cluster
from repro.sanitize import capture
from repro.workloads.serving import ServingRunner

SERVERS = ["server0", "server1", "server2", "server3"]


# -- determinism -------------------------------------------------------------


def test_scenarios_are_pure_functions_of_seed_and_parameters():
    for build in (hot_key_storm, expiry_stampede, shard_loss):
        a = build(7, SERVERS)
        b = build(7, SERVERS)
        assert a == b, build.__name__
        assert build(8, SERVERS) != a, build.__name__


def test_storm_shape():
    sc = hot_key_storm(7, SERVERS, n_hot=3, key_space=64)
    assert sc.name == "hot_key_storm"
    assert len(sc.hot_keys) == 3
    assert len(set(sc.hot_keys)) == 3  # distinct draws
    assert all(k.startswith("key-") for k in sc.hot_keys)
    assert len(sc.schedule) == 2
    for fault in sc.schedule:
        assert isinstance(fault, SlowServer)
        assert fault.server in SERVERS
        assert 3.0 <= fault.factor < 6.0
        assert sc.horizon_us * 0.25 <= fault.at_us < sc.horizon_us * 0.5
    assert sc.schedule.horizon_us <= sc.horizon_us


def test_stampede_shape():
    sc = expiry_stampede(7, SERVERS)
    assert sc.name == "expiry_stampede"
    assert len(sc.schedule) == 0  # the chaos is the synchronized expiry
    assert len(sc.hot_keys) == 1  # one keystone key by default
    assert sc.hot_exptime_s > 0


def test_shard_loss_shape():
    sc = shard_loss(7, SERVERS, horizon_us=2_000_000.0, down_fraction=0.6)
    assert sc.name == "shard_loss"
    assert sc.hot_keys == () and sc.hot_fraction == 0.0  # uniform load
    (crash,) = sc.schedule
    assert isinstance(crash, NodeCrash)
    assert crash.server in SERVERS
    assert crash.at_us == pytest.approx(200_000.0)
    assert crash.duration_us == pytest.approx(1_200_000.0)


# -- validation --------------------------------------------------------------


def test_every_scenario_rejects_an_empty_pool():
    for build in (hot_key_storm, expiry_stampede, shard_loss):
        with pytest.raises(ValueError):
            build(7, [])


def test_hot_fraction_bounds():
    with pytest.raises(ValueError, match="hot_fraction"):
        ServingScenario(
            name="bad", seed=1, schedule=FaultSchedule(()),
            hot_keys=("key-0",), hot_fraction=1.5, hot_exptime_s=1,
            horizon_us=1e6,
        )


def test_schedule_must_fit_inside_the_horizon():
    late = FaultSchedule((NodeCrash(at_us=2e6, server="server0"),))
    with pytest.raises(ValueError, match="past the"):
        ServingScenario(
            name="bad", seed=1, schedule=late, hot_keys=(),
            hot_fraction=0.0, hot_exptime_s=0, horizon_us=1e6,
        )


def test_cannot_draw_more_hot_keys_than_the_key_space():
    with pytest.raises(ValueError, match="hot keys"):
        hot_key_storm(7, SERVERS, n_hot=9, key_space=8)


def test_stampede_requires_an_expiring_ttl():
    with pytest.raises(ValueError, match="expiring"):
        expiry_stampede(7, SERVERS, hot_exptime_s=0)


def test_shard_loss_down_fraction_bounds():
    for bad in (0.0, 0.95):
        with pytest.raises(ValueError, match="down_fraction"):
            shard_loss(7, SERVERS, down_fraction=bad)


# -- replay ------------------------------------------------------------------


def _storm_replay(seed):
    """A small armed storm run under the event-digest sanitizer."""
    with capture() as digest:
        cluster = Cluster(CLUSTER_B, n_client_nodes=2, n_servers=2)
        cluster.start_server()
        scenario = hot_key_storm(
            seed, cluster.server_names, n_hot=2, key_space=16,
            horizon_us=500_000.0,
        )
        ChaosController(cluster, scenario.schedule).arm()
        runner = ServingRunner(
            cluster, scenario, n_clients=2, n_ops_per_client=25,
            key_space=16, regen_cost_us=5_000.0, leases=True,
        )
        result = runner.run()
    return digest, result


def test_armed_scenario_replays_digest_identical():
    """Same seed, same schedule, same shaped load: the whole run -- fault
    strikes included -- must replay bit-for-bit."""
    digest_a, result_a = _storm_replay(11)
    digest_b, result_b = _storm_replay(11)
    assert digest_a.events == digest_b.events
    assert digest_a.hexdigest() == digest_b.hexdigest()
    assert (result_a.regens, result_a.stale_served, result_a.elapsed_us) == (
        result_b.regens, result_b.stale_served, result_b.elapsed_us,
    )
    digest_c, _ = _storm_replay(12)
    assert digest_c.hexdigest() != digest_a.hexdigest()
