"""The cache-aside serving loop's lease losers, and its constructor checks.

A delayed ``flush_all`` makes every prepopulated item cold in the middle
of a run: a flushed item is never servable stale, so the first reader
after the flush wins the fill lease and every reader behind it, until
the refill lands, loses with nothing to serve and polls.
"""

import pytest

from repro.chaos import FaultSchedule, ServingScenario
from repro.cluster import CLUSTER_B, Cluster
from repro.workloads.serving import LEASE_WAIT_US, MAX_LEASE_WAITS, ServingRunner

HOT = "key-3"


def _flushed_stampede(regen_cost_us: float):
    """Four clients, 40 leased reads each of one hot key, paced 1 ms apart;
    everything the prepopulation wrote is flushed 20 ms in."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=4, n_servers=1)
    cluster.start_server()
    scenario = ServingScenario(
        name="flushed", seed=3, schedule=FaultSchedule(()), hot_keys=(HOT,),
        hot_fraction=1.0, hot_exptime_s=0, horizon_us=40_000.0,
    )
    runner = ServingRunner(cluster, scenario, n_clients=4, n_ops_per_client=40,
                           key_space=8, regen_cost_us=regen_cost_us, leases=True)
    cluster.server.store.flush_all(delay_seconds=0.02)
    return runner.run()


def test_lease_losers_poll_for_the_winners_fill():
    result = _flushed_stampede(regen_cost_us=2_000.0)
    assert result.lease_waits > 0
    assert (result.stale_served, result.lease_wait_timeouts) == (0, 0)
    assert result.regens == 1  # one winner regenerated; the losers waited
    assert (result.ops_failed, len(result.latency)) == (0, result.total_ops)


def test_a_fill_slower_than_the_polling_budget_times_the_losers_out():
    result = _flushed_stampede(regen_cost_us=3 * MAX_LEASE_WAITS * LEASE_WAIT_US)
    assert result.lease_wait_timeouts > 0
    assert result.lease_waits >= MAX_LEASE_WAITS * result.lease_wait_timeouts
    assert result.regens == 1 + result.lease_wait_timeouts
    assert (result.ops_failed, len(result.latency)) == (0, result.total_ops)


@pytest.mark.parametrize(
    "n_clients, hot_keys, match",
    [(3, (), "3 clients need 3 nodes"),
     (1, ("key-9",), r"hot keys \['key-9'\] outside the key-0..key-7 universe")],
)
def test_the_runner_refuses_what_the_cluster_or_universe_cannot_hold(
        n_clients, hot_keys, match):
    cluster = Cluster(CLUSTER_B, n_client_nodes=2, n_servers=1)
    scenario = ServingScenario(
        name="bad", seed=1, schedule=FaultSchedule(()), hot_keys=hot_keys,
        hot_fraction=0.5, hot_exptime_s=0, horizon_us=1e6,
    )
    with pytest.raises(ValueError, match=match):
        ServingRunner(cluster, scenario, n_clients=n_clients, key_space=8)
