"""The cache-aside serving loop's lease losers, and its constructor checks.

A delayed ``flush_all`` makes every prepopulated item cold in the middle
of a run: a flushed item is never servable stale, so the first reader
after the flush wins the fill lease and every reader behind it, until
the refill lands, loses with nothing to serve and polls.  Re-issuing
the flush while they poll moves its horizon past now: a poller then
wins the next lease, or finds the expired value to serve stale.
"""

from typing import Optional

import pytest

from repro.chaos import FaultSchedule, ServingScenario
from repro.cluster import CLUSTER_B, Cluster
from repro.workloads.serving import LEASE_WAIT_US, MAX_LEASE_WAITS, ServingRunner

HOT = "key-3"


def _flushed_stampede(regen_cost_us: float, hot_exptime_s: int = 0,
                      n_ops_per_client: int = 40, pacing_us: float = 1_000.0,
                      flush_at_s: float = 0.02, reflush_at_s: Optional[float] = None):
    """Four clients, *n_ops_per_client* leased reads each of one hot key,
    paced *pacing_us* apart; everything the prepopulation wrote is
    flushed *flush_at_s* in.  With
    *reflush_at_s*, ``flush_all 60`` is re-issued then: the pending flush
    horizon moves a minute on, so what the first flush hid is visible
    again, and every lease is cleared."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=4, n_servers=1)
    cluster.start_server()
    scenario = ServingScenario(
        name="flushed", seed=3, schedule=FaultSchedule(()), hot_keys=(HOT,),
        hot_fraction=1.0, hot_exptime_s=hot_exptime_s,
        horizon_us=pacing_us * n_ops_per_client,
    )
    runner = ServingRunner(cluster, scenario, n_clients=4,
                           n_ops_per_client=n_ops_per_client, key_space=8,
                           regen_cost_us=regen_cost_us, leases=True)
    store = cluster.server.store
    store.flush_all(delay_seconds=flush_at_s)
    if reflush_at_s is not None:
        reflush = cluster.sim.timeout(reflush_at_s * 1e6)
        reflush.callbacks.append(lambda _ev: store.flush_all(delay_seconds=60.0))
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


def test_a_reissued_flush_hands_a_poller_the_lease_and_the_rest_the_stale_value():
    """The hot key expires 1 s in (its exptime), 3 ms after a flush hid it:
    the reader behind the flush wins the lease and regenerates for 10 ms,
    and the readers behind it lose with nothing to serve and poll.  The
    flush is re-issued 1.5 ms after the expiry: the expired value is
    visible again, inside its stale window, and no lease is held.  The
    first poller wins the next lease and regenerates; the pollers behind
    it serve the stale value; the first winner's fill is refused."""
    result = _flushed_stampede(regen_cost_us=10_000.0, hot_exptime_s=1,
                               n_ops_per_client=260, pacing_us=4_000.0,
                               flush_at_s=0.997,
                               reflush_at_s=1.0015)
    assert result.regens == 2  # the first winner, then a poller
    assert result.lease_denied == 1  # the first winner's token was cleared
    assert (result.stale_served, result.lease_waits) == (6, 11)
    assert result.lease_wait_timeouts == 0
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
