"""The acceptance soak: kill 1 of 4 servers mid-benchmark.

Four closed-loop memslap clients drive a 4-server pool through sharded
(ring-routed) clients; a scheduled NodeCrash takes server1 down in the
middle of the timed region.  The bar:

- >= 99% of issued operations complete (failover reroutes the victim's
  keys; rerouted gets that miss still *completed* -- that is memcached's
  contract, the database behind the cache absorbs them);
- the run is bit-for-bit reproducible: two runs of the same seeded
  scenario produce identical event-stream digests.
"""

from repro.chaos import ChaosController, FaultSchedule, NodeCrash
from repro.cluster import CLUSTER_B, Cluster
from repro.memcached.client import FailoverPolicy
from repro.sanitize import capture
from repro.workloads.keys import KeyChooser
from repro.workloads.memslap import MemslapRunner
from repro.workloads.patterns import NON_INTERLEAVED_10_90

N_SERVERS = 4
N_CLIENTS = 4
N_OPS = 120  # per client: 480 ops total
VICTIM = "server1"
#: Strikes inside the timed region (measured: prepopulate + warmup end
#: around t=1230 µs and the unperturbed benchmark loop runs to ~2140 µs
#: on this configuration; any drift large enough to move the loop off
#: this timestamp trips the mid-run assertion below).
CRASH_AT_US = 1500.0


def soak_scenario():
    """One full soak run; returns (result, clients, controller)."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=N_CLIENTS, n_servers=N_SERVERS)
    cluster.start_server()
    controller = ChaosController(
        cluster, FaultSchedule((NodeCrash(at_us=CRASH_AT_US, server=VICTIM),))
    ).arm()
    clients = []

    def factory(i):
        client = cluster.sharded_client(
            "UCR-IB",
            i,
            timeout_us=4000.0,
            policy=FailoverPolicy(eject_threshold=1, rejoin_after_us=1e9),
        )
        clients.append(client)
        return client

    runner = MemslapRunner(
        cluster,
        "UCR-IB",
        value_size=64,
        pattern=NON_INTERLEAVED_10_90,
        n_clients=N_CLIENTS,
        n_ops_per_client=N_OPS,
        warmup_ops=16,
        keys=KeyChooser(mode="uniform", key_space=64, prefix="soak"),
        client_factory=factory,
        tolerate_failures=True,
    )
    result = runner.run()
    return result, clients, controller


def test_soak_survives_losing_one_of_four_servers():
    with capture() as digest_a:
        result, clients, controller = soak_scenario()

    # The crash actually struck, and struck mid-run (after the timed
    # region began, before the loop finished).
    assert controller.log == [(CRASH_AT_US, f"apply crash {VICTIM}")]
    assert result.started_at_us < CRASH_AT_US < (
        result.started_at_us + result.elapsed_us
    ), "crash missed the timed region"

    # >= 99% completion through failover.
    assert result.total_ops == N_CLIENTS * N_OPS
    assert result.completion_ratio >= 0.99, (
        f"{result.ops_failed} of {result.total_ops} ops lost"
    )

    # Failover did the work: the victim was detected and ejected.
    assert sum(c.failovers for c in clients) > 0
    assert sum(c.gave_up for c in clients) == 0
    assert any(VICTIM in c.ejected_servers() for c in clients)
    # Survivors stayed in rotation everywhere.
    for client in clients:
        assert len(c := client.ejected_servers()) <= 1, c

    # Determinism: the same seeded scenario replays digest-identically.
    with capture() as digest_b:
        result_b, _, _ = soak_scenario()
    assert digest_a.events == digest_b.events
    assert digest_a.hexdigest() == digest_b.hexdigest()
    assert result_b.completion_ratio == result.completion_ratio


def test_soak_without_chaos_is_loss_free():
    """Control run: the same workload minus the crash completes 100%."""
    cluster = Cluster(CLUSTER_B, n_client_nodes=N_CLIENTS, n_servers=N_SERVERS)
    cluster.start_server()
    runner = MemslapRunner(
        cluster,
        "UCR-IB",
        value_size=64,
        pattern=NON_INTERLEAVED_10_90,
        n_clients=N_CLIENTS,
        n_ops_per_client=N_OPS,
        warmup_ops=16,
        keys=KeyChooser(mode="uniform", key_space=64, prefix="soak"),
        client_factory=lambda i: cluster.sharded_client("UCR-IB", i),
        tolerate_failures=True,
    )
    result = runner.run()
    assert result.completion_ratio == 1.0
    assert result.get_misses == 0
