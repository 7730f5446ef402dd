"""ChaosController tests: faults strike on time, revert on time, and the
whole run stays deterministic under the event-digest sanitizer."""

import pytest

from repro.chaos import (
    ChaosController,
    EndpointFlap,
    FaultSchedule,
    LinkDegrade,
    NodeCrash,
    SlowServer,
)
from repro.cluster import CLUSTER_B, Cluster
from repro.memcached.client import FailoverPolicy
from repro.memcached.errors import ServerDownError
from repro.sanitize import run_twice_and_compare


def small_pool(n_servers=2, n_clients=1):
    cluster = Cluster(CLUSTER_B, n_client_nodes=n_clients, n_servers=n_servers)
    cluster.start_server()
    return cluster


def test_slow_server_applies_and_reverts_on_schedule():
    cluster = small_pool()
    schedule = FaultSchedule(
        (SlowServer(at_us=1000.0, server="server0", factor=4.0, duration_us=2000.0),)
    )
    controller = ChaosController(cluster, schedule).arm()
    sim = cluster.sim
    node = cluster.nodes["server0"]
    seen = {}

    def probe():
        yield sim.timeout(500)
        seen["before"] = node.cpu_scale
        yield sim.timeout(1000)  # t=1500: inside the window
        seen["during"] = node.cpu_scale
        yield sim.timeout(2000)  # t=3500: window closed at t=3000
        seen["after"] = node.cpu_scale

    sim.process(probe())
    sim.run()
    assert seen == {"before": 1.0, "during": 4.0, "after": 1.0}
    assert controller.faults_applied == 1
    assert controller.log == [
        (1000.0, "apply slow server0 x4"),
        (3000.0, "revert slow server0 x4"),
    ]


def test_link_degrade_scales_the_nic_for_the_window():
    cluster = small_pool()
    schedule = FaultSchedule(
        (LinkDegrade(at_us=100, server="server1", factor=3.0, duration_us=400),)
    )
    ChaosController(cluster, schedule).arm()
    sim = cluster.sim
    nic = cluster.verbs_net.nic_of("server1")
    seen = {}

    def probe():
        yield sim.timeout(300)
        seen["during"] = nic.slowdown
        yield sim.timeout(300)
        seen["after"] = nic.slowdown

    sim.process(probe())
    sim.run()
    assert seen == {"during": 3.0, "after": 1.0}


def test_slow_server_actually_slows_operations():
    """The same op takes measurably longer inside a slow window."""
    cluster = small_pool(n_servers=1)
    client = cluster.client("UCR-IB")
    timings = {}

    def scenario():
        yield from client.set("k", b"x" * 64)
        t0 = cluster.sim.now
        yield from client.get("k")
        timings["healthy"] = cluster.sim.now - t0
        cluster.nodes["server"].cpu_scale *= 8.0
        t0 = cluster.sim.now
        yield from client.get("k")
        timings["slowed"] = cluster.sim.now - t0
        cluster.nodes["server"].cpu_scale /= 8.0

    cluster.sim.process(scenario())
    cluster.sim.run()
    assert timings["slowed"] > timings["healthy"] * 2


def test_node_crash_refuses_ops_until_recovery():
    cluster = small_pool(n_servers=1)
    client = cluster.client("UCR-IB", timeout_us=3000.0)
    schedule = FaultSchedule(
        (NodeCrash(at_us=10000.0, server="server", duration_us=50000.0),)
    )
    ChaosController(cluster, schedule).arm()
    sim = cluster.sim
    outcome = {}

    def scenario():
        yield from client.set("k", b"v")
        yield sim.timeout(20000)  # inside the outage
        try:
            yield from client.get("k")
            outcome["during"] = "ok"
        except ServerDownError:
            outcome["during"] = "down"
        yield sim.timeout(60000)  # past recovery at t=60000
        got = yield from client.get("k")
        # The store survives the process restart in this model (warm
        # cache); the transport reconnected through the revived listener.
        outcome["after"] = got

    sim.process(scenario())
    sim.run()
    assert outcome["during"] == "down"
    assert outcome["after"] == b"v"


def test_endpoint_flap_recovers_via_failover_retry():
    cluster = small_pool(n_servers=2)
    client = cluster.sharded_client(
        "UCR-IB", timeout_us=3000.0, policy=FailoverPolicy(eject_threshold=5)
    )
    schedule = FaultSchedule((EndpointFlap(at_us=5000, server="server0"),))
    controller = ChaosController(cluster, schedule).arm()
    sim = cluster.sim
    keys = [f"flap-{i}" for i in range(20)]
    outcome = {}

    def scenario():
        for k in keys:
            yield from client.set(k, b"v")
        yield sim.timeout(10000)  # flap struck at t=5000
        hits = 0
        for k in keys:
            got = yield from client.get(k)
            hits += got == b"v"
        outcome["hits"] = hits

    sim.process(scenario())
    sim.run()
    # The listener never went down: every key is servable again (at
    # worst after a reconnect), and nothing was ejected for good.
    assert outcome["hits"] == len(keys)
    assert controller.faults_applied == 1
    assert client.gave_up == 0


def test_arm_rejects_past_faults_and_double_arming():
    cluster = small_pool()
    sim = cluster.sim

    def burn():
        yield sim.timeout(1000)

    sim.process(burn())
    sim.run()
    late = ChaosController(
        cluster, FaultSchedule((NodeCrash(at_us=500, server="server0"),))
    )
    with pytest.raises(ValueError, match="already at"):
        late.arm()
    ok = ChaosController(
        cluster, FaultSchedule((NodeCrash(at_us=2000, server="server0"),))
    ).arm()
    with pytest.raises(RuntimeError):
        ok.arm()


def test_chaos_run_is_digest_deterministic():
    """The PR-1 sanitizer contract holds across fault injection."""

    def scenario():
        cluster = small_pool(n_servers=2)
        client = cluster.sharded_client(
            "UCR-IB", timeout_us=3000.0,
            policy=FailoverPolicy(eject_threshold=1, rejoin_after_us=1e9),
        )
        ChaosController(
            cluster,
            FaultSchedule((
                SlowServer(at_us=4000.0, server="server1", factor=3.0, duration_us=2000.0),
                NodeCrash(at_us=6000.0, server="server1", duration_us=10000.0),
                LinkDegrade(at_us=9000.0, server="server0", factor=2.0, duration_us=1500.0),
            )),
        ).arm()
        sim = cluster.sim

        def driver():
            for i in range(30):
                yield from client.set(f"d-{i}", b"v" * 32)
            for i in range(30):
                yield from client.get(f"d-{i}")

        sim.process(driver())
        sim.run()

    run_twice_and_compare(scenario)
