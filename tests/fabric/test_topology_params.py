"""Unit tests for network/node wiring and parameter tables."""

import pytest

from repro.fabric import (
    ETH_10G,
    ETH_1G,
    HOST_CLOVERTOWN,
    HOST_WESTMERE,
    IB_DDR,
    IB_QDR,
    Network,
    Node,
)
from repro.sim import Simulator


def test_attach_registers_both_sides():
    sim = Simulator()
    net = Network(sim, IB_DDR)
    node = Node(sim, "n0", HOST_CLOVERTOWN)
    nic = net.attach(node)
    assert net.nic_of("n0") is nic
    assert node.nic("IB-DDR") is nic
    assert "IB-DDR" in node.networks


def test_double_attach_rejected():
    sim = Simulator()
    net = Network(sim, IB_DDR)
    node = Node(sim, "n0", HOST_CLOVERTOWN)
    net.attach(node)
    with pytest.raises(ValueError):
        net.attach(node)


def test_unknown_lookups_raise():
    sim = Simulator()
    net = Network(sim, IB_DDR)
    node = Node(sim, "n0", HOST_CLOVERTOWN)
    with pytest.raises(KeyError):
        net.nic_of("ghost")
    with pytest.raises(KeyError):
        node.nic("IB-QDR")


def test_multihomed_node():
    """Cluster A nodes carry both IB-DDR and 10GigE NICs."""
    sim = Simulator()
    ib = Network(sim, IB_DDR)
    eth = Network(sim, ETH_10G)
    node = Node(sim, "n0", HOST_CLOVERTOWN)
    ib.attach(node)
    eth.attach(node)
    assert sorted(node.networks) == ["10GigE", "IB-DDR"]


def test_cpu_run_serializes_beyond_cores():
    sim = Simulator()
    node = Node(sim, "n0", HOST_CLOVERTOWN)
    cores = HOST_CLOVERTOWN.cores

    def worker():
        yield from node.cpu_run(10.0)

    for _ in range(cores * 2):
        sim.process(worker())
    sim.run()
    assert sim.now == pytest.approx(20.0)  # two waves of `cores` workers


def test_cpu_run_rejects_negative():
    sim = Simulator()
    node = Node(sim, "n0", HOST_CLOVERTOWN)

    def bad():
        yield from node.cpu_run(-1.0)

    p = sim.process(bad())

    def watcher():
        try:
            yield p
        except ValueError:
            return "caught"

    w = sim.process(watcher())
    sim.run()
    assert w.value == "caught"


def test_memcpy_time_scales_with_size():
    sim = Simulator()
    node = Node(sim, "n0", HOST_CLOVERTOWN)

    def copy():
        yield from node.memcpy(25_000)

    sim.process(copy())
    sim.run()
    assert sim.now == pytest.approx(25_000 / HOST_CLOVERTOWN.memcpy_bytes_per_us)


# ------------------------------------------------------------- parameters


def test_bandwidth_ordering():
    assert IB_QDR.bandwidth_bytes_per_us > IB_DDR.bandwidth_bytes_per_us
    assert IB_DDR.bandwidth_bytes_per_us > ETH_10G.bandwidth_bytes_per_us
    assert ETH_10G.bandwidth_bytes_per_us > ETH_1G.bandwidth_bytes_per_us


def test_serialization_includes_frame_overhead():
    t_zero = IB_DDR.serialization_time(0)
    assert t_zero > 0  # headers still cost wire time
    assert IB_DDR.serialization_time(1500) > t_zero


def test_one_way_delay_positive():
    for params in (IB_DDR, IB_QDR, ETH_10G, ETH_1G):
        assert params.one_way_delay() > 0


def test_westmere_faster_host():
    assert HOST_WESTMERE.speed_factor > HOST_CLOVERTOWN.speed_factor
    assert HOST_WESTMERE.memcpy_bytes_per_us > HOST_CLOVERTOWN.memcpy_bytes_per_us
    assert HOST_WESTMERE.cpu_time(1.0) < HOST_CLOVERTOWN.cpu_time(1.0)


def test_verbs_scale_small_message_budget():
    """Wire-only small-frame latency must leave room for 1-2 µs verbs latency."""
    for params in (IB_DDR, IB_QDR):
        wire = (
            params.serialization_time(64)
            + params.one_way_delay()
            + params.rx_frame_process_us
        )
        assert wire < 1.0  # sub-µs wire budget
