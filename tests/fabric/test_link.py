"""Unit tests for NIC/frame transfer: latency math, contention, handlers."""

import pytest

from repro.fabric import ETH_10G, HOST_CLOVERTOWN, IB_DDR, IB_QDR, Network, Node
from repro.sim import Simulator


def make_pair(params=IB_DDR):
    sim = Simulator()
    net = Network(sim, params)
    a = Node(sim, "a", HOST_CLOVERTOWN)
    b = Node(sim, "b", HOST_CLOVERTOWN)
    nic_a = net.attach(a)
    nic_b = net.attach(b)
    return sim, nic_a, nic_b


def expected_latency(params, nbytes):
    return (
        params.serialization_time(nbytes)
        + params.one_way_delay()
        + params.rx_frame_process_us
    )


def test_frame_latency_matches_model():
    sim, nic_a, nic_b = make_pair()
    received = []
    nic_b.install_rx_handler(lambda f: received.append((f.payload, sim.now)))
    ev = nic_a.send_frame(nic_b, 1024, "hello")
    sim.run()
    assert ev.processed
    payload, when = received[0]
    assert payload == "hello"
    assert when == pytest.approx(expected_latency(IB_DDR, 1024))


def test_qdr_faster_than_ddr_for_large_frames():
    lat = {}
    for params in (IB_DDR, IB_QDR):
        sim, nic_a, nic_b = make_pair(params)
        nic_b.install_rx_handler(lambda f: None)
        nic_a.send_frame(nic_b, 65536, None)
        sim.run()
        lat[params.name] = sim.now
    assert lat["IB-QDR"] < lat["IB-DDR"]


def test_tx_serialization_contention():
    """Two frames from one NIC serialize; from two NICs they overlap."""
    params = IB_DDR
    # Same source: second frame waits for the first to finish serializing.
    sim, nic_a, nic_b = make_pair(params)
    arrivals = []
    nic_b.install_rx_handler(lambda f: arrivals.append(sim.now))
    nic_a.send_frame(nic_b, 16384, 1)
    nic_a.send_frame(nic_b, 16384, 2)
    sim.run()
    gap_same_src = arrivals[1] - arrivals[0]
    assert gap_same_src == pytest.approx(params.serialization_time(16384), rel=0.05)


def test_rx_handler_required():
    sim, nic_a, nic_b = make_pair()
    ev = nic_a.send_frame(nic_b, 64, None)

    def watcher():
        try:
            yield ev
        except RuntimeError:
            return "no-handler"

    w = sim.process(watcher())
    sim.run()
    assert w.value == "no-handler"


def test_double_rx_handler_rejected():
    sim, nic_a, nic_b = make_pair()
    nic_b.install_rx_handler(lambda f: None)
    with pytest.raises(RuntimeError):
        nic_b.install_rx_handler(lambda f: None)


# Both entry points share one launch helper; each rejected shape is checked
# on each (send_frame_tx_done used to skip the loopback and cross-network
# checks, so the sockets path could bridge IB and 10GigE NICs silently).
ENTRY_POINTS = pytest.mark.parametrize("entry", ["send_frame", "send_frame_tx_done"])


@ENTRY_POINTS
def test_loopback_rejected(entry):
    sim, nic_a, _ = make_pair()
    with pytest.raises(ValueError, match="loopback"):
        getattr(nic_a, entry)(nic_a, 64, None)
    assert sim.peek() == float("inf")  # nothing was started


@ENTRY_POINTS
def test_cross_network_rejected(entry):
    sim = Simulator()
    ib = Network(sim, IB_QDR)
    eth = Network(sim, ETH_10G)
    a = Node(sim, "a", HOST_CLOVERTOWN)
    b = Node(sim, "b", HOST_CLOVERTOWN)
    nic_ib = ib.attach(a)
    nic_eth = eth.attach(b)
    with pytest.raises(ValueError, match="cannot bridge networks"):
        getattr(nic_ib, entry)(nic_eth, 64, None)
    assert sim.peek() == float("inf")


@ENTRY_POINTS
def test_negative_size_rejected(entry):
    sim, nic_a, nic_b = make_pair()
    with pytest.raises(ValueError, match="negative frame size"):
        getattr(nic_a, entry)(nic_b, -1, None)
    assert sim.peek() == float("inf")


def test_tx_done_fires_before_delivery():
    sim, nic_a, nic_b = make_pair()
    nic_b.install_rx_handler(lambda f: None)
    tx_done, delivered = nic_a.send_frame_tx_done(nic_b, 2048, None)
    times = {}

    def watch(name, ev):
        yield ev
        times[name] = sim.now

    sim.process(watch("tx", tx_done))
    sim.process(watch("rx", delivered))
    sim.run()
    assert times["tx"] < times["rx"]
    assert times["tx"] == pytest.approx(IB_DDR.serialization_time(2048))


def test_nic_counters():
    sim, nic_a, nic_b = make_pair()
    nic_b.install_rx_handler(lambda f: None)
    nic_a.send_frame(nic_b, 100, None)
    nic_a.send_frame(nic_b, 200, None)
    sim.run()
    assert nic_a.frames_sent.value == 2
    assert nic_a.bytes_sent.value == 300
    assert nic_b.frames_received.value == 2


def test_frame_records_timestamps():
    sim, nic_a, nic_b = make_pair()
    seen = []
    nic_b.install_rx_handler(seen.append)
    delivered = nic_a.send_frame(nic_b, 512, None)
    sim.run()
    frame = seen[0]
    assert delivered.value is frame  # the transfer process is the delivery event
    assert frame.sent_at == 0.0
    assert frame.delivered_at == sim.now
