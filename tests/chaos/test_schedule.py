"""Fault-schedule tests: ordering, fault validation, seeded generation."""

import pytest

from repro.chaos import (
    Fault,
    FaultSchedule,
    LinkDegrade,
    NodeCrash,
    SlowServer,
    random_schedule,
)


def test_schedule_sorts_by_strike_time():
    schedule = FaultSchedule(
        (
            NodeCrash(at_us=900, server="b"),
            NodeCrash(at_us=100, server="a"),
        )
    )
    assert [f.at_us for f in schedule] == [100, 900]
    assert schedule.horizon_us == 900
    assert FaultSchedule(()).horizon_us == 0.0


def test_fault_validation():
    with pytest.raises(ValueError):
        NodeCrash(at_us=-5, server="s")
    with pytest.raises(ValueError):
        NodeCrash(at_us=100, server="s", duration_us=0)
    with pytest.raises(ValueError):
        NodeCrash(at_us=100, server="s", repeat=0)
    with pytest.raises(ValueError):
        NodeCrash(at_us=100, server="s", repeat=2)  # no interval
    with pytest.raises(ValueError):
        SlowServer(at_us=100, server="s", factor=0.5, duration_us=10)
    with pytest.raises(ValueError):
        SlowServer(at_us=100, server="s", factor=1.0, duration_us=10)
    with pytest.raises(ValueError):
        LinkDegrade(at_us=100, server="s", factor=1.0, duration_us=10)
    with pytest.raises(NotImplementedError):
        Fault(at_us=0).apply(None)


def test_random_schedule_is_seed_deterministic():
    servers = ["server0", "server1", "server2"]
    a = random_schedule(7, servers, n_faults=6)
    b = random_schedule(7, servers, n_faults=6)
    assert a.faults == b.faults
    other = random_schedule(8, servers, n_faults=6)
    assert other.faults != a.faults


def test_random_schedule_respects_window_and_targets():
    servers = ["s0", "s1"]
    schedule = random_schedule(3, servers, n_faults=20, start_us=500, horizon_us=9000)
    for fault in schedule:
        assert 500 <= fault.at_us < 9000
        assert fault.server in servers
        if fault.duration_us is not None:
            assert fault.at_us + fault.duration_us <= 9000 + 1e-9


def test_random_schedule_validation():
    with pytest.raises(ValueError):
        random_schedule(1, [])
    with pytest.raises(ValueError):
        random_schedule(1, ["s"], start_us=100, horizon_us=100)
    with pytest.raises(ValueError):
        random_schedule(1, ["s"], kinds=("meteor",))
