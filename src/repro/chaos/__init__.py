"""Deterministic chaos harness (see ``docs/CHAOS.md``).

Seeded fault schedules -- node crashes, CPU slowdowns, link degradation,
endpoint flaps -- injected at simulated timestamps, so every chaos run
replays bit-for-bit under the event-digest sanitizer
(:mod:`repro.sanitize.determinism`).

Quick start::

    from repro.chaos import ChaosController, FaultSchedule, NodeCrash

    schedule = FaultSchedule(
        (NodeCrash(at_us=5_000.0, server="server1", duration_us=20_000.0),)
    )
    ChaosController(cluster, schedule).arm()
    # ... drive a workload; the crash strikes at t=5000 µs ...
"""

from repro.chaos.controller import ChaosController
from repro.chaos.faults import (
    EndpointFlap,
    Fault,
    LinkDegrade,
    NodeCrash,
    SlowServer,
)
from repro.chaos.scenarios import (
    ServingScenario,
    expiry_stampede,
    hot_key_storm,
    shard_loss,
)
from repro.chaos.schedule import FaultSchedule, random_schedule

__all__ = [
    "ChaosController",
    "EndpointFlap",
    "Fault",
    "FaultSchedule",
    "LinkDegrade",
    "NodeCrash",
    "ServingScenario",
    "SlowServer",
    "expiry_stampede",
    "hot_key_storm",
    "random_schedule",
    "shard_loss",
]
