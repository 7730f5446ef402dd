"""Fault schedules: build them from faults, or generate them from a seed.

A schedule is an immutable, time-sorted tuple of faults.  Two sources:

- ``FaultSchedule((NodeCrash(at_us=5_000.0, server="server1"), ...))``
  takes the fault objects of :mod:`repro.chaos.faults` as they are;
- :func:`random_schedule` draws a schedule from a named
  :class:`~repro.sim.rng.RngStream` child of the given seed, so the
  "random" chaos a soak test applies is a pure function of
  ``(seed, servers, parameters)`` and replays identically.

Schedules carry no behavior of their own; arm one with a
:class:`~repro.chaos.controller.ChaosController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.chaos.faults import (
    EndpointFlap,
    Fault,
    LinkDegrade,
    NodeCrash,
    SlowServer,
)
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered fault plan."""

    faults: tuple[Fault, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.faults, key=lambda f: f.at_us))
        object.__setattr__(self, "faults", ordered)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def horizon_us(self) -> float:
        """Last strike time (0.0 for an empty schedule)."""
        return self.faults[-1].at_us if self.faults else 0.0


def random_schedule(
    seed: int,
    servers: Sequence[str],
    n_faults: int = 3,
    start_us: float = 1_000.0,
    horizon_us: float = 100_000.0,
    kinds: Sequence[str] = ("crash", "slow", "degrade", "flap"),
) -> FaultSchedule:
    """Draw a schedule from ``RngStream(seed, "chaos-schedule")``
    (bit-for-bit reproducible).

    Crash/flap strikes pick a victim uniformly; slow/degrade draw a
    factor in [2, 8).  Every timed fault reverts before *horizon_us*.
    """
    if not servers:
        raise ValueError("need at least one server to schedule faults against")
    if not start_us < horizon_us:
        raise ValueError(f"empty window [{start_us}, {horizon_us})")
    stream = RngStream(seed, "chaos-schedule")
    faults: list[Fault] = []
    for _ in range(n_faults):
        kind = stream.choice(list(kinds))
        server = stream.choice(list(servers))
        at_us = stream.uniform(start_us, horizon_us)
        max_duration = max(1.0, (horizon_us - at_us) * 0.5)
        duration = stream.uniform(max_duration * 0.2, max_duration)
        if kind == "crash":
            faults.append(NodeCrash(at_us=at_us, server=server, duration_us=duration))
        elif kind == "slow":
            factor = stream.uniform(2.0, 8.0)
            faults.append(
                SlowServer(at_us=at_us, server=server, factor=factor, duration_us=duration)
            )
        elif kind == "degrade":
            factor = stream.uniform(2.0, 8.0)
            faults.append(
                LinkDegrade(at_us=at_us, server=server, factor=factor, duration_us=duration)
            )
        elif kind == "flap":
            faults.append(EndpointFlap(at_us=at_us, server=server))
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    return FaultSchedule(tuple(faults))
