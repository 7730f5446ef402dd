"""Storm-shaped chaos scenarios for the serving plane (docs/SERVING.md).

The generic :func:`~repro.chaos.schedule.random_schedule` draws faults
uniformly; the serving-plane experiments need *shaped* trouble -- load
and faults that conspire against one cache feature at a time:

- :func:`hot_key_storm` -- a handful of seeded hot keys soak up most of
  the offered load while their owning shards get slowed mid-storm.  The
  shape that client-local hot caches and leases are built to absorb.
- :func:`expiry_stampede` -- the hot keys share one short TTL, so they
  all expire together mid-run and every client misses at once.  Without
  leases each miss regenerates independently (the dogpile); with them
  exactly one winner regenerates per key.
- :func:`shard_loss` -- one seeded victim shard crashes outright for a
  long window.  The shape the gutter pool absorbs: ejected-shard
  traffic is redirected to short-TTL gutter servers instead of failing.

Every scenario is a pure function of ``(seed, servers, parameters)``:
the hot-key set, fault victims, and strike times are all drawn from a
named :class:`~repro.sim.rng.RngStream`, so a scenario replays
bit-for-bit under the event-digest sanitizer.  Scenarios carry no
behavior; arm ``scenario.schedule`` with a
:class:`~repro.chaos.controller.ChaosController` and feed the workload
shape to :class:`~repro.workloads.serving.ServingRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.chaos.faults import Fault, NodeCrash, SlowServer
from repro.chaos.schedule import FaultSchedule
from repro.sim.rng import RngStream

#: Hot keys are drawn out of ``key-0 .. key-<KEY_SPACE - 1>``.
KEY_SPACE = 64
#: Share of a storm's ops aimed at its hot keys, and their TTL (s).
STORM_HOT_FRACTION = 0.9
STORM_HOT_EXPTIME_S = 1
#: Share of a stampede's ops aimed at its one keystone key.
STAMPEDE_HOT_FRACTION = 0.85


@dataclass(frozen=True)
class ServingScenario:
    """A shaped chaos plan: faults plus the load shape that meets them.

    ``schedule`` is armed like any other chaos plan; the remaining
    fields parameterize the workload so load and faults line up --
    ``hot_keys`` get ``hot_fraction`` of the ops, each written with
    ``hot_exptime_s`` seconds of TTL (0 = never expires).
    """

    name: str
    seed: int
    schedule: FaultSchedule
    hot_keys: tuple[str, ...]
    hot_fraction: float
    hot_exptime_s: int
    horizon_us: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction {self.hot_fraction} not in [0, 1]")
        if self.schedule.horizon_us > self.horizon_us:
            raise ValueError(
                f"schedule strikes at {self.schedule.horizon_us} past the "
                f"scenario horizon {self.horizon_us}"
            )


def _draw_hot_keys(stream: RngStream, n_hot: int, key_space: int) -> tuple[str, ...]:
    """*n_hot* distinct seeded picks out of ``key-0 .. key-<space-1>``."""
    if n_hot > key_space:
        raise ValueError(f"cannot pick {n_hot} hot keys from {key_space}")
    chosen: list[int] = []
    while len(chosen) < n_hot:
        idx = stream.randint(0, key_space)
        if idx not in chosen:
            chosen.append(idx)
    return tuple(f"key-{idx}" for idx in chosen)


def hot_key_storm(
    seed: int,
    servers: Sequence[str],
    n_hot: int = 3,
    key_space: int = KEY_SPACE,
    horizon_us: float = 3_000_000.0,
) -> ServingScenario:
    """A skewed read storm: hot keys expire while their servers slow down.

    The hot keys carry a short TTL (:data:`STORM_HOT_EXPTIME_S`), so
    expiry waves land *inside* the storm, and two seeded slow-server
    strikes (x3-x6 CPU) land inside the middle half of the horizon --
    regeneration dogpiles on top of slowed shards.  The combination that leases plus
    a client-local hot cache exist to absorb.
    """
    if not servers:
        raise ValueError("need at least one server")
    stream = RngStream(seed, "hot-key-storm")
    hot_keys = _draw_hot_keys(stream, n_hot, key_space)
    faults: list[Fault] = []
    for _ in range(2):
        victim = stream.choice(list(servers))
        at_us = stream.uniform(horizon_us * 0.25, horizon_us * 0.5)
        faults.append(
            SlowServer(
                at_us=at_us,
                server=victim,
                factor=stream.uniform(3.0, 6.0),
                duration_us=stream.uniform(horizon_us * 0.2, horizon_us * 0.4),
            )
        )
    return ServingScenario(
        name="hot_key_storm",
        seed=seed,
        schedule=FaultSchedule(tuple(faults)),
        hot_keys=hot_keys,
        hot_fraction=STORM_HOT_FRACTION,
        hot_exptime_s=STORM_HOT_EXPTIME_S,
        horizon_us=horizon_us,
    )


def expiry_stampede(
    seed: int,
    servers: Sequence[str],
    hot_exptime_s: int = 1,
    horizon_us: float = 3_000_000.0,
) -> ServingScenario:
    """One keystone key with a short TTL expires repeatedly mid-run.

    No faults at all: the "chaos" is the synchronized expiry itself.
    The canonical dogpile shape is a *single* hot key (a front-page
    fragment, a session-wide config blob): every client misses at the
    same instant, and without leases every one of them regenerates
    concurrently.
    """
    if not servers:
        raise ValueError("need at least one server")
    if hot_exptime_s <= 0:
        raise ValueError("a stampede needs an expiring TTL")
    stream = RngStream(seed, "expiry-stampede")
    hot_keys = _draw_hot_keys(stream, 1, KEY_SPACE)
    return ServingScenario(
        name="expiry_stampede",
        seed=seed,
        schedule=FaultSchedule(()),
        hot_keys=hot_keys,
        hot_fraction=STAMPEDE_HOT_FRACTION,
        hot_exptime_s=hot_exptime_s,
        horizon_us=horizon_us,
    )


def shard_loss(
    seed: int,
    servers: Sequence[str],
    horizon_us: float = 2_000_000.0,
    down_fraction: float = 0.6,
) -> ServingScenario:
    """One seeded victim shard crashes for most of the run.

    The crash lands early (at 10% of the horizon) and holds for
    *down_fraction* of it, so the bulk of the workload runs against a
    cluster that is one shard short -- the window the gutter pool must
    absorb.  Load is uniform (``hot_fraction=0``): shard loss hurts
    every key the victim owned, not just hot ones.
    """
    if not servers:
        raise ValueError("need at least one server")
    if not 0.0 < down_fraction < 0.9:
        raise ValueError(f"down_fraction {down_fraction} not in (0, 0.9)")
    stream = RngStream(seed, "shard-loss")
    victim = stream.choice(list(servers))
    crash = NodeCrash(
        at_us=horizon_us * 0.1,
        server=victim,
        duration_us=horizon_us * down_fraction,
    )
    return ServingScenario(
        name="shard_loss",
        seed=seed,
        schedule=FaultSchedule((crash,)),
        hot_keys=(),
        hot_fraction=0.0,
        hot_exptime_s=0,
        horizon_us=horizon_us,
    )
