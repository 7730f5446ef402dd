"""Fault schedules: parse them from text, or generate them from a seed.

A schedule is an immutable, time-sorted tuple of faults.  Two sources:

- :func:`parse_schedule` reads the line-oriented syntax documented in
  ``docs/CHAOS.md`` (one fault per line, ``#`` comments);
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
    FAULT_KINDS,
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

    def render(self) -> str:
        """The schedule back in ``docs/CHAOS.md`` syntax (parse round-trip)."""
        return "\n".join(_render_fault(f) for f in self.faults)


class ScheduleSyntaxError(ValueError):
    """A schedule line failed to parse; the message carries line context."""


def parse_schedule(text: str) -> FaultSchedule:
    """Parse the fault-schedule syntax (see ``docs/CHAOS.md``).

    Grammar, one fault per line (blank lines and ``#`` comments skipped)::

        at <time_us> crash <server> [for <duration_us>]
        at <time_us> slow <server> x<factor> for <duration_us>
        at <time_us> degrade <server> x<factor> for <duration_us> [on <network>]
        at <time_us> flap <server> [x<times> every <interval_us>]
    """
    faults: list[Fault] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            faults.append(_parse_line(line))
        except ScheduleSyntaxError:
            raise
        except ValueError as exc:
            raise ScheduleSyntaxError(f"line {lineno}: {exc} in {line!r}") from exc
    return FaultSchedule(tuple(faults))


def _parse_line(line: str) -> Fault:
    tokens = line.split()
    if len(tokens) < 4 or tokens[0] != "at":
        raise ScheduleSyntaxError(
            f"expected 'at <time_us> <kind> <server> ...', got {line!r}"
        )
    at_us = float(tokens[1])
    kind, server = tokens[2], tokens[3]
    if kind not in FAULT_KINDS:
        raise ScheduleSyntaxError(
            f"unknown fault kind {kind!r} (have {sorted(FAULT_KINDS)}) in {line!r}"
        )
    opts = _parse_options(tokens[4:], line)
    if kind == "crash":
        _allow(opts, {"for"}, line)
        return NodeCrash(at_us=at_us, server=server, duration_us=opts.get("for"))
    if kind == "slow":
        _allow(opts, {"x", "for"}, line)
        _require(opts, {"x", "for"}, line)
        return SlowServer(
            at_us=at_us, server=server, factor=opts["x"], duration_us=opts["for"]
        )
    if kind == "degrade":
        _allow(opts, {"x", "for", "on"}, line)
        _require(opts, {"x", "for"}, line)
        return LinkDegrade(
            at_us=at_us,
            server=server,
            factor=opts["x"],
            duration_us=opts["for"],
            network=opts.get("on"),
        )
    # flap
    _allow(opts, {"x", "every"}, line)
    repeat = int(opts.get("x", 1))
    if repeat > 1:
        _require(opts, {"every"}, line)
    return EndpointFlap(
        at_us=at_us, server=server, repeat=repeat, interval_us=opts.get("every", 0.0)
    )


def _parse_options(tokens: Sequence[str], line: str) -> dict:
    """``x<factor>``, ``for <n>``, ``every <n>``, ``on <name>`` pairs."""
    opts: dict = {}

    def put(key: str, value) -> None:
        if key in opts:
            raise ScheduleSyntaxError(f"duplicate {key!r} in {line!r}")
        opts[key] = value

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("x") and len(tok) > 1:
            put("x", float(tok[1:]))
            i += 1
        elif tok in ("for", "every", "on"):
            if i + 1 >= len(tokens):
                raise ScheduleSyntaxError(f"{tok!r} needs a value in {line!r}")
            put(tok, tokens[i + 1] if tok == "on" else float(tokens[i + 1]))
            i += 2
        else:
            raise ScheduleSyntaxError(f"unexpected token {tok!r} in {line!r}")
    return opts


def _allow(opts: dict, allowed: set, line: str) -> None:
    extra = set(opts) - allowed
    if extra:
        raise ScheduleSyntaxError(f"option(s) {sorted(extra)} not valid in {line!r}")


def _require(opts: dict, required: set, line: str) -> None:
    missing = required - set(opts)
    if missing:
        raise ScheduleSyntaxError(f"missing option(s) {sorted(missing)} in {line!r}")


def _render_fault(fault: Fault) -> str:
    if isinstance(fault, NodeCrash):
        out = f"at {fault.at_us:g} crash {fault.server}"
        if fault.duration_us is not None:
            out += f" for {fault.duration_us:g}"
        return out
    if isinstance(fault, SlowServer):
        return (
            f"at {fault.at_us:g} slow {fault.server} x{fault.factor:g}"
            f" for {fault.duration_us:g}"
        )
    if isinstance(fault, LinkDegrade):
        out = (
            f"at {fault.at_us:g} degrade {fault.server} x{fault.factor:g}"
            f" for {fault.duration_us:g}"
        )
        if fault.network is not None:
            out += f" on {fault.network}"
        return out
    if isinstance(fault, EndpointFlap):
        out = f"at {fault.at_us:g} flap {fault.server}"
        if fault.repeat > 1:
            out += f" x{fault.repeat} every {fault.interval_us:g}"
        return out
    raise TypeError(f"cannot render {type(fault).__name__}")


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
