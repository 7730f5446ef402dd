"""Shrinking a failing script, and the JSON repro dump.

:func:`shrink_commands` ddmin-minimizes a failing step sequence;
:func:`dump_mismatch` writes a JSON repro case (optionally linking a
Chrome trace of the offending run) and :func:`load_commands` reads one
back -- including dumps written by earlier versions of the program.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from repro.check.generate import Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.differential import DifferentialResult, ReplayResult


def shrink_commands(
    commands: list[Step], failing: Callable[[list[Step]], bool]
) -> list[Step]:
    """ddmin: a minimal subsequence on which *failing* still holds.

    *failing* must be deterministic (replays are).  The result is
    1-minimal at chunk granularity: removing any single command makes
    the failure disappear.
    """
    if not failing(commands):
        raise ValueError("shrink_commands needs a failing input")
    current = list(commands)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and failing(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def dump_mismatch(
    path: str,
    seed: int,
    config_name: str,
    commands: list[Step],
    result: ReplayResult,
    mutation: Optional[str] = None,
    pressure: bool = False,
    versus: Optional[DifferentialResult] = None,
) -> str:
    """Write a JSON repro case; returns the path written.

    *versus* is the differential run of a cross-config repro (*result* is
    its first replay): the other config names and both outcomes at each
    disagreeing op are written too, so a case where every replay matches
    its own oracle still says what failed.
    """
    doc = {
        "seed": seed,
        "config": config_name,
        "mutation": mutation,
        "pressure": pressure,
        "commands": [c.to_json() for c in commands],
        "mismatches": [
            {"index": i, "actual": a, "expected": e}
            for i, a, e in result.mismatches
        ],
        "trace_file": result.trace_file,
    }
    if versus is not None and versus.disagreements:
        outcomes = {r.config: r.outcomes for r in versus.replays}
        doc["versus"] = [r.config for r in versus.replays[1:]]
        doc["disagreements"] = [
            {"index": i, a: outcomes[a][i], b: outcomes[b][i]}
            for a, b, i in versus.disagreements
        ]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return str(out)


def load_commands(path: str) -> tuple[dict, list[Step]]:
    """Read a repro dump back: (document, commands)."""
    doc = json.loads(Path(path).read_text())
    return doc, [Step.from_json(c) for c in doc["commands"]]
