"""Regenerate the golden digests after an intentional model change.

Usage::

    PYTHONPATH=src python -m tests.golden.record        # all figures
    PYTHONPATH=src python -m tests.golden.record 3 6s   # a subset

Rewrites ``tests/golden/digests.json`` in place (only the figures run).
Commit the diff together with the model change that caused it -- a
digest change is a *claim* that the new event stream is intended, and
the review of that claim is the point of the golden suite.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.experiments.runner import FIGURES
from repro.sanitize import capture

GOLDEN_PATH = Path(__file__).parent / "digests.json"


def report_digest(report) -> str:
    """SHA-256 of the rendered report: the *results*, to the last digit.

    Pinned beside the event-stream digest so that a kernel change which
    moves the stream can show it moved nothing anybody reads.
    """
    return hashlib.sha256(report.render().encode()).hexdigest()


def record(names: list[str] | None = None) -> dict:
    """Run the named figures (default: all golden ones) and return
    ``{figure: {"digest": ..., "events": ..., "report": ...}}``."""
    existing = {}
    if GOLDEN_PATH.exists():
        existing = json.loads(GOLDEN_PATH.read_text())
    for name in names or sorted(FIGURES):
        if name == "ext":
            continue  # extensions explore; they are not pinned
        with capture() as digest:
            report = FIGURES[name](True)  # fast mode: what CI replays
        existing[name] = {
            "digest": digest.hexdigest(),
            "events": digest.events,
            "report": report_digest(report),
        }
        print(f"figure {name}: {digest.events} events {digest.hexdigest()[:16]}...")
    return existing


def main(argv: list[str]) -> int:
    golden = record(argv or None)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
