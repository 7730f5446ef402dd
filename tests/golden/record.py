"""Regenerate the golden digests after an intentional model change.

Usage::

    PYTHONPATH=src python -m tests.golden.record        # all 13 figures, ext included
    PYTHONPATH=src python -m tests.golden.record 3 6s   # a subset

Rewrites ``tests/golden/digests.json`` in place (only the figures run).
Commit the diff together with the model change that caused it -- a
digest change is a *claim* that the new event stream is intended, and
the review of that claim is the point of the golden suite.

Per figure it prints ``events old -> new`` and whether the ``report`` hash
(the rendered results) stayed put, and it exits 1 if any report MOVED: a
kernel change re-pins ``digest``/``events`` and must leave every report
alone.  The file is written either way, so the diff shows what moved.
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


def record(names: list[str] | None = None) -> tuple[dict, list[str]]:
    """Run the named figures (default: all 13 in FIGURES); return the updated
    ``{figure: {"digest": ..., "events": ..., "report": ...}}`` and the
    figures whose previously recorded ``report`` no longer matches."""
    golden = {}
    if GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text())
    moved = []
    for name in names or sorted(FIGURES):
        with capture() as digest:
            report = FIGURES[name](True)  # fast mode: what CI replays
        old = golden.get(name, {})
        new = golden[name] = {
            "digest": digest.hexdigest(),
            "events": digest.events,
            "report": report_digest(report),
        }
        if "report" not in old:
            verdict = "new"
        elif old["report"] == new["report"]:
            verdict = "unchanged"
        else:
            verdict = "MOVED"
            moved.append(name)
        stream = "same stream" if old.get("digest") == new["digest"] else "re-pinned"
        print(
            f"figure {name}: events {old.get('events', '-')} -> {new['events']} "
            f"({stream}), report {verdict}"
        )
    return golden, moved


def main(argv: list[str]) -> int:
    golden, moved = record(argv or None)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    if moved:
        print(f"RESULTS MOVED in figure(s) {', '.join(moved)}: not a stream-only change")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
