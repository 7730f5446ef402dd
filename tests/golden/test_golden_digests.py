"""Golden determinism regression: figure runs replay bit-for-bit.

Each experiment figure (fast mode) is run under the event-digest
sanitizer and compared against the digest recorded in ``digests.json``.
The run is the session's shared one (``figure_runs`` in
``tests/conftest.py``): the shape tests read the same report.
A mismatch means the simulated event stream changed -- either an
unintended nondeterminism (a bug) or an intentional model change, in
which case regenerate with::

    PYTHONPATH=src python -m tests.golden.record

and commit the new digests alongside the change.
"""

import json
from pathlib import Path

import pytest

from tests.golden.record import report_digest

GOLDEN_PATH = Path(__file__).parent / "digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_figures():
    assert set(GOLDEN) == {
        "3", "4", "5", "6", "6s", "breakdown", "onesided", "pipeline",
        "pressure", "storm", "stampede", "gutter", "ext",
    }
    for name, entry in GOLDEN.items():
        assert set(entry) == {"digest", "events", "report"}
        assert entry["events"] > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_event_stream_matches_golden(name, figure_runs):
    report, digest = figure_runs[name]
    assert report.all_passed, f"figure {name} shape checks failed"
    golden = GOLDEN[name]
    assert digest.events == golden["events"], (
        f"figure {name}: event count drifted "
        f"{golden['events']} -> {digest.events} "
        "(regenerate via python -m tests.golden.record if intended)"
    )
    assert digest.hexdigest() == golden["digest"], (
        f"figure {name}: same event count but different stream content "
        "(regenerate via python -m tests.golden.record if intended)"
    )
    assert report_digest(report) == golden["report"], (
        f"figure {name}: the rendered report changed -- a result moved, "
        "not just the event stream"
    )
