"""Observer-effect guarantee: tracing never perturbs the simulation.

Every golden figure replays with the tracer enabled and must produce
the *bit-identical* event-stream digest recorded in
``tests/golden/digests.json``.  Telemetry that changed an event order,
a byte count, or a timestamp would trip this immediately -- the same
failure mode the golden suite catches for model changes, aimed at the
instrumentation itself.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import FIGURES
from repro.sanitize import capture
from repro.telemetry import tracer, tracing

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "digests.json").read_text()
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_traced_figure_matches_untraced_golden_digest(name):
    with tracing():
        with capture() as digest:
            FIGURES[name](True)
    assert digest.events == GOLDEN[name]["events"], (
        f"figure {name}: tracing changed the number of simulated events "
        f"({GOLDEN[name]['events']} -> {digest.events})"
    )
    assert digest.hexdigest() == GOLDEN[name]["digest"], (
        f"figure {name}: tracing perturbed the event stream "
        "(same count, different content)"
    )


def test_tracing_actually_recorded_during_perturbation_check():
    """Guard against a vacuous pass: the traced replay must trace."""
    with tracing():
        with capture() as digest:
            FIGURES["breakdown"](True)  # the cheapest figure
        recorded = len(tracer.spans)
    assert digest.events > 0
    assert recorded > 0, "tracer was enabled but recorded no spans"
