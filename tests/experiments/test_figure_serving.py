"""Serving-plane figures (fast mode): every shape check must pass.

A regression here means the anti-dogpile/gutter machinery no longer
produces its headline effects under the storm-shaped chaos scenarios.
"""

import pytest


@pytest.fixture
def storm(figure_runs):
    return figure_runs["storm"][0]


@pytest.fixture
def stampede(figure_runs):
    return figure_runs["stampede"][0]


@pytest.fixture
def gutter(figure_runs):
    return figure_runs["gutter"][0]


def _assert_all(report):
    failures = [(c, d) for c, ok, d in report.checks if not ok]
    assert not failures, f"{report.figure} shape failures: {failures}"


def test_storm_shapes(storm):
    _assert_all(storm)


def test_storm_panel_and_table(storm):
    (series,) = [storm.panels["storm"]]
    assert {s.label for s in series} == {"feature-off", "lease+hot-cache"}
    base = next(s for s in series if s.label == "feature-off")
    featured = next(s for s in series if s.label == "lease+hot-cache")
    assert base.value_at("p99_us") >= 5 * featured.value_at("p99_us")
    assert any("storm" in t for t in storm.tables)


def test_stampede_shapes(stampede):
    _assert_all(stampede)


def test_stampede_dogpile_collapses(stampede):
    (series,) = [stampede.panels["stampede"]]
    base = next(s for s in series if s.label == "no-leases")
    leased = next(s for s in series if s.label == "leases")
    # The whole point of the figure: leases collapse the per-wave
    # regeneration count from ~n_clients toward one.
    assert 0 < leased.value_at("regens") < base.value_at("regens")


def test_gutter_shapes(gutter):
    _assert_all(gutter)


def test_gutter_completion_contrast(gutter):
    (series,) = [gutter.panels["gutter"]]
    base = next(s for s in series if s.label == "no-eject")
    guttered = next(s for s in series if s.label == "gutter")
    assert base.value_at("completion") < 0.99
    assert guttered.value_at("completion") >= 0.99


def test_serving_reports_render(storm, stampede, gutter):
    for report in (storm, stampede, gutter):
        text = report.render()
        assert report.figure in text
        assert "PASS" in text
