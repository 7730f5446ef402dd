"""Figure reproductions (fast mode): every shape check must pass.

These are the paper's headline results; a regression here means the
model no longer reproduces the evaluation section.  The reports are the
session's shared runs (``figure_runs`` in ``tests/conftest.py``), the
same ones the golden digests check.
"""

import pytest

from repro.experiments.common import LARGE_SIZES, SMALL_SIZES


@pytest.fixture
def fig3(figure_runs):
    return figure_runs["3"][0]


@pytest.fixture
def fig4(figure_runs):
    return figure_runs["4"][0]


@pytest.fixture
def fig5(figure_runs):
    return figure_runs["5"][0]


@pytest.fixture
def fig6(figure_runs):
    return figure_runs["6"][0]


def _assert_all(report):
    failures = [(c, d) for c, ok, d in report.checks if not ok]
    assert not failures, f"{report.figure} shape failures: {failures}"


def test_figure3_shapes(fig3):
    _assert_all(fig3)


def test_figure3_has_four_panels_and_tables(fig3):
    assert len(fig3.panels) == 4
    assert len(fig3.tables) == 4
    for series in fig3.panels.values():
        assert {s.label for s in series} == {"UCR-IB", "SDP", "IPoIB", "10GigE-TOE"}


def test_figure3_latency_monotone_in_size(fig3):
    for series in fig3.panels.values():
        for s in series:
            assert s.y == sorted(s.y), f"{s.label} latency not monotone: {s.y}"


def test_figure3_headline_number(fig3):
    get_small = fig3.panels["(c) Get - small"]
    ucr = next(s for s in get_small if s.label == "UCR-IB")
    assert 12.0 <= ucr.value_at(4096) <= 28.0  # paper: ~20 µs on DDR


def test_figure4_shapes(fig4):
    _assert_all(fig4)


def test_figure4_headline_number(fig4):
    get_small = fig4.panels["(c) Get - small"]
    ucr = next(s for s in get_small if s.label == "UCR-IB")
    assert 8.0 <= ucr.value_at(4096) <= 16.0  # paper: ~12 µs on QDR


def test_figure4_qdr_faster_than_ddr_for_ucr(fig3, fig4):
    a = next(s for s in fig3.panels["(c) Get - small"] if s.label == "UCR-IB")
    b = next(s for s in fig4.panels["(c) Get - small"] if s.label == "UCR-IB")
    for size in SMALL_SIZES:
        assert b.value_at(size) < a.value_at(size)


def test_figure4_sdp_jitter_table_present(fig4):
    assert any("Jitter" in t for t in fig4.tables)


def test_figure5_shapes(fig5):
    _assert_all(fig5)
    assert len(fig5.panels) == 4


def test_figure5_mixes_follow_pure_trends(fig3, fig5):
    """Mixed latency sits within the band of pure set/get latencies."""
    pure_set = {s.label: s for s in fig3.panels["(a) Set - small"]}
    pure_get = {s.label: s for s in fig3.panels["(c) Get - small"]}
    mixed = {s.label: s for s in fig5.panels["(a) Non-Interleaved - Cluster A"]}
    for label, series in mixed.items():
        for size in SMALL_SIZES:
            lo = min(pure_set[label].value_at(size), pure_get[label].value_at(size))
            hi = max(pure_set[label].value_at(size), pure_get[label].value_at(size))
            v = series.value_at(size)
            assert lo * 0.8 <= v <= hi * 1.3, (label, size, v, lo, hi)


def test_figure6_shapes(fig6):
    _assert_all(fig6)


def test_figure6_panel_inventory(fig6):
    assert len(fig6.panels) == 4
    a4 = fig6.panels["(a) 4 byte - Cluster A"]
    assert {s.label for s in a4} == {"UCR-IB", "SDP", "IPoIB", "10GigE-TOE"}
    b4 = fig6.panels["(c) 4 byte - Cluster B"]
    assert {s.label for s in b4} == {"UCR-IB", "SDP", "IPoIB"}


def test_figure6_ucr_wins_everywhere(fig6):
    for title, series in fig6.panels.items():
        ucr = next(s for s in series if s.label == "UCR-IB")
        for other in series:
            if other.label == "UCR-IB":
                continue
            for n in (8, 16):
                assert ucr.value_at(n) > other.value_at(n), (title, other.label, n)
    # Headline (paper: ~6x): over the best sockets option at A / 4 B / 16.
    a4 = {s.label: s for s in fig6.panels["(a) 4 byte - Cluster A"]}
    best_other = max(s.value_at(16) for label, s in a4.items() if label != "UCR-IB")
    assert a4["UCR-IB"].value_at(16) / best_other >= 4.5


def test_reports_render(fig3, fig4, fig5, fig6):
    for report in (fig3, fig4, fig5, fig6):
        text = report.render()
        assert report.figure in text
        assert "PASS" in text


def test_extensions_shapes(figure_runs):
    report = figure_runs["ext"][0]
    _assert_all(report)
    assert "(E1) server QPs" in report.panels
    assert "(E2) codecs" in report.panels


def test_runner_cli_fast_single_figure(capsys):
    from repro.experiments.runner import main

    rc = main(["--fast", "-f", "breakdown"])  # the cheapest figure
    out = capsys.readouterr().out
    assert rc == 0
    assert "### breakdown:" in out
    assert "all shape checks passed" in out


def test_runner_cli_writes_report(tmp_path, capsys):
    from repro.experiments.runner import main

    out_file = tmp_path / "report.md"
    rc = main(["--fast", "-f", "breakdown", "-o", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert "### breakdown:" in text
    assert "PASS" in text
