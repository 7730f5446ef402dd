"""Analysis helpers: series and tables."""

import pytest

from repro.analysis import FigureSeries, format_latency_table, format_tps_table


def test_series_add_and_lookup():
    s = FigureSeries("UCR-IB")
    s.add(64, 7.0)
    s.add(4096, 17.0)
    assert s.value_at(64) == 7.0
    with pytest.raises(KeyError):
        s.value_at(128)


def test_latency_table_contains_values_and_ratio():
    ucr = FigureSeries("UCR-IB")
    sdp = FigureSeries("SDP")
    for size, (u, v) in {64: (7.0, 56.0), 4096: (17.0, 85.0)}.items():
        ucr.add(size, u)
        sdp.add(size, v)
    table = format_latency_table("Get small", [64, 4096], [ucr, sdp])
    assert "Get small" in table
    assert "56.0" in table
    assert "8.0x" in table  # 56/7
    assert "4K" in table  # size formatting


def test_tps_table_formats_thousands():
    ucr = FigureSeries("UCR-IB")
    toe = FigureSeries("10GigE-TOE")
    for n, (u, t) in {8: (800_000, 150_000), 16: (1_600_000, 250_000)}.items():
        ucr.add(n, u)
        toe.add(n, t)
    table = format_tps_table("TPS", [8, 16], [ucr, toe])
    assert "800K" in table
    assert "6.4x" in table  # 1.6M / 250K
