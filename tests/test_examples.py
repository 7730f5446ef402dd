"""Smoke tests: every shipped example must run cleanly end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "Ada Lovelace" in out
    assert "simulated µs" in out
    assert "cas with stale token: exists" in out


def test_fault_tolerance(capsys):
    out = run_example("fault_tolerance.py", capsys)
    assert "declared server dead" in out
    assert "after reconnect" in out
    assert "zero errors" in out


def test_anatomy_of_a_get(capsys):
    out = run_example("anatomy_of_a_get.py", capsys)
    assert "UCR-IB" in out and "10GigE-TOE" in out
    assert out.count("client NIC receives") >= 4  # the segment train shows


def test_web_session_cache(capsys):
    out = run_example("web_session_cache.py", capsys)
    assert "DB offload" in out
    assert "UCR-IB" in out and "10GigE-TOE" in out
    # Identical key streams => identical offload column for both rows.
    rows = [l for l in out.splitlines() if "%" in l]
    offloads = {row.split()[1] for row in rows}
    assert len(offloads) == 1


def test_transport_comparison(capsys):
    out = run_example("transport_comparison.py", capsys)
    assert "Speedup of UCR-IB" in out
    assert "512K" in out


def test_scaling_beyond_the_paper(capsys):
    out = run_example("scaling_beyond_the_paper.py", capsys)
    assert "shared SRQ" in out
    assert "orphaned" in out
    # The SRQ line must show fewer buffers than the private-window line.
    import re

    bufs = [int(m) for m in re.findall(r"(\d+) receive buffers", out)]
    assert len(bufs) == 2 and bufs[1] < bufs[0]
