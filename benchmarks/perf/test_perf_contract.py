"""The benchmark's contract, checked in seconds with tiny op counts.

Collected by ``pytest benchmarks``; not part of tier-1 (``tests/``).
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import loadgen  # noqa: E402
import measure  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCALE = 0.04
SIMULATED = [m for m in measure.END_TO_END if m not in measure.HOST_CLOCK]


@pytest.fixture(scope="module", params=list(loadgen.WORKLOADS))
def runs(request, tmp_path_factory, monkeypatch_module):
    """(untraced, untraced again, traced) results of one workload, cut
    to a tenth of its keys and a twenty-fifth of its ops."""
    monkeypatch_module.setattr(measure, "OUT_DIR", tmp_path_factory.mktemp("out"))
    name = request.param
    workload = loadgen.WORKLOADS[name]
    monkeypatch_module.setitem(
        loadgen.WORKLOADS, name,
        dataclasses.replace(workload, n_keys=workload.n_keys // 10),
    )
    return (
        measure.end_to_end(name, seed=5, seconds=0, scale=SCALE),
        measure.end_to_end(name, seed=5, seconds=0, scale=SCALE),
        measure.per_layer(name, seed=5, scale=SCALE),
    )


@pytest.fixture(scope="module")
def monkeypatch_module():
    patcher = pytest.MonkeyPatch()
    yield patcher
    patcher.undo()


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_spec_names_are_the_code_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(loadgen.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in loadgen.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.per_layer_units()


def test_every_metric_is_emitted_with_its_unit(runs):
    untraced, _, traced = runs
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result["errors"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(UNIT.fullmatch(m["unit"]) for m in result["metrics"].values())
        line = json.loads(bench._driver_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_same_seed_repeats_simulated_metrics_exactly(runs):
    first, second, _ = runs
    assert first["detail"]["repetitions"] == measure.MIN_REPETITIONS
    for name in SIMULATED:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["detail"]["simulated_digest"] == second["detail"]["simulated_digest"]


def test_another_seed_gives_other_inputs():
    workload = loadgen.WORKLOADS["ucr_mixed"]
    a, b = (loadgen.generate(workload, seed, SCALE) for seed in (5, 6))
    assert a.streams != b.streams
    assert a.streams == loadgen.generate(workload, 5, SCALE).streams


def test_tracing_leaves_simulated_results_identical(runs):
    untraced, _, traced = runs
    assert traced["detail"]["simulated_digest"] == untraced["detail"]["simulated_digest"]


def test_sim_us_telescopes(runs):
    _, _, traced = runs
    total = sum(traced["metrics"][f"sim_us.{layer}"]["value"]
                for layer in measure.SIM_LAYERS)
    assert total == pytest.approx(traced["detail"]["decomposed_trace_us"], rel=1e-9)
    if traced["detail"]["decomposed_unit"] == "client.get":
        # Nearest-rank percentiles are observed samples, so the median
        # trace *is* the p50 op unless hot-cache hits (no spans) shift it.
        assert total == pytest.approx(traced["detail"]["sim_get_p50_us"], rel=0.05)


def test_host_shares_sum_to_one(runs):
    _, _, traced = runs
    shares = [traced["metrics"][f"host_share.{layer}"]["value"]
              for layer in measure.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert traced["metrics"]["host_share.sim"]["value"] == max(shares)


def test_a_wrong_reply_fails_the_run():
    inputs = loadgen.generate(loadgen.WORKLOADS["onesided_small"], 5, SCALE)
    dep = loadgen.deploy(inputs)
    first_op = {}
    for is_set, key in inputs.streams[0]:
        first_op.setdefault(key, is_set)
    key = next(k for k, is_set in first_op.items() if not is_set)
    inputs.values[key] += b"!"
    timed = loadgen.run_timed(dep, inputs)
    assert timed.failed > 0 and any("wrong bytes" in e for e in timed.errors)


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    higher = {"better": "higher", "bound": 0.1}
    assert bench.verdict(lower, 10.0, 12.0, 0.0)[1] == "regressed"
    assert bench.verdict(lower, 10.0, 9.0, 0.02)[1] == "improved"
    assert bench.verdict(higher, 10.0, 9.5, 0.02)[1] == "unchanged"
    assert bench.verdict(higher, 10.0, 20.0, 0.2)[1] == "unresolved"
