#!/usr/bin/env python3
"""The two-clock benchmark: one command, four workloads, every metric by name.

One workload, as the benchmark driver calls it (last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/perf/run.py --workload ucr_mixed --seed 1 --seconds 10 --trace 0

All four workloads, each in its own child process, one after another::

    python3 benchmarks/perf/run.py --seed 1 [--traced] [--record] [--out run.json]
    python3 benchmarks/perf/run.py --compare before.json after.json

Exit status is non-zero when a reply check fails, when the simulated
results differ between repetitions (or with tracing on), or when
``--compare`` finds a regression.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))
try:
    import measure
    from loadgen import WORKLOADS
except ImportError as exc:  # the program under test is not in this checkout
    sys.exit(f"run.py: cannot import the repro package from {REPO / 'src'}: {exc}")

SPEC_PATH = REPO / "BENCHMARK.json"
LEDGER_DIR = HERE / "ledger"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# -- one workload (the child process, and the driver's entry) ------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return measure.per_layer(name, seed)
    return measure.end_to_end(name, seed, seconds)


def _in_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh interpreter so ``ru_maxrss`` and
    allocator state are the workload's own; never two at once."""
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(run_workload, name, seed, seconds, trace).result()


def _driver_line(result: dict) -> str:
    return json.dumps(
        {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    )


# -- printing --------------------------------------------------------------------------


def _print_end_to_end(name: str, result: dict) -> None:
    detail = result["detail"]
    samples = detail["samples"]
    print(f"\n== {name}: end to end ({detail['repetitions']} repetitions, "
          f"{samples['get']} gets + {samples['set']} sets each) ==")
    for metric, m in result["metrics"].items():
        line = f"  {metric:<18} {m['value']:>16.6f} {m['unit']:<6}"
        host = detail["host"].get(metric)
        if host:
            line += (f" median of n={host['n']}, quartiles "
                     f"[{host['q1']:.4f}, {host['q3']:.4f}]")
        elif metric.startswith("sim_get"):
            line += f" n={samples['get']}"
        elif metric.startswith("sim_set"):
            line += f" n={samples['set']}"
        print(line)
    print(f"  {'failed_ratio':<18} {result['failed'] / result['attempted']:>16.6f} {'ratio':<6} "
          f"{result['failed']} of {result['attempted']} ops")
    print(f"  host seconds are scaled by {measure.CALIBRATION_REFERENCE_S * 1e3:.2f} ms / "
          f"{detail['calibration_s'] * 1e3:.2f} ms (calibration loop: reference / now)")
    for error in result["errors"]:
        print(f"  ERROR {error}")


def _print_per_layer(name: str, result: dict) -> None:
    detail = result["detail"]
    print(f"\n== {name}: per layer (traced run) ==")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<46} {m['value']:>16.6f} {m['unit']}")
    print(f"  sim_us.* sum to the decomposed trace: {detail['decomposed_trace_us']:.6f} us "
          f"(median of {detail['decomposed_traces']} traces; untraced "
          f"sim_get_p50_us {detail['sim_get_p50_us']:.6f}); "
          f"Chrome trace in {detail['chrome_trace']}")
    for error in result["errors"]:
        print(f"  ERROR {error}")


# -- the ledger ------------------------------------------------------------------------


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True, timeout=10,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _entry(seed: int, results: dict[str, dict]) -> dict:
    """One ledger line: where it ran plus every metric of every workload."""
    return {
        "commit": _commit(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {
            name: {
                "correct": r["correct"],
                "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": r["metrics"],
                "host": r["detail"].get("host", {}),
            }
            for name, r in results.items()
        },
    }


def _append(path: Path, entry: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def _read_entry(path: str) -> dict:
    """A ``--out`` file, or the last line of a ledger."""
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    return json.loads(lines[-1])


# -- compare ---------------------------------------------------------------------------


#: ``ru_maxrss`` has no quartiles within a run; identical runs differ by
#: less than this (README, "Measured spread").
RSS_NOISE = 0.01


def _noise(key: str, *workloads: dict) -> float:
    """The widest relative quartile spread either run saw for *key*;
    0 for simulated metrics, which repeat exactly."""
    if key == "peak_rss_mb":
        return RSS_NOISE
    spreads = [w["host"][key] for w in workloads if key in w["host"]]
    return max(((h["q3"] - h["q1"]) / h["median"] for h in spreads), default=0.0)


def verdict(metric: dict, before: float, after: float, noise: float) -> tuple[float, str]:
    """(signed change, positive = better; verdict) under the metric's bound."""
    change = (after - before) / before if before else 0.0
    if metric["better"] == "lower" and change:
        change = -change
    if noise > metric["bound"]:
        return change, "unresolved"
    if change < -metric["bound"]:
        return change, "regressed"
    if change > noise and change > 0:
        return change, "improved"
    return change, "unchanged"


def compare(path_a: str, path_b: str) -> int:
    a, b = _read_entry(path_a), _read_entry(path_b)
    spec = load_spec()
    print(f"before: {path_a} (commit {a['commit'][:12]}, seed {a['seed']})")
    print(f"after:  {path_b} (commit {b['commit'][:12]}, seed {b['seed']})")
    if a["seed"] != b["seed"]:
        print("note: seeds differ, so simulated metrics compare different inputs")
    regressed = 0
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            print(f"\n== {name}: not in both runs ==")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name} ==")
        print(f"  {'metric':<18} {'before':>14} {'after':>14} {'change':>9} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            before, after = wa["metrics"][key]["value"], wb["metrics"][key]["value"]
            noise = _noise(key, wa, wb)
            change, word = verdict(metric, before, after, noise)
            regressed += word == "regressed"
            print(f"  {key:<18} {before:>14.4f} {after:>14.4f} {change:>+9.2%} "
                  f"{noise:>8.2%} {metric['bound']:>6.2f}  {word}")
        failed = (wa["failed"], wb["failed"])
        word = "regressed" if failed[1] > failed[0] else "unchanged"
        regressed += word == "regressed"
        print(f"  {'failed ops':<18} {failed[0]:>14} {failed[1]:>14} "
              f"{'':>9} {'':>8} {'any':>6}  {word}")
    print(f"\n{regressed} row(s) regressed")
    return 1 if regressed else 0


# -- command line ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process and end with the "
                             "driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed region per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced, per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced run after the untraced one")
    parser.add_argument("--record", action="store_true",
                        help="append this run to ledger/BENCH_e2e.jsonl "
                             "(and BENCH_layers.jsonl with --traced)")
    parser.add_argument("--out", metavar="FILE",
                        help="write this run's end-to-end entry, for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        (_print_per_layer if args.trace else _print_end_to_end)(args.workload, result)
        print(_driver_line(result))
        return 0 if result["correct"] else 1

    ok = True
    untraced: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    for name in WORKLOADS:
        untraced[name] = _in_child(name, args.seed, seconds, False)
        _print_end_to_end(name, untraced[name])
        ok &= untraced[name]["correct"]
        if args.traced:
            traced[name] = _in_child(name, args.seed, seconds, True)
            _print_per_layer(name, traced[name])
            ok &= traced[name]["correct"]
            if (traced[name]["detail"]["simulated_digest"]
                    != untraced[name]["detail"]["simulated_digest"]):
                print(f"  ERROR {name}: traced run's simulated results differ "
                      "from the untraced run's")
                ok = False
    entry = _entry(args.seed, untraced)
    if args.out:
        Path(args.out).write_text(json.dumps(entry, sort_keys=True) + "\n")
    if args.record:
        _append(LEDGER_DIR / "BENCH_e2e.jsonl", entry)
        if traced:
            _append(LEDGER_DIR / "BENCH_layers.jsonl", _entry(args.seed, traced))
    print("\n" + ("all replies correct, simulated results deterministic" if ok
                  else "FAILED: see ERROR lines above"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
