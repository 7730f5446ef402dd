"""Turn repetitions into named metrics, on both clocks.

Two entry points, one per kind of run:

* :func:`end_to_end` -- tracing off.  Repeats the workload's timed
  region on freshly built clusters until the requested seconds are
  spent, requires the simulated results to be bit-identical across
  repetitions, and reports simulated-clock metrics once and host-clock
  metrics as medians, in seconds calibrated to a reference box speed.
* :func:`per_layer` -- the traced run.  One untraced repetition for
  reference, one inside ``repro.telemetry.tracing()`` (which must leave
  every simulated result unchanged), one at a quarter of the ops under
  ``cProfile`` bucketed by source package, then the isolated drivers.

Layers are measured from outside the program: public counters, the
already-shipped span tracer, and the interpreter's profile hook.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import math
import os
import pstats
import resource
import statistics
import time
from pathlib import Path
from typing import Iterable, Optional

import repro
from repro.telemetry import (
    chrome_document,
    median_decomposition,
    spans_by_trace,
    tracing,
    write_chrome,
)

import loadgen
import micro

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_REPETITIONS = 3
MAX_REPETITIONS = 40
PROFILE_SCALE = 0.25
#: ``calibration_s()`` on the box the bounds were set on, when quiet.
#: The untraced run scales its host seconds by reference / measured, so a
#: box that is running 1.5x slow for a minute reports the same numbers.
CALIBRATION_REFERENCE_S = 0.0106
#: Traces kept in the Chrome export (the whole capture stays in memory
#: for the decomposition; the file is a browsable sample).
CHROME_TRACES = 200

#: End-to-end metric -> unit.  ``failed_ratio`` is printed beside these
#: but travels as the result's ``failed``/``attempted`` counts.
END_TO_END = {
    "sim_get_p50_us": "us",
    "sim_get_p99_us": "us",
    "sim_set_p50_us": "us",
    "sim_set_p99_us": "us",
    "sim_tps": "1/s",
    "get_hit_ratio": "ratio",
    "host_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Metrics read off the host clock (medians over repetitions); the rest
#: are simulated and repeat exactly.
HOST_CLOCK = ("host_ops_per_s", "peak_rss_mb", "setup_s")

#: Host-clock layers: this repo's packages.
LAYERS = (
    "sim", "fabric", "verbs", "sockets", "core",
    "memcached.protocol", "memcached.server", "memcached.store",
    "memcached.client", "memcached.onesided", "memcached.serving",
    "cluster", "telemetry", "other",
)
#: Simulated-clock layers: the span tracer's taxonomy.
SIM_LAYERS = ("client", "am", "verbs", "sockets", "fabric", "server", "store")

_MEMCACHED_FILES = {
    "protocol.py": "memcached.protocol",
    "protocol_binary.py": "memcached.protocol",
    "protocol_ucr.py": "memcached.protocol",
    "command.py": "memcached.protocol",
    "server.py": "memcached.server",
    "engine.py": "memcached.server",
    "store.py": "memcached.store",
    "slabs.py": "memcached.store",
    "hashtable.py": "memcached.store",
    "lru.py": "memcached.store",
    "items.py": "memcached.store",
    "hashing.py": "memcached.store",
    "client.py": "memcached.client",
}
_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"host_self_s.{layer}"] = "s"
        units[f"host_share.{layer}"] = "ratio"
        units[f"calls_in.{layer}"] = "1/op"
    for layer in SIM_LAYERS:
        units[f"sim_us.{layer}"] = "us"
    units.update(
        {
            "sim.events_per_op": "1/op",
            "sim.host_us_per_event": "us",
            "fabric.frames_per_op": "1/op",
            "fabric.bytes_per_op": "B/op",
            "core.am_messages_per_op": "1/op",
            "memcached.server.requests_per_op": "1/op",
            "memcached.onesided.reads_per_get": "1/op",
            "memcached.onesided.hit_ratio": "ratio",
            "memcached.onesided.torn_retries": "count",
        }
    )
    for reason in loadgen.FALLBACK_REASONS:
        units[f"memcached.onesided.fallback.{reason}"] = "count"
    units.update(
        {
            "memcached.onesided.publishes_per_set": "1/op",
            "memcached.store.evictions_per_set": "1/op",
            "memcached.store.oom_errors": "count",
            "memcached.store.reclaimed": "count",
            "memcached.serving.hotcache_hit_ratio": "ratio",
            "memcached.serving.hotcache_invalidations": "count",
            "cluster.ejections": "count",
            "telemetry.trace_overhead_ratio": "ratio",
            "telemetry.spans_per_op": "1/op",
        }
    )
    units.update((name, "1/s") for name in micro.DRIVERS)
    return units


# -- statistics ----------------------------------------------------------------


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-th percentile as an observed sample (nearest rank)."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count of host-clock samples."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def calibration_s() -> float:
    """Seconds this box needs, right now, for a fixed piece of plain
    Python (a heap of generators; no ``repro`` code, so no change to the
    program can move it).  Best of three, ~10 ms each."""
    best = math.inf
    for _ in range(3):
        def ticker():
            t = 0.0
            for _ in range(4000):
                t += 1.0
                yield t

        t0 = time.perf_counter()
        heap = [(next(g), i, g) for i, g in enumerate(ticker() for _ in range(8))]
        seq = len(heap)
        while heap:
            _, _, g = heapq.heappop(heap)
            try:
                due = g.send(None)
            except StopIteration:
                continue
            seq += 1
            heapq.heappush(heap, (due, seq, g))
        best = min(best, time.perf_counter() - t0)
    return best


# -- results ---------------------------------------------------------------------


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict,
            detail: dict, errors: list[str]) -> dict:
    """The shape both runs return; ``metrics`` is what the last output
    line carries, ``detail`` feeds the printed table and the ledger."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "detail": detail,
        "errors": errors,
    }


def _simulated_metrics(timed: loadgen.Timed) -> dict[str, float]:
    gets, sets = sorted(timed.get_us), sorted(timed.set_us)
    return {
        "sim_get_p50_us": nearest_rank(gets, 50),
        "sim_get_p99_us": nearest_rank(gets, 99),
        "sim_set_p50_us": nearest_rank(sets, 50),
        "sim_set_p99_us": nearest_rank(sets, 99),
        "sim_tps": _ratio(timed.attempted, timed.elapsed_us / 1e6),
        "get_hit_ratio": _ratio(timed.hits, timed.gets),
    }


def end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """The untraced run of workload *name*."""
    inputs = loadgen.generate(loadgen.WORKLOADS[name], seed, scale)
    setups: list[float] = []
    hosts: list[float] = []
    calibrations: list[float] = []
    first: Optional[loadgen.Timed] = None
    attempted = failed = 0
    errors: list[str] = []
    spent = 0.0
    while len(hosts) < MAX_REPETITIONS and (
        len(hosts) < MIN_REPETITIONS or spent < seconds
    ):
        gc.collect()
        before = calibration_s()
        dep = loadgen.deploy(inputs)
        between = calibration_s()
        timed = loadgen.run_timed(dep, inputs)
        after = calibration_s()
        setups.append(dep.setup_s * 2 * CALIBRATION_REFERENCE_S / (before + between))
        hosts.append(timed.host_s * 2 * CALIBRATION_REFERENCE_S / (between + after))
        calibrations.extend((before, between, after))
        spent += timed.host_s
        attempted += timed.attempted
        failed += timed.failed
        errors.extend(timed.errors)
        del dep
        if first is None:
            first, digest = timed, timed.simulated()
        elif timed.simulated() != digest:
            errors.append(f"repetition {len(hosts)} differs from repetition 1 "
                          "on the simulated clock")
    assert first is not None
    values = _simulated_metrics(first)
    host_stats = {
        "host_ops_per_s": spread([first.attempted / h for h in hosts]),
        "setup_s": spread(setups),
    }
    values["host_ops_per_s"] = host_stats["host_ops_per_s"]["median"]
    values["setup_s"] = host_stats["setup_s"]["median"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {
        "repetitions": len(hosts),
        "samples": {"get": len(first.get_us), "set": len(first.set_us)},
        "host": host_stats,
        "calibration_s": statistics.median(calibrations),
        "simulated_digest": digest,
    }
    correct = failed == 0 and not errors
    return _result(correct, attempted, failed, values, END_TO_END, detail, errors[:10])


# -- simulated clock: span decomposition --------------------------------------------


def _decompose(spans: Iterable, unit: str) -> tuple[dict[str, float], float, int]:
    """``sim_us.*`` of the median-latency trace rooted at a *unit* span:
    (layer µs, that trace's duration, traces considered)."""
    traces = []
    for trace in spans_by_trace(spans).values():
        root = next((s for s in trace if s.parent_id is None), None)
        if root is not None and root.name == unit and root.end_us is not None:
            traces.append(trace)
    root, layers = median_decomposition(traces)
    unknown = set(layers) - set(SIM_LAYERS)
    if unknown:
        raise RuntimeError(f"span layers outside the taxonomy: {sorted(unknown)}")
    return layers, root.duration_us, len(traces)


def _write_chrome(name: str, seed: int, tracer) -> Path:
    keep = set(range(1, CHROME_TRACES + 1))
    spans = [s for s in tracer.spans if s.trace_id in keep]
    instants = [i for i in tracer.instants if i.trace_id in keep]
    OUT_DIR.mkdir(exist_ok=True)
    return write_chrome(
        OUT_DIR / f"{name}-seed{seed}.trace.json",
        chrome_document([(name, spans, instants)]),
    )


# -- host clock: profile bucketed by package ------------------------------------------


def layer_of(filename: str) -> Optional[str]:
    """Source file -> layer; None for C builtins (``~``), whose time
    belongs to whoever called them."""
    if filename == "~":
        return None
    if not filename.startswith(_PACKAGE_ROOT):
        return "other"
    parts = filename[len(_PACKAGE_ROOT):].split(os.sep)
    if parts[0] == "memcached" and len(parts) > 1:
        if parts[1] in ("onesided", "serving"):
            return f"memcached.{parts[1]}"
        return _MEMCACHED_FILES.get(parts[1], "other")
    return parts[0] if parts[0] in LAYERS else "other"


def bucket_profile(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per layer and calls crossing into each layer.

    *stats* is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)``.  A builtin's self time is charged to its callers' layers
    (``heappush`` under ``sim`` is the kernel's cost, not "other").
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer is None:
            if not callers:
                self_s["other"] += tt
            for (caller_file, _l, _n), (_ccc, _cnc, caller_tt, _cct) in callers.items():
                self_s[layer_of(caller_file) or "other"] += caller_tt
            continue
        self_s[layer] += tt
        for (caller_file, _l, _n), (_ccc, caller_nc, _ctt, _cct) in callers.items():
            if (layer_of(caller_file) or "other") != layer:
                calls_in[layer] += caller_nc
    return self_s, calls_in


def _profiled(name: str, seed: int, scale: float) -> tuple[loadgen.Timed, dict, dict]:
    inputs = loadgen.generate(loadgen.WORKLOADS[name], seed, scale)
    dep = loadgen.deploy(inputs)
    profile = cProfile.Profile()
    profile.enable()
    try:
        timed = loadgen.run_timed(dep, inputs)
    finally:
        profile.disable()
    self_s, calls_in = bucket_profile(pstats.Stats(profile).stats)
    return timed, self_s, calls_in


# -- the traced run ---------------------------------------------------------------------


def per_layer(name: str, seed: int, scale: float = 1.0) -> dict:
    """The traced run of workload *name*: every per-layer metric."""
    workload = loadgen.WORKLOADS[name]
    inputs = loadgen.generate(workload, seed, scale)
    errors: list[str] = []

    _, plain = loadgen.repetition(inputs)
    dep = loadgen.deploy(inputs)
    with tracing() as tracer:
        traced = loadgen.run_timed(dep, inputs)
    del dep
    if traced.simulated() != plain.simulated():
        errors.append("tracing changed the simulated results")
    # A blocking GET is one trace; under pipelining the window is.
    unit = "client.pipeline" if workload.window > 1 else "client.get"
    layers, trace_us, n_traces = _decompose(tracer.spans, unit)
    chrome = _write_chrome(name, seed, tracer)
    n_spans = len(tracer.spans)
    tracer.clear()

    profiled, self_s, calls_in = _profiled(name, seed, scale * PROFILE_SCALE)

    ops, counts = plain.attempted, plain.counts
    values: dict[str, float] = {}
    total_self = sum(self_s.values())
    for layer in LAYERS:
        values[f"host_self_s.{layer}"] = self_s[layer]
        values[f"host_share.{layer}"] = _ratio(self_s[layer], total_self)
        values[f"calls_in.{layer}"] = _ratio(calls_in[layer], profiled.attempted)
    for layer in SIM_LAYERS:
        values[f"sim_us.{layer}"] = layers.get(layer, 0.0)
    sets = counts["memcached.store.cmd_set"]
    cache_lookups = (counts["memcached.serving.hotcache_hits"]
                     + counts["memcached.serving.hotcache_misses"])
    values.update(
        {
            "sim.events_per_op": _ratio(counts["sim.events"], ops),
            "sim.host_us_per_event": _ratio(plain.host_s * 1e6, counts["sim.events"]),
            "fabric.frames_per_op": _ratio(counts["fabric.frames"], ops),
            "fabric.bytes_per_op": _ratio(counts["fabric.bytes"], ops),
            "core.am_messages_per_op": _ratio(counts["core.am_messages"], ops),
            "memcached.server.requests_per_op": _ratio(
                counts["memcached.server.requests"], ops),
            "memcached.onesided.reads_per_get": _ratio(
                counts["memcached.onesided.onesided_reads"], plain.gets),
            "memcached.onesided.hit_ratio": _ratio(
                counts["memcached.onesided.onesided_hits"], plain.gets),
            "memcached.onesided.torn_retries": counts["memcached.onesided.torn_retries"],
            "memcached.onesided.publishes_per_set": _ratio(
                counts["memcached.onesided.publishes"], sets),
            "memcached.store.evictions_per_set": _ratio(
                counts["memcached.store.evictions"], sets),
            "memcached.store.oom_errors": counts["memcached.store.oom_errors"],
            "memcached.store.reclaimed": counts["memcached.store.reclaimed"],
            "memcached.serving.hotcache_hit_ratio": _ratio(
                counts["memcached.serving.hotcache_hits"], cache_lookups),
            "memcached.serving.hotcache_invalidations": counts[
                "memcached.serving.hotcache_invalidations"],
            "cluster.ejections": counts["cluster.ejections"],
            "telemetry.trace_overhead_ratio": _ratio(traced.host_s, plain.host_s),
            "telemetry.spans_per_op": _ratio(n_spans, ops),
        }
    )
    for reason in loadgen.FALLBACK_REASONS:
        key = f"memcached.onesided.fallback.{reason}"
        values[key] = counts[key]
    values.update(micro.run_all())

    runs = (plain, traced, profiled)
    for run in runs:
        errors.extend(run.errors)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail = {
        "decomposed_unit": unit,
        "decomposed_trace_us": trace_us,
        "decomposed_traces": n_traces,
        "sim_get_p50_us": _simulated_metrics(plain)["sim_get_p50_us"],
        "simulated_digest": plain.simulated(),
        "profiled_ops": profiled.attempted,
        "chrome_trace": str(chrome.relative_to(OUT_DIR.parent)),
    }
    correct = failed == 0 and not errors
    return _result(correct, attempted, failed, values, per_layer_units(), detail,
                   errors[:10])
