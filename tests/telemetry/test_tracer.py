"""Unit tests: spans, histograms, breakdowns, Chrome export, flame."""

import json

import pytest

from repro.telemetry import (
    FixedBucketHistogram,
    InstantEvent,
    Span,
    TraceContext,
    Tracer,
    chrome_document,
    decompose_trace,
    format_breakdown_table,
    median_decomposition,
    render_flame,
    spans_by_trace,
    spans_from_chrome,
    trace_events,
    tracer,
    tracing,
    validate_chrome,
    write_chrome,
)


# -- tracer basics -------------------------------------------------------------


def test_disabled_tracer_records_nothing_by_default():
    t = Tracer()
    assert not t.enabled
    assert t.spans == [] and t.instants == []


def test_begin_end_builds_a_tree():
    t = Tracer()
    t.enable()
    root = t.begin("client.get", "client", 0.0)
    child = t.begin("am.roundtrip", "am", 1.0, parent=root)
    grandchild = t.begin("verbs.post", "verbs", 2.0, parent=child.ctx)
    t.end(grandchild, 3.0)
    t.end(child, 9.0)
    t.end(root, 10.0)
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert {s.trace_id for s in (root, child, grandchild)} == {root.trace_id}
    assert root.duration_us == 10.0
    assert len(t.finished_spans()) == 3


def test_end_tolerates_none_span():
    t = Tracer()
    t.end(None, 5.0)  # the guarded call-site idiom must not raise


def test_separate_roots_get_separate_traces():
    t = Tracer()
    t.enable()
    a = t.begin("client.get", "client", 0.0)
    b = t.begin("client.get", "client", 5.0)
    assert a.trace_id != b.trace_id


def test_unfinished_span_duration_raises():
    t = Tracer()
    t.enable()
    span = t.begin("x", "client", 0.0)
    with pytest.raises(ValueError):
        span.duration_us


def test_instant_events_tag_traces():
    t = Tracer()
    t.enable()
    span = t.begin("client.get", "client", 0.0)
    ev = t.instant("verbs.cqe", "verbs", 1.5, trace=span, cq="cq0")
    assert isinstance(ev, InstantEvent)
    assert ev.trace_id == span.trace_id
    assert ev.attrs["cq"] == "cq0"


def test_tracing_contextmanager_restores_prior_state():
    was = tracer.enabled
    try:
        tracer.disable()
        with tracing():
            assert tracer.enabled
            with tracing():  # nesting (observer-effect test wraps figures)
                assert tracer.enabled
            assert tracer.enabled
        assert not tracer.enabled
    finally:
        tracer.enabled = was
        tracer.clear()


def test_tracer_slots_reject_typos():
    t = Tracer()
    with pytest.raises(AttributeError):
        t.enbaled = True
    ctx = TraceContext(1, 2)
    with pytest.raises(AttributeError):
        ctx.span = 3


# -- histogram ----------------------------------------------------------------


def test_histogram_percentiles_bracket_samples():
    hist = FixedBucketHistogram.from_samples([10.0] * 90 + [100.0] * 10)
    assert hist.total == 100
    p50 = hist.percentile(50)
    p99 = hist.percentile(99)
    assert 9.0 <= p50 <= 11.0
    assert 90.0 <= p99 <= 110.0
    assert hist.percentile(0) == pytest.approx(hist.min_value)
    assert hist.percentile(100) == pytest.approx(hist.max_value)


def test_histogram_relative_error_bound():
    hist = FixedBucketHistogram(significant_bits=5)
    for v in (1.0, 3.7, 12.9, 1000.5, 123456.0):
        hist.record(v)
        lower, upper = hist.bucket_bounds(
            max(k for k in hist.counts)
        )
        assert upper / max(lower, 1e-12) <= 1.05 or v < 1e-3


def test_histogram_merge_and_export_roundtrip():
    a = FixedBucketHistogram.from_samples([1, 2, 3])
    b = FixedBucketHistogram.from_samples([100, 200])
    a.merge(b)
    assert a.total == 5
    d = a.to_dict()
    assert d["unit"] == "us"
    assert sum(count for _, _, count in d["buckets"]) == 5
    json.dumps(d)  # must be JSON-serializable as-is


def test_histogram_rejects_negative_and_mismatched_bits():
    hist = FixedBucketHistogram()
    with pytest.raises(ValueError):
        hist.record(-1.0)
    with pytest.raises(ValueError):
        hist.merge(FixedBucketHistogram(significant_bits=3))


def test_histogram_is_deterministic():
    samples = [0.5, 17.3, 4096.0, 9.99]
    assert (
        FixedBucketHistogram.from_samples(samples).to_dict()
        == FixedBucketHistogram.from_samples(samples).to_dict()
    )


# -- breakdown ----------------------------------------------------------------


def _demo_trace():
    t = Tracer()
    t.enable()
    root = t.begin("client.get", "client", 0.0)
    mid = t.begin("am.roundtrip", "am", 2.0, parent=root)
    leaf = t.begin("fabric.xfer", "fabric", 4.0, parent=mid)
    t.end(leaf, 6.0)
    t.end(mid, 8.0)
    t.end(root, 10.0)
    return t.finished_spans()


def test_decompose_telescopes_to_root_duration():
    root, layers = decompose_trace(_demo_trace())
    assert layers == {"client": 4.0, "am": 4.0, "fabric": 2.0}
    assert sum(layers.values()) == pytest.approx(root.duration_us)


def test_median_decomposition_picks_the_middle_trace():
    t = Tracer()
    t.enable()
    for dur in (30.0, 10.0, 20.0):
        root = t.begin("client.get", "client", 0.0)
        t.end(root, dur)
    traces = list(spans_by_trace(t.finished_spans()).values())
    root, layers = median_decomposition(traces)
    assert root.duration_us == 20.0
    assert layers == {"client": 20.0}


def test_breakdown_table_renders_used_layers_only():
    table = format_breakdown_table("t", {"A": {"client": 1.0, "fabric": 2.0}})
    assert "client" in table and "fabric" in table
    assert "verbs" not in table
    assert "total" in table


# -- Chrome export ------------------------------------------------------------


def test_chrome_document_is_valid_and_roundtrips(tmp_path):
    spans = _demo_trace()
    doc = chrome_document([("repro", spans, [])])
    validate_chrome(doc)
    path = write_chrome(tmp_path / "trace.json", doc)
    reloaded = json.loads(path.read_text())
    validate_chrome(reloaded)
    rebuilt = spans_from_chrome(reloaded)
    assert len(rebuilt) == len(spans)
    root, layers = decompose_trace(rebuilt)
    assert layers == {"client": 4.0, "am": 4.0, "fabric": 2.0}


def test_chrome_events_carry_ids_and_layer_threads():
    spans = _demo_trace()
    events = trace_events(spans)
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == len(spans)
    assert {m["name"] for m in metas} >= {"process_name", "thread_name"}
    tids = {e["tid"] for e in xs}
    assert len(tids) == 3  # one lane per layer used


def test_validate_chrome_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome({"nope": []})
    with pytest.raises(ValueError):
        validate_chrome({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1}]})


# -- flame --------------------------------------------------------------------


def test_flame_renders_every_span_proportionally():
    text = render_flame(_demo_trace())
    lines = text.splitlines()
    assert len(lines) == 3
    assert "client.get" in lines[0]
    assert "am.roundtrip" in lines[1]
    assert "fabric.xfer" in lines[2]
    bar0 = lines[0].split("|")[1]
    bar2 = lines[2].split("|")[1]
    assert bar0.count("█") > bar2.count("█")
