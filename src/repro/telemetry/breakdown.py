"""Layer attribution: turn one trace tree into stacked µs per layer.

The decomposition partitions the root span's interval at every child
span boundary and attributes each elementary segment to the *deepest*
span active over it (ties broken toward the later-started span).  That
rule handles genuinely concurrent structure -- an RDMA ACK in flight
while the server span is already executing, a reply frame serializing
after ``server.op`` closed -- and makes the per-layer sums telescope to
the root duration, so "layer µs add up to the end-to-end latency" holds
by construction rather than by luck.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.telemetry.spans import LAYERS, Span

#: The label of the row that sums each column.
TOTALS_LABEL = "total (= e2e)"


def spans_by_trace(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Group spans into traces, preserving recording order."""
    out: dict[int, list[Span]] = {}
    for span in spans:
        out.setdefault(span.trace_id, []).append(span)
    return out


def _depths(finished: Sequence[Span], root: Span) -> dict[int, int]:
    """Tree depth per span id; spans whose parent fell outside the
    capture window hang directly under the root."""
    by_id = {s.span_id: s for s in finished}
    depth: dict[int, int] = {root.span_id: 0}

    def _resolve(span: Span) -> int:
        known = depth.get(span.span_id)
        if known is not None:
            return known
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        d = 1 if parent is None else _resolve(parent) + 1
        depth[span.span_id] = d
        return d

    for span in finished:
        _resolve(span)
    return depth


def decompose_trace(trace_spans: Sequence[Span]) -> tuple[Span, dict[str, float]]:
    """Deepest-active-span attribution of one trace.

    Returns ``(root, {layer: µs})``; the values sum to the root span's
    duration (up to float addition order).
    """
    finished = [s for s in trace_spans if s.end_us is not None]
    roots = [s for s in finished if s.parent_id is None]
    if not roots:
        raise ValueError("trace has no finished root span")
    root = min(roots, key=lambda s: (s.start_us, s.span_id))
    depth = _depths(finished, root)

    lo, hi = root.start_us, root.end_us
    active: list[tuple[float, float, int, Span]] = []
    for span in finished:
        a, b = max(span.start_us, lo), min(span.end_us, hi)
        if b > a or span is root:
            active.append((a, b, depth[span.span_id], span))

    bounds = sorted({t for a, b, _, _ in active for t in (a, b)})
    layers: dict[str, float] = {}
    for t0, t1 in zip(bounds, bounds[1:]):
        best_key: Optional[tuple[int, int]] = None
        best_span: Optional[Span] = None
        for a, b, d, span in active:
            if a <= t0 and b >= t1:
                key = (d, span.span_id)
                if best_key is None or key > best_key:
                    best_key, best_span = key, span
        assert best_span is not None  # the root always covers [lo, hi]
        layers[best_span.layer] = layers.get(best_span.layer, 0.0) + (t1 - t0)
    return root, layers


def median_decomposition(
    traces: Iterable[Sequence[Span]],
) -> tuple[Span, dict[str, float]]:
    """Decompose the trace with the median root duration.

    With an odd number of traces the chosen root's duration *is* the
    sample median of the end-to-end latencies, which is what lets the
    breakdown figure promise "layer µs sum to the measured median".
    """
    decomposed = sorted(
        (decompose_trace(tr) for tr in traces),
        key=lambda pair: (pair[0].duration_us, pair[0].trace_id),
    )
    if not decomposed:
        raise ValueError("no traces to decompose")
    return decomposed[(len(decomposed) - 1) // 2]


def format_breakdown_table(title: str, columns: dict[str, dict[str, float]]) -> str:
    """Render ``{column: {layer: µs}}`` as an aligned text table with
    layers in stack order plus a totals row."""
    names = list(columns)
    used = [
        layer
        for layer in LAYERS
        if any(columns[c].get(layer, 0.0) > 0.0 for c in names)
    ]
    width = max(len(TOTALS_LABEL), *(len(layer) for layer in used)) if used else 12
    header = f"{'layer':<{width}}  " + "  ".join(f"{c:>12}" for c in names)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for layer in used:
        cells = "  ".join(f"{columns[c].get(layer, 0.0):>12.2f}" for c in names)
        lines.append(f"{layer:<{width}}  {cells}")
    lines.append("-" * len(header))
    sums = "  ".join(f"{sum(columns[c].values()):>12.2f}" for c in names)
    lines.append(f"{TOTALS_LABEL:<{width}}  {sums}")
    return "\n".join(lines)
