"""Terminal flamegraph: one trace tree as aligned time bars.

Each span renders as a bar positioned proportionally inside the root
interval plus an indented label, e.g.::

    |████████████████████████████████| client.get (client) 21.30µs
    |  ██████████████████████████    |   am.roundtrip (am) 18.10µs
    |    ████                        |     verbs.post (verbs) 2.40µs

Pure string formatting over already-recorded spans -- safe to call from
the CLI or tests without touching the simulator.
"""

from __future__ import annotations

from typing import Sequence

from repro.telemetry.spans import Span

BAR = "█"
#: Width of the bar column in characters; the root span fills it.
WIDTH = 48


def render_flame(trace_spans: Sequence[Span]) -> str:
    """Render one trace (as grouped by ``spans_by_trace``) to text."""
    finished = [s for s in trace_spans if s.end_us is not None]
    roots = [s for s in finished if s.parent_id is None]
    if not roots:
        raise ValueError("trace has no finished root span")
    root = min(roots, key=lambda s: (s.start_us, s.span_id))
    total = root.end_us - root.start_us
    if total <= 0:
        raise ValueError(f"root span {root.name} has no duration")

    ids = {s.span_id for s in finished}
    children: dict[int, list[Span]] = {}
    orphans: list[Span] = []
    for span in finished:
        if span is root:
            continue
        if span.parent_id in ids:
            children.setdefault(span.parent_id, []).append(span)
        else:
            orphans.append(span)  # parent outside the capture window
    for kids in children.values():
        kids.sort(key=lambda s: (s.start_us, s.span_id))
    orphans.sort(key=lambda s: (s.start_us, s.span_id))

    lines: list[str] = []

    def _emit(span: Span, depth: int) -> None:
        start = max(span.start_us, root.start_us)
        end = min(span.end_us, root.end_us)
        offset = round((start - root.start_us) / total * WIDTH)
        length = max(1, round((end - start) / total * WIDTH))
        offset = min(offset, WIDTH - 1)
        length = min(length, WIDTH - offset)
        gutter = " " * offset + BAR * length
        label = f"{'  ' * depth}{span.name} ({span.layer}) {span.end_us - span.start_us:.2f}µs"
        lines.append(f"|{gutter:<{WIDTH}}| {label}")
        for child in children.get(span.span_id, ()):
            _emit(child, depth + 1)

    _emit(root, 0)
    for orphan in orphans:
        _emit(orphan, 1)
    return "\n".join(lines)
