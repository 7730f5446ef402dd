"""repro.telemetry: span tracing, layer breakdowns, exportable profiles.

The public surface instrumented code needs is tiny -- the global
:data:`tracer` plus the :func:`tracing` context manager -- and imports
nothing from the rest of ``repro``, so any layer may import it without
cycles.  Analysis helpers (breakdowns, Chrome export, flamegraphs) live
in submodules and are re-exported here for tests and experiments.

See ``docs/TELEMETRY.md`` for the span model, layer taxonomy and the
zero-perturbation guarantees.
"""

from repro.telemetry.breakdown import (
    decompose_trace,
    format_breakdown_table,
    median_decomposition,
    spans_by_trace,
)
from repro.telemetry.chrome import (
    chrome_document,
    spans_from_chrome,
    trace_events,
    validate_chrome,
    write_chrome,
)
from repro.telemetry.flame import render_flame
from repro.telemetry.histogram import FixedBucketHistogram
from repro.telemetry.spans import (
    LAYERS,
    InstantEvent,
    Span,
    TraceContext,
    Tracer,
    tracer,
    tracing,
)

__all__ = [
    "LAYERS",
    "FixedBucketHistogram",
    "InstantEvent",
    "Span",
    "TraceContext",
    "Tracer",
    "chrome_document",
    "decompose_trace",
    "format_breakdown_table",
    "median_decomposition",
    "render_flame",
    "spans_by_trace",
    "spans_from_chrome",
    "trace_events",
    "tracer",
    "tracing",
    "validate_chrome",
    "write_chrome",
]
