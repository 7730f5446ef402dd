"""Span tracer on the simulated clock.

One global :data:`tracer` records :class:`Span` intervals and
:class:`InstantEvent` points, both stamped in simulated microseconds by
the *caller* (the tracer itself never touches a clock, simulated or
wall; it is pure bookkeeping and therefore cannot perturb the event
stream).  A :class:`TraceContext` is the portable (trace_id, span_id)
pair that rides request/response headers across the simulated wire so a
single client operation yields one trace tree spanning client, AM
runtime, verbs or sockets stack, fabric and server layers.

Two disciplines keep tracing free when it is off and digest-neutral
when it is on (both enforced by lint rule L006 and the observer-effect
tests):

* every ``tracer.begin/end/instant`` call site is guarded by
  ``if tracer.enabled`` (or the equivalent conditional expression), so a
  disabled tracer costs one attribute read per site;
* the tracer allocates no simulation events, charges no costs, and
  changes no wire byte counts -- trace contexts ride as extra object
  fields that never feed ``wire_bytes()`` or any cost model.

Span/trace ids come from plain counters reset on :meth:`Tracer.enable`,
so a traced run is as deterministic as the simulation beneath it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

#: Layer taxonomy used for breakdowns, in stack order (client at top).
LAYERS = ("client", "am", "verbs", "sockets", "fabric", "server", "store", "chaos")


class TraceContext:
    """The propagated identity of one span: ``(trace_id, span_id)``.

    This -- not the :class:`Span` itself -- is what instrumented
    messages carry across the wire, so the receiving side can parent its
    own spans without sharing mutable state with the sender.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One named interval on the simulated clock, attributed to a layer."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "layer",
        "start_us",
        "end_us",
        "attrs",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        layer: str,
        start_us: float,
        attrs: dict,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs = attrs

    @property
    def ctx(self) -> TraceContext:
        """The propagatable context naming this span as a parent."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration_us(self) -> float:
        """Elapsed simulated µs; raises on a span that never ended."""
        if self.end_us is None:
            raise ValueError(f"span {self.name} (id {self.span_id}) never ended")
        return self.end_us - self.start_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end_us:.2f}" if self.end_us is not None else "?"
        return (
            f"Span({self.name!r}, {self.layer}, trace={self.trace_id}, "
            f"id={self.span_id}, parent={self.parent_id}, "
            f"[{self.start_us:.2f}, {end}]µs)"
        )


class InstantEvent:
    """A zero-duration annotation (fault strike, CQE, accept, ...)."""

    __slots__ = ("name", "layer", "at_us", "trace_id", "attrs")

    def __init__(
        self,
        name: str,
        layer: str,
        at_us: float,
        trace_id: Optional[int],
        attrs: dict,
    ) -> None:
        self.name = name
        self.layer = layer
        self.at_us = at_us
        self.trace_id = trace_id
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstantEvent({self.name!r}, {self.layer}, {self.at_us:.2f}µs)"


ParentLike = Union[TraceContext, Span, None]


class Tracer:
    """Collects spans/instants; off by default and inert while off.

    Call sites pass ``sim.now`` explicitly -- the tracer holds no
    reference to any simulator, which keeps it importable from every
    layer without cycles and guarantees it cannot schedule anything.
    """

    __slots__ = ("enabled", "spans", "instants", "_next_trace_id", "_next_span_id")

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self._next_trace_id = 1
        self._next_span_id = 1

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        """Turn recording on, clearing prior data and resetting the id
        counters so repeated runs trace identically."""
        self.clear()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; already-collected spans stay readable."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every recorded span/instant and reset the id counters."""
        self.spans = []
        self.instants = []
        self._next_trace_id = 1
        self._next_span_id = 1

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        name: str,
        layer: str,
        now: float,
        parent: ParentLike = None,
        **attrs,
    ) -> Span:
        """Open a span at simulated time *now*.

        With ``parent=None`` the span roots a brand-new trace; with a
        :class:`TraceContext` or :class:`Span` it joins that trace as a
        child.  Callers on hot paths must guard with ``tracer.enabled``
        (L006); calling while disabled still works but records nothing
        callers should rely on.
        """
        if isinstance(parent, Span):
            parent = parent.ctx
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(trace_id, self._next_span_id, parent_id, name, layer, now, attrs)
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Optional[Span], now: float) -> None:
        """Close *span* at *now*; tolerates ``None`` so call sites can
        write ``tracer.end(span, now)`` without re-checking whether the
        begin side actually ran."""
        if span is not None:
            span.end_us = now

    def instant(
        self,
        name: str,
        layer: str,
        now: float,
        trace: ParentLike = None,
        **attrs,
    ) -> InstantEvent:
        """Record a point event, optionally tagged onto a trace."""
        if isinstance(trace, Span):
            trace = trace.ctx
        event = InstantEvent(
            name, layer, now, trace.trace_id if trace is not None else None, attrs
        )
        self.instants.append(event)
        return event

    # -- introspection -----------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Spans with both endpoints recorded (the analyzable set)."""
        return [s for s in self.spans if s.end_us is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state}, {len(self.spans)} spans, {len(self.instants)} instants>"


#: The process-wide tracer every instrumentation site consults.
tracer = Tracer()


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Enable the global tracer for a block, restoring the previous
    enabled state afterwards (collected spans remain readable)::

        with tracing() as t:
            result = runner.run()
        tree = spans_by_trace(t.spans)
    """
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.enabled = was_enabled
