"""UCR tuning parameters.

The eager threshold of 8 KB is taken directly from the paper (§V, "Note
on Small Set/Get operations": one network buffer is 8 KB).  CPU costs are
per-operation software costs of the runtime itself, calibrated so a small
active message lands ~2 µs end to end on DDR hardware (the paper's verbs
envelope) with the memcached layer adding its own costs on top.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class UcrParams:
    """Runtime configuration (one instance shared per deployment)."""

    #: Messages with header+data at or below this ride the eager path.
    eager_threshold_bytes: int = 8192
    #: Size of each pre-posted receive (bounce) buffer; must be >= the
    #: eager threshold plus header room.
    recv_buffer_bytes: int = 8448
    #: Receive credits granted to each peer endpoint: the credited AMs it
    #: may have in flight.  Sixteen is the deepest window any entry point
    #: keeps (``figure_pipeline.DEPTHS``); a deeper pipeline queues its
    #: sends on the endpoint.  A target returns credits explicitly once
    #: ``credits // 2`` accumulate without a message to piggyback them on.
    credits: int = 16
    #: CPU to marshal and post one active message (descriptor build).
    am_post_cpu_us: float = 0.30
    #: CPU to run the progress engine per completion (poll + dispatch).
    progress_dispatch_cpu_us: float = 0.15
    #: CPU charged for a header handler invocation (the handler body may
    #: charge more itself).
    header_handler_cpu_us: float = 0.20
    #: CPU charged for scheduling a completion handler.
    completion_dispatch_cpu_us: float = 0.10
    #: Default wait timeout (µs) when callers pass none; generous so only
    #: genuine failures trip it.
    default_timeout_us: float = 1_000_000.0
    #: Draw receive buffers from one shared receive queue instead of a
    #: private window per endpoint (the MVAPICH-SRQ design the paper
    #: cites as UCR lineage, its ref [11]).  Memory per peer drops from
    #: O(credits) to O(1); transient exhaustion is absorbed by RNR
    #: retries instead of being a hard error.
    use_srq: bool = False
    #: Total buffers in the shared pool (SRQ mode).
    srq_depth: int = 512

    def __post_init__(self) -> None:
        if self.recv_buffer_bytes < self.eager_threshold_bytes:
            raise ValueError("recv buffers must hold a full eager message")
        if self.credits < 2:
            raise ValueError("at least 2 credits required (1 data + 1 control)")

    @property
    def control_slack(self) -> int:
        """Receives an endpoint posts beyond its credit window, for the
        uncredited control messages (``credits`` returns, ``counters``,
        ``rendezvous_done``).  Each of them carries at least one credit
        home -- a ``counters`` or ``rendezvous_done`` carries the credit
        of the AM it answers -- and a peer's messages carry at most
        ``credits`` credits between them, so at most ``credits`` control
        messages can wait in a receive queue at once."""
        return self.credits

    @property
    def posted_receives(self) -> int:
        """Receives each private-window endpoint pre-posts: the credit
        window plus :attr:`control_slack`."""
        return self.credits + self.control_slack


#: The configuration used by all experiments unless stated otherwise.
UCR_DEFAULT = UcrParams()
