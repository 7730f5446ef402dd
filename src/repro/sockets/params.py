"""Cost models for the socket stacks.

Calibration anchors (paper §I, §II-A3, §VI):

- "even the best implementation of Sockets on InfiniBand achieve 20-25 µs
  one-way latency" -- SDP and IPoIB small-message one-way costs land there.
- The TOE path is faster than sockets-on-IB (Fig. 3: 10GigE beats IPoIB
  and SDP at most sizes) but still ≥ 4x slower than UCR end-to-end.
- IPoIB connected mode fragments at the IB MTU inside the kernel, with
  per-fragment protocol work; effective bandwidth ends well under wire
  speed, which produces the paper's factor-five gap at 512 KB.
- SDP bcopy copies through 8 KB private buffers; zcopy (off by default,
  as in the paper's runs -- it crashes with non-blocking sockets in the
  OFED of the day) pins pages per operation and pays a setup cost, which
  is why it only wins for large messages.

``software_overhead_us`` deserves a note: it folds together the end-host
costs that are real but not individually modeled -- socket buffer/lock
management, scheduler latency on thread handoff, netfilter/qdisc walks,
cache pollution from kernel/user transitions.  It is charged once per
send and once per receive *path activation* (not per byte), on the CPU of
the node doing the work.  The values are fitted so single-client
memcached latencies land on the paper's curves; DESIGN.md documents this
as the model's main free parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class StackParams:
    """Everything that distinguishes one socket stack from another.

    Every stack copies user buffer -> transmit path on send and receive
    path -> user buffer on recv (SDP's bcopy through private buffers
    included); only SDP zcopy above ``zcopy_threshold`` skips the send
    copy.
    """

    #: Report name ("10GigE-TOE", "IPoIB", "SDP", "1GigE-TCP").
    name: str
    #: Which fabric network this stack drives ("10GigE", "IB-DDR", ...);
    #: resolved against the node's NICs at stack construction.
    network: str
    #: Per-call user/kernel crossing for send()/recv()/epoll_wait().
    syscall_us: float
    #: Sender-side protocol work per segment (0 when offloaded to NIC).
    tx_per_segment_us: float
    #: Receiver-side protocol work per segment (softirq; 0 when offloaded).
    rx_per_segment_us: float
    #: Cost of the receive notification (interrupt for kernel stacks,
    #: completion-event dispatch for SDP); charged on every inbound
    #: segment, after ``rx_per_segment_us`` (``Connection._rx_pump``) --
    #: no interrupt coalescing is modeled, and Figs 3-4 are calibrated so.
    rx_notify_us: float
    #: Segmentation size; None means "use the NIC MTU".
    segment_bytes: Optional[int]
    #: Catch-all end-host software cost per send/receive activation (see
    #: module docstring).
    software_overhead_us: float
    #: Three-way-handshake cost per side at connect time.
    connect_setup_us: float
    #: Lognormal jitter applied per operation leg: (mean_us, sigma); the
    #: paper observed heavy jitter for SDP on QDR specifically.
    jitter_mean_us: float = 0.0
    jitter_sigma: float = 0.0
    #: SDP only: zero-copy threshold in bytes (None = bcopy always, the
    #: paper's configuration).
    zcopy_threshold: Optional[int] = None
    #: SDP zcopy: per-operation page-pinning/setup cost.
    zcopy_setup_us: float = 0.0
    #: Derating of the host memcpy bandwidth for this stack's copies
    #: (1.0 = full speed).  SDP's bcopy path copies through cold private
    #: buffers with credit bookkeeping interleaved, which is measurably
    #: slower than a hot straight-line memcpy.
    copy_bandwidth_factor: float = 1.0

    def with_jitter(self, mean_us: float, sigma: float, name: Optional[str] = None) -> "StackParams":
        """A copy of this stack with per-leg jitter (SDP-on-QDR artifact)."""
        from dataclasses import replace

        return replace(self, jitter_mean_us=mean_us, jitter_sigma=sigma, name=name or self.name)

    def with_zcopy(self, threshold: int, setup_us: float = 20.0) -> "StackParams":
        """A copy with SDP zero-copy enabled above *threshold* bytes."""
        from dataclasses import replace

        return replace(
            self,
            zcopy_threshold=threshold,
            zcopy_setup_us=setup_us,
            name=f"{self.name}-zcopy",
        )


#: Kernel TCP/IP over commodity 1GigE.
STACK_TCP_1G = StackParams(
    name="1GigE-TCP",
    network="1GigE",
    syscall_us=0.50,
    tx_per_segment_us=1.20,
    rx_per_segment_us=1.50,
    rx_notify_us=2.50,
    segment_bytes=None,  # NIC MTU (1500)
    software_overhead_us=4.0,
    connect_setup_us=30.0,
)

#: Chelsio T3 10GigE with full TCP offload: the NIC runs the protocol, the
#: host keeps the socket API, syscalls, copies and wakeups.
STACK_TOE_10G = StackParams(
    name="10GigE-TOE",
    network="10GigE",
    syscall_us=0.50,
    tx_per_segment_us=0.50,  # DMA descriptor per frame (protocol offloaded)
    rx_per_segment_us=1.50,  # per-frame buffer handling (no GRO in 2011)
    rx_notify_us=2.00,
    segment_bytes=1500,      # the host still sees per-MTU frame events
    software_overhead_us=10.0,
    connect_setup_us=25.0,
)

#: IP-over-InfiniBand, connected mode (RC): kernel IP stack at IB MTU.
STACK_IPOIB = StackParams(
    name="IPoIB",
    network="IB-DDR",        # re-targeted per cluster by the builder
    syscall_us=0.50,
    tx_per_segment_us=2.20,
    rx_per_segment_us=2.80,
    rx_notify_us=2.50,
    segment_bytes=2044,      # IB MTU minus IPoIB encapsulation
    software_overhead_us=17.0,
    connect_setup_us=35.0,
)

#: Sockets Direct Protocol in buffered-copy mode (the paper's setting:
#: zcopy off because it did not work with non-blocking sockets).
SDP_BCOPY = StackParams(
    name="SDP",
    network="IB-DDR",        # re-targeted per cluster by the builder
    syscall_us=0.40,         # library call, no kernel crossing
    tx_per_segment_us=2.00,  # SDP bcopy-buffer management per 8 KB chunk
    rx_per_segment_us=2.00,
    rx_notify_us=2.00,       # CQ event dispatch
    segment_bytes=8192,      # SDP bcopy buffer size
    software_overhead_us=16.0,
    connect_setup_us=40.0,   # CM handshake under the hood
    copy_bandwidth_factor=0.40,
)

#: The SDP-on-QDR configuration: same protocol, plus the heavy jitter the
#: paper attributes to "an implementation artifact of SDP on QDR adapters".
SDP_QDR_JITTER = SDP_BCOPY.with_jitter(mean_us=4.0, sigma=1.1, name="SDP")
