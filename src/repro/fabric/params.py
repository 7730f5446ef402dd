"""Calibrated parameter tables for links and hosts.

Where the numbers come from
---------------------------
The paper does not publish raw microbenchmark latencies for its testbeds, so
the tables below are calibrated against figures the paper *does* state plus
widely published numbers for the same hardware generation:

- Verbs small-message one-way latency on ConnectX is 1-2 µs (paper §I cites
  MVAPICH achieving 1-2 µs); sockets-on-InfiniBand is 20-25 µs one-way
  (paper §I).
- ConnectX DDR is a 16 Gbit/s data-rate link (paper §VI-A): ~2000 B/µs raw;
  we use ~1500 B/µs effective to account for PCIe 1.1 on Cluster A.
- ConnectX QDR is a 32 Gbit/s data-rate link on PCIe Gen2: ~4000 B/µs raw,
  ~3000 B/µs effective.
- Chelsio T3 10GigE: 1250 B/µs raw, ~1150 B/µs effective with TOE.
- Memcached-level targets used to sanity-check the calibration: 4 KB Get
  ≈ 12 µs (QDR), ≈ 20 µs (DDR), ≈ 4x slower on 10GigE-TOE, 5-10x slower on
  IPoIB/SDP (paper abstract and §VI).

All times are microseconds, all sizes bytes, all bandwidths bytes/µs
(1 B/µs == 1 MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    """Wire-level characteristics of one interconnect generation."""

    #: Human-readable name used in reports ("IB-DDR", "10GigE", ...).
    name: str
    #: Effective payload bandwidth in bytes/µs (== MB/s).
    bandwidth_bytes_per_us: float
    #: One-way cable/PHY propagation delay in µs.
    propagation_delay_us: float
    #: Per-hop switch forwarding latency in µs (one switch in our clusters).
    switch_delay_us: float
    #: Maximum frame payload; packetized stacks segment to this.
    mtu_bytes: int
    #: Wire header bytes added to every frame (L2 + transport framing).
    per_frame_overhead_bytes: int
    #: Fixed per-frame receive-side NIC processing (descriptor fetch, DMA
    #: setup); serializes on the receiver so incast is modeled.
    rx_frame_process_us: float

    def serialization_time(self, payload_bytes: int) -> float:
        """Time the transmitter occupies the wire for one frame."""
        wire_bytes = payload_bytes + self.per_frame_overhead_bytes
        return wire_bytes / self.bandwidth_bytes_per_us

    def one_way_delay(self) -> float:
        """Propagation plus single-switch forwarding (no serialization)."""
        return self.propagation_delay_us + self.switch_delay_us


@dataclass(frozen=True)
class HostParams:
    """Host (node) characteristics shared by every stack on that node."""

    #: Name used in reports ("Clovertown", "Westmere").
    name: str
    #: Number of CPU cores available to the modeled software.
    cores: int
    #: Single-core memcpy bandwidth, bytes/µs.  Charged whenever a stack
    #: copies a buffer (sockets copies, UCR eager-path memcpy, slab writes).
    memcpy_bytes_per_us: float
    #: Cost of waking and scheduling a blocked thread.
    context_switch_us: float
    #: Relative CPU speed factor (1.0 == Clovertown 2.33 GHz baseline);
    #: per-op CPU costs are divided by this.
    speed_factor: float

    def memcpy_time(self, nbytes: int) -> float:
        """Time for one single-threaded copy of *nbytes*."""
        return nbytes / self.memcpy_bytes_per_us

    def cpu_time(self, baseline_us: float) -> float:
        """Scale a baseline (Clovertown) CPU cost to this host."""
        return baseline_us / self.speed_factor


# --------------------------------------------------------------------------
# Link parameter instances
# --------------------------------------------------------------------------

#: ConnectX DDR HCA (Cluster A): 16 Gbit/s data rate, PCIe 1.1 limited.
IB_DDR = LinkParams(
    name="IB-DDR",
    bandwidth_bytes_per_us=1300.0,
    propagation_delay_us=0.30,
    switch_delay_us=0.20,
    mtu_bytes=2048,
    per_frame_overhead_bytes=30,
    rx_frame_process_us=0.05,
)

#: ConnectX QDR HCA (Cluster B): 32 Gbit/s data rate, PCIe Gen2.
IB_QDR = LinkParams(
    name="IB-QDR",
    bandwidth_bytes_per_us=3000.0,
    propagation_delay_us=0.25,
    switch_delay_us=0.15,
    mtu_bytes=2048,
    per_frame_overhead_bytes=30,
    rx_frame_process_us=0.04,
)

#: Chelsio T3 10 Gigabit Ethernet (Cluster A).
ETH_10G = LinkParams(
    name="10GigE",
    bandwidth_bytes_per_us=1150.0,
    propagation_delay_us=0.45,
    switch_delay_us=0.50,
    mtu_bytes=1500,
    per_frame_overhead_bytes=58,  # Ethernet + IP + TCP headers
    rx_frame_process_us=0.10,
)

#: Commodity 1 Gigabit Ethernet (reference baseline).
ETH_1G = LinkParams(
    name="1GigE",
    bandwidth_bytes_per_us=117.0,
    propagation_delay_us=0.50,
    switch_delay_us=1.00,
    mtu_bytes=1500,
    per_frame_overhead_bytes=58,
    rx_frame_process_us=0.30,
)


# --------------------------------------------------------------------------
# Host parameter instances (the paper's two clusters)
# --------------------------------------------------------------------------

#: Cluster A nodes: dual quad-core Intel Clovertown 2.33 GHz, 6 GB RAM.
HOST_CLOVERTOWN = HostParams(
    name="Clovertown",
    cores=8,
    memcpy_bytes_per_us=2200.0,
    context_switch_us=1.50,
    speed_factor=1.0,
)

#: Cluster B nodes: dual quad-core Intel Westmere 2.67 GHz, 12 GB RAM.
HOST_WESTMERE = HostParams(
    name="Westmere",
    cores=8,
    memcpy_bytes_per_us=4000.0,
    context_switch_us=1.20,
    speed_factor=1.35,
)
