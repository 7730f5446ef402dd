"""Figure 6: aggregate transactions per second for Get operations.

Multi-client closed loop (8 and 16 clients, each on its own node), Get
only, message sizes 4 B and 4 KB, both clusters.  Headline shapes:

- UCR ~6x the throughput of 10GigE-TOE on Cluster A (4 B);
- on A, 10GigE-TOE outperforms SDP-on-InfiniBand;
- UCR reaches O(1M+) TPS on QDR (paper: ~1.8M ops/s);
- UCR ~6x (or more) over SDP on Cluster B;
- on B, SDP underperforms IPoIB (the paper's "software issue with SDP");
- UCR keeps scaling from 8 to 16 clients.

The server runs 8 worker threads here (a runtime parameter, §V-A); the
latency figures use the default 4 -- single-client latency is worker-count
insensitive, aggregate throughput is not.
"""

from __future__ import annotations

from repro.analysis.report import FigureSeries, format_tps_table
from repro.cluster.configs import CLUSTER_A, CLUSTER_B
from repro.cluster.router import HashRing
from repro.experiments.common import (
    ExperimentReport,
    build_cluster,
    tps_sweep,
)
from repro.workloads.keys import KeyChooser
from repro.workloads.memslap import MemslapRunner
from repro.workloads.patterns import GET_ONLY

CLIENT_COUNTS = [8, 16]

PANELS = [
    ("(a) 4 byte - Cluster A", CLUSTER_A, 4),
    ("(b) 4096 byte - Cluster A", CLUSTER_A, 4096),
    ("(c) 4 byte - Cluster B", CLUSTER_B, 4),
    ("(d) 4096 byte - Cluster B", CLUSTER_B, 4096),
]


def _transports(spec) -> list[str]:
    return [t for t in spec.transports if t != "1GigE-TCP"]


def run(fast: bool = False) -> ExperimentReport:
    """Reproduce Figure 6; see the module docstring for the claims."""
    n_ops = 60 if fast else 250
    report = ExperimentReport(
        figure="Figure 6",
        description="Aggregate transactions per second for Get (8 and 16 clients)",
    )
    for title, spec, size in PANELS:
        # Fresh cluster per panel: TPS runs saturate server state.
        cluster = build_cluster(spec, n_client_nodes=max(CLIENT_COUNTS), n_workers=8)
        transports = _transports(spec)
        series = tps_sweep(
            cluster, transports, CLIENT_COUNTS, size, GET_ONLY,
            n_ops=n_ops, collect=report.raw,
        )
        report.panels[title] = series
        report.tables.append(
            format_tps_table(f"Figure 6 {title}", CLIENT_COUNTS, series)
        )

        by_label = {s.label: s for s in series}
        ucr16 = by_label["UCR-IB"].value_at(16)
        if spec.name == "A" and size == 4:
            toe16 = by_label["10GigE-TOE"].value_at(16)
            report.check(
                "A/4B: UCR ~6x the TPS of 10GigE-TOE at 16 clients",
                ucr16 / toe16 >= 4.5,
                f"{ucr16 / toe16:.1f}x",
            )
            report.check(
                "A/4B: 10GigE-TOE outperforms SDP over InfiniBand",
                toe16 > by_label["SDP"].value_at(16),
                f"TOE {toe16 / 1000:.0f}K vs SDP {by_label['SDP'].value_at(16) / 1000:.0f}K",
            )
        if spec.name == "B" and size == 4:
            sdp16 = by_label["SDP"].value_at(16)
            report.check(
                "B/4B: UCR >= ~6x the TPS of SDP at 16 clients",
                ucr16 / sdp16 >= 6.0,
                f"{ucr16 / sdp16:.1f}x",
            )
            report.check(
                "B/4B: UCR throughput in the paper's ~1.8M ops/s regime",
                1_200_000 <= ucr16 <= 2_600_000,
                f"{ucr16 / 1e6:.2f}M TPS",
            )
            report.check(
                "B/4B: SDP underperforms IPoIB (the paper's SDP software issue)",
                sdp16 <= by_label["IPoIB"].value_at(16) * 1.15,
                f"SDP {sdp16 / 1000:.0f}K vs IPoIB {by_label['IPoIB'].value_at(16) / 1000:.0f}K",
            )
        if size == 4:
            report.check(
                f"{title}: UCR scales from 8 to 16 clients",
                by_label["UCR-IB"].value_at(16) >= by_label["UCR-IB"].value_at(8) * 1.05,
                f"{by_label['UCR-IB'].value_at(8) / 1000:.0f}K -> "
                f"{by_label['UCR-IB'].value_at(16) / 1000:.0f}K",
            )
        else:
            # 4 KB responses saturate the server's transmit link; aggregate
            # TPS flattens at the wire rate (the paper's Fig 6(b)/(d) shape).
            wire = spec.ucr_link.bandwidth_bytes_per_us * 1e6  # bytes/s
            achieved = ucr16 * size
            report.check(
                f"{title}: UCR is wire-limited at 4 KB (TPS x size ~ link rate)",
                achieved >= 0.75 * wire,
                f"{achieved / 1e9:.2f} GB/s of {wire / 1e9:.2f} GB/s",
            )
    return report


SHARD_COUNTS = [1, 4]


def run_sharded(fast: bool = False) -> ExperimentReport:
    """Figure 6 extension: aggregate Get TPS across a sharded pool.

    Paper §II-C: "the architecture is inherently scalable as there is no
    central server to consult" -- clients hash keys across the pool.
    Here every client routes through a consistent-hash ring
    (:class:`~repro.cluster.router.HashRing`, from
    :meth:`~repro.cluster.builder.Cluster.sharded_client`) over 1 vs 4 UCR
    servers on Cluster B, uniform keys, 8 closed-loop clients.
    """
    n_ops = 40 if fast else 150
    n_clients = 8
    key_space = 64
    report = ExperimentReport(
        figure="Figure 6 (sharded)",
        description="Aggregate Get TPS, ring-routed clients over 1 vs 4 servers",
    )
    series = FigureSeries(label="UCR-IB/ring")
    tps_by_count: dict[int, float] = {}
    for n_servers in SHARD_COUNTS:
        # Two workers per server: a single server saturates under eight
        # closed-loop clients, so pool scaling is visible (with a CPU
        # surplus the clients are latency-bound and sharding is a wash).
        cluster = build_cluster(
            CLUSTER_B, n_client_nodes=n_clients, n_workers=2, n_servers=n_servers
        )
        runner = MemslapRunner(
            cluster,
            "UCR-IB",
            value_size=4,
            pattern=GET_ONLY,
            n_clients=n_clients,
            n_ops_per_client=n_ops,
            warmup_ops=16,  # cycle enough keys to open every shard connection
            keys=KeyChooser(mode="uniform", key_space=key_space, prefix="shard"),
            client_factory=lambda i, c=cluster: c.sharded_client("UCR-IB", i),
        )
        result = runner.run()
        series.add(n_servers, result.tps)
        tps_by_count[n_servers] = result.tps
        report.raw.append(result)
        report.check(
            f"{n_servers} server(s): every issued op completed",
            result.completion_ratio == 1.0,
            f"{result.ops_completed}/{result.total_ops}",
        )
        if n_servers > 1:
            # Ring spread sanity: each shard owns part of the universe.
            ring = HashRing(cluster.server_names)
            per_shard = dict.fromkeys(cluster.server_names, 0)
            for i in range(key_space):
                per_shard[ring.server_for(f"shard-{i}")] += 1
            report.check(
                "ring spreads the key universe over every shard",
                all(count > 0 for count in per_shard.values()),
                ", ".join(f"{k}:{v}" for k, v in per_shard.items()),
            )
    report.panels["UCR-IB ring-routed Get TPS vs pool size"] = [series]
    report.tables.append(
        format_tps_table(
            "Figure 6 (sharded) - Cluster B, 4 byte Get", SHARD_COUNTS, [series]
        )
    )
    report.check(
        "4-shard pool outperforms a single server (aggregate TPS)",
        tps_by_count[4] >= tps_by_count[1] * 1.5,
        f"{tps_by_count[1] / 1000:.0f}K -> {tps_by_count[4] / 1000:.0f}K "
        f"({tps_by_count[4] / tps_by_count[1]:.2f}x)",
    )
    return report
