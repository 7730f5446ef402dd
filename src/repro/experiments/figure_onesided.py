"""One-sided GET vs active-message RPC: latency and mixed-ratio TPS.

Not a figure from the paper: the paper's UCR design keeps the server
CPU on every operation (active messages).  This experiment measures
what the one-sided path buys by taking the server out of the GET
loop entirely -- the client resolves a hit with RDMA READs and no
server cycles: a READ of the key's index window, then one READ of the
value and the stamp the server keeps behind it (two round trips); a
repeat read of a key skips the window, and so does the first read after
the client's own Set (its reply carried the key's entry), so such a hit
is one READ in one round trip.

Two panels:

- **(a)** Get latency vs value size, UCR-1S against the UCR-IB active
  message baseline.  One or two READ round trips cost less than one
  RPC round trip plus the server-side dispatch/parse/reply work at
  every swept size, so the one-sided line must sit below the baseline.
- **(b)** aggregate TPS vs Get ratio (50/90/100 % reads).  Sets always
  ride RPC on both configs, so the one-sided advantage must grow with
  the read fraction.

The panel-(b) clients are built through an explicit factory so the
report can also assert the *mechanism*: hits were actually served
one-sided (non-zero ``onesided_hits``) and the seqlock never forced a
torn-read fallback in a single-writer run.
"""

from __future__ import annotations

from repro.analysis.report import FigureSeries, format_latency_table
from repro.cluster.configs import CLUSTER_A
from repro.experiments.common import (
    ExperimentReport,
    build_cluster,
    latency_sweep,
)
from repro.workloads.memslap import MemslapRunner
from repro.workloads.patterns import (
    GET_ONLY,
    INTERLEAVED_50_50,
    NON_INTERLEAVED_10_90,
)

#: The active-message baseline and the one-sided path under test.
TRANSPORTS = ["UCR-IB", "UCR-1S"]
#: Value sizes all below the one-sided cutoff (oversize falls back).
SIZES = [16, 64, 256, 1024, 4096, 16384]
#: (get-percent, pattern) points of panel (b), by rising read fraction.
RATIOS = [(50, INTERLEAVED_50_50), (90, NON_INTERLEAVED_10_90), (100, GET_ONLY)]
TPS_VALUE_SIZE = 64


def _ratio_table(series: list[FigureSeries]) -> str:
    """Rows: Get percentage; columns: per-transport thousands of TPS."""
    title = f"{TPS_VALUE_SIZE}B mixed workload: aggregate TPS vs Get ratio"
    lines = [title, "=" * len(title)]
    lines.append(f"{'get %':>8} " + "".join(f"{s.label:>14}" for s in series))
    for percent, _pattern in RATIOS:
        row = f"{percent:>8} "
        for s in series:
            row += f"{s.value_at(percent) / 1000.0:>12.0f}K "
        lines.append(row)
    lines.append("(thousands of transactions per second, higher is better)")
    return "\n".join(lines)


def run(fast: bool = False) -> ExperimentReport:
    """Reproduce the one-sided comparison; see module docstring."""
    n_lat_ops = 10 if fast else 30
    n_tps_ops = 64 if fast else 400
    report = ExperimentReport(
        figure="onesided",
        description="One-sided RDMA Get (UCR-1S) vs active-message RPC "
        "(UCR-IB) on Cluster A",
    )
    cluster = build_cluster(CLUSTER_A)

    # -- (a) Get latency vs value size --------------------------------------
    latency = latency_sweep(
        cluster, TRANSPORTS, SIZES, GET_ONLY, op_filter="get",
        n_ops=n_lat_ops, collect=report.raw,
    )
    report.panels["(a) Get latency"] = latency
    report.tables.append(
        format_latency_table("(a) Get latency [Cluster A]", SIZES, latency)
    )

    # -- (b) TPS vs read ratio ----------------------------------------------
    onesided_clients = []
    tps_series: list[FigureSeries] = []
    for transport in TRANSPORTS:
        s = FigureSeries(label=transport)
        for percent, pattern in RATIOS:
            def factory(i, transport=transport):
                """Build the point's client, keeping UCR-1S ones for
                the mechanism checks below."""
                client = cluster.client(transport, i)
                if transport == "UCR-1S":
                    onesided_clients.append(client)
                return client

            runner = MemslapRunner(
                cluster,
                transport,
                value_size=TPS_VALUE_SIZE,
                pattern=pattern,
                n_clients=1,
                n_ops_per_client=n_tps_ops,
                client_factory=factory,
            )
            result = runner.run()
            report.raw.append(result)
            s.add(percent, result.tps)
        tps_series.append(s)
    report.panels["(b) TPS vs Get ratio"] = tps_series
    report.tables.append(_ratio_table(tps_series))

    # -- shape checks -------------------------------------------------------
    am = next(s for s in latency if s.label == "UCR-IB")
    os_ = next(s for s in latency if s.label == "UCR-1S")
    report.check(
        "one-sided Get beats the active message at every swept size",
        all(os_.value_at(x) < am.value_at(x) for x in SIZES),
        ", ".join(
            f"{x}B {os_.value_at(x):.1f}/{am.value_at(x):.1f}µs" for x in SIZES
        ),
    )

    am_tps = next(s for s in tps_series if s.label == "UCR-IB")
    os_tps = next(s for s in tps_series if s.label == "UCR-1S")
    gain_100 = os_tps.value_at(100) / am_tps.value_at(100)
    gain_50 = os_tps.value_at(50) / am_tps.value_at(50)
    report.check(
        "pure-Get TPS is higher one-sided than over RPC",
        gain_100 > 1.0,
        f"{gain_100:.2f}x at 100% Gets",
    )
    report.check(
        "the one-sided advantage grows with the read fraction",
        gain_100 >= gain_50,
        f"{gain_50:.2f}x at 50% -> {gain_100:.2f}x at 100%",
    )

    hits = sum(c.transport.onesided_hits for c in onesided_clients)
    torn = sum(c.transport.fallbacks.get("torn", 0) for c in onesided_clients)
    report.check(
        "Gets were served by RDMA READs (the mechanism, not a fluke)",
        hits > 0,
        f"{hits} one-sided hits",
    )
    report.check(
        "a single writer never forces the torn-read fallback",
        torn == 0,
        f"{torn} torn fallbacks",
    )
    return report
