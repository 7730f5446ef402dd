"""Shared experiment machinery: sweeps, reports, reference checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import FigureSeries
from repro.cluster.builder import Cluster
from repro.cluster.configs import ClusterSpec
from repro.workloads.memslap import MemslapResult, MemslapRunner
from repro.workloads.patterns import OpPattern

#: The paper's small-message sweep (bytes).
SMALL_SIZES = [1, 4, 16, 64, 256, 1024, 4096]
#: The paper's large-message sweep (bytes).
LARGE_SIZES = [8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024]


@dataclass
class ExperimentReport:
    """The output of one figure's reproduction."""

    figure: str
    description: str
    #: panel name -> list of FigureSeries (one per transport).
    panels: dict[str, list[FigureSeries]] = field(default_factory=dict)
    #: formatted tables, one per panel, in panel order.
    tables: list[str] = field(default_factory=list)
    #: shape-claim checks: (claim, passed, detail).
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: raw benchmark results for downstream analysis.
    raw: list[MemslapResult] = field(default_factory=list)
    #: structured side outputs (e.g. an exportable Chrome trace document).
    artifacts: dict = field(default_factory=dict)

    def check(self, claim: str, passed: bool, detail: str = "") -> None:
        self.checks.append((claim, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def render(self) -> str:
        """Human-readable report: tables followed by shape checks."""
        lines = [f"### {self.figure}: {self.description}", ""]
        for table in self.tables:
            lines.append(table)
            lines.append("")
        if self.checks:
            lines.append("Shape checks:")
            for claim, ok, detail in self.checks:
                mark = "PASS" if ok else "FAIL"
                suffix = f"  [{detail}]" if detail else ""
                lines.append(f"  [{mark}] {claim}{suffix}")
        return "\n".join(lines)


def build_cluster(
    spec: ClusterSpec,
    n_client_nodes: int = 1,
    n_workers: int = 4,
    n_servers: int = 1,
) -> Cluster:
    """A started cluster ready for benchmarking (``n_servers > 1``: a
    multi-server pool for ring-routed benchmarks), on the cluster's
    default seed."""
    cluster = Cluster(spec, n_client_nodes=n_client_nodes, n_servers=n_servers)
    cluster.start_server(n_workers=n_workers)
    return cluster


def latency_sweep(
    cluster: Cluster,
    transports: list[str],
    sizes: list[int],
    pattern: OpPattern,
    op_filter: str = "all",
    n_ops: int = 30,
    collect: Optional[list[MemslapResult]] = None,
) -> list[FigureSeries]:
    """Median latency per (transport, size); one series per transport.

    *op_filter* selects which recorder feeds the series: 'all', 'set' or
    'get' (the paper's Set and Get panels come from the same run of a
    pure workload, and the mixed figures report the overall latency).
    """
    series = []
    for transport in transports:
        s = FigureSeries(label=transport)
        for size in sizes:
            runner = MemslapRunner(
                cluster,
                transport,
                value_size=size,
                pattern=pattern,
                n_clients=1,
                n_ops_per_client=n_ops,
            )
            result = runner.run()
            recorder = {
                "all": result.latency,
                "set": result.set_latency,
                "get": result.get_latency,
            }[op_filter]
            s.add(size, recorder.median())
            if collect is not None:
                collect.append(result)
        series.append(s)
    return series


def tps_sweep(
    cluster: Cluster,
    transports: list[str],
    client_counts: list[int],
    value_size: int,
    pattern: OpPattern,
    n_ops: int = 200,
    collect: Optional[list[MemslapResult]] = None,
) -> list[FigureSeries]:
    """Aggregate TPS per (transport, client count)."""
    series = []
    for transport in transports:
        s = FigureSeries(label=transport)
        for n_clients in client_counts:
            runner = MemslapRunner(
                cluster,
                transport,
                value_size=value_size,
                pattern=pattern,
                n_clients=n_clients,
                n_ops_per_client=n_ops,
            )
            result = runner.run()
            s.add(n_clients, result.tps)
            if collect is not None:
                collect.append(result)
        series.append(s)
    return series


def series_ratio(
    series: list[FigureSeries], numerator: str, denominator: str, at
) -> float:
    """value(numerator)/value(denominator) at x=*at*."""
    num = next(s for s in series if s.label == numerator)
    den = next(s for s in series if s.label == denominator)
    return num.value_at(at) / den.value_at(at)


def min_ratio_over_x(series: list[FigureSeries], numerator: str, denominator: str) -> float:
    """The smallest numerator/denominator ratio across the x-axis."""
    num = next(s for s in series if s.label == numerator)
    den = next(s for s in series if s.label == denominator)
    return min(
        num.value_at(x) / den.value_at(x) for x in num.x
    )
