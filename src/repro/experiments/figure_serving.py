"""Serving-plane figures: leases, hot cache and gutter under storms.

Three figures, none from the paper: they measure the production
cache-serving layer (docs/SERVING.md) under the storm-shaped chaos
scenarios of :mod:`repro.chaos.scenarios`:

- ``storm`` -- a Zipf-style hot-key storm with slowed shards and
  expiring hot keys.  Claim: leases plus the client-local hot cache cut
  the p99 serve latency by orders of magnitude (the dogpile tail is
  the regeneration cost; leases hand it to one winner and stale-serve
  the rest, the hot cache keeps admitted keys off the wire entirely).
- ``stampede`` -- one keystone key expires repeatedly with no faults at
  all.  Claim: without leases every client regenerates concurrently
  (dogpile amplification = client count); with leases regeneration per
  expiry wave is exactly one.
- ``gutter`` -- one shard crashes for most of the run.  Claim: with
  ejection disabled, completion visibly drops; with a gutter pool the
  ejected shard's traffic is absorbed (short-TTL writes) and completion
  stays >= 99%, with every recorded history passing the Wing--Gong
  checker.

Lease-enabled runs record their operation histories and must pass
:func:`repro.check.history.check_history`: stale serves, hot-cache
reads and lease misses ride as annotations (docs/CHECKING.md).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.report import FigureSeries
from repro.chaos import (
    ChaosController,
    ServingScenario,
    expiry_stampede,
    hot_key_storm,
    shard_loss,
)
from repro.check.history import check_history, recorder
from repro.cluster.builder import Cluster
from repro.cluster.configs import CLUSTER_A
from repro.experiments.common import ExperimentReport
from repro.memcached.client import FailoverPolicy
from repro.memcached.serving import GutterRouter, ProbabilisticHotCache
from repro.workloads.serving import ServingResult, ServingRunner

#: Every serving figure draws its scenario from this seed.
SCENARIO_SEED = 7
N_PRIMARIES = 4
N_CLIENTS = 4


def _build(n_servers: int) -> Cluster:
    cluster = Cluster(
        CLUSTER_A, n_client_nodes=N_CLIENTS, seed=42, n_servers=n_servers
    )
    cluster.start_server()
    return cluster


def _run_config(
    scenario_of: Callable[[list[str]], ServingScenario],
    n_ops: int,
    regen_cost_us: float,
    leases: bool = False,
    hot: bool = False,
    gutter: int = 0,
    policy: Optional[FailoverPolicy] = None,
    record: bool = False,
):
    """One (cluster, scenario, feature set) serving run.

    Returns ``(result, clients, check)`` where *check* is the Wing--Gong
    verdict when *record* was set (else None).  A fresh cluster per
    config: features must be the only variable.
    """
    cluster = _build(N_PRIMARIES + gutter)
    primaries = cluster.server_names[: N_PRIMARIES]
    scenario = scenario_of(primaries)
    if len(scenario.schedule):
        ChaosController(cluster, scenario.schedule).arm()
    clients = []

    def factory(i: int):
        """Client for node *i* with this config's feature set attached."""
        hc = (
            ProbabilisticHotCache(seed=100 + i, ttl_s=0.5, admission_rate=0.5)
            if hot
            else None
        )
        client = cluster.sharded_client(
            client_node=i,
            policy=policy or FailoverPolicy(),
            hot_cache=hc,
            ring=GutterRouter.reserving_last(cluster.server_names, gutter)
            if gutter
            else None,
        )
        clients.append(client)
        return client

    runner = ServingRunner(
        cluster,
        scenario,
        n_clients=N_CLIENTS,
        n_ops_per_client=n_ops,
        regen_cost_us=regen_cost_us,
        leases=leases,
        client_factory=factory,
    )
    if not record:
        return runner.run(), clients, None
    with recorder.recording():
        result = runner.run()
        check = check_history(recorder.records, by_server=True)
        annotated = sum(1 for r in recorder.records if r.annotations)
    return result, clients, (check, annotated)


def _serving_table(title: str, rows: list[tuple[str, ServingResult]]) -> str:
    lines = [title, "=" * len(title)]
    lines.append(
        f"{'config':>18}{'p99 µs':>12}{'median µs':>12}{'regens':>8}"
        f"{'stale':>7}{'hot hits':>9}{'completion':>12}"
    )
    for label, r in rows:
        lines.append(
            f"{label:>18}{r.p99_us():>12.0f}{r.latency.median():>12.1f}"
            f"{r.regens:>8}{r.stale_served:>7}{r.hot_cache_hits:>9}"
            f"{r.completion_ratio:>12.4f}"
        )
    return "\n".join(lines)


def _p99_panel(rows: list[tuple[str, ServingResult]]) -> list[FigureSeries]:
    series = []
    for label, r in rows:
        s = FigureSeries(label=label)
        s.add("p99_us", r.p99_us())
        s.add("regens", r.regens)
        s.add("completion", r.completion_ratio)
        series.append(s)
    return series


def run_storm(fast: bool = False) -> ExperimentReport:
    """Hot-key storm: feature-off baseline vs leases + hot cache.

    The op count is fixed across fast/full modes: the dogpile is capped
    by the client count, so its share of the latency distribution (and
    hence whether p99 sees it) *shrinks* as ops grow -- the sample count
    is part of the phenomenon, not a precision knob.
    """
    n_ops = 300
    report = ExperimentReport(
        figure="storm",
        description="hot-key storm p99: anti-dogpile leases + hot cache "
        "vs feature-off baseline",
    )
    scenario_of = lambda servers: hot_key_storm(SCENARIO_SEED, servers)
    base, _, _ = _run_config(scenario_of, n_ops, regen_cost_us=50_000.0)
    featured, _, verdict = _run_config(
        scenario_of, n_ops, regen_cost_us=50_000.0,
        leases=True, hot=True, record=True,
    )
    check, annotated = verdict

    rows = [("feature-off", base), ("lease+hot-cache", featured)]
    report.check(
        "leases + hot cache cut the storm p99 by at least 5x",
        base.p99_us() >= 5 * featured.p99_us(),
        f"{base.p99_us():.0f}µs -> {featured.p99_us():.0f}µs",
    )
    report.check(
        "leases shrink the dogpile (fewer backend regenerations)",
        0 < featured.regens < base.regens,
        f"{base.regens} -> {featured.regens} regens",
    )
    report.check(
        "the hot cache absorbs wire reads",
        featured.hot_cache_hits > 0,
        f"{featured.hot_cache_hits} local hits",
    )
    report.check(
        "the lease history linearizes under Wing-Gong",
        check.ok,
        f"{check.ops} ops, {check.groups} groups, "
        f"{annotated} annotated records",
    )
    report.check(
        "staleness rides as annotations (stale serves recorded)",
        featured.stale_served > 0 and annotated > 0,
        f"{featured.stale_served} stale serves",
    )
    report.panels["storm"] = _p99_panel(rows)
    report.tables.append(
        _serving_table("hot-key storm: serve latency and dogpile size", rows)
    )
    return report


def run_stampede(fast: bool = False) -> ExperimentReport:
    """Expiry stampede: dogpile amplification without and with leases.

    Fixed op count for the same reason as :func:`run_storm`.
    """
    n_ops = 200
    report = ExperimentReport(
        figure="stampede",
        description="keystone-key expiry stampede: regeneration dogpile "
        "without leases vs exactly-one-winner with",
    )
    scenario_of = lambda servers: expiry_stampede(
        SCENARIO_SEED, servers, horizon_us=4_000_000.0
    )
    base, _, _ = _run_config(scenario_of, n_ops, regen_cost_us=100_000.0)
    leased, _, verdict = _run_config(
        scenario_of, n_ops, regen_cost_us=100_000.0, leases=True, record=True,
    )
    check, annotated = verdict

    rows = [("no-leases", base), ("leases", leased)]
    report.check(
        "leases cut the stampede p99 by at least 10x",
        base.p99_us() >= 10 * leased.p99_us(),
        f"{base.p99_us():.0f}µs -> {leased.p99_us():.0f}µs",
    )
    report.check(
        "the dogpile collapses to about one regeneration per expiry wave",
        0 < leased.regens < base.regens,
        f"{base.regens} -> {leased.regens} regens",
    )
    report.check(
        "lease losers serve stale instead of regenerating",
        leased.stale_served > 0,
        f"{leased.stale_served} stale serves",
    )
    report.check(
        "the lease history linearizes under Wing-Gong",
        check.ok,
        f"{check.ops} ops, {check.groups} groups, "
        f"{annotated} annotated records",
    )
    report.panels["stampede"] = _p99_panel(rows)
    report.tables.append(
        _serving_table("expiry stampede: dogpile without vs with leases", rows)
    )
    return report


def run_gutter(fast: bool = False) -> ExperimentReport:
    """Shard loss: completion without ejection vs with a gutter pool.

    Fixed op count: the failure window is wall-clock-bound (each failed
    op burns its whole retry budget), so the *failed fraction* dilutes
    as ops grow, same trap as :func:`run_storm`.
    """
    n_ops = 300
    report = ExperimentReport(
        figure="gutter",
        description="shard loss: gutter pool absorbs the dead shard's "
        "traffic and keeps completion >= 99%",
    )
    scenario_of = lambda servers: shard_loss(SCENARIO_SEED, servers)
    # Baseline: ejection effectively disabled, so every op owned by the
    # dead shard burns its full retry budget and fails (plain failover
    # would quietly spread the keys over surviving primaries -- exactly
    # the working-set pollution the gutter exists to prevent, so the
    # honest baseline is no rerouting at all).
    base, _, base_verdict = _run_config(
        scenario_of, n_ops, regen_cost_us=20_000.0,
        policy=FailoverPolicy(eject_threshold=10**9), record=True,
    )
    guttered, clients, verdict = _run_config(
        scenario_of, n_ops, regen_cost_us=20_000.0, gutter=1, record=True,
    )
    base_check, _ = base_verdict
    check, annotated = verdict
    absorbed = sum(c.distribution.absorbed for c in clients)

    rows = [("no-eject", base), ("gutter", guttered)]
    report.check(
        "without rerouting, shard loss visibly dents completion",
        base.completion_ratio < 0.99,
        f"completion {base.completion_ratio:.4f}, {base.ops_failed} failed",
    )
    report.check(
        "the gutter pool keeps completion at or above 99%",
        guttered.completion_ratio >= 0.99,
        f"completion {guttered.completion_ratio:.4f}, "
        f"{guttered.ops_failed} failed",
    )
    report.check(
        "ejected-shard traffic is absorbed by the gutter ring",
        absorbed > 0,
        f"{absorbed} ops diverted",
    )
    report.check(
        "both histories (lost ops included) linearize under Wing-Gong",
        base_check.ok and check.ok,
        f"baseline {base_check.ops} ops, gutter {check.ops} ops "
        f"in {check.groups} groups",
    )
    report.panels["gutter"] = _p99_panel(rows)
    report.tables.append(
        _serving_table("shard loss: no-eject baseline vs gutter pool", rows)
    )
    return report
