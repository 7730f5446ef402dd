"""The benchmark driver (memslap-alike over the real client API).

Single-client mode measures per-operation latency; multi-client mode
starts every client simultaneously on its own node and reports aggregate
transactions per second, exactly like the paper's §VI-D benchmark
("Instead of latency, we report the total number of transactions ...
aggregate ... observed by all the clients").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.memcached.command import Command
from repro.memcached.errors import ServerDownError
from repro.sim.trace import LatencyRecorder
from repro.telemetry import tracer
from repro.workloads.keys import KeyChooser, make_value
from repro.workloads.patterns import GET_ONLY, OpPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import Cluster


@dataclass
class MemslapResult:
    """Everything one benchmark run produced."""

    transport: str
    value_size: int
    pattern: str
    n_clients: int
    n_ops_per_client: int
    elapsed_us: float
    latency: LatencyRecorder = field(default_factory=lambda: LatencyRecorder("op"))
    set_latency: LatencyRecorder = field(default_factory=lambda: LatencyRecorder("set"))
    get_latency: LatencyRecorder = field(default_factory=lambda: LatencyRecorder("get"))
    #: Operations that raised ServerDownError (only nonzero in
    #: ``tolerate_failures`` mode, e.g. under chaos injection).
    ops_failed: int = 0
    #: Gets answered with a miss (failover to a shard without the key).
    get_misses: int = 0
    #: Simulated time the timed region began (after prepopulate/warmup).
    #: Note ``sim.now`` after a run overshoots the timed region: a drained
    #: run leaves the clock at the latest operation deadline ever armed,
    #: met ones included (their timers are cancelled, the clock still
    #: counts them), so use ``started_at_us + elapsed_us`` for the
    #: benchmark's end time.
    started_at_us: float = 0.0
    #: In-flight window per client connection (1 = classic closed loop).
    pipeline_depth: int = 1

    @property
    def total_ops(self) -> int:
        return self.n_clients * self.n_ops_per_client

    @property
    def ops_completed(self) -> int:
        """Operations that returned (hit, miss or stored) without error."""
        return self.total_ops - self.ops_failed

    @property
    def completion_ratio(self) -> float:
        """Fraction of issued operations that completed."""
        if self.total_ops == 0:
            return 1.0
        return self.ops_completed / self.total_ops

    @property
    def tps(self) -> float:
        """Aggregate transactions per (simulated) second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.total_ops / (self.elapsed_us / 1e6)


class MemslapRunner:
    """Drives one (cluster, transport, pattern, size) benchmark point."""

    def __init__(
        self,
        cluster: "Cluster",
        transport: str,
        value_size: int,
        pattern: OpPattern = GET_ONLY,
        n_clients: int = 1,
        n_ops_per_client: int = 100,
        warmup_ops: int = 5,
        keys: Optional[KeyChooser] = None,
        client_factory: Optional[Callable[[int], object]] = None,
        tolerate_failures: bool = False,
        pipeline_depth: int = 1,
    ) -> None:
        """*client_factory* maps a client-node index to a client object
        (default: ``cluster.client(transport, i)``); pass e.g.
        ``lambda i: cluster.sharded_client(transport, i)`` to bench the
        ring-routed failover client.  With *tolerate_failures* the loop
        counts :class:`ServerDownError` as a failed op and get misses as
        misses instead of raising -- required when a chaos schedule kills
        shards mid-run and failover reroutes to servers without the key.
        Each client runs windows of *pipeline_depth* commands in flight
        at once (``client.pipeline``); depth 1 is the classic closed
        loop of blocking calls.
        """
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if n_clients > len(cluster.client_nodes):
            raise ValueError(
                f"{n_clients} clients need {n_clients} nodes; cluster has "
                f"{len(cluster.client_nodes)} (paper: clients on distinct nodes)"
            )
        self.cluster = cluster
        self.transport = transport
        self.value_size = value_size
        self.pattern = pattern
        self.n_clients = n_clients
        self.n_ops_per_client = n_ops_per_client
        self.warmup_ops = warmup_ops
        self.keys = keys or KeyChooser(mode="single", prefix=f"bench-{value_size}")
        self.client_factory = client_factory
        self.tolerate_failures = tolerate_failures
        self.pipeline_depth = pipeline_depth

    def run(self) -> MemslapResult:
        """Execute the benchmark; returns the populated result."""
        cluster = self.cluster
        sim = cluster.sim
        result = MemslapResult(
            transport=self.transport,
            value_size=self.value_size,
            pattern=self.pattern.name,
            n_clients=self.n_clients,
            n_ops_per_client=self.n_ops_per_client,
            elapsed_us=0.0,
            pipeline_depth=self.pipeline_depth,
        )
        factory = self.client_factory or (
            lambda i: cluster.client(self.transport, i)
        )
        clients = [factory(i) for i in range(self.n_clients)]
        value = make_value(self.value_size, tag=7)

        # Pre-populate every key (gets must hit) and warm the connections.
        def prepopulate():
            """Seed every key and warm each client's connection(s).

            Warmup cycles through the key universe so that multi-shard
            clients establish every per-shard connection before the
            timed region (single-key workloads are unaffected).
            """
            seeder = clients[0]
            universe = self.keys.all_keys()
            for key in universe:
                yield from seeder.set(key, value)
            for client in clients:
                for i in range(self.warmup_ops):
                    yield from client.get(universe[i % len(universe)])

        pre = sim.process(prepopulate())
        sim.run_until_event(pre)

        finish_times: list[float] = []
        start = sim.now
        result.started_at_us = start
        if tracer.enabled:
            tracer.instant(
                "memslap.start", "client", sim.now,
                transport=self.transport, n_clients=self.n_clients,
            )

        def loop(client):
            """One client's timed loop: windows of ``pipeline_depth`` ops.

            At depth 1 each op is one blocking ``client.call`` (retries
            and span attributes as ``client.set`` / ``client.get`` have
            them); deeper windows go through ``client.pipeline``.  Either
            way a GET on UCR-1S tries the one-sided ladder first.  Per-op
            latency is the window's wall time: what a closed-loop caller
            would wait.
            """
            depth = self.pipeline_depth
            ops = list(self.pattern.ops(self.n_ops_per_client))
            for cursor in range(0, len(ops), depth):
                window = ops[cursor : cursor + depth]
                cmds = [
                    Command(op="set", keys=[self.keys.next_key()], value=value)
                    if op == "set"
                    else Command(op="get", keys=[self.keys.next_key()])
                    for op in window
                ]
                t0 = sim.now
                if depth > 1:
                    outcomes = yield from client.pipeline(cmds, depth)
                else:
                    cmd = cmds[0]
                    attrs = {"nbytes": len(cmd.value)} if cmd.op == "set" else {}
                    try:
                        outcomes = [(yield from client.call(cmd, **attrs))]
                    except ServerDownError as exc:
                        outcomes = [exc]
                dt = sim.now - t0
                for op, cmd, outcome in zip(window, cmds, outcomes):
                    if isinstance(outcome, ServerDownError):
                        if not self.tolerate_failures:
                            raise outcome
                        result.ops_failed += 1
                        if tracer.enabled:
                            tracer.instant("memslap.op_failed", "client",
                                           sim.now, key=cmd.key)
                        continue
                    if isinstance(outcome, Exception):
                        raise outcome
                    if op == "get" and outcome is None:
                        if not self.tolerate_failures:
                            raise AssertionError(f"unexpected miss on {cmd.key}")
                        result.get_misses += 1
                    result.latency.record(dt)
                    (result.set_latency if op == "set"
                     else result.get_latency).record(dt)
            if tracer.enabled:
                tracer.instant("memslap.client_done", "client", sim.now)
            finish_times.append(sim.now)

        for client in clients:
            sim.process(loop(client))
        sim.run()
        if len(finish_times) != self.n_clients:
            raise RuntimeError(
                f"only {len(finish_times)}/{self.n_clients} clients finished"
            )
        result.elapsed_us = max(finish_times) - start
        return result
