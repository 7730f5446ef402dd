"""Cache-aside serving workload: regeneration, leases, storms.

:class:`~repro.workloads.memslap.MemslapRunner` measures raw cache
throughput; this runner measures the *serving* pattern memcached fronts
in production -- cache-aside with a slow backing store:

    value = cache.get(key)          # fast path
    if value is None:               # miss: regenerate
        value = backend(key)        # slow (regen_cost_us of sim time)
        cache.set(key, value)

The failure mode this exposes is the dogpile: when a hot key expires,
*every* client that misses pays the backend cost concurrently.  With
``leases=True`` the loop switches to the anti-dogpile protocol
(docs/SERVING.md): ``get_lease`` hands exactly one client a
regeneration token per expired key; losers serve the stale value (the
loop always asks for one) or briefly poll for the winner's refill.

The key stream is shaped by a :class:`~repro.chaos.scenarios.ServingScenario`:
``scenario.hot_fraction`` of draws hit ``scenario.hot_keys``, the rest
spread uniformly over the key universe.  All draws are seeded, so a run
is a pure function of ``(cluster seed, scenario, parameters)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.chaos.scenarios import ServingScenario
from repro.memcached.errors import ServerDownError
from repro.sim.rng import RngStream
from repro.sim.trace import LatencyRecorder
from repro.telemetry import tracer
from repro.workloads.keys import make_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import Cluster


#: Bytes per cached value.
VALUE_SIZE = 128
#: A lease loser with nothing stale to serve polls this often ...
LEASE_WAIT_US = 500.0
#: ... this many times, then regenerates without a token.
MAX_LEASE_WAITS = 8


def _hot_hits(client) -> int:
    """The client's own hot-cache hit counter (0 without a cache)."""
    return client.hot_cache.hits if client.hot_cache is not None else 0


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    scenario: str
    n_clients: int
    n_ops_per_client: int
    elapsed_us: float = 0.0
    latency: LatencyRecorder = field(default_factory=lambda: LatencyRecorder("serve"))
    #: Backend regenerations (the dogpile metric: lower is better).
    regens: int = 0
    #: Reads answered from a client-local hot cache.
    hot_cache_hits: int = 0
    #: Lease losers served the stale value instead of regenerating.
    stale_served: int = 0
    #: Lease losers that polled until the winner's refill landed.
    lease_waits: int = 0
    #: Losers whose polling budget ran out (regenerated anyway).
    lease_wait_timeouts: int = 0
    #: set_with_lease calls the server refused (token superseded).
    lease_denied: int = 0
    #: Operations that died with ServerDownError after failover gave up.
    ops_failed: int = 0

    @property
    def total_ops(self) -> int:
        return self.n_clients * self.n_ops_per_client

    @property
    def completion_ratio(self) -> float:
        """Fraction of issued serve operations that produced a value."""
        if self.total_ops == 0:
            return 1.0
        return (self.total_ops - self.ops_failed) / self.total_ops

    def p99_us(self) -> float:
        """The 99th-percentile serve latency (µs)."""
        return self.latency.percentile(99)


class ServingRunner:
    """Drives the cache-aside loop against one scenario's shaped load."""

    def __init__(
        self,
        cluster: "Cluster",
        scenario: ServingScenario,
        n_clients: int = 4,
        n_ops_per_client: int = 200,
        key_space: int = 64,
        regen_cost_us: float = 20_000.0,
        leases: bool = False,
        client_factory: Optional[Callable[[int], object]] = None,
    ) -> None:
        """*client_factory* maps a client-node index to a client (default
        ``cluster.sharded_client(client_node=i)``); pass one that attaches
        a hot cache or gutter ring to turn those features on.  *key_space*
        must cover ``scenario.hot_keys`` (scenarios draw from the same
        ``key-<i>`` universe).  With *leases* the loop uses
        ``get_lease``/``set_with_lease``; otherwise plain get/set -- the
        dogpile baseline.

        Each client's seeded-jittered think time between serves spreads
        the ops across the scenario horizon (``horizon_us /
        n_ops_per_client``) so TTL expiries and fault windows land
        *inside* the run.
        """
        if n_clients > len(cluster.client_nodes):
            raise ValueError(
                f"{n_clients} clients need {n_clients} nodes; cluster has "
                f"{len(cluster.client_nodes)}"
            )
        universe = {f"key-{i}" for i in range(key_space)}
        missing = [k for k in scenario.hot_keys if k not in universe]
        if missing:
            raise ValueError(
                f"hot keys {missing} outside the key-0..key-{key_space - 1} "
                f"universe; generate the scenario with key_space={key_space}"
            )
        self.cluster = cluster
        self.scenario = scenario
        self.n_clients = n_clients
        self.n_ops_per_client = n_ops_per_client
        self.key_space = key_space
        self.regen_cost_us = regen_cost_us
        self.leases = leases
        self.pacing_us = scenario.horizon_us / max(1, n_ops_per_client)
        self.client_factory = client_factory

    def _next_key(self, stream: RngStream) -> str:
        sc = self.scenario
        if sc.hot_keys and stream.uniform() < sc.hot_fraction:
            return sc.hot_keys[stream.randint(0, len(sc.hot_keys))]
        return f"key-{stream.randint(0, self.key_space)}"

    def _exptime(self, key: str) -> int:
        return self.scenario.hot_exptime_s if key in self.scenario.hot_keys else 0

    def run(self) -> ServingResult:
        """Prepopulate, arm nothing (the caller arms chaos), serve."""
        cluster = self.cluster
        sim = cluster.sim
        sc = self.scenario
        result = ServingResult(
            scenario=sc.name,
            n_clients=self.n_clients,
            n_ops_per_client=self.n_ops_per_client,
        )
        factory = self.client_factory or (
            lambda i: cluster.sharded_client(client_node=i)
        )
        clients = [factory(i) for i in range(self.n_clients)]
        value = make_value(VALUE_SIZE, tag=11)

        def prepopulate():
            """Seed the universe (hot keys with their scenario TTL)."""
            seeder = clients[0]
            for i in range(self.key_space):
                key = f"key-{i}"
                yield from seeder.set(key, value, exptime=self._exptime(key))
            # Touch every client once per shard so connection setup is
            # outside the timed region.
            for client in clients:
                for i in range(0, self.key_space, max(1, self.key_space // 8)):
                    yield from client.get(f"key-{i}")

        pre = sim.process(prepopulate())
        sim.run_until_event(pre)

        finish_times: list[float] = []
        start = sim.now

        def regenerate(client, key, token):
            """The backend round-trip plus the refill write."""
            yield sim.timeout(self.regen_cost_us)
            result.regens += 1
            if token:
                ok = yield from client.set_with_lease(
                    key, value, token, exptime=self._exptime(key)
                )
                if not ok:
                    result.lease_denied += 1
            else:
                yield from client.set(key, value, exptime=self._exptime(key))
            return value

        def serve_leased(client, key, stream):
            """One cache-aside read under the anti-dogpile protocol."""
            hits = _hot_hits(client)
            got = yield from client.get_lease(key)
            if not isinstance(got, tuple):
                if got is not None:
                    result.hot_cache_hits += _hot_hits(client) - hits
                    return got
                # A bare None only happens on protocol-level misses;
                # regenerate without a token.
                return (yield from regenerate(client, key, 0))
            state, stale, token = got
            if state == "won":
                return (yield from regenerate(client, key, token))
            if stale is not None:
                result.stale_served += 1
                return stale
            # Lost with nothing to serve: poll (with get_lease, so a
            # repeat miss stays lease-annotated) for the winner's refill.
            for _ in range(MAX_LEASE_WAITS):
                result.lease_waits += 1
                yield sim.timeout(LEASE_WAIT_US)
                again = yield from client.get_lease(key)
                if not isinstance(again, tuple):
                    if again is not None:
                        return again
                elif again[0] == "won":
                    return (yield from regenerate(client, key, again[2]))
                elif again[1] is not None:
                    result.stale_served += 1
                    return again[1]
            result.lease_wait_timeouts += 1
            return (yield from regenerate(client, key, 0))

        def serve_plain(client, key, stream):
            """One cache-aside read, dogpile-prone baseline."""
            hits = _hot_hits(client)
            got = yield from client.get(key)
            if got is not None:
                result.hot_cache_hits += _hot_hits(client) - hits
                return got
            return (yield from regenerate(client, key, 0))

        serve = serve_leased if self.leases else serve_plain

        def loop(index, client):
            """One client's paced stream of cache-aside serves."""
            stream = RngStream(sc.seed, f"serving/client{index}")
            for _ in range(self.n_ops_per_client):
                if self.pacing_us > 0:
                    yield sim.timeout(
                        stream.uniform(0.5 * self.pacing_us, 1.5 * self.pacing_us)
                    )
                key = self._next_key(stream)
                t0 = sim.now
                try:
                    yield from serve(client, key, stream)
                except ServerDownError:
                    result.ops_failed += 1
                    if tracer.enabled:
                        tracer.instant("serving.op_failed", "client",
                                       sim.now, key=key)
                    continue
                result.latency.record(sim.now - t0)
            finish_times.append(sim.now)

        for index, client in enumerate(clients):
            sim.process(loop(index, client))
        sim.run()
        if len(finish_times) != self.n_clients:
            raise RuntimeError(
                f"only {len(finish_times)}/{self.n_clients} clients finished"
            )
        result.elapsed_us = max(finish_times) - start
        return result
