"""Cross-transport / cross-protocol differential replay.

The paper's implicit claim (§5-6) is that the RDMA-enabled memcached is
*semantically identical* to the sockets one -- only latency and
throughput change.  This module makes that claim checkable:

- :func:`replay` runs one script (:mod:`repro.check.generate`) through
  one (transport, protocol) configuration against a live cluster, with
  up to *depth* commands in flight.  Each step resolves to one IR
  ``Command``; the client executes it (``client.call`` /
  ``client.pipeline``), the :class:`~repro.check.model.ModelMemcached`
  oracle applies the same command at the client's completion instant,
  :func:`~repro.memcached.client.interpret` reads both replies, and one
  comparator judges the pair;
- :func:`differential_run` replays the same script through every
  configuration (UCR-IB plus text and binary over SDP / IPoIB /
  10GigE-TOE, and one-sided UCR) and asserts response-for-response
  agreement;
- :func:`replay_concurrent` drives a multi-client sharded workload
  (optionally under a seeded chaos schedule) with history recording on,
  and hands the history to the linearizability checker.

Fault injection lives in :mod:`repro.check.mutations`, shrinking and
repro dumps in :mod:`repro.check.shrink`, the parser fuzzer in
:mod:`repro.check.parser_fuzz`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.chaos.controller import ChaosController
from repro.chaos.schedule import random_schedule
from repro.check.generate import Step, generate_commands
from repro.check.history import CheckResult, check_history, recorder
from repro.check.model import ModelMemcached
from repro.check.mutations import MUTATIONS
from repro.cluster.builder import Cluster
from repro.cluster.configs import CLUSTER_A
from repro.memcached.client import interpret
from repro.memcached.errors import (
    ClientError,
    ProtocolError,
    ServerDownError,
    ServerError,
)
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.store import StoreConfig
from repro.sanitize.export import ExportSanitizer
from repro.telemetry.chrome import chrome_document, write_chrome
from repro.telemetry.spans import tracing

#: The standard memory-pressure rig: a store two slab pages deep with
#: the rebalancer on, so the pressure value pool (slab-edge values in
#: the 8/5/3-chunks-per-page classes) forces evictions, OOMs, and page
#: reassignment within a few dozen operations.
PRESSURE_STORE_CONFIG = StoreConfig(max_bytes=2 * PAGE_BYTES, slab_automove=True)

#: The issue's four transports; UCR's active messages are already
#: structs, the sockets transports each speak text and binary.  UCR-1S
#: is UCR-IB with GET/gets served by one-sided RDMA READs against the
#: server-exported index (docs/ONESIDED.md) -- semantically it must be
#: indistinguishable from every other config.
CONFIGS: tuple[tuple[str, str, bool], ...] = (
    ("UCR-IB", "UCR-IB", False),
    ("SDP/text", "SDP", False),
    ("SDP/bin", "SDP", True),
    ("IPoIB/text", "IPoIB", False),
    ("IPoIB/bin", "IPoIB", True),
    ("10GigE-TOE/text", "10GigE-TOE", False),
    ("10GigE-TOE/bin", "10GigE-TOE", True),
    ("UCR-1S", "UCR-1S", False),
)


# ---------------------------------------------------------------------------
# One step, two sides: issue, observe
# ---------------------------------------------------------------------------


def _issue(client, commands: list, depth: int):
    """Process helper: one window of commands through the client.

    Returns one entry per command, in order: the value the op returned,
    or the memcached error that felled it.  At ``depth <= 1`` the window
    is one command and a blocking ``call`` (whose ``ServerDownError``
    propagates: the caller's policy decides); deeper, it rides
    ``client.pipeline``, which folds lost ops into entries too.
    """
    if depth > 1:
        return (yield from client.pipeline(commands, depth))
    (command,) = commands
    try:
        return [(yield from client.call(command))]
    except (ClientError, ServerError, ProtocolError) as exc:
        return [exc]


def _ask_oracle(oracle: ModelMemcached, command):
    """The oracle's entry for *command*, in :func:`_issue`'s form: the
    same reply interpretation the client applies, over the oracle's own
    ``apply``."""
    try:
        return interpret(command, oracle.apply(command))
    except (ClientError, ServerError) as exc:
        return exc


def _normalize(result, cas_map: dict):
    """Fold a raw op result into a JSON-able, cas-canonical form."""
    if isinstance(result, bytes):
        return result.decode("latin-1")
    if isinstance(result, tuple) and len(result) == 2:
        value, cas = result  # a gets() hit: (value, raw cas token)
        token = cas_map.setdefault(cas, len(cas_map))
        return [_normalize(value, cas_map), f"cas#{token}"]
    if isinstance(result, tuple) and len(result) == 3:
        # A get_lease miss verdict: (state, stale_value, lease_token).
        # Lease tokens are canonicalized like cas tokens, namespaced so
        # the two counters cannot collide in the shared first-occurrence
        # map.
        state, stale_value, token = result
        label = (
            f"lease#{cas_map.setdefault(('lease', token), len(cas_map))}"
            if token
            else None
        )
        return [state, _normalize(stale_value, cas_map), label]
    return result


def _observe(step: Step, entry, tokens: dict, cas_map: dict) -> list:
    """One side's outcome of one step: ``["ok", result]`` with tokens
    canonicalized by first occurrence in *cas_map*, or ``["error",
    kind]``.  A raw token the result carries is remembered in *tokens*
    for that side's later cas / setl (error kinds are plain strings and
    never reach the cas map)."""
    if isinstance(entry, ClientError):
        return ["error", "client"]
    if isinstance(entry, ServerError):
        return ["error", "server"]
    if isinstance(entry, ProtocolError):
        return ["error", "protocol"]
    if isinstance(entry, Exception):
        raise entry  # ServerDownError etc: not an outcome, a broken run
    step.remember(entry, tokens)
    return ["ok", _normalize(entry, cas_map)]


#: Ops a replay at depth > 1 may batch into one in-flight window.  cas
#: and setl are barriers (their token resolves against the latest gets /
#: getl, which may sit in the same window), and getl with them; sleep
#: and flush_all are barriers by nature.
_BATCHABLE_OPS = frozenset(
    {"set", "add", "replace", "append", "prepend", "get", "gets",
     "delete", "incr", "decr", "touch"}
)


def _windows(steps: list[Step], depth: int) -> Iterator[list[Step]]:
    """Cut *steps* into the windows a replay keeps in flight together.

    At ``depth <= 1`` every window is one step.  Deeper, consecutive
    :data:`_BATCHABLE_OPS` batch up to *depth*, breaking on barriers and
    on a repeated key -- the in-window completion order of same-key ops
    is transport-dependent (UCR's window workers race), so only
    key-disjoint windows have a transport-independent outcome.
    """
    window: list[Step] = []
    for step in steps:
        batchable = depth > 1 and step.op in _BATCHABLE_OPS
        if window and (
            not batchable
            or len(window) == depth
            or any(step.key == other.key for other in window)
        ):
            yield window
            window = []
        if batchable:
            window.append(step)
        else:
            yield [step]
    if window:
        yield window


# ---------------------------------------------------------------------------
# Replay vs the oracle
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    config: str
    #: Normalized outcome per step, cas tokens canonicalized.
    outcomes: list = field(default_factory=list)
    #: (index, actual, expected) triples where client != oracle.
    mismatches: list = field(default_factory=list)
    trace_file: Optional[str] = None
    #: Store pressure counters at end of run (from ``StoreStats``), so
    #: pressure tests can assert that evictions demonstrably happened.
    evictions: int = 0
    reclaimed: int = 0
    oom_errors: int = 0
    slab_moves: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def replay(
    config: tuple[str, str, bool],
    steps: list[Step],
    depth: int = 1,
    seed: int = 42,
    mutation: Optional[str] = None,
    trace_path: Optional[str] = None,
    store_config: Optional[StoreConfig] = None,
) -> ReplayResult:
    """Replay *steps* with up to *depth* in flight, comparing every
    response with the oracle.

    The oracle applies each window's commands in issue order at the
    window's completion instant: its clock reads the live simulator, so
    expiry agrees (integer seconds vs microsecond latencies), and a
    gets / getl token feeds later cas / setl steps only after its window,
    matching what a pipelining application could observe.

    With a small-capacity *store_config* the run goes through real
    memory pressure; the oracle stays exact because the store's
    eviction hook events are adopted (:meth:`ModelMemcached.evict`)
    before the oracle runs, and a SERVER_ERROR backed by a counted OOM
    is itself the specified outcome.  Adoption is gated on events the
    store actually reported, so silent key loss still mismatches.  It
    needs a single drain point, which a window of ops completing out of
    order does not have: *store_config* with ``depth > 1`` is rejected.
    """
    if depth > 1 and store_config is not None:
        raise ValueError("eviction adoption needs depth 1: windows have no drain point")
    name, transport, binary = config
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, seed=seed)
    cluster.start_server(store_config=store_config or StoreConfig())
    store = cluster.server.store
    # Wired first: a one-sided client exports the index a mutation patches.
    client = cluster.client(transport, binary=binary)
    if mutation is not None:
        MUTATIONS[mutation](store)
    oracle = ModelMemcached(lambda: cluster.sim.now / 1e6)
    result = ReplayResult(config=name if depth <= 1 else f"{name}/pipe{depth}")
    # Raw tokens differ per side (MODEL_DIVERGENCES 'cas-token-values'):
    # each resolves 'last' from its own memory and canonicalizes by its
    # own first occurrences.
    client_tokens: dict[str, int] = {}
    oracle_tokens: dict[str, int] = {}
    client_map: dict = {}
    oracle_map: dict = {}

    # Eviction adoption: every key the store destroys under pressure
    # (LRU eviction, expiry reap, unlink-first loss) queues here and is
    # drained into the oracle before the matching oracle op runs.
    pending_evictions: list[str] = []
    store.on_evict = lambda key, kind: pending_evictions.append(key)
    oom_seen = store.stats.oom_errors

    def driver():
        """Window by window: client, adoption, oracle, the comparator."""
        nonlocal oom_seen
        for window in _windows(steps, depth):
            if window[0].op == "sleep":
                yield cluster.sim.timeout(window[0].sleep_s * 1_000_000)
                result.outcomes.append(["sleep", window[0].sleep_s])
                continue
            entries = yield from _issue(
                client,
                [step.command(client_tokens) for step in window],
                depth if window[0].op in _BATCHABLE_OPS else 1,  # barriers block
            )
            for lost_key in pending_evictions:
                oracle.evict(lost_key)
            pending_evictions.clear()
            oom_now = store.stats.oom_errors
            for step, entry in zip(window, entries):
                actual = _observe(step, entry, client_tokens, client_map)
                if actual == ["error", "server"] and oom_now > oom_seen:
                    # The client saw SERVER_ERROR and the store counted an
                    # out-of-memory for this op: under pressure that is the
                    # specified outcome.  The oracle op does not run, but
                    # the key still ends absent -- a failed storage op
                    # unlinks the old item first (or lazily reaps an
                    # expired/flushed one while probing it), so the oracle
                    # must drop it too; otherwise a later flush_all that
                    # pushes the deadline into the future would resurrect a
                    # stale oracle entry the store already reaped.  An OOM
                    # bump behind a *successful* op (a bounced zero-copy
                    # reservation that fell back to the plain path) takes
                    # the normal comparison branch instead.
                    oracle.evict(step.key)
                    expected = actual
                else:
                    expected = _observe(
                        step,
                        _ask_oracle(oracle, step.command(oracle_tokens)),
                        oracle_tokens,
                        oracle_map,
                    )
                if actual != expected:
                    result.mismatches.append((len(result.outcomes), actual, expected))
                result.outcomes.append(actual)
            oom_seen = oom_now

    with tracing() if trace_path is not None else nullcontext() as t:
        cluster.sim.process(driver())
        cluster.sim.run()
    if trace_path is not None:
        write_chrome(trace_path, chrome_document([(name, t.spans, t.instants)]))
        result.trace_file = trace_path
    # An index the oracle cannot see into may still be unsound at the
    # end (a stale entry no later read hit): that fails the replay too.
    for violation in ExportSanitizer(strict=False).check(store):
        result.mismatches.append(
            (len(result.outcomes), ["export", violation], ["export", "sound"])
        )
    result.evictions = store.stats.evictions
    result.reclaimed = store.stats.reclaimed
    result.oom_errors = store.stats.oom_errors
    result.slab_moves = store.stats.slab_moves
    return result


@dataclass
class DifferentialResult:
    """Outcome of one sequence replayed across every configuration."""

    replays: list[ReplayResult]
    #: Config pairs whose outcome lists differ: (config_a, config_b, index).
    disagreements: list = field(default_factory=list)
    #: Pressure-mode only: cross-config differences excused as divergent
    #: eviction histories (same triples as ``disagreements``).
    tolerated: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and all(r.ok for r in self.replays)


#: The cas trichotomy: any pair of these can arise from divergent
#: eviction histories (key presence / token staleness differ per run).
_CAS_STATES = frozenset({"stored", "exists", "not_found"})


def _strip_cas_tokens(outcome):
    """Erase canonical cas and lease token *numbers* from a normalized
    outcome.

    Token indices count distinct tokens (cas and lease alike, one map)
    across the whole replay, so one excess re-store or lease on an
    already-diverged key shifts the numbering of every later token --
    including on keys whose values agree exactly.
    """
    if isinstance(outcome, list):
        return [_strip_cas_tokens(x) for x in outcome]
    if isinstance(outcome, str) and outcome.startswith(("cas#", "lease#")):
        return outcome[:outcome.index("#") + 1]
    return outcome


def _absentish(payload) -> bool:
    """Does this ok-payload read as 'the key was not there'?  A getl
    miss verdict (``[state, stale value, lease label]``) does when it
    carries no stale value."""
    if isinstance(payload, list):
        return len(payload) == 3 and payload[1] is None
    return payload is None or payload is False or payload == "not_found"


def _eviction_explains(a, b, op: str = "") -> bool:
    """Could divergent eviction/OOM histories alone produce this pair?

    Only presence-flavored differences qualify: an OOM error on one
    side, present-vs-absent, or two cas states.  A value-vs-value
    difference on a key that never diverged on presence is real
    corruption and is never excused.

    ``incr`` / ``decr`` speak presence through their error: a present
    non-numeric value answers CLIENT_ERROR where an evicted one answers
    not-found, so for those two ops a client error reads as "present"
    (and, like any present value, is never excused against a number).
    An invalid key errors identically on every side and is not a
    difference to begin with.

    A ``getl`` miss verdict with no stale value (a lease won or lost on
    a key that was not there) reads as absent, so against a hit where
    the key survived it is a presence flip; a verdict carrying a stale
    value reads as present.
    """
    for outcome in (a, b):
        if outcome[0] == "error" and outcome[1] == "server":
            return True
    if op in ("incr", "decr"):
        a, b = (
            ("ok", True) if tuple(outcome) == ("error", "client") else outcome
            for outcome in (a, b)
        )
    if a[0] != "ok" or b[0] != "ok":
        return False
    va, vb = a[1], b[1]
    if isinstance(va, str) and isinstance(vb, str) and {va, vb} <= _CAS_STATES:
        return True
    return _absentish(va) != _absentish(vb)


def differential_run(
    steps: list[Step],
    seed: int = 42,
    configs=CONFIGS,
    mutation: Optional[str] = None,
    store_config: Optional[StoreConfig] = None,
    tolerant: bool = False,
    depth: int = 1,
) -> DifferentialResult:
    """Replay *steps* through every configuration (*depth* in flight);
    compare each with the oracle and all of them with each other.

    ``tolerant=True`` is the pressure-mode comparator: transports can
    evict different victims (the zero-copy UCR set allocates before the
    old item is unlinked, the byte path after), so cross-config agreement
    is latched per key -- the first difference on a key must be
    presence-flavored (see :func:`_eviction_explains`); after that the
    key's divergence is an accepted fact and later differences on it are
    excused.  Every replay is still held to exact per-op agreement with
    its own oracle.
    """
    replays = [
        replay(cfg, steps, depth=depth, seed=seed, mutation=mutation,
               store_config=store_config)
        for cfg in configs
    ]
    result = DifferentialResult(replays=replays)
    baseline = replays[0]
    for other in replays[1:]:
        diverged: set[str] = set()
        for idx, (a, b) in enumerate(zip(baseline.outcomes, other.outcomes)):
            if a == b:
                continue
            pair = (baseline.config, other.config, idx)
            if not tolerant:
                result.disagreements.append(pair)
                break
            if _strip_cas_tokens(a) == _strip_cas_tokens(b):
                # Pure token-numbering skew downstream of a divergence.
                result.tolerated.append(pair)
                continue
            key = steps[idx].key
            if key in diverged or _eviction_explains(a, b, steps[idx].op):
                diverged.add(key)
                result.tolerated.append(pair)
                continue
            result.disagreements.append(pair)
            break
    return result


# ---------------------------------------------------------------------------
# Concurrent replay: sharded clients, chaos, linearizability
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentResult:
    """Outcome of one recorded multi-client run."""

    config: str
    check: CheckResult
    digest: str
    n_records: int
    chaos_log: list = field(default_factory=list)
    #: Pressure counters summed over all servers (0 when unpressured).
    evictions: int = 0
    oom_errors: int = 0

    @property
    def ok(self) -> bool:
        return self.check.ok


def replay_concurrent(
    config: tuple[str, str, bool],
    seed: int = 42,
    n_clients: int = 4,
    n_servers: int = 2,
    n_ops: int = 500,
    n_keys: int = 8,
    chaos: bool = False,
    pipeline_depth: int = 1,
    store_config: Optional[StoreConfig] = None,
) -> ConcurrentResult:
    """Drive *n_clients* sharded clients concurrently (optionally under
    a seeded chaos schedule), record the history, check linearizability
    per (key, shard), and return a deterministic history digest.

    With *pipeline_depth* > 1 each client issues windows of that many
    commands through ``client.pipeline`` instead of blocking per op;
    every command is still individually recorded, so the checker sees
    the same op surface with wider (batch-granular) intervals.

    With a small-capacity *store_config* the generator switches to the
    pressure value pool and every server's eviction hook feeds a
    per-(key, shard) budget into :func:`check_history`: a key may
    vanish spontaneously at most as many times as its shard reported
    destroying it, and groups that need the budget come back as
    ``evictable`` rather than failed.
    """
    name, transport, binary = config
    cluster = Cluster(
        CLUSTER_A, n_client_nodes=n_clients, seed=seed, n_servers=n_servers
    )
    cluster.start_server(store_config=store_config or StoreConfig())
    pressure = store_config is not None
    evicted: dict[tuple[str, str], int] = {}
    for server_name, server in cluster.servers.items():
        def _hook(key, kind, _server=server_name):
            evicted[(key, _server)] = evicted.get((key, _server), 0) + 1

        server.store.on_evict = _hook
    clients = [
        cluster.sharded_client(transport, client_node=i, binary=binary)
        for i in range(n_clients)
    ]
    per_client = n_ops // n_clients
    streams = [
        generate_commands(
            seed * 1000 + i,
            per_client,
            n_keys=n_keys,
            concurrent=True,
            pressure=pressure,
        )
        for i in range(n_clients)
    ]

    chaos_log: list = []
    if chaos:
        schedule = random_schedule(
            seed, cluster.server_names, n_faults=3, horizon_us=400_000.0
        )
        controller = ChaosController(cluster, schedule).arm()
        chaos_log = controller.log

    depth = max(1, pipeline_depth)

    def driver(client, steps):
        """One client's stream, *depth* at a time.  The concurrent op
        surface has no token ops, so a step is its own command; every
        command is recorded individually whatever the window."""
        for start in range(0, len(steps), depth):
            try:
                yield from _issue(client, steps[start : start + depth], depth)
            except ServerDownError:
                # Retry budget exhausted mid-fault: recorded as lost.
                continue

    with recorder.recording():
        for client, stream in zip(clients, streams):
            cluster.sim.process(driver(client, stream))
        cluster.sim.run()
        records = list(recorder.records)
        digest = recorder.digest()

    check = check_history(records, by_server=True, evicted=evicted)
    return ConcurrentResult(
        config=name if pipeline_depth <= 1 else f"{name}/pipe{pipeline_depth}",
        check=check,
        digest=digest,
        n_records=len(records),
        chaos_log=chaos_log,
        evictions=sum(s.store.stats.evictions for s in cluster.servers.values()),
        oom_errors=sum(s.store.stats.oom_errors for s in cluster.servers.values()),
    )
