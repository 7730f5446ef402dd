"""The client library: a libmemcached-workalike over pluggable transports.

API shape follows libmemcached 0.45 (the version the paper benchmarks):
a client owns a server pool, distributes keys via modula or ketama
hashing or a ring (:mod:`repro.cluster.router`), optionally fails over
under a :class:`FailoverPolicy`, and exposes blocking operations.  All
operations are process helpers (``yield from client.get(...)``).

Every operation builds one transport-neutral
:class:`~repro.memcached.command.Command` and runs it through
:meth:`MemcachedClient.call` -- the single path that layers retry,
history recording, the ``client.<op>`` span, the hot cache, ring/gutter
routing and the one-sided ladder around the transport's ``execute``
(stage diagram: docs/ARCHITECTURE.md).  ``pipeline`` and ``get_multi``
share one batch path (route, record, group by server, fan out), and
every command of either ends in the same per-command finish as
``call``'s attempt.

The transport contract: ``execute(server, cmd, trace)`` runs one command
and returns its :class:`~repro.memcached.command.Reply`;
``execute_many(server, commands, window, trace)`` runs a window of more
than one command in flight and returns one ``Reply`` or exception per
command; per-server groups always run in parallel.  ``onesided_get`` is
an optional capability the client probes for.  Each transport family has
its own module: :mod:`repro.memcached.sockets_transport` (text and
binary), :mod:`repro.memcached.ucr_transport` (UCR active messages) and
:mod:`repro.memcached.onesided` (RDMA READ GETs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.check.history import recorder
from repro.memcached.command import Command, Reply
from repro.memcached.errors import (
    ClientError,
    ProtocolError,
    ServerDownError,
    ServerError,
)
from repro.telemetry import tracer


@dataclass(frozen=True)
class ClientCosts:
    """Client-library CPU costs per operation (µs, Clovertown baseline)."""

    key_hash_us: float = 0.40        # server selection hash
    build_text_us: float = 1.20      # format a text command
    parse_text_us: float = 1.00      # walk a text response
    build_ucr_us: float = 1.20       # fill a request struct
    parse_ucr_us: float = 0.80       # read a response struct
    onesided_issue_us: float = 0.30  # fill + post one RDMA READ WQE
    onesided_check_us: float = 0.20  # unpack + seqlock-validate an entry


DEFAULT_TIMEOUT_US = 1_000_000.0

#: Exception class -> history-record failure kind.
_ERROR_KIND = {
    ClientError: "client",
    ServerError: "server",
    ProtocolError: "protocol",
}

#: Ops whose issue must invalidate a client-local hot-cache entry
#: (write-through: any mutation, plus touch, which changes expiry).
_HOT_INVALIDATING_OPS = frozenset(
    {"set", "add", "replace", "append", "prepend", "cas",
     "delete", "incr", "decr", "touch"}
)

#: Storage ops whose exptime a gutter-bound write must clamp (the
#: gutter pool holds redirected keys only briefly; see
#: repro.memcached.serving.gutter).
_GUTTER_CLAMP_OPS = frozenset({"set", "add", "replace", "cas"})


def _ctx(span):
    """The TraceContext of *span*, or None when tracing is off."""
    return span.ctx if span is not None else None


def interpret(cmd: Command, reply: Reply):
    """Map a reply onto the blocking API's return value.  One
    interpretation for all transports -- the codecs already normalized
    the wire differences into the IR.  An error reply raises with the
    text protocol's taxonomy (every wire format preserves the
    CLIENT_ERROR vs SERVER_ERROR distinction; 'protocol' marks a
    rejected/unparseable exchange)."""
    if reply.status == "error":
        if reply.error_kind == "client":
            raise ClientError(reply.message)
        if reply.error_kind == "protocol":
            raise ProtocolError(reply.message)
        raise ServerError(reply.message)
    op = cmd.op
    if op in ("set", "add", "replace", "append", "prepend"):
        return reply.status == "stored"
    if op == "cas":
        return reply.status
    if op == "get":
        if len(cmd.keys) > 1:
            return {key: data for key, _flags, data, _cas in reply.values}
        return reply.values[0][2] if reply.values else None
    if op == "gets":
        if not reply.values:
            return None
        _key, _flags, data, cas = reply.values[0]
        return data, cas
    if op == "getl":
        if not reply.lease_state:
            # Fresh hit: exactly a get's return shape.
            return reply.values[0][2] if reply.values else None
        stale_value = reply.values[0][2] if reply.values else None
        return reply.lease_state, stale_value, reply.lease_token
    if op == "delete":
        return reply.status == "deleted"
    if op in ("incr", "decr"):
        return reply.number if reply.status == "number" else None
    if op == "touch":
        return reply.status == "touched"
    if op == "stats":
        return dict(reply.stats or {})
    if op == "version":
        return reply.message
    return None  # flush_all / noop acknowledgements


def _refuse_noreply(commands: list) -> None:
    """A blocking client waits for every reply, and a ``noreply`` command
    gets none: refuse it before anything is sent."""
    if any(cmd.noreply for cmd in commands):
        raise ClientError("noreply commands get no reply; the client waits for one")


def _record_args(cmd: Command) -> tuple:
    """The history-record args of *cmd* (the checker reads
    value/delta/exptime positionally)."""
    op = cmd.op
    if op in ("set", "add", "replace", "append", "prepend"):
        return (cmd.value,)
    if op == "cas":
        return (cmd.value, cmd.cas)
    if op in ("incr", "decr"):
        return (cmd.delta,)
    if op in ("touch", "flush_all"):
        return (cmd.exptime,)
    return ()


def _lease_notes(cmd: Command, result) -> tuple:
    """Checker annotations for a lease-protocol outcome (docs/SERVING.md):
    a ``getl`` miss verdict is lenient-but-ordered, a denied fill had no
    effect."""
    if cmd.op == "getl" and isinstance(result, tuple):
        notes = ("lease-won",) if result[0] == "won" else ("lease-lost",)
        return notes + ("stale",) if result[1] is not None else notes
    if cmd.lease_token and result is False:
        return ("lease-denied",)
    return ()


# ---------------------------------------------------------------------------
# Failover policy and shard health
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailoverPolicy:
    """How a :class:`MemcachedClient` reacts to shard failures.

    Timings are simulated microseconds.  The backoff sequence for one
    operation is ``backoff_base_us * backoff_multiplier**attempt``; the
    total attempt budget is ``1 + max_retries``.
    """

    #: Extra attempts after the first failure (bounded retry).
    max_retries: int = 3
    #: Sleep before the first retry.
    backoff_base_us: float = 100.0
    #: Exponential backoff growth per retry.
    backoff_multiplier: float = 2.0
    #: Consecutive failures on one shard before it is ejected from routing.
    eject_threshold: int = 2
    #: How long an ejected shard stays out before a rejoin probe may hit it.
    rejoin_after_us: float = 50_000.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.eject_threshold < 1:
            raise ValueError("eject_threshold must be >= 1")

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based)."""
        return self.backoff_base_us * self.backoff_multiplier**attempt


class _ShardHealth:
    """Client-local view of one shard's liveness."""

    __slots__ = ("consecutive_failures", "ejected_until", "ejections")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        #: Simulated time until which the shard is out of routing
        #: (None: in rotation).
        self.ejected_until: Optional[float] = None
        self.ejections = 0


# ---------------------------------------------------------------------------
# The client proper
# ---------------------------------------------------------------------------

#: Reads the client-local hot cache may answer / admit.
_HOT_LOOKUP_OPS = frozenset({"get", "getl"})

#: Reads the one-sided ladder may serve when the transport offers it (a
#: fresh ``getl`` hit needs no lease machinery).
_ONESIDED_OPS = frozenset({"get", "gets", "getl"})

#: Everything one command can die of; ``ServerDownError`` alone means
#: *lost* (effect unknown), the rest mean the server answered.
_OP_ERRORS = (ServerDownError, ClientError, ServerError, ProtocolError)


class MemcachedClient:
    """libmemcached-style blocking client over a server pool.

    Every public op method builds one :class:`Command` and returns
    :meth:`call` on it; ``pipeline`` and ``get_multi`` are multi-target
    and share one batch path (:meth:`_batch`) that differs only in the
    per-server send; ``flush_all`` visits every server in turn.  A
    blocking attempt and each batched command end in the same finish
    (:meth:`_finish`).

    *distribution* maps keys to servers (``server_for`` / ``servers`` /
    ``remove_server``: a :mod:`repro.cluster.router` distribution or a
    :class:`~repro.memcached.serving.GutterRouter`).  Under a *policy*
    (the paper's §IV-A corrective-action model, scaled to a pool), an
    operation that dies with :class:`ServerDownError` counts one failure
    against its shard, sleeps an exponentially growing backoff and
    retries, re-routed around the shards with ``policy.eject_threshold``
    consecutive failures (the ring walks on clockwise, so a dead shard's
    keys spread across every survivor).  An ejected shard rejoins after
    ``policy.rejoin_after_us`` (half-open: the next op routed there is
    the probe; one failure re-ejects it, one success clears the record).
    ``get_multi`` and ``pipeline`` do not retry but feed the same
    ledger, one count per command (per key of an mget), so one failed
    mget group of ``eject_threshold`` keys ejects its shard.
    The transport owns one endpoint per shard, so failover never tears
    down healthy connections.
    """

    def __init__(
        self,
        transport,
        distribution,
        policy: Optional[FailoverPolicy] = None,
        pipeline_depth: int = 1,
        hot_cache=None,
    ) -> None:
        self.transport = transport
        self.sim = transport.sim
        self.node = transport.node
        self.distribution = distribution
        #: Retry/ejection policy; None = one attempt per op, no ejection.
        self.policy = policy
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        #: Default in-flight window for :meth:`pipeline` (per connection).
        self.pipeline_depth = int(pipeline_depth)
        self.ops_issued = 0
        #: Operations that needed at least one retry.
        self.failovers = 0
        #: Operations that exhausted the attempt budget on a dead server.
        self.gave_up = 0
        #: Optional client-local probabilistic hot cache
        #: (:class:`repro.memcached.serving.ProbabilisticHotCache`);
        #: None keeps the op paths byte-identical to a cache-less client.
        self.hot_cache = hot_cache
        #: Shard -> health record, fed only under a policy.
        self._health: dict[str, _ShardHealth] = {}

    # -- the stages every op shares ---------------------------------------------------

    def _server_for(self, key: str) -> str:
        if self.policy is None:
            return self.distribution.server_for(key)
        return self.distribution.server_for(key, avoid=self.ejected_servers())

    def _route(self, cmd: Command):
        """Process helper: ``(server, command to send)`` for *cmd*, the
        key hashed to a server (charged CPU).

        Gutter-bound writes live briefly: their expiry is clamped so
        redirected keys cannot outstay the outage -- on a *copy*, so the
        caller's command (and a retry toward a primary) keeps its own.
        """
        yield from self.node.cpu_run(
            self.node.host.cpu_time(self.transport.costs.key_hash_us)
        )
        self.ops_issued += 1
        server = self._server_for(cmd.key)
        if cmd.op in _GUTTER_CLAMP_OPS:
            gutter_ttl = getattr(self.distribution, "gutter_ttl_s", None)
            if (
                gutter_ttl is not None
                and self.distribution.is_gutter(server)
                and (cmd.exptime == 0 or cmd.exptime > gutter_ttl)
            ):
                cmd = dataclasses.replace(cmd, exptime=gutter_ttl)
        return server, cmd

    def _invoke(self, cmd: Command):
        """Open *cmd*'s history record; None while recording is off.

        Zero-cost when checking is off (one attribute read, the tracer's
        contract; lint L007 enforces the guard).  Lease reads record as
        the ``get`` they refine, annotated on completion.
        """
        if not recorder.enabled:
            return None
        op = "get" if cmd.op == "getl" else cmd.op
        return recorder.invoke(self, op, cmd.key, _record_args(cmd), self.sim.now)

    def _settle(self, rec, server: Optional[str], outcome, notes: tuple = ()) -> None:
        """Close *rec* against *server*.  *outcome* is the op's result,
        or the exception that felled it: ``ServerDownError`` marks the
        operation *lost* (effect unknown), other memcached errors mark
        it *failed* (the server answered)."""
        if not recorder.enabled:
            return
        if isinstance(outcome, ServerDownError):
            recorder.lost(rec, self.sim.now, server)
        elif isinstance(outcome, Exception):
            recorder.fail(rec, _ERROR_KIND.get(type(outcome), "server"),
                          self.sim.now, server)
        else:
            recorder.complete(rec, outcome, self.sim.now, server, annotations=notes)

    def _finish(self, cmd: Command, server: Optional[str], reply, rec):
        """Close one command: hot-cache invalidate -> :func:`interpret`
        -> shard health -> settle its record.  *reply* is the
        :class:`Reply`, or the exception that felled the send; returns
        the op's result, or the exception that felled it.  Every op path
        -- :meth:`call`'s attempt and each command of a batch -- ends
        here."""
        if self.hot_cache is not None and cmd.op in _HOT_INVALIDATING_OPS:
            # Write-through invalidation: even a failed or lost mutation
            # may have executed server-side.
            self.hot_cache.invalidate(cmd.key)
        if not isinstance(reply, Exception):
            try:
                reply = interpret(cmd, reply)
            except _OP_ERRORS as exc:
                reply = exc
        self._note_health(server, reply)
        if rec is not None:
            self._settle(rec, server, reply, _lease_notes(cmd, reply))
        return reply

    # -- shard health --------------------------------------------------------------

    def ejected_servers(self) -> frozenset:
        """Shards currently out of routing (rejoin deadline not reached)."""
        now = self.sim.now
        out = set()
        for name, health in self._health.items():
            if health.ejected_until is not None:
                if now >= health.ejected_until:
                    # Rejoin probe window: back in rotation, failure
                    # record kept so one more failure re-ejects.
                    health.ejected_until = None
                else:
                    out.add(name)
        return frozenset(out)

    def _note_health(self, server: Optional[str], outcome) -> None:
        """Feed *server*'s record under a policy: ``ServerDownError``
        counts one consecutive failure (ejecting the shard at
        ``policy.eject_threshold``), a result clears the record, and
        other errors -- the server answered -- leave it alone."""
        policy = self.policy
        if policy is None or server is None:
            return
        if isinstance(outcome, ServerDownError):
            health = self._health.setdefault(server, _ShardHealth())
            health.consecutive_failures += 1
            if (
                health.consecutive_failures >= policy.eject_threshold
                and health.ejected_until is None
            ):
                health.ejected_until = self.sim.now + policy.rejoin_after_us
                health.ejections += 1
        elif not isinstance(outcome, Exception):
            health = self._health.setdefault(server, _ShardHealth())
            health.consecutive_failures = 0
            health.ejected_until = None

    def shard_health(self, server: str) -> tuple[int, Optional[float], int]:
        """(consecutive_failures, ejected_until, ejections) for tests/metrics;
        ``(0, None, 0)`` for a shard with no record."""
        h = self._health.get(server) or _ShardHealth()
        return h.consecutive_failures, h.ejected_until, h.ejections

    # -- the one op path ------------------------------------------------------------

    def call(self, cmd: Command, **span_attrs):
        """Process helper: run one keyed command; every blocking op is this.

        Stages, outermost first: attempt loop (budget from
        :attr:`policy`) -> history record -> hot-cache lookup ->
        ``client.<op>`` span -> route -> one-sided ladder (when the
        transport offers ``onesided_get``) -> ``transport.execute`` ->
        :meth:`_finish` (hot-cache invalidate, :func:`interpret`, shard
        health, record completion) -> hot-cache admit.  Each attempt is its own
        record and span against the shard it re-routed to.  The target
        and the checker annotations are locals, so processes sharing one
        client never see each other's; *cmd* is never mutated.
        """
        _refuse_noreply([cmd])
        op = cmd.op
        if op == "flush_all":  # pool-wide: nothing to route or retry
            return (yield from self.flush_all(cmd.exptime))
        key = cmd.key
        hc = self.hot_cache
        cacheable = hc is not None and op in _HOT_LOOKUP_OPS
        onesided = (
            getattr(self.transport, "onesided_get", None)
            if op in _ONESIDED_OPS
            else None
        )
        if onesided is not None:
            span_attrs["onesided"] = True
        policy = self.policy
        retries = policy.max_retries if policy is not None else 0
        for attempt in range(retries + 1):
            server = None
            rec = self._invoke(cmd)
            if cacheable:
                cached = hc.lookup(key, self.sim.now / 1e6)
                if cached is not None:
                    # Served client-locally: zero simulated time, no
                    # wire, no span.
                    if rec is not None:
                        self._settle(rec, "hot-cache", cached[0], ("cached",))
                    return cached[0]
            span = (
                tracer.begin(f"client.{op}", "client", self.sim.now,
                             key=key, **span_attrs)
                if tracer.enabled
                else None
            )
            try:
                server, routed = yield from self._route(cmd)
                reply = None
                if onesided is not None:
                    # None = the index could not prove the answer: fall
                    # down the ladder onto the RPC path.
                    reply = yield from onesided(server, key)
                if reply is None:
                    reply = yield from self.transport.execute(
                        server, routed, trace=_ctx(span)
                    )
            except _OP_ERRORS as exc:
                reply = exc
            finally:
                if tracer.enabled:
                    tracer.end(span, self.sim.now)
            result = self._finish(cmd, server, reply, rec)
            if isinstance(result, ServerDownError) and attempt < retries:
                self.failovers += attempt == 0
                yield self.sim.timeout(policy.backoff_us(attempt))
                continue
            if isinstance(result, Exception):
                self.gave_up += isinstance(result, ServerDownError)
                raise result
            if (
                cacheable
                and result is not None
                and not isinstance(result, tuple)  # a lease verdict, not a value
                and hc.admit(key)
            ):
                hc.store(key, result, 0, self.sim.now / 1e6)
            return result

    # -- storage ------------------------------------------------------------------

    def set(self, key: str, value: bytes, flags: int = 0, exptime: float = 0):
        cmd = Command(op="set", keys=[key], value=value, flags=flags, exptime=exptime)
        return self.call(cmd, nbytes=len(value))

    def add(self, key: str, value: bytes, flags: int = 0, exptime: float = 0):
        cmd = Command(op="add", keys=[key], value=value, flags=flags, exptime=exptime)
        return self.call(cmd, nbytes=len(value))

    def replace(self, key: str, value: bytes, flags: int = 0, exptime: float = 0):
        cmd = Command(op="replace", keys=[key], value=value, flags=flags,
                      exptime=exptime)
        return self.call(cmd, nbytes=len(value))

    def cas(self, key: str, value: bytes, cas_token: int, flags: int = 0, exptime: float = 0):
        """Returns 'stored' | 'exists' | 'not_found'."""
        cmd = Command(op="cas", keys=[key], value=value, flags=flags,
                      exptime=exptime, cas=cas_token)
        return self.call(cmd, nbytes=len(value))

    def set_with_lease(self, key: str, value: bytes, lease_token: int,
                       flags: int = 0, exptime: float = 0):
        """Fill *key* under a lease won by :meth:`get_lease`.

        The server validates *lease_token*: the value is stored only if
        the lease is still live (the key was not mutated, deleted or
        flushed since the lease was won, and the lease TTL has not
        elapsed).  Returns True iff stored; recorded as a ``set``, a
        denial carrying a ``lease-denied`` annotation (the fill had no
        effect).
        """
        cmd = Command(op="set", keys=[key], value=value, flags=flags,
                      exptime=exptime, lease_token=lease_token)
        return self.call(cmd, nbytes=len(value))

    def append(self, key: str, value: bytes):
        """Append to an existing value; True if the key was present."""
        return self.call(Command(op="append", keys=[key], value=value),
                         nbytes=len(value))

    def prepend(self, key: str, value: bytes):
        """Prepend to an existing value; True if the key was present."""
        return self.call(Command(op="prepend", keys=[key], value=value),
                         nbytes=len(value))

    # -- retrieval ------------------------------------------------------------------

    def get(self, key: str):
        """Returns the value bytes, or None on miss."""
        return self.call(Command(op="get", keys=[key]))

    def gets(self, key: str):
        """Returns (value, cas) or None."""
        return self.call(Command(op="gets", keys=[key]))

    def get_lease(self, key: str, stale_ok: bool = True):
        """Anti-dogpile get: a fresh value, or a lease verdict on miss.

        Returns the value bytes on a fresh hit (exactly :meth:`get`'s
        shape; on a one-sided transport the READ ladder serves it, no
        lease machinery needed when the value is live).  On miss returns
        ``(state, stale_value, token)``: ``state`` is ``"won"`` (this
        caller holds the regeneration lease -- fill via
        :meth:`set_with_lease` with *token*) or ``"lost"`` (another
        caller is already filling); *stale_value* is the
        expired-but-still-servable bytes when the server holds one
        inside its stale window and *stale_ok* was passed, else None.
        Recorded as a ``get`` with lease/staleness annotations so the
        history checker treats the miss leniently.
        """
        return self.call(Command(op="getl", keys=[key], stale_ok=stale_ok))

    def get_multi(self, keys: list[str]):
        """mget: {key: value} for hits, one multi-key get per server.

        The batch path :meth:`pipeline` takes, with one send per server
        group: a single multi-key get Command (the binary codec turns it
        into a GETKQ quiet batch closed by a NOOP -- misses produce no
        frame; text and UCR batch natively).  Each key is its own
        ``get`` in the operation history and in the shard-health ledger,
        completed at the end of the batch.  Nothing is retried: when a
        group failed, the mget raises the error of the first failed key
        in argument order, after every group has settled.
        """
        results = yield from self._batch(
            [Command(op="get", keys=[key]) for key in keys],
            self._send_mget, "client.get_multi", nkeys=len(keys),
        )
        for result in results:
            if isinstance(result, Exception):
                raise result
        return {key: got for key, got in zip(keys, results) if got is not None}

    def _send_mget(self, server: str, cmds: list, trace):
        """Process helper: one server's share of an mget as one multi-key
        get; per command, the reply narrowed to that key's hit (an error
        reply as it came), or the exception that felled the group."""
        try:
            reply = yield from self.transport.execute(
                server, Command(op="get", keys=[cmd.key for cmd in cmds]), trace=trace
            )
        except _OP_ERRORS as exc:
            return [exc] * len(cmds)
        hits = {entry[0]: entry for entry in reply.values}  # none on an error
        return [
            dataclasses.replace(reply, values=[hits[cmd.key]] if cmd.key in hits else [])
            for cmd in cmds
        ]

    # -- pipelining and the one batch path ------------------------------------------

    def pipeline(self, commands: list, depth: Optional[int] = None):
        """Process helper: issue keyed *commands* with up to *depth* in
        flight per server connection.

        Returns one entry per command, in order: the value the blocking
        method would have returned, or the exception that felled it
        (``ServerDownError`` marks a lost op -- its effect is unknown).
        Runs the batch path (:meth:`_batch`); each server's window goes
        through ``execute_many``, or through the blocking loop over
        ``execute`` at depth 1.  The caller's commands are not mutated.
        """
        if depth is None:
            depth = self.pipeline_depth
        depth = max(1, int(depth))

        def send(server, cmds, trace):
            """Process helper: one server's window, errors as entries."""
            if depth > 1:
                return (yield from self.transport.execute_many(
                    server, cmds, depth, trace=trace
                ))
            replies = []
            for cmd in cmds:
                try:
                    replies.append(
                        (yield from self.transport.execute(server, cmd, trace=trace))
                    )
                except _OP_ERRORS as exc:
                    replies.append(exc)
            return replies

        return (yield from self._batch(
            commands, send, "client.pipeline", nops=len(commands), depth=depth
        ))

    def _batch(self, commands: list, send, span_name: str, **span_attrs):
        """Process helper: the batch path ``pipeline`` and ``get_multi``
        share; one result or exception per command, in order.

        Route every command like a blocking one, open its record, group
        the commands by server and fan the groups out **in parallel**
        (libmemcached issues every request before collecting).
        ``send(server, cmds, trace)``
        is a process helper returning one ``Reply`` or exception per
        command and never raising, so no group process can fail.  Once
        every group has settled, each command goes through
        :meth:`_finish` in order: nothing is retried, every outcome feeds
        the shard-health ledger, and every record completes at the
        batch's end (batch-granular instants, sound for the checker,
        which treats widened intervals permissively).
        """
        _refuse_noreply(commands)
        span = (
            tracer.begin(span_name, "client", self.sim.now, **span_attrs)
            if tracer.enabled
            else None
        )
        try:
            routes = []
            for cmd in commands:
                routes.append((yield from self._route(cmd)))
            recs = [self._invoke(cmd) for cmd in commands]
            groups: dict[str, list[int]] = {}
            for idx, (server, _routed) in enumerate(routes):
                groups.setdefault(server, []).append(idx)
            sends = [
                send(server, [routes[i][1] for i in idxs], _ctx(span))
                for server, idxs in groups.items()
            ]
            parallel = len(sends) > 1
            if parallel:
                sends = [self.sim.process(work) for work in sends]
            outs = []
            for work in sends:
                outs.append((yield work) if parallel else (yield from work))
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)
        replies: dict = {}
        for idxs, out in zip(groups.values(), outs):
            replies.update(zip(idxs, out))
        return [
            self._finish(cmd, server, replies[i], rec)
            for i, ((server, cmd), rec) in enumerate(zip(routes, recs))
        ]

    # -- mutation -------------------------------------------------------------------

    def delete(self, key: str):
        """Remove *key*; True if it existed."""
        return self.call(Command(op="delete", keys=[key]))

    def incr(self, key: str, delta: int = 1):
        return self.call(Command(op="incr", keys=[key], delta=delta))

    def decr(self, key: str, delta: int = 1):
        return self.call(Command(op="decr", keys=[key], delta=delta))

    def touch(self, key: str, exptime: float):
        """Update *key*'s expiry; True if it existed."""
        return self.call(Command(op="touch", keys=[key], exptime=exptime))

    # -- admin ----------------------------------------------------------------------

    def flush_all(self, delay: float = 0.0):
        """Flush every server in the pool, one after the other."""
        rec = (
            recorder.invoke(self, "flush_all", None, (delay,), self.sim.now)
            if recorder.enabled
            else None
        )
        if self.hot_cache is not None:
            self.hot_cache.invalidate_all()
        span = (
            tracer.begin("client.flush_all", "client", self.sim.now)
            if tracer.enabled
            else None
        )
        cmd = Command(op="flush_all", exptime=delay)
        server = None
        try:
            for server in list(self.distribution.servers):
                reply = yield from self.transport.execute(
                    server, cmd, trace=_ctx(span)
                )
                interpret(cmd, reply)
        except _OP_ERRORS as exc:
            if rec is not None:
                self._settle(rec, server, exc)
            raise
        finally:
            if tracer.enabled:
                tracer.end(span, self.sim.now)
        if rec is not None:
            self._settle(rec, None, None)

    def stats(self, server: Optional[str] = None):
        """Stats from one server (default: the first in the pool)."""
        target = server or self.distribution.servers[0]
        cmd = Command(op="stats")
        reply = yield from self.transport.execute(target, cmd)
        return interpret(cmd, reply)
