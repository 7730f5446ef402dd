"""Operation histories on the sim clock + a linearizability checker.

Recording
---------

:data:`recorder` is a module-level singleton mirroring
``repro.telemetry.tracer``: disabled by default, and every call site in
the client is syntactically guarded on ``recorder.enabled`` (lint L007)
so recording is zero-cost when off.  The client wraps each blocking
operation, logging the invocation instant, the completion instant, and
the normalized outcome; operations that die with ``ServerDownError``
are marked **lost** (the request may or may not have executed), other
errors are **fail** (the server answered, with an error).

Checking
--------

:func:`check_history` is a Wing--Gong linearizability checker
specialized to memcached's per-key register/counter semantics.  Because
keys are independent registers (and, under failover, independent *per
server*), the global history factors into per-``(key, server)``
sub-histories that are checked separately -- which is what makes
multi-client histories check in milliseconds: the exponential term is
the per-key concurrency width, not the client count.

Semantics of lost operations follow the issue's failover contract:

- a lost operation MAY have executed (branch: apply its effect at any
  point after invocation) or may never have reached the server
  (branch: drop it) -- both linearizations are legal;
- a *phantom completion* -- an observed response that no linearization
  of the operations explains -- is a checker failure.

This module is deliberately dependency-free (stdlib only): the
memcached client imports it, so it must not import anything that
imports the client back.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

#: Completion instant of an operation still in flight (or lost).
INFINITY = float("inf")

#: Ops the specialized checker understands.  ``cas``, nonzero exptimes,
#: and ``flush_all`` have linearization points the per-key register
#: model cannot express compactly; concurrent workload generators avoid
#: them (see docs/CHECKING.md).
CHECKABLE_OPS = frozenset(
    {
        "set",
        "add",
        "replace",
        "append",
        "prepend",
        "get",
        "gets",
        "delete",
        "incr",
        "decr",
        "touch",
    }
)

#: Counter ceiling (uint64), matching the store and the model.
_COUNTER_LIMIT = 2**64

#: Key-validation limits, matching ``repro.memcached.store``.
_MAX_KEY_LENGTH = 250


def _invalid_key(key: Optional[str]) -> bool:
    return not key or len(key) > _MAX_KEY_LENGTH or any(c in key for c in " \r\n\t\0")


@dataclass
class OpRecord:
    """One client operation: invocation, completion, normalized outcome."""

    op_id: int
    client: int  # stable per-recording client index (first-invoke order)
    op: str
    key: Optional[str]
    args: tuple  # op-specific: value/flags/exptime/delta/...
    invoked_us: float
    server: Optional[str] = None
    completed_us: Optional[float] = None  # None while pending / when lost
    status: str = "pending"  # pending | complete | fail | lost
    outcome: Any = None  # normalized result; ("error", kind) for fail
    #: Serving-layer riders ("lease-won", "lease-lost", "lease-denied",
    #: "stale", "cached"): the op was served outside strict register
    #: semantics (a stale value, a client-local cache, a refused lease
    #: fill) and the checker treats it leniently (observed, no effect).
    annotations: tuple = ()

    @property
    def completion_instant(self) -> float:
        return self.completed_us if self.completed_us is not None else INFINITY


class HistoryRecorder:
    """The module singleton behind ``recorder``.

    Call sites MUST guard on :attr:`enabled` (lint L007 checks this
    syntactically), the same zero-cost-when-disabled contract as the
    telemetry tracer.
    """

    __slots__ = ("enabled", "records", "_next_op_id", "_client_index")

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[OpRecord] = []
        self._next_op_id = 0
        self._client_index: dict[int, int] = {}

    def clear(self) -> None:
        """Drop all records and restart op/client numbering."""
        self.records = []
        self._next_op_id = 0
        self._client_index = {}

    def _client_id(self, client: object) -> int:
        """A stable small index for *client* (first-invoke order, which
        is deterministic under the DES)."""
        idx = self._client_index.get(id(client))
        if idx is None:
            idx = len(self._client_index)
            self._client_index[id(client)] = idx
        return idx

    # -- recording hooks (called from the client, guarded) -------------------

    def invoke(
        self,
        client: object,
        op: str,
        key: Optional[str],
        args: tuple,
        now_us: float,
    ) -> OpRecord:
        """Open a pending record at the op's invocation instant."""
        rec = OpRecord(
            op_id=self._next_op_id,
            client=self._client_id(client),
            op=op,
            key=key,
            args=args,
            invoked_us=now_us,
        )
        self._next_op_id += 1
        self.records.append(rec)
        return rec

    def complete(
        self,
        rec: OpRecord,
        outcome: Any,
        now_us: float,
        server: Optional[str],
        annotations: tuple = (),
    ) -> None:
        """Close *rec* with a successful response."""
        rec.status = "complete"
        rec.outcome = outcome
        rec.completed_us = now_us
        rec.server = server
        if annotations:
            rec.annotations = tuple(annotations)

    def fail(
        self, rec: OpRecord, kind: str, now_us: float, server: Optional[str]
    ) -> None:
        """The server answered with an error: still a completion."""
        rec.status = "fail"
        rec.outcome = ("error", kind)
        rec.completed_us = now_us
        rec.server = server

    def lost(self, rec: OpRecord, now_us: float, server: Optional[str]) -> None:
        """The operation died with ServerDownError: effect unknown."""
        rec.status = "lost"
        rec.completed_us = None
        rec.server = server

    # -- scoped recording ----------------------------------------------------

    @contextmanager
    def recording(self):
        """Enable recording for a ``with`` block, starting fresh."""
        self.clear()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    # -- deterministic digest ------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the canonicalized history.

        CAS tokens come from a process-global counter, so raw values
        depend on everything that ran earlier in the process; they are
        canonicalized to first-occurrence indices so the same logical
        history digests identically across runs and processes.
        """
        return history_digest(self.records)


recorder = HistoryRecorder()


def _canonical_outcome(outcome: Any, cas_map: dict[int, int]) -> Any:
    """JSON-able outcome with cas tokens renamed by first occurrence."""
    if isinstance(outcome, bytes):
        return outcome.decode("latin-1")
    if isinstance(outcome, tuple) and len(outcome) == 2 and isinstance(outcome[1], int):
        # A gets() hit: (value, cas).
        value, cas = outcome
        token = cas_map.setdefault(cas, len(cas_map))
        return [_canonical_outcome(value, cas_map), f"cas#{token}"]
    if isinstance(outcome, tuple):
        return [_canonical_outcome(x, cas_map) for x in outcome]
    return outcome


def history_digest(records: Iterable[OpRecord]) -> str:
    """See :meth:`HistoryRecorder.digest`."""
    cas_map: dict[int, int] = {}
    rows = []
    for rec in records:
        args = tuple(
            a.decode("latin-1") if isinstance(a, bytes) else a for a in rec.args
        )
        row = [
            rec.op_id,
            rec.client,
            rec.op,
            rec.key,
            list(args),
            rec.invoked_us,
            rec.completed_us,
            rec.status,
            rec.server,
            _canonical_outcome(rec.outcome, cas_map),
        ]
        if rec.annotations:
            # Appended only when present, so annotation-free histories
            # digest bit-identically to recordings made before the
            # serving layer existed.
            row.append(list(rec.annotations))
        rows.append(row)
    blob = json.dumps(rows, sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The Wing--Gong checker
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of checking one recorded history."""

    ok: bool
    #: (key, server) groups that failed, with a human-readable reason.
    failures: list[tuple[str, Optional[str], str]] = field(default_factory=list)
    #: (key, server) groups that linearize *only* by spending eviction
    #: budget: correct under pressure, ambiguous without it.
    evictable: list[tuple[Optional[str], Optional[str]]] = field(default_factory=list)
    #: Number of (key, server) sub-histories checked.
    groups: int = 0
    #: Total operations examined.
    ops: int = 0


def _effect(op: str, args: tuple, state: Optional[bytes]) -> Optional[bytes]:
    """The state after *op* executes against *state* (outcome ignored);
    used for lost operations, whose result was never observed."""
    if op in ("set",):
        return args[0]
    if op == "add":
        return args[0] if state is None else state
    if op == "replace":
        return args[0] if state is not None else state
    if op == "append":
        return state + args[0] if state is not None else None
    if op == "prepend":
        return args[0] + state if state is not None else None
    if op == "delete":
        return None
    if op in ("incr", "decr"):
        if state is None or not state.isdigit() or int(state) >= _COUNTER_LIMIT:
            return state
        delta = args[0]
        if op == "incr":
            return str((int(state) + delta) % _COUNTER_LIMIT).encode()
        return str(max(0, int(state) - delta)).encode()
    if op in ("get", "gets", "touch"):
        return state
    raise ValueError(f"op {op!r} not supported by the checker")


def _transition(rec: OpRecord, state: Optional[bytes]):
    """(valid, new_state) for a *completed* operation: does the observed
    outcome agree with executing *rec* against *state*?"""
    op, args, outcome = rec.op, rec.args, rec.outcome
    if _invalid_key(rec.key):
        # An invalid key can never hold state.  Every op on it must fail
        # client-side -- except touch, which skips store-side key
        # validation and reads as a plain miss.  A success here is a
        # validation bypass and fails the check.
        if op == "touch":
            return rec.status != "fail" and outcome is False, state
        return rec.status == "fail" and outcome == ("error", "client"), state
    if rec.annotations:
        # Serving-layer record: a stale/lease-annotated miss, a
        # client-cached read or a denied lease fill.  None of these are
        # register transitions (expiry and client-local caching have no
        # register semantics), so accept the observation without effect.
        return True, state
    if rec.status == "fail":
        # Only arithmetic has a state-dependent client error we model:
        # incr/decr on a present non-numeric (or over-wide) value.
        if op in ("incr", "decr") and outcome == ("error", "client"):
            bad = state is not None and (
                not state.isdigit() or int(state) >= _COUNTER_LIMIT
            )
            return bad, state
        # Other failures (e.g. a server-side error) are state-independent
        # from the register's point of view: accept without effect.
        return True, state
    if op == "set":
        return outcome is True, args[0]
    if op == "add":
        if state is None:
            return outcome is True, args[0]
        return outcome is False, state
    if op == "replace":
        if state is None:
            return outcome is False, state
        return outcome is True, args[0]
    if op == "append":
        if state is None:
            return outcome is False, state
        return outcome is True, state + args[0]
    if op == "prepend":
        if state is None:
            return outcome is False, state
        return outcome is True, args[0] + state
    if op == "get":
        return outcome == state, state
    if op == "gets":
        if state is None:
            return outcome is None, state
        # Outcome is (value, cas): tokens are unverifiable against the
        # register model, so only the value is compared.
        return (
            isinstance(outcome, tuple) and outcome[0] == state,
            state,
        )
    if op == "delete":
        if state is None:
            return outcome is False, state
        return outcome is True, None
    if op in ("incr", "decr"):
        if state is None:
            return outcome is None, state
        if not state.isdigit() or int(state) >= _COUNTER_LIMIT:
            return False, state  # would have raised, not returned
        delta = args[0]
        if op == "incr":
            expect = (int(state) + delta) % _COUNTER_LIMIT
        else:
            expect = max(0, int(state) - delta)
        return outcome == expect, str(expect).encode()
    if op == "touch":
        # Checkable histories only touch with exptime=0 (no expiry in
        # the register model): a pure existence probe.
        return (outcome is True) == (state is not None), state
    raise ValueError(f"op {op!r} not supported by the checker")


def _check_group(records: list[OpRecord], evict_budget: int = 0) -> Optional[str]:
    """Check one (key, server) sub-history; None if linearizable, else a
    reason string.

    Iterative Wing--Gong search: a depth-first walk over partial
    linearizations, where the next operation must be *minimal* (invoked
    before every other pending operation's completion), memoized on
    (set-of-linearized-ops, register state, evictions spent).  Worst
    case is exponential in the concurrency width; with memoization it is
    linear in history length for sequential segments.

    *evict_budget* is the eviction-aware specification: the store
    reported destroying this key's value that many times (LRU eviction,
    expired reap or unlink-first loss), so the search may spontaneously
    drop the register to None up to that many times, at any point --
    evictions are server-internal and carry no client-visible interval.
    """
    n = len(records)
    if n == 0:
        return None
    inv = [r.invoked_us for r in records]
    comp = [r.completion_instant for r in records]

    seen: set[tuple[frozenset, Optional[bytes], int]] = set()
    # Each stack entry: (done frozenset, state, evictions spent).
    stack: list[tuple[frozenset, Optional[bytes], int]] = [(frozenset(), None, 0)]
    while stack:
        done, state, spent = stack.pop()
        if len(done) == n:
            return None
        key_ = (done, state, spent)
        if key_ in seen:
            continue
        seen.add(key_)
        if state is not None and spent < evict_budget:
            # Spend one store-reported eviction: the register drops.
            stack.append((done, None, spent + 1))
        pending = [i for i in range(n) if i not in done]
        horizon = min(comp[i] for i in pending)
        for i in pending:
            if inv[i] > horizon:
                continue  # not minimal: someone completed before it began
            rec = records[i]
            if rec.status == "lost":
                # Branch 1: the request never executed.
                stack.append((done | {i}, state, spent))
                # Branch 2: it executed (at some admissible point).
                # Invalid keys have no effect branch: validation rejects
                # the op before it touches state.
                if not _invalid_key(rec.key):
                    stack.append(
                        (done | {i}, _effect(rec.op, rec.args, state), spent)
                    )
            else:
                ok, new_state = _transition(rec, state)
                if ok:
                    stack.append((done | {i}, new_state, spent))
    first = records[0]
    budget_note = f" (eviction budget {evict_budget})" if evict_budget else ""
    return (
        f"no linearization explains {n} ops on key {first.key!r}"
        f" (server {first.server}){budget_note};"
        f" first op: {first.op} by client {first.client}"
    )


def check_history(
    records: Iterable[OpRecord],
    by_server: bool = True,
    evicted: Optional[dict[tuple[Optional[str], Optional[str]], int]] = None,
) -> CheckResult:
    """Check a recorded multi-client history for per-key linearizability.

    With ``by_server=True`` (the default), sub-histories group by
    ``(key, server)``: under failover a key's operations legitimately
    land on different shards, and each shard is its own register.  Pass
    ``by_server=False`` for single-server histories where rerouting
    would itself be a bug.

    *evicted* maps ``(key, server)`` to the number of times the store
    reported destroying that key's value under memory pressure (from
    the ``ItemStore.on_evict`` hook).  A group that only linearizes by
    spending that budget gets the **evictable** verdict: it is listed in
    ``CheckResult.evictable`` but still passes.  Every group is first
    checked with budget 0, so the verdict distinguishes plainly
    linearizable histories from pressure-ambiguous ones -- and a missing
    key with *no* reported eviction remains a hard failure.
    """
    groups: dict[tuple, list[OpRecord]] = {}
    ops = 0
    for rec in records:
        if rec.status == "pending":
            continue  # never completed and never declared lost: ignore
        if rec.op not in CHECKABLE_OPS:
            raise ValueError(
                f"op {rec.op!r} is outside the checkable surface "
                f"({sorted(CHECKABLE_OPS)}); filter the history first"
            )
        if rec.op == "touch" and rec.args and rec.args[0] != 0:
            raise ValueError(
                "touch with nonzero exptime is not checkable "
                "(expiry has no register semantics); filter the history first"
            )
        ops += 1
        group = (rec.key, rec.server if by_server else None)
        groups.setdefault(group, []).append(rec)

    result = CheckResult(ok=True, groups=len(groups), ops=ops)
    for (key, server), recs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        recs.sort(key=lambda r: (r.invoked_us, r.op_id))
        reason = _check_group(recs)
        if reason is None:
            continue
        budget = (evicted or {}).get((key, server if by_server else None), 0)
        if budget > 0 and _check_group(recs, evict_budget=budget) is None:
            result.evictable.append((key, server))
            continue
        result.ok = False
        result.failures.append((key, server, reason))
    return result
