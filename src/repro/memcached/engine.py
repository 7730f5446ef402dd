"""The single command execution engine behind every wire frontend.

All three server frontends (text, binary, UCR AM handlers) decode their
wire format into a :class:`~repro.memcached.command.Command` and run
``MemcachedServer.execute``, this engine's one caller, which runs it
against the :class:`~repro.memcached.store.ItemStore` here and gets one
:class:`~repro.memcached.command.Reply`.  ``apply`` is pure Python -- it
never yields -- so each format's row decides where simulated CPU time
and memcpys are charged (the per-protocol cost structure is the point
of the paper's comparison and must not be homogenized here).

Errors never escape: ``apply`` is total, catching the store's
``ClientError``/``ServerError`` and reporting them as error replies so
wire codecs can map one taxonomy to their native status spaces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memcached.command import Command, Reply
from repro.memcached.errors import ClientError, ServerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memcached.server import MemcachedServer

#: Reply statuses after which the key's index entry is the one its own
#: command published (a delete leaves none; a refused command, another's).
_PUBLISHING = frozenset({"stored", "touched", "number"})


class CommandEngine:
    """Executes IR commands against one server's store."""

    def __init__(self, server: "MemcachedServer") -> None:
        self.server = server

    def apply(self, cmd: Command) -> Reply:
        """Run one command; always returns a Reply (never raises).

        A command that stored, touched or re-stored its key reports the
        key's published one-sided index entry when it asks for it
        (``want_entry``): read here, so it is the entry as of the
        linearization point.
        """
        try:
            reply = self._dispatch(cmd)
        except ClientError as exc:
            return Reply("error", message=str(exc), error_kind="client")
        except ServerError as exc:
            return Reply("error", message=str(exc), error_kind="server")
        if cmd.want_entry and reply.status in _PUBLISHING:
            index = self.server.store.onesided
            reply.entry = index.published(cmd.key) if index is not None else None
        return reply

    def _dispatch(self, cmd: Command) -> Reply:
        store = self.server.store
        op = cmd.op
        if op in ("get", "gets"):
            entries = []
            for key in cmd.keys:
                item = store.get(key)
                if item is not None:
                    entries.append((item.key, item.flags, item, item.cas))
            return Reply("values", values=entries)
        if op == "getl":
            state, item, token = store.getl(cmd.key, cmd.stale_ok)
            values = [(item.key, item.flags, item, item.cas)] if item else []
            if state == "hit":
                return Reply("values", values=values)
            return Reply("values", values=values, lease_state=state,
                         lease_token=token, stale=item is not None)
        if op in ("set", "add", "replace", "append", "prepend", "cas"):
            return self._storage(store, cmd, op)
        if op == "delete":
            return Reply("deleted" if store.delete(cmd.key) else "not_found")
        if op in ("incr", "decr"):
            return self._arith(store, cmd, op)
        if op == "touch":
            return Reply("touched" if store.touch(cmd.key, cmd.exptime) else "not_found")
        if op == "flush_all":
            store.flush_all(cmd.exptime)
            return Reply("ok")
        if op == "stats":
            sub = cmd.keys[0] if cmd.keys else ""
            if sub == "slabs":
                return Reply("stats", stats=store.slab_stats_detail())
            if sub == "items":
                return Reply("stats", stats=store.item_stats_detail())
            if sub == "settings":
                return Reply("stats", stats=store.settings_dict())
            return Reply("stats", stats=self.server.stats_dict())
        if op == "version":
            return Reply("version", message=self.server.VERSION)
        if op == "noop":
            return Reply("ok")
        return Reply("error", message=f"unknown op {op!r}",
                     error_kind="client", detail="unknown")

    def _storage(self, store, cmd: Command, op: str) -> Reply:
        # A two-phase UCR set arrives with its slab chunk reserved by the
        # header handler (the value already landed in it).
        reserved, cmd.reserved_item = cmd.reserved_item, None
        if (cmd.lease_token and op in ("set", "add", "replace")
                and not store.leases.validate(cmd.key, cmd.lease_token)):
            # A lease-carrying fill whose token is no longer live (the
            # key was mutated, deleted or flushed since the lease was
            # won, or the lease TTL elapsed): refuse the stale fill.
            if reserved is not None:
                store.abandon(reserved)
            return Reply("not_stored")
        status, item = store.store(op, cmd.key, cmd.value, cmd.flags, cmd.exptime,
                                   cmd.cas, reserved)
        return Reply(status, cas=item.cas if item else 0)

    def _arith(self, store, cmd: Command, op: str) -> Reply:
        binary = cmd.want_cas_token
        if binary:
            # An invalid key fails here, as a plain client error
            # (INVALID_ARGUMENTS on the binary wire).
            store.validate_key(cmd.key)
        try:
            value, item = store.arith(cmd.key, cmd.delta if op == "incr" else -cmd.delta)
        except ClientError as exc:
            if not binary:
                raise
            # Only arithmetic distinguishes NON_NUMERIC on the binary
            # wire; the detail channel carries that through the IR.
            return Reply("error", message=str(exc), error_kind="client",
                         detail="non_numeric")
        if value is None:
            # Text/UCR never auto-create (create_exptime is None): a miss
            # is not_found.  Binary seeds the counter with *initial*.
            if cmd.create_exptime is None:
                return Reply("not_found")
            item = store.set(cmd.key, str(cmd.initial).encode(), 0, cmd.create_exptime)
            value = cmd.initial
        return Reply("number", number=value, cas=item.cas)
