"""The one-sided GET transport: RDMA READs against the exported index.

:class:`OneSidedTransport` extends the active-message
:class:`~repro.memcached.ucr_transport.UcrTransport` with a zero-server-CPU
read path: a first GET/gets READs the key's whole window of the
server's exported index (``WINDOW`` slots from its home bucket, one
contiguous READ) and finds its slot by the 8-byte ``key_hash`` field,
then fetches the value with a second READ straight out of the
registered slab page: ``value_length + STAMP_BYTES`` bytes, the value
and the stamp the server keeps behind it.  The fetch is accepted only
if the entry was stable (even version) and the stamp equals the entry's
``(version, key_hash, cas)`` -- the client side of the server's
discipline: a stamp is valid only while its item is published under
exactly that version, and the READ reads it after the value, so a
mutation of the entry can never be *served*, only retried.  A first hit
is two READs in two round trips.

A repeat GET skips the window READ.  The transport remembers, per
server, the slot each key was last served from, with the entry it was
served under; it posts the stamped fetch from the remembered location:
one READ in one round trip.  A stamp that still equals the remembered
entry proves that entry still publishes the value.  An own command
through :meth:`execute` that can change its key's entry asks the server
for the entry it published (``want_entry`` on the command its request
carries) and remembers exactly the ``entry`` its reply carried, so the
GET after an own write is a remembered hit too.  A stale stamp names no
fresh entry, so the GET probes the slot and fetches again; a slot whose
remembered fetch once found its stamp stale posts the 64-byte slot probe
behind each later fetch (RC executes a QP's READs in post order, so the
probe reads the entry after the fetch read the stamp), and a stale stamp
then restarts the ladder from the probe without another round trip.  A
slot that shows another key's hash was reused: the key may sit elsewhere
in its window, so the GET READs the window again.

Everything the index cannot prove falls down a ladder onto the RPC
path, which is authoritative:

1. **absent** -- no slot of the key's window holds its hash.
   Displacement from a full window means absence from the index never
   proves absence from the cache, so this is a fallback, not a miss.
2. **expired** -- the entry's deadline (exptime/flush horizon) passed.
   Expiry is lazy server-side state; the RPC path applies it.
3. **oversize** -- the value exceeds the client's one-sided read budget.
4. **torn** -- the entry kept moving for ``max_read_retries``
   attempts (a write-hot key); stop burning READs and ask the server.

There is no one-sided client class: :meth:`OneSidedTransport.execute`
tries the ladder for every single-key get/gets/getl it is handed -- a
blocking op, each command of a pipelined window or a depth-1 pipeline,
a one-key mget group -- and returns a hit as an ordinary
:class:`~repro.memcached.command.Reply`, which the client interprets
like an RPC reply.  Every other command (a multi-key get included) uses
the inherited active-message path, so linearizability semantics are
preserved: a one-sided hit linearizes at the instant its fetch reads
the stamp, and every fallback is an ordinary RPC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.buffers import BufferPool
from repro.core.endpoint import _SendCompletionCookie
from repro.core.errors import EndpointClosed, UcrTimeout
from repro.memcached import protocol_ucr as ucrp
from repro.memcached.client import ClientCosts, DEFAULT_TIMEOUT_US
from repro.memcached.command import Command, Reply
from repro.memcached.onesided.index import IndexDescriptor
from repro.memcached.onesided.layout import (
    ENTRY_BYTES,
    STAMP_BYTES,
    WINDOW,
    WINDOW_BYTES,
    entry_offset,
    find_slot,
    hash64,
    stamp_of,
    unpack_entry,
)
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.ucr_transport import UcrTransport
from repro.verbs.enums import Opcode
from repro.verbs.wr import SendWR, Sge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import UcrContext

#: Commands that can change their key's index entry: each asks for the
#: entry it published (``Command.want_entry``, carried in its request).
_ENTRY_OPS = frozenset({
    "set", "add", "replace", "cas", "append", "prepend",
    "incr", "decr", "touch", "delete",
})

#: Single-key reads the one-sided ladder may serve (a fresh ``getl``
#: hit needs no lease machinery).
_LADDER_OPS = frozenset({"get", "gets", "getl"})

#: Values above this are fetched over RPC instead (one landing buffer
#: per in-flight one-sided GET is pinned at this size).
DEFAULT_MAX_ONESIDED_BYTES = PAGE_BYTES // 4


class OneSidedTransport(UcrTransport):
    """Active messages plus the one-sided READ path (see module doc)."""

    #: The one-sided read budget: larger values take the RPC path.
    max_value_bytes = DEFAULT_MAX_ONESIDED_BYTES
    #: Torn reads retried before the GET falls back to RPC.
    max_read_retries = 3

    def __init__(
        self,
        context: "UcrContext",
        costs: ClientCosts = ClientCosts(),
        timeout_us: float = DEFAULT_TIMEOUT_US,
    ) -> None:
        super().__init__(context, costs, timeout_us)
        self._descriptors: dict[str, IndexDescriptor] = {}
        #: Landing buffers for in-flight READs (concurrent GETs each
        #: check out their own).
        self.landings = BufferPool(
            self.runtime.pd,
            max(WINDOW_BYTES, ENTRY_BYTES + self.max_value_bytes + STAMP_BYTES),
            name=f"{self.runtime.name}.onesided",
        )
        self.onesided_hits = 0
        #: Hits fetched from a remembered entry (one round trip).
        self.remembered_hits = 0
        self.onesided_reads = 0
        self.torn_retries = 0
        #: Remembered entries whose fetch found the stamp stale.
        self.stale_entries = 0
        #: server -> slot -> (key hash, the 64-byte entry last served
        #: there or carried by an own command's reply, whether the slot's
        #: fetches post the slot probe behind them): at most one per slot
        #: of the server's index, no eviction.
        self._confirmed: dict[str, dict[int, tuple[int, bytes, bool]]] = {}
        #: Fallback reason -> count ('absent'/'expired'/'oversize'/'torn').
        self.fallbacks: dict[str, int] = {}

    def add_index(self, server: str, descriptor: IndexDescriptor) -> None:
        """Register *server*'s exported-index advertisement."""
        self._descriptors[server] = descriptor

    # -- the raw READs -----------------------------------------------------

    def _reads(self, server, landing, *reads):
        """Process helper: post each ``(rkey, remote_offset, length,
        landing_offset)`` READ back to back, then wait for all of them --
        one round trip however many.  Returns the landed bytes in order.

        The completion cookie's counter fires when a response lands (data
        already scattered), mirroring the rendezvous machinery.  Each
        counter's target is taken at post time: a later READ may land
        before an earlier one is waited on.  A failed wait destroys its
        counters instead of pooling them: a READ still in flight completes
        late, and a pooled counter would wake the next GET early.
        """
        ep = None
        posted = []
        try:
            for rkey, remote_offset, length, landing_offset in reads:
                yield from self.node.cpu_run(
                    self.node.host.cpu_time(self.costs.onesided_issue_us)
                )
                if ep is None:
                    ep = yield from self.endpoint(server)
                counter = self._checkout_counter()
                posted.append((counter, counter.value + 1))
                cookie = _SendCompletionCookie(
                    kind="onesided-read", endpoint=ep, origin_counter=counter
                )
                ep._post(SendWR(
                    opcode=Opcode.RDMA_READ,
                    sge=Sge(landing, landing_offset, length),
                    remote_rkey=rkey,
                    remote_offset=remote_offset,
                    signaled=True,
                    context=cookie,
                ))
            for counter, target in posted:
                yield from counter.wait_for(target, timeout_us=self.timeout_us)
        except (UcrTimeout, EndpointClosed) as exc:
            for counter, _ in posted:
                self.runtime.destroy_counter(counter)
            raise self._server_down(server, ep, exc) from exc
        for counter, _ in posted:
            self._checkin_counter(counter)
        self.onesided_reads += len(reads)
        return [landing.read(at, length) for _, _, length, at in reads]

    # -- the command path --------------------------------------------------

    def execute(self, server: str, cmd: Command, trace=None):
        """Process helper: one command, one reply.

        A single-key get/gets/getl first runs the one-sided ladder
        (:meth:`onesided_get`); a fallback -- the index could not prove
        the answer -- takes the inherited RPC.  A command that can change
        its key's index entry asks for the entry it published, and the
        key's remembered slot becomes exactly what the reply carried:
        the GET after an own write is a remembered hit.  A reply with no
        entry, a ``noreply`` command or a failed round trip forgets the
        key's slot.  An RPC read or a keyless command leaves every
        remembered entry alone.
        """
        if cmd.op in _LADDER_OPS and len(cmd.keys) == 1:
            reply = yield from self.onesided_get(server, cmd.key)
            if reply is not None:
                return reply
        if cmd.op not in _ENTRY_OPS:
            return (yield from super().execute(server, cmd, trace=trace))
        request = ucrp.McRequest(ucrp.carried(cmd), trace=trace)
        request.cmd.want_entry = not cmd.noreply
        entry = None
        try:
            reply = ucrp.response_to_reply(
                *(yield from self.roundtrip(server, request, cmd.value)))
            entry = reply.entry
        finally:
            self._remember(server, cmd.key, entry)
        return reply

    def _remember(self, server: str, key: str, entry) -> None:
        """Remember *entry* -- ``(position in the window, 64 bytes)`` --
        as *key*'s, or forget *key*'s slot when it is None.  A slot that
        stays remembered keeps its READ plan."""
        desc = self._descriptors.get(server)
        if desc is None:
            return
        confirmed = self._confirmed.setdefault(server, {})
        want = hash64(key)
        home = want % desc.n_buckets
        slot, _, paired = _recall(confirmed, home, want)
        if slot is not None:
            del confirmed[slot]
        if entry is not None:
            at, raw = entry
            confirmed[home + at] = (want, raw, paired and slot == home + at)

    # -- the one-sided GET protocol ----------------------------------------

    def _fall(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def _refusal(self, entry):
        """The fallback reason *entry*, which holds the key's hash, gives,
        or None when it can be fetched."""
        if entry.deadline_us and self.sim.now >= entry.deadline_us:
            return "expired"
        if entry.value_length > self.max_value_bytes:
            return "oversize"
        return None

    def onesided_get(self, server: str, key: str):
        """Process helper: find *key*'s slot, then fetch value + stamp, on
        *server*.

        A slot where this transport last served *key* skips the window
        READ: the stamped fetch from the remembered location is the whole
        GET.  A stale stamp sends the GET to the slot's entry, and marks
        the slot: its later fetches post the slot probe behind them, so a
        stale stamp there restarts the ladder from the probe without
        another round trip.

        Returns the hit as the :class:`Reply` a get/gets RPC would have
        produced, or None after counting the fallback reason (the caller
        asks the server); raises :class:`ServerDownError` if the
        endpoint dies mid-read.
        """
        desc = self._descriptors.get(server)
        if desc is None:
            return self._fall("absent")
        # A READ that failed may still land: its buffer is dropped, not
        # pooled, so the late scatter cannot reach another GET's bytes.
        landing = self.landings.get()
        reply = yield from self._ladder(server, key, desc, landing.mr)
        landing.release()
        return reply

    def _ladder(self, server: str, key: str, desc: IndexDescriptor, landing):
        """Process helper: :meth:`onesided_get`'s READs into *landing*."""
        want = hash64(key)
        home = want % desc.n_buckets
        check_us = self.node.host.cpu_time(self.costs.onesided_check_us)
        confirmed = self._confirmed.setdefault(server, {})
        slot, raw, paired = _recall(confirmed, home, want)
        if raw is not None and self._refusal(unpack_entry(raw)) is not None:
            raw = None
        remembered = raw is not None
        torn = 0
        while torn <= self.max_read_retries:
            if slot is None:
                window = (desc.index_rkey, entry_offset(home), WINDOW_BYTES, 0)
                (seen,) = yield from self._reads(server, landing, window)
                yield from self.node.cpu_run(check_us)
                at = find_slot(seen, want)
                if at is None:
                    return self._fall("absent")
                slot = home + at
                raw = seen[at * ENTRY_BYTES:(at + 1) * ENTRY_BYTES]
            probe = (desc.index_rkey, entry_offset(slot), ENTRY_BYTES, 0)
            if raw is None:
                (raw,) = yield from self._reads(server, landing, probe)
                yield from self.node.cpu_run(check_us)
            entry = unpack_entry(raw)
            if not entry.stable:
                self.torn_retries += 1  # mid-mutation: spin again
                torn += 1
                raw = None
                continue
            if entry.key_hash != want:
                # The slot was reused; the key may sit elsewhere in its window.
                confirmed.pop(slot, None)
                slot = raw = None
                paired = False
                continue
            reason = self._refusal(entry)
            if reason is not None:
                return self._fall(reason)
            length = entry.value_length
            fetch = (entry.value_rkey, entry.value_offset,
                     length + STAMP_BYTES, ENTRY_BYTES)
            if paired:
                # RC executes the two in post order: the probe reads the
                # entry after the fetch read the stamp.
                fetched, probed = yield from self._reads(server, landing, fetch, probe)
            else:
                (fetched,) = yield from self._reads(server, landing, fetch)
                probed = None
            yield from self.node.cpu_run(check_us)
            if fetched[length:] != stamp_of(raw):
                # Stale: the entry changed before the fetch read its stamp.
                if remembered:
                    self.stale_entries += 1
                    paired = True
                else:
                    self.torn_retries += 1
                    torn += 1
                remembered = False
                raw = probed  # the next attempt's entry, or probe it
                continue
            confirmed[slot] = (want, raw, paired)
            self.onesided_hits += 1
            self.remembered_hits += remembered
            return Reply(
                status="values",
                values=[(key, entry.flags, fetched[:length], entry.cas)],
            )
        return self._fall("torn")


def _recall(confirmed: dict, home: int, want: int):
    """``(slot, entry, paired)`` remembered for the key hashing to *want*
    in the window from *home*, or ``(None, None, False)``."""
    for slot in range(home, home + WINDOW):
        held = confirmed.get(slot)
        if held is not None and held[0] == want:
            return slot, held[1], held[2]
    return None, None, False
