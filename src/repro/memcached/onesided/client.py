"""The one-sided GET transport: RDMA READs against the exported index.

:class:`OneSidedTransport` extends the active-message
:class:`~repro.memcached.ucr_transport.UcrTransport` with a zero-server-CPU
read path: GET/gets probe the server's exported bucket index with an
RDMA READ, fetch the value with a second READ straight out of the
registered slab page, and confirm with a third READ of the same entry.
The fetch is accepted only if the entry was stable (even version) and
bit-identical across the probe and the confirm -- the client side of
the server's seqlock discipline.  A mutation anywhere in that window
changes the version, so a torn read can never be *served*, only
retried.

Everything the index cannot prove falls down a ladder onto the RPC
path, which is authoritative:

1. **absent** -- the bucket is empty or holds a different key's hash.
   Displacement means absence from the index never proves absence from
   the cache, so this is a fallback, not a miss.
2. **expired** -- the entry's deadline (exptime/flush horizon) passed.
   Expiry is lazy server-side state; the RPC path applies it.
3. **oversize** -- the value exceeds the client's one-sided read budget.
4. **torn** -- the version kept moving for ``max_read_retries``
   attempts (a write-hot key); stop burning READs and ask the server.

There is no one-sided client class: :meth:`MemcachedClient.call
<repro.memcached.client.MemcachedClient.call>` tries ``onesided_get``
for get/gets/getl on any transport that offers it and hands a hit -- an
ordinary :class:`~repro.memcached.command.Reply` -- to the same
interpreter as an RPC reply.  Every other operation (``get_multi`` and
pipelined batches included) uses the inherited active-message path
untouched, so linearizability semantics are preserved: a one-sided hit
linearizes at the confirm READ, and every fallback is an ordinary
recorded RPC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.endpoint import _SendCompletionCookie
from repro.core.errors import EndpointClosed, UcrTimeout
from repro.memcached.client import ClientCosts, DEFAULT_TIMEOUT_US
from repro.memcached.command import Reply
from repro.memcached.onesided.index import IndexDescriptor
from repro.memcached.onesided.layout import (
    ENTRY_BYTES,
    entry_offset,
    hash64,
    unpack_entry,
)
from repro.memcached.slabs import PAGE_BYTES
from repro.memcached.ucr_transport import UcrTransport
from repro.verbs.enums import Opcode
from repro.verbs.wr import SendWR, Sge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import UcrContext

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
        #: Landing buffers for in-flight READs (checkout/checkin like the
        #: counter pool; concurrent GETs each pin their own).
        self._landing_pool: list = []
        self.onesided_hits = 0
        self.onesided_reads = 0
        self.torn_retries = 0
        #: Fallback reason -> count ('absent'/'expired'/'oversize'/'torn').
        self.fallbacks: dict[str, int] = {}

    def add_index(self, server: str, descriptor: IndexDescriptor) -> None:
        """Register *server*'s exported-index advertisement."""
        self._descriptors[server] = descriptor

    # -- landing buffers ---------------------------------------------------

    def _checkout_landing(self):
        if self._landing_pool:
            return self._landing_pool.pop()
        return self.runtime.pd.reg_mr(ENTRY_BYTES + self.max_value_bytes)

    def _checkin_landing(self, mr) -> None:
        self._landing_pool.append(mr)

    # -- the raw READ ------------------------------------------------------

    def _read(self, server, rkey, remote_offset, length, landing, landing_offset):
        """Process helper: one RDMA READ into the landing buffer.

        The completion cookie's counter fires when the response lands
        (data already scattered), mirroring the rendezvous machinery.
        """
        yield from self.node.cpu_run(
            self.node.host.cpu_time(self.costs.onesided_issue_us)
        )
        ep = yield from self.endpoint(server)
        counter = self._checkout_counter()
        cookie = _SendCompletionCookie(
            kind="onesided-read", endpoint=ep, origin_counter=counter
        )
        wr = SendWR(
            opcode=Opcode.RDMA_READ,
            sge=Sge(landing, landing_offset, length),
            remote_rkey=rkey,
            remote_offset=remote_offset,
            signaled=True,
            context=cookie,
        )
        try:
            ep._post(wr)
            yield from counter.wait_increment(timeout_us=self.timeout_us)
        except (UcrTimeout, EndpointClosed) as exc:
            raise self._server_down(server, ep, exc) from exc
        finally:
            self._checkin_counter(counter)
        self.onesided_reads += 1
        return landing.read(landing_offset, length)

    # -- test hook ---------------------------------------------------------

    def checkpoint(self, stage: str, server: str, key: str):
        """Deterministic interleaving hook between the READ stages of a
        one-sided GET ('entry' -> value READ -> 'value' -> confirm READ).
        The default passes no simulated time; torn-read tests override it
        to park the client while the server mutates."""
        return
        yield  # pragma: no cover - makes this a generator for yield-from

    # -- the one-sided GET protocol ----------------------------------------

    def _fall(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def onesided_get(self, server: str, key: str):
        """Process helper: probe/fetch/confirm for *key* on *server*.

        Returns the hit as the :class:`Reply` a get/gets RPC would have
        produced, or None after counting the fallback reason (the caller
        asks the server); raises :class:`ServerDownError` if the
        endpoint dies mid-read.
        """
        desc = self._descriptors.get(server)
        if desc is None:
            return self._fall("absent")
        want = hash64(key)
        probe_offset = entry_offset(want % desc.n_buckets)
        check_us = self.node.host.cpu_time(self.costs.onesided_check_us)
        landing = self._checkout_landing()
        try:
            for _attempt in range(self.max_read_retries + 1):
                raw1 = yield from self._read(
                    server, desc.index_rkey, probe_offset, ENTRY_BYTES, landing, 0
                )
                yield from self.node.cpu_run(check_us)
                entry = unpack_entry(raw1)
                if not entry.stable:
                    self.torn_retries += 1  # mid-mutation: spin again
                    continue
                if entry.key_hash != want:
                    return self._fall("absent")
                if entry.deadline_us and self.sim.now >= entry.deadline_us:
                    return self._fall("expired")
                if entry.value_length > self.max_value_bytes:
                    return self._fall("oversize")
                yield from self.checkpoint("entry", server, key)
                value = yield from self._read(
                    server,
                    entry.value_rkey,
                    entry.value_offset,
                    entry.value_length,
                    landing,
                    ENTRY_BYTES,
                )
                yield from self.checkpoint("value", server, key)
                raw2 = yield from self._read(
                    server, desc.index_rkey, probe_offset, ENTRY_BYTES, landing, 0
                )
                yield from self.node.cpu_run(check_us)
                if raw2 != raw1:
                    self.torn_retries += 1  # torn window: retry from the top
                    continue
                self.onesided_hits += 1
                return Reply(
                    status="values",
                    values=[(key, entry.flags, value, entry.cas)],
                )
            return self._fall("torn")
        finally:
            self._checkin_landing(landing)
