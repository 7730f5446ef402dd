"""UCR wire message formats.

Active messages travel as :class:`AmWire` objects inside verbs SENDs.
``header`` is an application-defined object (memcached puts its request
structs there); ``data`` is the payload for eager transfers or ``None``
for rendezvous, in which case ``rdma`` describes where the target should
READ from.

``AM_WIRE_FIXED_BYTES`` approximates the marshalled size of the fixed
fields; the application header contributes its own ``header_bytes`` so
wire occupancy is realistic even though the simulation ships Python
objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

#: Fixed active-message header: msg id, lengths, counter ids, credits, seq.
AM_WIRE_FIXED_BYTES = 32

#: Wire size of an internal (counter update / credit return) message.
INTERNAL_MESSAGE_BYTES = 16

_am_seq = itertools.count(1)


@dataclass(slots=True)
class RdmaDescriptor:
    """Where a rendezvous payload lives at the origin (rkey + extent)."""

    rkey: int
    offset: int
    length: int


@dataclass(slots=True)
class AmWire:
    """One active message as it crosses the wire."""

    msg_id: int
    header: Any
    header_bytes: int
    data: Optional[bytes]  # eager payload (None => rendezvous)
    data_length: int
    rdma: Optional[RdmaDescriptor] = None
    #: Target-side counter to bump after the completion handler (0 = none).
    target_counter_id: int = 0
    #: Origin-side counter to bump via internal message once the target's
    #: completion handler ran (0 = suppressed -- the NULL optimization).
    completion_counter_id: int = 0
    #: For rendezvous: origin counter to bump when the RDMA READ is done
    #: and the origin buffer is reusable (0 = suppressed).
    origin_counter_id: int = 0
    #: Piggybacked receive-credit returns.
    credits_returned: int = 0
    #: Telemetry rider (a ``TraceContext`` or None).  Never counted in
    #: ``wire_bytes()``: real UCR would pack the 16-byte context into the
    #: fixed header's padding, and keeping it out of the cost model is
    #: what makes tracing digest-neutral.
    trace: Any = None
    #: Process-unique message sequence number: a rendezvous message's
    #: ``rendezvous_done`` names it to release the staged buffer.  A
    #: memcached reply needs no id of its own: it targets the client
    #: counter its request named (``target_counter_id``), so any number
    #: of AMs can be in flight per endpoint.
    seq: int = field(default_factory=lambda: next(_am_seq))

    @property
    def is_eager(self) -> bool:
        return self.data is not None

    def wire_bytes(self) -> int:
        """Bytes this message occupies inside the verbs SEND."""
        n = AM_WIRE_FIXED_BYTES + self.header_bytes
        if self.is_eager:
            n += self.data_length
        return n


@dataclass(slots=True)
class InternalWire:
    """Runtime-internal message: counter updates, credit returns, and
    rendezvous-done notifications (which release the origin's staging
    buffer identified by *seq*)."""

    kind: str  # 'counters' | 'credits' | 'rendezvous_done'
    counter_ids: tuple[int, ...] = ()
    credits_returned: int = 0
    seq: int = 0

    def wire_bytes(self) -> int:
        return INTERNAL_MESSAGE_BYTES
