"""Work requests and scatter/gather elements."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.verbs.enums import Opcode, WcStatus
from repro.verbs.mr import MemoryRegion

_wr_ids = itertools.count(1)


@dataclass(slots=True)
class Sge:
    """One scatter/gather element: a slice of a registered region."""

    mr: MemoryRegion
    offset: int = 0
    length: Optional[int] = None  # None == to end of region

    def __post_init__(self) -> None:
        if self.length is None:
            self.length = self.mr.size - self.offset
        if self.offset < 0 or self.length < 0 or self.offset + self.length > self.mr.size:
            raise IndexError(
                f"sge [{self.offset}, {self.offset + self.length}) outside "
                f"region of {self.mr.size} bytes"
            )

    def gather(self) -> bytes:
        """Read the described bytes (requester DMA gather)."""
        return self.mr.read(self.offset, self.length or 0)

    def scatter(self, data: bytes, require_remote: bool = False) -> int:
        """Place *data* into the described slice; returns bytes written."""
        if len(data) > (self.length or 0):
            raise IndexError(
                f"payload of {len(data)} bytes exceeds sge of {self.length} bytes"
            )
        self.mr.remote_write(self.offset, data, require_remote=require_remote)
        return len(data)


@dataclass(slots=True)
class SendWR:
    """A send-queue work request (SEND / RDMA WRITE / RDMA READ).

    For ``RDMA_WRITE`` the local sge is the source and ``(remote_rkey,
    remote_offset)`` the destination; for ``RDMA_READ`` the roles swap.
    ``wr_id`` is echoed in the completion, as in real verbs; callers use it
    to match completions to requests.
    """

    opcode: Opcode
    sge: Optional[Sge] = None
    inline_data: Optional[bytes] = None  # small payloads may skip the MR
    remote_rkey: Optional[int] = None
    remote_offset: int = 0
    signaled: bool = True
    wr_id: int = field(default_factory=lambda: next(_wr_ids))
    context: Any = None  # opaque upper-layer cookie (UCR uses this)
    #: Structured object delivered alongside the payload bytes into the
    #: remote RECV completion (``wc.app_object``).  Simulation shortcut:
    #: real stacks marshal this into the payload; carrying the reference
    #: avoids Python serialization costs without changing wire sizes,
    #: which are always computed from the byte payload.
    app_object: Any = None
    #: Telemetry rider: the trace context this WR works on behalf of.
    #: Pure annotation -- never enters ``nbytes`` or any cost model.
    trace: Any = None
    #: Responder outcome, written by the remote side before the ACK
    #: flies back; SUCCESS until proven otherwise.
    _remote_status: WcStatus = field(default=WcStatus.SUCCESS, init=False, repr=False)
    #: What the responder calls once it has decided the outcome
    #: (set by the requester pipeline, cleared when used).
    _on_responder_done: Any = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.opcode is Opcode.RECV:
            raise ValueError("RECV is posted with RecvWR, not SendWR")
        if self.opcode is Opcode.SEND:
            if self.sge is None and self.inline_data is None:
                raise ValueError("SEND needs an sge or inline data")
        else:
            if self.remote_rkey is None:
                raise ValueError(f"{self.opcode} requires remote_rkey")
            if self.sge is None:
                raise ValueError(f"{self.opcode} requires a local sge")

    def responder_done(self, status: Optional[WcStatus] = None) -> None:
        """The remote side's verdict: an error *status*, or none for success.

        Starts the requester's ACK, once -- the link is cleared when
        used, so a second verdict for the same WR (a stale-QP NAK and a late
        responder) starts no second ACK, and the WR and its requester state
        do not keep each other alive.
        """
        if status is not None:
            self._remote_status = status
        notify = self._on_responder_done
        if notify is not None:
            self._on_responder_done = None
            notify()

    @property
    def nbytes(self) -> int:
        """Payload size of this work request in bytes."""
        if self.inline_data is not None:
            return len(self.inline_data)
        assert self.sge is not None
        return self.sge.length or 0

    def payload_bytes(self) -> bytes:
        """Materialize the outbound payload (SEND / RDMA_WRITE source)."""
        if self.inline_data is not None:
            return self.inline_data
        assert self.sge is not None
        return self.sge.gather()


@dataclass(slots=True)
class RecvWR:
    """A receive-queue work request: a landing buffer for one SEND."""

    sge: Sge
    wr_id: int = field(default_factory=lambda: next(_wr_ids))
    context: Any = None
