"""On-the-wire packet descriptors exchanged between simulated HCAs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Transport header bytes for an IB message (LRH+BTH+ICRC etc.); added to
#: payload size when computing wire occupancy.
IB_HEADER_BYTES = 30
#: Size of an RDMA READ request packet on the wire.
RDMA_READ_REQUEST_BYTES = 28
#: Size of a CM management datagram (MAD).
CM_MAD_BYTES = 256


@dataclass(slots=True)
class IbPacket:
    """A data-path packet: SEND payload, RDMA WRITE, READ request/response."""

    kind: str  # 'send' | 'write' | 'read_req' | 'read_resp'
    src_qpn: int
    dst_qpn: int
    payload: bytes = b""
    remote_rkey: Optional[int] = None
    remote_offset: int = 0
    length: int = 0
    #: Requester-side work request; carried by reference so the responder's
    #: READ response (and error paths) can complete the right WR.  Real
    #: hardware matches via PSNs; the reference is the simulation shortcut.
    wr: Any = None
    #: The requester's pipeline entry (``qp._Wqe``) of an RDMA READ, echoed
    #: by the response so the requester retires it without a search.
    wqe: Any = None

    @property
    def trace(self) -> Any:
        """Telemetry rider: the trace context of the originating WR."""
        return self.wr.trace if self.wr is not None else None


@dataclass(slots=True)
class CmPacket:
    """A connection-management datagram (REQ / REP / RTU / REJ)."""

    kind: str  # 'req' | 'rep' | 'rtu' | 'rej'
    service_id: int
    src_qpn: int
    dst_qpn: int = 0
    conn_id: int = 0
    private_data: Any = None
