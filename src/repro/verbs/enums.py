"""Constants mirroring the OpenFabrics verbs vocabulary."""

from __future__ import annotations

import enum


class QpState(enum.Enum):
    """Queue pair state machine (the subset the data path needs)."""

    RESET = "reset"
    INIT = "init"
    RTR = "ready-to-receive"
    RTS = "ready-to-send"
    ERROR = "error"


#: Legal queue-pair state transitions (ibv_modify_qp discipline).  This
#: model collapses the INIT->RTR->RTS handshake into a single
#: ``connect()`` call, so INIT->RTS is legal here even though real verbs
#: require passing through RTR.  Any state may be torn down to ERROR;
#: only ERROR may be recycled back to RESET.  The L010 lint rule checks
#: every ``qp.state = QpState.X`` write in the tree against this table.
LEGAL_QP_TRANSITIONS: dict[QpState, frozenset] = {
    QpState.RESET: frozenset({QpState.INIT, QpState.ERROR}),
    QpState.INIT: frozenset({QpState.RTR, QpState.RTS, QpState.ERROR}),
    QpState.RTR: frozenset({QpState.RTS, QpState.ERROR}),
    QpState.RTS: frozenset({QpState.ERROR}),
    QpState.ERROR: frozenset({QpState.RESET, QpState.ERROR}),
}


def legal_transition(src: QpState, dst: QpState) -> bool:
    """Whether ``modify_qp(src -> dst)`` is permitted by the model."""
    return dst in LEGAL_QP_TRANSITIONS.get(src, frozenset())


class Opcode(enum.Enum):
    """Work request / completion opcodes."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma-write"
    RDMA_READ = "rdma-read"


class WcStatus(enum.Enum):
    """Work completion status codes (subset of ibv_wc_status)."""

    SUCCESS = "success"
    LOC_LEN_ERR = "local-length-error"
    REM_ACCESS_ERR = "remote-access-error"
    RNR_RETRY_EXC_ERR = "receiver-not-ready"
    WR_FLUSH_ERR = "flushed"


class Access(enum.Flag):
    """Memory region access permissions."""

    LOCAL_READ = enum.auto()   # implicit in real verbs; explicit here
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()

    @classmethod
    def local_only(cls) -> "Access":
        return cls.LOCAL_READ | cls.LOCAL_WRITE

    @classmethod
    def full(cls) -> "Access":
        return cls.LOCAL_READ | cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE
