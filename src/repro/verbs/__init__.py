"""InfiniBand verbs layer (simulated OpenFabrics-style API).

This package models the lowest software access layer of Figure 1(a) in the
paper: queue pairs, completion queues, registered memory regions, and the
four data-path operations UCR needs -- SEND, RECV, RDMA WRITE and RDMA
READ -- plus a connection manager for endpoint establishment.

Fidelity notes
--------------
- The data path is fully OS-bypassed: posting a work request costs one
  doorbell write of latency and zero kernel time, exactly the property the
  paper exploits.
- Payload bytes really move: memory regions are slices of lazily zeroed
  ``mmap`` arenas (one per protection domain, :mod:`repro.verbs.mr`) and
  RDMA operations copy between them, so data integrity is testable
  end-to-end (a memcached value survives the full verbs round trip).
- Reliable Connection (RC) semantics: send completions after the (modeled)
  ACK, receiver-not-ready on RECV exhaustion surfaces as an error
  completion -- which is what makes UCR's credit-based flow control a
  load-bearing component rather than decoration.  In-order delivery is
  *not* yet kept: a small SEND can overtake a larger SEND, WRITE or READ
  posted before it on the same QP (ROADMAP item 15;
  ``tests/verbs/test_rc_order.py`` holds the probes as strict xfails).
- RC is the only queue-pair type.
"""

from repro.verbs.cq import CompletionQueue, WorkCompletion
from repro.verbs.device import Hca
from repro.verbs.enums import Access, Opcode, QpState, WcStatus
from repro.verbs.mr import MemoryRegion, ProtectionDomain
from repro.verbs.params import HCA_CONNECTX_DDR, HCA_CONNECTX_QDR, HcaParams
from repro.verbs.qp import QueuePair
from repro.verbs.wr import RecvWR, SendWR, Sge

__all__ = [
    "Access",
    "CompletionQueue",
    "HCA_CONNECTX_DDR",
    "HCA_CONNECTX_QDR",
    "Hca",
    "HcaParams",
    "MemoryRegion",
    "Opcode",
    "ProtectionDomain",
    "QpState",
    "QueuePair",
    "RecvWR",
    "SendWR",
    "Sge",
    "WorkCompletion",
    "WcStatus",
]
