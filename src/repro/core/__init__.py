"""UCR -- the Unified Communication Runtime (the paper's contribution, §IV).

UCR sits between the verbs layer and data-center middleware (memcached
here), exposing an **active message** API with three progress counters per
message and an end-point connection model designed for fault isolation:

- :class:`~repro.core.runtime.UcrRuntime` -- one per node; registry of
  message handlers and counters.
- :class:`~repro.core.context.UcrContext` -- one per thread (memcached
  worker); owns CQs and the progress engine.
- :class:`~repro.core.endpoint.Endpoint` -- a bi-directional channel to
  one peer over an RC queue pair, with credit-based flow control.
- :func:`~repro.core.endpoint.Endpoint.send_message` -- the
  ``ucr_send_message`` of the paper: header + data + the three counters.
- :class:`~repro.core.counters.UcrCounter` -- monotone counters with
  wait-with-timeout (the data-center-safe synchronization the paper adds
  over MPI-style blocking waits).

Message transfer strategies (paper Fig. 2):

- **Eager** (header + data ≤ 8 KB): one network transaction; the target
  memcpy's payload from the bounce buffer into the destination the header
  handler picked.
- **Rendezvous** (> 8 KB): header-only active message; the *target*
  issues an RDMA READ of the payload straight into the destination
  buffer, then runs the completion handler -- matching the paper's
  memcached Set flow ("the server ... issues an RDMA Read to that
  destination memory location").
"""

from repro.core.counters import UcrCounter
from repro.core.context import UcrContext
from repro.core.endpoint import Endpoint
from repro.core.errors import EndpointClosed, UcrError, UcrTimeout
from repro.core.params import UCR_DEFAULT, UcrParams
from repro.core.runtime import UcrRuntime

__all__ = [
    "Endpoint",
    "EndpointClosed",
    "UCR_DEFAULT",
    "UcrContext",
    "UcrCounter",
    "UcrError",
    "UcrParams",
    "UcrRuntime",
    "UcrTimeout",
]
