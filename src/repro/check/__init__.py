"""Model-based verification: oracle, history checking, differential fuzzing.

``repro.check`` proves the paper's implicit semantic claim: the UCR-IB
path and every sockets path (SDP, IPoIB, 10GigE-TOE), text and binary
protocol alike, implement the *same* cache.  Three layers:

- :mod:`repro.check.model` -- a pure-Python reference memcached
  (idealized: no LRU, no memory pressure) with a documented divergence
  list.  Its ``apply(cmd) -> Reply`` is the engine's front door, over
  the same IR, implemented independently.
- :mod:`repro.check.history` -- operation history recording on the sim
  clock plus a Wing--Gong linearizability checker specialized to
  per-key register/counter semantics.
- :mod:`repro.check.differential` -- one ``replay(config, steps,
  depth=)`` of a seeded script against a live cluster and the oracle
  (one comparator), ``differential_run`` across transports/protocols,
  and ``replay_concurrent`` under chaos.  Around it, one module per
  seam: :mod:`~repro.check.generate` (``Step``, its JSON, the seeded
  generator), :mod:`~repro.check.mutations` (test-only fault
  injection), :mod:`~repro.check.parser_fuzz`,
  :mod:`~repro.check.shrink` (ddmin + repro dumps), and
  :mod:`~repro.check.cli` (``repro-check``).

This ``__init__`` stays import-light on purpose: ``repro.memcached.client``
imports :mod:`repro.check.history` for its recording hooks, so pulling
:mod:`repro.check.differential` (which imports the cluster builder, and
therefore the client) in here would create an import cycle.  Import the
differential module explicitly where needed.
"""

from repro.check.history import OpRecord, check_history, recorder
from repro.check.model import MODEL_DIVERGENCES, ModelMemcached

__all__ = [
    "MODEL_DIVERGENCES",
    "ModelMemcached",
    "OpRecord",
    "check_history",
    "recorder",
]
