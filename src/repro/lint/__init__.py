"""``repro.lint``: determinism and hygiene lint for the simulated stack.

A static-analysis pass purpose-built for this repository.  The
discrete-event simulation is only trustworthy because every run is
bit-for-bit deterministic, every hot-path object is cheap, and every
``yield`` is a point where other processes may mutate shared state;
these rules mechanically enforce the conventions the test suite
otherwise only samples:

========  ==================================================================
Rule      Enforces
========  ==================================================================
L001      No wall-clock or ambient-entropy calls in simulation sources
          (``time.time``, ``datetime.now``, bare ``random.*`` ...); use
          ``sim.now`` and :mod:`repro.sim.rng` instead.
L002      No ``==``/``!=`` between two float simulation timestamps in
          sources (exact comparisons belong in tests, against constants).
L003      Hot-path classes (``verbs/``, ``core/``, ``sim/events.py``)
          declare ``__slots__`` (or ``@dataclass(slots=True)``).
L004      No mutable default arguments.
L005      Active-message ids (``register_handler`` / ``MSG_*``) are unique
          within each module.
L006      Telemetry classes slotted; tracer call sites guarded on
          ``tracer.enabled``.
L007      Client op methods record history; recorder call sites guarded.
L008      (flow) No shared-state local used across a ``yield`` without
          re-reading it.
L009      (flow) Pooled buffers released or handed off on all CFG paths,
          never used after release.
L010      (flow) QP state writes follow ``LEGAL_QP_TRANSITIONS``.
L011      (flow) Resource requests held across yields sit under
          ``try/finally`` release (failures raise at yields).
========  ==================================================================

L001-L007 are per-module AST pattern matches (:mod:`repro.lint.rules`);
L008-L011 are dataflow analyses over per-function CFGs with yields
marked as scheduling boundaries (:mod:`repro.lint.cfg`,
:mod:`repro.lint.flow`), enabled with ``--flow``.

Any finding can be silenced on its line with an inline comment, for a
whole file with a header comment, or via the reviewed baseline file::

    something_flagged()  # repro-lint: disable=L001  -- justification
    # repro-lint: disable-file=L009 -- justification   (file header)
    L009 src/repro/core/context.py:247  # justification (.repro-lint-baseline)

Run as ``python -m repro.lint --flow src/ tests/`` or via the
``repro-lint`` console script; exits non-zero when non-baselined
findings remain.  ``--format json|sarif`` emits machine-readable
reports; see ``docs/LINTING.md`` for the full catalogue and design.
"""

from __future__ import annotations

from repro.lint.engine import (
    Finding,
    LintReport,
    apply_baseline,
    lint_paths,
    load_baseline,
    main,
)
from repro.lint.flow import FLOW_RULES
from repro.lint.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "FLOW_RULES",
    "Finding",
    "LintReport",
    "Rule",
    "apply_baseline",
    "lint_paths",
    "load_baseline",
    "main",
]
