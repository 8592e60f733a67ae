"""Protocol verification: model checking + trace conformance.

The verify ladder's other tiers prove per-block *dataflow* facts
(guest ≡ IR ≡ host ≡ JIT closure).  This tier checks the simulator's
*stateful protocols*:

* :mod:`repro.verify.protocol.mc` — a generic explicit-state BFS
  model checker with counterexample traces;
* :mod:`repro.verify.protocol.models` — small-scope models of SMC
  invalidation, the morph FSM, and the concurrent disk cache, each with planted-bug variants the tests check against;
* :mod:`repro.verify.protocol.conform` — trace conformance replaying
  real :mod:`repro.obs` event streams against the same invariants, so
  the models cannot silently drift from the code.

``python -m repro.verify model`` runs the models;
``python -m repro.verify conform`` replays live or exported traces;
``TimingVM(..., checked="protocol")`` asserts conformance inline.
"""

from repro.verify.protocol.conform import (
    ConformanceChecker,
    ConformReport,
    audit_vm,
    conform_events,
    conform_vm,
)
from repro.verify.protocol.mc import (
    Model,
    ModelCheckResult,
    Violation,
    check_model,
)
from repro.verify.protocol.models import (
    MODELS,
    PLANTED_BUGS,
    DiskCacheModel,
    MorphModel,
    SmcModel,
)

__all__ = [
    "Model",
    "ModelCheckResult",
    "Violation",
    "check_model",
    "MODELS",
    "PLANTED_BUGS",
    "SmcModel",
    "MorphModel",
    "DiskCacheModel",
    "ConformanceChecker",
    "ConformReport",
    "conform_events",
    "conform_vm",
    "audit_vm",
]
