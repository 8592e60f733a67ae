"""Static verification of the translation pipeline and guest binaries.

Three cooperating analyzers:

* :mod:`repro.verify.irverify` — invariants of the UCode IR (SSA
  temps, operand arity, terminator shape, dead-flag soundness); runs
  after the frontend and after every optimizer pass in checked
  translation mode (``TranslationConfig(checked=True)``).
* :mod:`repro.verify.hostverify` — contracts of generated R32 host
  code (definite initialization, reserved-register discipline, branch
  ranges, exit-stub/chaining metadata).
* :mod:`repro.verify.guestlint` — static CFG recovery and lint of
  guest VX86 images (unreachable code, overlapping decode, CALL/RET
  imbalance, undefined flag reads).

Plus one dynamic-semantics layer:

* :mod:`repro.verify.equiv` — symbolic translation validation over
  the bitvector engine in :mod:`repro.verify.symexec`: per translated
  block it proves guest ≡ IR after the frontend, IR ≡ IR across every
  optimizer pass (modulo dead flags), and IR ≡ host after codegen and
  scheduling (``TranslationConfig(checked="equiv")``).

And one protocol layer:

* :mod:`repro.verify.protocol` — explicit-state model checking of the
  runtime protocols (SMC invalidation, the morph controller FSM, the
  concurrent disk cache) plus trace conformance:
  replaying :mod:`repro.obs` event streams against the same invariants
  (``TimingVM(checked="protocol")``).

``python -m repro.verify <program>`` runs the lint plus a checked
translation sweep over a workload or assembly file; ``python -m
repro.verify equiv`` runs the symbolic equivalence sweep; ``model``
and ``conform`` run the protocol layer; ``all`` runs every tier.
"""

from repro.verify.equiv import EquivChecker, EquivStats
from repro.verify.findings import Finding, Severity, VerificationError, worst_severity
from repro.verify.guestlint import GuestLintReport, lint_bytes, lint_program
from repro.verify.hostverify import assert_host_ok, verify_host_block
from repro.verify.irverify import assert_ir_ok, verify_ir
from repro.verify.pipeline import SweepResult, checked_translate_program
from repro.verify.protocol import (
    MODELS,
    PLANTED_BUGS,
    ConformanceChecker,
    ConformReport,
    Model,
    ModelCheckResult,
    Violation,
    audit_vm,
    check_model,
    conform_events,
    conform_vm,
)

__all__ = [
    "Finding",
    "Severity",
    "VerificationError",
    "worst_severity",
    "verify_ir",
    "assert_ir_ok",
    "verify_host_block",
    "assert_host_ok",
    "GuestLintReport",
    "lint_program",
    "lint_bytes",
    "SweepResult",
    "checked_translate_program",
    "EquivChecker",
    "EquivStats",
    "Model",
    "ModelCheckResult",
    "Violation",
    "check_model",
    "MODELS",
    "PLANTED_BUGS",
    "ConformanceChecker",
    "ConformReport",
    "conform_events",
    "conform_vm",
    "audit_vm",
]
