"""Static verifier for the translator's UCode IR.

Checks every :class:`~repro.dbt.ir.IRBlock` for the invariants the rest
of the pipeline silently depends on:

* **single assignment** — every temp is defined at most once, and all
  temp ids are below ``block.next_temp`` (a pass that mints temps
  without :meth:`IRBlock.new_temp` breaks later passes' renaming maps);
* **use before def** — every source temp (including the INDIRECT
  terminator's) is defined by an earlier uop;
* **operand arity** — each :class:`UOpKind` carries exactly the fields
  its codegen consumes (a PUT without a register, a binop missing ``b``
  and so on are latent ``CodegenError``/crashes);
* **one well-formed terminator** — the terminator's fields match its
  :class:`ExitKind` (BRANCH needs cc + both targets, ...);
* **flag def/use soundness** — a flag observed by a ``SETCC``, a
  ``GETF`` or the terminator's condition must not have been pruned from
  the mask of the ``FLAGS`` uop that architecturally produces it.  This
  is the translation-validation check for "extensive dead flag
  elimination": the backward liveness here mirrors
  :mod:`repro.dbt.optimizer.deadflags`, and a mask that dropped a
  still-live bit is reported as ``dead-flag-mis-elimination``.

Checked translation runs this after the frontend and after every
optimizer pass (see :func:`repro.dbt.optimizer.optimize_block`'s
observer hook), so the first stage whose output fails is the stage that
broke the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.dbt.ir import (
    ALL_FLAGS_MASK,
    FLAG_SEM_WRITES,
    ExitKind,
    IRBlock,
    Terminator,
    UOp,
    UOpKind,
    flag_mask,
)
from repro.guest.isa import CONDITION_FLAG_USES, Flag
from repro.verify.findings import Finding, Severity, VerificationError, errors_only

ANALYZER = "irverify"


@dataclass(frozen=True)
class _Arity:
    """Which UOp fields a kind requires/forbids."""

    dst: bool = False
    a: bool = False
    b: bool = False
    reg: bool = False
    cc: bool = False
    sem: bool = False
    result: bool = False


#: Operand-shape table.  ``result``/``count`` only apply to FLAGS.
_ARITY = {
    UOpKind.CONST: _Arity(dst=True),
    UOpKind.GET: _Arity(dst=True, reg=True),
    UOpKind.PUT: _Arity(a=True, reg=True),
    UOpKind.GETF: _Arity(dst=True),
    UOpKind.PUTF: _Arity(a=True),
    UOpKind.LD: _Arity(dst=True, a=True),
    UOpKind.ST: _Arity(a=True, b=True),
    UOpKind.ADD: _Arity(dst=True, a=True, b=True),
    UOpKind.SUB: _Arity(dst=True, a=True, b=True),
    UOpKind.AND: _Arity(dst=True, a=True, b=True),
    UOpKind.OR: _Arity(dst=True, a=True, b=True),
    UOpKind.XOR: _Arity(dst=True, a=True, b=True),
    UOpKind.NOT: _Arity(dst=True, a=True),
    UOpKind.SHL: _Arity(dst=True, a=True, b=True),
    UOpKind.SHR: _Arity(dst=True, a=True, b=True),
    UOpKind.SAR: _Arity(dst=True, a=True, b=True),
    UOpKind.MUL: _Arity(dst=True, a=True, b=True),
    UOpKind.MULHU: _Arity(dst=True, a=True, b=True),
    UOpKind.MULHS: _Arity(dst=True, a=True, b=True),
    UOpKind.SEXT8: _Arity(dst=True, a=True),
    UOpKind.ZEXT8: _Arity(dst=True, a=True),
    UOpKind.INSERT8: _Arity(dst=True, a=True, b=True),
    UOpKind.DIVU: _Arity(dst=True, a=True, b=True),
    UOpKind.REMU: _Arity(dst=True, a=True, b=True),
    UOpKind.DIVS: _Arity(dst=True, a=True, b=True),
    UOpKind.REMS: _Arity(dst=True, a=True, b=True),
    UOpKind.DIV0CHECK: _Arity(a=True),
    UOpKind.GUARD: _Arity(a=True, b=True),
    UOpKind.SETCC: _Arity(dst=True, cc=True),
    UOpKind.FLAGS: _Arity(sem=True, result=True),
}

_TERMINATOR_SHAPE = {
    ExitKind.JUMP: ("target",),
    ExitKind.BRANCH: ("target", "fallthrough", "cc"),
    ExitKind.INDIRECT: ("temp",),
    ExitKind.SYSCALL: ("target",),
    ExitKind.HALT: (),
}


def verify_ir(
    block: IRBlock, flag_live_out: int = ALL_FLAGS_MASK, stage: str = ""
) -> List[Finding]:
    """Verify one IR block; returns all findings (empty when clean).

    ``flag_live_out`` must be the same mask the optimizer's dead-flag
    elimination was given (the successor-peek result), otherwise sound
    pruning would be misreported as mis-elimination.
    """
    findings: List[Finding] = []

    def report(code: str, message: str, index: Optional[int] = None,
               severity: Severity = Severity.ERROR) -> None:
        findings.append(
            Finding(ANALYZER, severity, code, message, address=index, stage=stage)
        )

    defined: Set[int] = set()
    for index, uop in enumerate(block.uops):
        _check_arity(uop, index, report)
        for src in uop.sources():
            if src not in defined:
                report("use-before-def", f"{uop} reads t{src} before any definition", index)
        if uop.dst is not None:
            if uop.dst in defined:
                report("duplicate-def", f"{uop} redefines t{uop.dst} (temps are SSA)", index)
            if uop.dst >= block.next_temp:
                report(
                    "temp-out-of-range",
                    f"{uop} defines t{uop.dst} >= next_temp {block.next_temp}",
                    index,
                )
            defined.add(uop.dst)

    findings.extend(_check_terminator(block.terminator, defined, stage))
    findings.extend(_check_flag_soundness(block, flag_live_out, stage))
    return findings


def assert_ir_ok(
    block: IRBlock,
    flag_live_out: int = ALL_FLAGS_MASK,
    stage: str = "frontend",
    context: str = "",
) -> None:
    """Raise :class:`VerificationError` if the block has any ERROR finding."""
    errors = errors_only(verify_ir(block, flag_live_out=flag_live_out, stage=stage))
    if errors:
        raise VerificationError(stage, errors, context=context)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_arity(uop: UOp, index: int, report) -> None:
    spec = _ARITY.get(uop.kind)
    if spec is None:
        report("unknown-kind", f"uop kind {uop.kind!r} has no operand specification", index)
        return
    for field_name, required in (
        ("dst", spec.dst),
        ("a", spec.a),
        ("b", spec.b),
        ("reg", spec.reg),
        ("cc", spec.cc),
        ("sem", spec.sem),
    ):
        value = getattr(uop, field_name)
        if required and value is None:
            report("bad-arity", f"{uop.kind.value} requires field {field_name!r}", index)
        # Side-effect-only uops must not claim a destination: DCE keys
        # "removable" on dst, so a stray dst makes them deletable.
        if field_name == "dst" and not required and value is not None:
            report("bad-arity", f"{uop.kind.value} must not define a temp (dst=t{value})", index)
    if uop.kind in (UOpKind.LD, UOpKind.ST, UOpKind.FLAGS) and uop.width not in (8, 32):
        report("bad-width", f"{uop.kind.value} width {uop.width} (must be 8 or 32)", index)
    if uop.kind is UOpKind.FLAGS:
        if uop.result is None:
            report("bad-arity", "flags uop requires a result temp", index)
        if uop.mask & ~ALL_FLAGS_MASK:
            report("bad-flag-mask", f"mask {uop.mask:#x} has bits outside the flag set", index)
        if uop.sem is not None:
            arch = flag_mask(FLAG_SEM_WRITES[uop.sem])
            if uop.mask & ~arch:
                report(
                    "bad-flag-mask",
                    f"mask materializes flags {uop.mask & ~arch:#x} that "
                    f"{uop.sem.value} semantics never writes",
                    index,
                )


def _check_terminator(term: Terminator, defined: Set[int], stage: str) -> List[Finding]:
    findings: List[Finding] = []
    shape = _TERMINATOR_SHAPE.get(term.kind)
    if shape is None:
        return [
            Finding(ANALYZER, Severity.ERROR, "bad-terminator",
                    f"unknown terminator kind {term.kind!r}", stage=stage)
        ]
    for field_name in shape:
        if getattr(term, field_name) is None:
            findings.append(
                Finding(ANALYZER, Severity.ERROR, "bad-terminator",
                        f"{term.kind.value} terminator missing {field_name!r}", stage=stage)
            )
    if term.kind is ExitKind.INDIRECT and term.temp is not None and term.temp not in defined:
        findings.append(
            Finding(ANALYZER, Severity.ERROR, "use-before-def",
                    f"indirect terminator reads undefined t{term.temp}", stage=stage)
        )
    return findings


def _check_flag_soundness(block: IRBlock, live_out: int, stage: str) -> List[Finding]:
    """Backward flag liveness; flags a FLAGS mask that dropped a live bit.

    Mirrors :func:`repro.dbt.optimizer.deadflags.eliminate_dead_flags`:
    SETCC and the BRANCH terminator add their condition's flags to the
    live set, GETF makes everything live, PUTF kills everything, and a
    FLAGS uop with a dynamic shift count cannot kill liveness (a zero
    count preserves flags at runtime).  A clean block satisfies, for
    every FLAGS uop, ``mask ⊇ arch_writes ∩ live_after``.
    """
    findings: List[Finding] = []
    live = live_out
    term = block.terminator
    if term.kind is ExitKind.BRANCH and term.cc is not None:
        live |= flag_mask(CONDITION_FLAG_USES[term.cc])

    for index in range(len(block.uops) - 1, -1, -1):
        uop = block.uops[index]
        kind = uop.kind
        if kind is UOpKind.FLAGS:
            if uop.sem is None:
                continue  # arity check already reported this
            arch = flag_mask(FLAG_SEM_WRITES[uop.sem])
            missing = arch & live & ~uop.mask
            if missing:
                names = "|".join(f.name for f in Flag if missing & (1 << f))
                findings.append(
                    Finding(
                        ANALYZER,
                        Severity.ERROR,
                        "dead-flag-mis-elimination",
                        f"flags.{uop.sem.value} mask {uop.mask:#x} dropped {names}, "
                        "which a later consumer still observes",
                        address=index,
                        stage=stage,
                    )
                )
            if uop.count is None:  # definite write: kills liveness
                live &= ~uop.mask
        elif kind is UOpKind.SETCC and uop.cc is not None:
            live |= flag_mask(CONDITION_FLAG_USES[uop.cc])
        elif kind is UOpKind.GETF:
            live = ALL_FLAGS_MASK
        elif kind is UOpKind.PUTF:
            live = 0
    return findings
