"""Copy propagation through guest-register GET/PUT pairs.

The frontend re-loads a guest register (``GET``) for every operand use,
so a two-instruction guest sequence touching the same register produces
redundant GETs.  This forward pass tracks which temp currently holds
each guest register's value and which temp holds the packed flags,
rewriting later reads to reuse them.  Redundant ``GET``/``GETF`` uops
become unreferenced and are cleaned up by DCE.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.guest.isa import Register
from repro.dbt.ir import ExitKind, IRBlock, UOpKind


PASS_NAME = "copyprop"


def propagate_copies(block: IRBlock) -> None:
    """Propagate register/flag copies (in place)."""
    reg_value: Dict[Register, int] = {}
    flags_value: Optional[int] = None
    rename: Dict[int, int] = {}
    new_uops = []
    get_kind, put_kind = UOpKind.GET, UOpKind.PUT
    getf_kind, putf_kind, flags_kind = UOpKind.GETF, UOpKind.PUTF, UOpKind.FLAGS

    for uop in block.uops:
        if rename:
            uop = uop.with_sources(rename)
        kind = uop.kind

        if kind is get_kind:
            known = reg_value.get(uop.reg)
            if known is not None:
                rename[uop.dst] = known
                continue  # drop the redundant GET
            reg_value[uop.reg] = uop.dst
        elif kind is put_kind:
            reg_value[uop.reg] = uop.a
        elif kind is getf_kind:
            if flags_value is not None:
                rename[uop.dst] = flags_value
                continue
            flags_value = uop.dst
        elif kind is putf_kind:
            flags_value = uop.a
        elif kind is flags_kind:
            # The packed word changes; any cached GETF temp is stale.
            flags_value = None
        # SETCC reads flags but does not change them

        new_uops.append(uop)

    block.uops = new_uops
    term = block.terminator
    if term.kind is ExitKind.INDIRECT and term.temp in rename:
        term.temp = rename[term.temp]
