"""Interned 32-bit bitvector expression language for translation validation.

Expressions are immutable, hash-consed DAG nodes built through smart
constructors that normalize as they build (constant folding, flattening
and canonical ordering of commutative operators, known-bits reasoning,
shift/mask algebra, store-to-load forwarding).  Structural equality is
therefore pointer equality: two symbolic states that intern to the same
node are *proved* equivalent; anything else falls back to concrete
random-vector refutation (see ``concrete.py``).

The intern table is global and cleared per translated block via
``reset()`` — the equivalence checker owns that lifecycle.

Known-bits: every node carries ``ones``, a mask of bits that *may* be
set.  Any concrete valuation of the node is a submask of ``ones``; the
simplifier uses this to kill masked-off operations and to discharge
comparisons.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.bitops import MASK32, parity8, to_signed32, u32

BOOL = 1
_SIGN32 = 0x80000000
_SIGN8 = 0x80

# Value-producing operators (everything except "store"/"memvar", which
# produce memory images).
_COMMUTATIVE = ("add", "band", "bor", "bxor")


class Expr:
    """One interned expression node.  Never construct directly."""

    __slots__ = ("op", "args", "value", "name", "ones", "uid", "size")

    def __init__(
        self,
        op: str,
        args: Tuple["Expr", ...],
        value: Optional[int],
        name: Optional[str],
        ones: int,
        uid: int,
    ) -> None:
        self.op = op
        self.args = args
        self.value = value
        self.name = name
        self.ones = ones
        self.uid = uid
        self.size = 1 + sum(a.size for a in args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "const":
            return f"0x{self.value:x}"
        if self.op in ("var", "memvar"):
            return str(self.name)
        if self.op in ("load", "store"):
            inner = ", ".join(repr(a) for a in self.args)
            return f"{self.op}{self.value}({inner})"
        return f"{self.op}({', '.join(repr(a) for a in self.args)})"


_INTERN: Dict[Tuple[object, ...], Expr] = {}
_NEXT_UID = 0


def reset() -> None:
    """Clear the intern table.  Call once per checked block."""
    global _NEXT_UID
    _INTERN.clear()
    _NEXT_UID = 0


def _mk(
    op: str,
    args: Tuple[Expr, ...] = (),
    value: Optional[int] = None,
    name: Optional[str] = None,
    ones: int = MASK32,
) -> Expr:
    global _NEXT_UID
    key = (op, value, name) + tuple(a.uid for a in args)
    found = _INTERN.get(key)
    if found is not None:
        return found
    node = Expr(op, args, value, name, ones, _NEXT_UID)
    _NEXT_UID += 1
    _INTERN[key] = node
    return node


def _fill(limit: int) -> int:
    """Smallest all-ones mask covering ``limit`` (a maximum value)."""
    if limit <= 0:
        return 0
    return min(MASK32, (1 << limit.bit_length()) - 1)


# ---------------------------------------------------------------- leaves


def const(value: int) -> Expr:
    value = u32(value)
    return _mk("const", value=value, ones=value)


def var(name: str, ones: int = MASK32) -> Expr:
    return _mk("var", name=name, ones=ones)


def memvar(name: str = "mem") -> Expr:
    return _mk("memvar", name=name, ones=0)


def _is_const(e: Expr, v: Optional[int] = None) -> bool:
    return e.op == "const" and (v is None or e.value == v)


# ------------------------------------------------------------ arithmetic


def add(*terms: Expr) -> Expr:
    flat: List[Expr] = []
    acc = 0
    for t in terms:
        if t.op == "add":
            for sub_t in t.args:
                if sub_t.op == "const":
                    acc = (acc + (sub_t.value or 0)) & MASK32
                else:
                    flat.append(sub_t)
        elif t.op == "const":
            acc = (acc + (t.value or 0)) & MASK32
        else:
            flat.append(t)
    if not flat:
        return const(acc)
    flat.sort(key=lambda e: e.uid)
    if acc:
        flat.insert(0, const(acc))
    if len(flat) == 1:
        return flat[0]
    limit = sum(e.ones for e in flat)
    return _mk("add", tuple(flat), ones=_fill(limit))


def sub(a: Expr, b: Expr) -> Expr:
    if a is b:
        return const(0)
    if b.op == "const":
        return add(a, const(-(b.value or 0)))
    if a.op == "const" and b.op == "const":  # pragma: no cover - caught above
        return const((a.value or 0) - (b.value or 0))
    return _mk("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op != "const":
        a, b = b, a
    if b.op == "const":
        bv = b.value or 0
        if a.op == "const":
            return const((a.value or 0) * bv)
        if bv == 0:
            return const(0)
        if bv == 1:
            return a
        if bv & (bv - 1) == 0:
            return shl(a, const(bv.bit_length() - 1))
    if a.uid > b.uid:
        a, b = b, a
    limit = a.ones * b.ones
    return _mk("mul", (a, b), ones=_fill(min(limit, MASK32)))


def mulhu(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(((a.value or 0) * (b.value or 0)) >> 32)
    if _is_const(a, 0) or _is_const(b, 0):
        return const(0)
    if a.uid > b.uid:
        a, b = b, a
    limit = (a.ones * b.ones) >> 32
    return _mk("mulhu", (a, b), ones=_fill(limit))


def mulhs(a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const":
        return const(u32((to_signed32(a.value or 0) * to_signed32(b.value or 0)) >> 32))
    if _is_const(a, 0) or _is_const(b, 0):
        return const(0)
    if a.uid > b.uid:
        a, b = b, a
    return _mk("mulhs", (a, b))


def _div_fold(op: str, av: int, bv: int) -> int:
    if op == "divu":
        return av // bv
    if op == "remu":
        return av % bv
    sa, sb = to_signed32(av), to_signed32(bv)
    quot = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quot = -quot
    if op == "divs":
        return u32(quot)
    return u32(sa - quot * sb)


def _divlike(op: str, a: Expr, b: Expr) -> Expr:
    if a.op == "const" and b.op == "const" and (b.value or 0) != 0:
        return const(_div_fold(op, a.value or 0, b.value or 0))
    ones = MASK32
    if op == "divu":
        ones = _fill(a.ones)
    elif op == "remu":
        ones = _fill(min(a.ones, b.ones))
    return _mk(op, (a, b), ones=ones)


def divu(a: Expr, b: Expr) -> Expr:
    return _divlike("divu", a, b)


def remu(a: Expr, b: Expr) -> Expr:
    return _divlike("remu", a, b)


def divs(a: Expr, b: Expr) -> Expr:
    return _divlike("divs", a, b)


def rems(a: Expr, b: Expr) -> Expr:
    return _divlike("rems", a, b)


# ----------------------------------------------------------------- logic

_HOIST_LIMIT = 600


def _hoist_ite(args: Tuple[Expr, ...], make) -> Optional[Expr]:
    """Distribute an operator over an ``ite`` argument (size-capped).

    ``op(ite(c,t,e), rest...)`` becomes ``ite(c, op(t,rest), op(e,rest))``
    so that per-branch host states line up against single-expression IR
    states.  Returns None when no argument is an ite or the node is too
    big to duplicate.
    """
    for i, a in enumerate(args):
        if a.op == "ite":
            if sum(x.size for x in args) > _HOIST_LIMIT:
                return None
            cond, then_e, else_e = a.args
            t_args = args[:i] + (then_e,) + args[i + 1 :]
            e_args = args[:i] + (else_e,) + args[i + 1 :]
            return ite(cond, make(t_args), make(e_args))
    return None


def _is_negation(e: Expr) -> bool:
    """Is ``e`` of the form ``bxor(1, x)`` with boolean ``x``?"""
    return (
        e.op == "bxor"
        and len(e.args) == 2
        and e.args[0].op == "const"
        and e.args[0].value == 1
        and e.args[1].ones == BOOL
    )


def _nary_logic(op: str, terms: Iterable[Expr]) -> Expr:
    flat: List[Expr] = []
    for t in terms:
        if t.op == op:
            flat.extend(t.args)
        else:
            flat.append(t)
    consts = [e.value or 0 for e in flat if e.op == "const"]
    rest = [e for e in flat if e.op != "const"]
    if op == "band":
        acc = MASK32
        for v in consts:
            acc &= v
    elif op == "bor":
        acc = 0
        for v in consts:
            acc |= v
    else:
        acc = 0
        for v in consts:
            acc ^= v

    if op in ("band", "bor"):
        seen: List[Expr] = []
        for e in rest:
            if all(e is not s for s in seen):
                seen.append(e)
        rest = seen
    else:  # xor: cancel pairs
        counts: Dict[int, List[Expr]] = {}
        for e in rest:
            counts.setdefault(e.uid, []).append(e)
        rest = [lst[0] for lst in counts.values() if len(lst) % 2 == 1]

    rest.sort(key=lambda e: e.uid)
    union = 0
    for e in rest:
        union |= e.ones

    if op == "band":
        if not rest:
            return const(acc)
        if acc & union == 0:
            return const(0)
        if acc & union != union:
            rest.insert(0, const(acc & union))
        if len(rest) == 1:
            return rest[0]
        inter = MASK32
        for e in rest:
            inter &= e.ones
        if inter == 0:
            return const(0)
        if len(rest) == 2 and rest[0].op == "const" and rest[1].op == "bor":
            # extract masked bits out of a packed word
            return bor(*(band(part, rest[0]) for part in rest[1].args))
        if all(_is_negation(e) for e in rest):
            # De Morgan: ¬x ∧ ¬y ∧ …  →  ¬(x ∨ y ∨ …)
            return bxor(bor(*(e.args[1] for e in rest)), const(1))
        hoisted = _hoist_ite(tuple(rest), lambda a: band(*a))
        if hoisted is not None:
            return hoisted
        return _mk("band", tuple(rest), ones=inter)
    if op == "bor":
        if not rest:
            return const(acc)
        if acc:
            rest.insert(0, const(acc))
        if len(rest) == 1:
            return rest[0]
        ones = acc
        for e in rest:
            ones |= e.ones
        hoisted = _hoist_ite(tuple(rest), lambda a: bor(*a))
        if hoisted is not None:
            return hoisted
        return _mk("bor", tuple(rest), ones=ones)
    # xor
    if acc:
        rest.insert(0, const(acc))
    if not rest:
        return const(0)
    if len(rest) == 1:
        return rest[0]
    ones = 0
    for e in rest:
        ones |= e.ones
    hoisted = _hoist_ite(tuple(rest), lambda a: bxor(*a))
    if hoisted is not None:
        return hoisted
    return _mk("bxor", tuple(rest), ones=ones)


def band(*terms: Expr) -> Expr:
    return _nary_logic("band", terms)


def bor(*terms: Expr) -> Expr:
    return _nary_logic("bor", terms)


def bxor(*terms: Expr) -> Expr:
    return _nary_logic("bxor", terms)


def bnot(a: Expr) -> Expr:
    return bxor(a, const(MASK32))


def zext8(a: Expr) -> Expr:
    return band(a, const(0xFF))


def insert8(a: Expr, b: Expr) -> Expr:
    """Replace the low byte of ``a`` with the low byte of ``b``."""
    return bor(band(a, const(0xFFFFFF00)), band(b, const(0xFF)))


# ---------------------------------------------------------------- shifts


def shl(a: Expr, b: Expr) -> Expr:
    if b.op == "const":
        count = (b.value or 0) & 31
        if count == 0:
            return a
        if a.op == "const":
            return const((a.value or 0) << count)
        if a.ones == 0:
            return const(0)
        if a.op == "shl" and a.args[1].op == "const":
            inner_count = (a.args[1].value or 0) & 31
            if inner_count + count >= 32:
                return const(0)
            return shl(a.args[0], const(inner_count + count))
        if a.op == "shr" and a.args[1].op == "const":
            inner_count = (a.args[1].value or 0) & 31
            if inner_count == count:
                return band(a.args[0], const((MASK32 >> count) << count))
        if a.op in ("band", "bor", "bxor"):
            return _nary_logic(a.op, tuple(shl(part, const(count)) for part in a.args))
        if a.op == "ite" and a.size <= _HOIST_LIMIT:
            return ite(a.args[0], shl(a.args[1], const(count)), shl(a.args[2], const(count)))
        ones = (a.ones << count) & MASK32
        if ones == 0:
            return const(0)
        return _mk("shl", (a, const(count)), ones=ones)
    if a.ones == 0:
        return const(0)
    low = (a.ones & -a.ones).bit_length() - 1
    ones = MASK32 & ~((1 << low) - 1)
    return _mk("shl", (a, b), ones=ones)


def shr(a: Expr, b: Expr) -> Expr:
    if b.op == "const":
        count = (b.value or 0) & 31
        if count == 0:
            return a
        if a.op == "const":
            return const((a.value or 0) >> count)
        if a.ones >> count == 0:
            return const(0)
        if a.op == "shr" and a.args[1].op == "const":
            inner_count = (a.args[1].value or 0) & 31
            if inner_count + count >= 32:
                return const(0)
            return shr(a.args[0], const(inner_count + count))
        if a.op == "shl" and a.args[1].op == "const":
            inner_count = (a.args[1].value or 0) & 31
            if inner_count == count:
                return band(a.args[0], const(MASK32 >> count))
            if inner_count > count:
                return shl(band(a.args[0], const(MASK32 >> inner_count)),
                           const(inner_count - count))
            return shr(band(a.args[0], const(MASK32 >> inner_count)),
                       const(count - inner_count))
        if a.op in ("band", "bor", "bxor"):
            return _nary_logic(a.op, tuple(shr(part, const(count)) for part in a.args))
        if a.op == "ite" and a.size <= _HOIST_LIMIT:
            return ite(a.args[0], shr(a.args[1], const(count)), shr(a.args[2], const(count)))
        return _mk("shr", (a, const(count)), ones=a.ones >> count)
    if a.ones == 0:
        return const(0)
    high = a.ones.bit_length() - 1
    return _mk("shr", (a, b), ones=(1 << (high + 1)) - 1)


def sar(a: Expr, b: Expr) -> Expr:
    if a.ones & _SIGN32 == 0:
        return shr(a, b)
    if b.op == "const":
        count = (b.value or 0) & 31
        if count == 0:
            return a
        if a.op == "const":
            return const(to_signed32(a.value or 0) >> count)
        if count == 24 and a.op == "shl" and _is_const(a.args[1], 24):
            return sext8(a.args[0])
        if a.op == "ite" and a.size <= _HOIST_LIMIT:
            return ite(a.args[0], sar(a.args[1], const(count)), sar(a.args[2], const(count)))
        ones = (a.ones >> count) | (MASK32 & (MASK32 << (32 - count)))
        return _mk("sar", (a, const(count)), ones=ones)
    return _mk("sar", (a, b))


def sext8(a: Expr) -> Expr:
    if a.op == "const":
        v = (a.value or 0) & 0xFF
        return const(v - 0x100 if v & _SIGN8 else v)
    if a.op == "band" and len(a.args) == 2 and a.args[0].op == "const":
        mask = a.args[0].value or 0
        if mask & 0xFF == 0xFF:
            return sext8(a.args[1])
    if a.op == "sext8":
        return a
    if a.ones & _SIGN8 == 0:
        return band(a, const(0xFF))
    if a.op == "ite" and a.size <= _HOIST_LIMIT:
        return ite(a.args[0], sext8(a.args[1]), sext8(a.args[2]))
    return _mk("sext8", (a,), ones=0xFFFFFF00 | (a.ones & 0xFF))


def parity(a: Expr) -> Expr:
    """PF of the low byte of ``a`` (1 when the byte has even parity)."""
    if a.op == "const":
        return const(parity8((a.value or 0) & 0xFF))
    if a.op == "band" and len(a.args) == 2 and a.args[0].op == "const":
        mask = a.args[0].value or 0
        if mask & 0xFF == 0xFF:
            return parity(a.args[1])
    if a.op == "ite" and a.size <= _HOIST_LIMIT:
        return ite(a.args[0], parity(a.args[1]), parity(a.args[2]))
    return _mk("parity", (a,), ones=BOOL)


# ----------------------------------------------------------- comparisons


def eq(a: Expr, b: Expr) -> Expr:
    if a is b:
        return const(1)
    if a.op == "const" and b.op == "const":
        return const(1 if a.value == b.value else 0)
    if b.op == "const":
        a, b = b, a
    if a.op == "const":
        cv = a.value or 0
        if cv & ~b.ones:
            return const(0)
        if b.ones == BOOL:
            if cv == 0:
                return bxor(b, const(1))
            if cv == 1:
                return b
        if cv == 0 and b.op == "bor":
            # x|y == 0  ⇔  x==0 ∧ y==0
            parts = [eq(t, const(0)) for t in b.args]
            out = parts[0]
            for p in parts[1:]:
                out = band(out, p)
            return out
        if cv == 0 and b.op == "shl" and b.args[1].op == "const":
            count = (b.args[1].value or 0) & 31
            if (b.args[0].ones << count) & MASK32 == b.args[0].ones << count:
                return eq(b.args[0], const(0))
        if b.op == "bxor" and b.args[0].op == "const":
            return eq(bxor(*b.args[1:]), const(cv ^ (b.args[0].value or 0)))
    hoisted = _hoist_ite((a, b), lambda p: eq(p[0], p[1]))
    if hoisted is not None:
        return hoisted
    if a.uid > b.uid:
        a, b = b, a
    return _mk("eq", (a, b), ones=BOOL)


def ult(a: Expr, b: Expr) -> Expr:
    if a is b:
        return const(0)
    if a.op == "const" and b.op == "const":
        return const(1 if (a.value or 0) < (b.value or 0) else 0)
    if b.op == "const":
        bv = b.value or 0
        if bv == 0:
            return const(0)
        if bv == 1:
            return eq(a, const(0))
        if a.ones < bv:
            return const(1)
    if a.op == "const" and (a.value or 0) == 0:
        return bxor(eq(b, const(0)), const(1))
    return _mk("ult", (a, b), ones=BOOL)


# ------------------------------------------------------------------- ite


def ite(c: Expr, t: Expr, e: Expr) -> Expr:
    if c.op == "const":
        return t if c.value else e
    if t is e:
        return t
    if c.ones == 0:
        return e
    if c.op == "bxor" and len(c.args) == 2 and _is_const(c.args[0], 1) and c.args[1].ones == BOOL:
        return ite(c.args[1], e, t)
    # merge nested ites over the same arms: ite(c, ite(d,x,y), ite(f,x,y))
    if (
        t.op == "ite"
        and e.op == "ite"
        and t.args[1] is e.args[1]
        and t.args[2] is e.args[2]
    ):
        return ite(ite(c, t.args[0], e.args[0]), t.args[1], t.args[2])
    if t.op == "ite" and t.args[0] is c:
        t = t.args[1]
    if e.op == "ite" and e.args[0] is c:
        e = e.args[2]
    if t is e:
        return t
    ones = t.ones | e.ones
    return _mk("ite", (c, t, e), ones=ones)


# ---------------------------------------------------------------- memory


def _addr_parts(addr: Expr) -> Tuple[Tuple[int, ...], int]:
    """Split an address into (sorted symbolic-part uids, const offset)."""
    if addr.op == "const":
        return ((), addr.value or 0)
    if addr.op == "add":
        offset = 0
        syms: List[int] = []
        for t in addr.args:
            if t.op == "const":
                offset = (offset + (t.value or 0)) & MASK32
            else:
                syms.append(t.uid)
        return (tuple(sorted(syms)), offset)
    return ((addr.uid,), 0)


def _disjoint(addr_a: Expr, width_a: int, addr_b: Expr, width_b: int) -> bool:
    base_a, off_a = _addr_parts(addr_a)
    base_b, off_b = _addr_parts(addr_b)
    if base_a != base_b:
        return False
    delta = (off_a - off_b) & MASK32
    # circular distance: b..b+width_b must not intersect a..a+width_a
    return delta >= width_b and (MASK32 + 1 - delta) >= width_a


def load(mem: Expr, addr: Expr, width: int) -> Expr:
    probe = mem
    for _ in range(64):
        if probe.op != "store":
            break
        s_mem, s_addr, s_val = probe.args
        s_width = probe.value or 4
        if s_addr is addr and s_width == width:
            return s_val if width == 4 else band(s_val, const(0xFF))
        if _disjoint(addr, width, s_addr, s_width):
            probe = s_mem
            continue
        break
    ones = 0xFF if width == 1 else MASK32
    return _mk("load", (probe, addr), value=width, ones=ones)


def store(mem: Expr, addr: Expr, value: Expr, width: int) -> Expr:
    if width == 1:
        value = band(value, const(0xFF))
    if mem.op == "store" and mem.args[1] is addr and (mem.value or 4) == width:
        mem = mem.args[0]
    return _mk("store", (mem, addr, value), value=width, ones=0)


# ----------------------------------------------------------- utilities


def variables(root: Expr) -> List[Expr]:
    """All distinct var/memvar leaves under ``root``."""
    seen: Dict[int, Expr] = {}
    stack = [root]
    visited = set()
    while stack:
        node = stack.pop()
        if node.uid in visited:
            continue
        visited.add(node.uid)
        if node.op in ("var", "memvar"):
            seen[node.uid] = node
        stack.extend(node.args)
    return sorted(seen.values(), key=lambda e: e.uid)
