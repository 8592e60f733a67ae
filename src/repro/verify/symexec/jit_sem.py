"""Symbolic evaluator over block-JIT *generated Python source*.

:func:`run_closure` parses the source :mod:`repro.guest.blockjit`
emits for a compiled block, and abstractly interprets the AST over the
symexec expression language, producing a :class:`SymState` directly
comparable (by hash-cons identity, else seeded vectors) against what
:mod:`repro.verify.symexec.guest_sem` derives from the decoded
instructions.  This is the fourth rung of the proof ladder: guest ≡ IR
≡ host ≡ JIT closure.

The closure grammar is closed — every statement comes from one of the
``_Compiler._emit_*`` helpers — so the walker recognizes each shape
explicitly and raises :class:`UnsupportedBlock` on anything else
(an unknown shape downgrades a block to *skipped*, never to *proved*).

Two kinds of abstract value flow through the walker besides plain
32-bit :class:`Expr` nodes and exact Python ints:

* :class:`_Wide` — an unmasked Python-int intermediate (``a + b``
  before ``& 0xFFFFFFFF``, a 64-bit product, the ``(edx << 32) | eax``
  dividend pair, a sign-extended ternary).  Wides are symbolic
  *recipes*: they project onto 32-bit expressions only at the masking
  or shifting operation that consumes them, which is where the
  closure's exact-integer arithmetic provably coincides with the
  engine's mod-2^32 semantics.
* :class:`_Token` — an opaque runtime collaborator (the interpreter,
  its memory, the observer, the stats bumper).  Tokens never carry
  data; they gate which statement patterns are legal.

Structural facts that are *checked* rather than modeled — the ``-1``
entry-guard contract, executed-count accounting, SMC-notification
guards after stores, fault-site ordering — accumulate on a
:class:`ClosureSummary` for :mod:`repro.verify.jitverify` to turn into
findings.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.common.bitops import MASK32, u32
from repro.guest.isa import ALL_FLAGS, Instruction, Op

from repro.verify.symexec import expr as E
from repro.verify.symexec.expr import Expr
from repro.verify.symexec.state import SymState, UnsupportedBlock

_SIGN32 = 0x80000000
#: every architectural bit of the packed flags word
FLAG_WORD_MASK = sum(1 << int(flag) for flag in ALL_FLAGS)

_CONTROL_OPS = (Op.JCC, Op.JMP, Op.CALL, Op.RET, Op.INT, Op.HLT)


class ClosureSummary:
    """Structural facts gathered while walking one closure."""

    def __init__(self) -> None:
        #: eip the ``return -1`` entry guard compares against (None: absent)
        self.entry_guard: Optional[int] = None
        #: the tail ``return N`` executed-count (None: absent)
        self.return_count: Optional[int] = None
        #: the tail's ``stats.bump('instructions', N)`` total (None: absent)
        self.instructions: Optional[int] = None
        #: number of ``_ip = N`` fault sites seen (excluding the prologue)
        self.site_count: int = 0
        self.exit_code_set = False
        self.has_try = False
        self.syscall = False
        #: (code, message) structural defects — jitverify turns these
        #: into findings; they never abort the semantic walk
        self.notes: List[Tuple[str, str]] = []

    def note(self, code: str, message: str) -> None:
        self.notes.append((code, message))


class _Token:
    """An opaque runtime object bound in the closure header."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<%s>" % self.kind


class _Page:
    """``_p = MP.get(addr >> 12)`` — remembers the probed byte address."""

    __slots__ = ("addr",)

    def __init__(self, addr: Expr) -> None:
        self.addr = addr


class _Wide:
    """An unmasked Python-int intermediate; see the module docstring."""

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, *args) -> None:
        self.kind = kind
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "_Wide(%s)" % self.kind


_ATTR_TOKENS = {
    ("I", "state"): "S",
    ("I", "memory"): "M",
    ("I", "observer"): "OB",
    ("I", "_decode_low"): "DL",
    ("I", "_decode_high"): "DH",
    ("I", "_note_code_write"): "NC",
    ("I", "stats"): "STATS",
    ("I", "syscalls"): "SYSCALLS",
    ("S", "regs"): "R",
    ("STATS", "bump"): "BUMP",
    ("SYSCALLS", "dispatch"): "DISPATCH",
    ("MP", "get"): "MP.get",
    ("M", "_pages"): "MP",
    ("M", "read_u8"): "M.read_u8",
    ("M", "read_u32"): "M.read_u32",
    ("M", "write_u8"): "M.write_u8",
    ("M", "write_u32"): "M.write_u32",
    ("OB", "on_read"): "OB.call",
    ("OB", "on_write"): "OB.call",
    ("SR", "exited"): "SR.exited",
    ("SR", "exit_code"): "SR.exit_code",
    ("SR", "return_value"): "SR.return_value",
}


def _const_int(node) -> Optional[int]:
    """The value of an integer literal, including negative literals."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and type(node.operand.value) is int):
        return -node.operand.value
    return None


def _unsupported(node, why: str) -> UnsupportedBlock:
    return UnsupportedBlock("%s: %s" % (why, ast.dump(node)[:120]))


class _ClosureEval:
    """One pass over a parsed ``_jit_block`` body."""

    def __init__(self, state: SymState, instrs: List[Instruction],
                 address: int, count: int) -> None:
        self.state = state
        self.instrs = instrs
        self.address = address
        self.count = count
        self.summary = ClosureSummary()
        self.env: Dict[str, object] = {"I": _Token("I")}
        #: (absolute address Expr, size) of a store awaiting its SMC guard
        self.pending_smc: Optional[Tuple[Expr, int]] = None
        self.in_try = False
        self.branch_depth = 0
        self._site_seq = 0
        self._prologue_seen = False
        self._packed_flags_cache: Optional[Expr] = None

    # -- driver ------------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
            raise UnsupportedBlock("closure source is not a function")
        fn = tree.body[0]
        if [a.arg for a in fn.args.args] != ["I"]:
            raise UnsupportedBlock("closure signature is not (I)")
        self._block(fn.body)
        self._flush_pending_smc()
        self._finish()

    def _finish(self) -> None:
        state = self.state
        last = self.instrs[-1]
        op = last.op
        if op is Op.JCC:
            state.exit_kind = "branch"
        elif op in (Op.JMP, Op.CALL):
            state.exit_kind = "jump" if last.target is not None else "indirect"
        elif op is Op.RET:
            state.exit_kind = "indirect"
        elif op is Op.INT:
            state.exit_kind = "syscall"
        elif op is Op.HLT:
            state.exit_kind = "halt"
        else:
            state.exit_kind = "jump"
        if op is Op.HLT:
            # the closure parks eip on the HLT itself; the symbolic
            # convention (guest_sem and ir_sem alike) is next_pc == 0
            if not self.summary.exit_code_set:
                self.summary.note("halt-shape", "hlt closure never sets exit_code")
            state.next_pc = E.const(0)
            return
        eip = self.env.get("@eip")
        if eip is None:
            raise UnsupportedBlock("closure never assigns S.eip")
        state.next_pc = self._project32(eip)

    # -- statement walk ----------------------------------------------------

    def _block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            if self.pending_smc is not None and not self._is_smc_guard(stmt):
                self._flush_pending_smc()
            self._stmt(stmt)
        if self.branch_depth == 0:
            self._flush_pending_smc()

    def _flush_pending_smc(self) -> None:
        if self.pending_smc is not None:
            _, size = self.pending_smc
            self.summary.note(
                "missing-smc-guard",
                "a %d-byte store is not followed by its NC bounds guard" % size,
            )
            self.pending_smc = None

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt)
        if isinstance(stmt, ast.Expr):
            return self._expr_stmt(stmt)
        if isinstance(stmt, ast.If):
            return self._if(stmt)
        if isinstance(stmt, ast.Try):
            return self._try(stmt)
        if isinstance(stmt, ast.Return):
            return self._return(stmt)
        if isinstance(stmt, ast.Raise):
            # only the non-0x80 INT emits an unconditional raise; the
            # block always faults, which the symbolic layer cannot model
            raise UnsupportedBlock("closure faults unconditionally")
        raise _unsupported(stmt, "unsupported statement")

    def _try(self, stmt: ast.Try) -> None:
        if stmt.orelse or stmt.finalbody:
            raise _unsupported(stmt, "unexpected try clause")
        self.summary.has_try = True
        was = self.in_try
        self.in_try = True
        # the semantic path is the non-faulting one; jitverify checks
        # the except handler's writeback/site shape structurally
        self._block(stmt.body)
        self.in_try = was

    def _return(self, stmt: ast.Return) -> None:
        if self.branch_depth:
            raise _unsupported(stmt, "return inside a branch")
        n = _const_int(stmt.value)
        if n is None:
            raise _unsupported(stmt, "non-literal return")
        self.summary.return_count = n

    # -- assignments -------------------------------------------------------

    def _assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            raise _unsupported(stmt, "multi-target assignment")
        target = stmt.targets[0]
        value = stmt.value

        if isinstance(target, ast.Tuple):
            return self._divmod_assign(stmt)

        if isinstance(target, ast.Name):
            name = target.id
            if name == "_ip":
                n = _const_int(value)
                if n is None:
                    raise _unsupported(stmt, "non-literal _ip")
                self._note_site(n)
                self.env["_ip"] = n
                return
            if name == "_sr":
                return self._syscall_dispatch(value)
            if name == "fl":
                self._lint_flag_assign(value)
            self.env[name] = self._eval(value)
            return

        if isinstance(target, ast.Attribute):
            base = self._eval(target.value)
            if isinstance(base, _Token) and base.kind == "S":
                if target.attr == "eip":
                    self.env["@eip"] = self._eval(value)
                    return
                if target.attr == "flags":
                    self._writeback_flags(self._eval(value))
                    return
            if isinstance(base, _Token) and base.kind == "I" \
                    and target.attr == "exit_code":
                self.summary.exit_code_set = True
                self._eval(value)  # must at least be evaluable
                return
            raise _unsupported(stmt, "unsupported attribute store")

        if isinstance(target, ast.Subscript):
            base = self._eval(target.value)
            if isinstance(base, _Token) and base.kind == "R":
                n = _const_int(target.slice)
                if n is None:
                    raise _unsupported(stmt, "non-literal register index")
                self.state.regs[n] = self._project32(self._eval(value))
                return
            raise _unsupported(stmt, "raw page store outside dispatch pattern")

        raise _unsupported(stmt, "unsupported assignment target")

    def _note_site(self, n: int) -> None:
        if not self.in_try:
            # `_ip = 0` prologue before the try block
            if self._prologue_seen or n != 0:
                self.summary.note("fault-site-order",
                                  "unexpected _ip assignment outside try")
            self._prologue_seen = True
            return
        if n != self._site_seq:
            self.summary.note(
                "fault-site-order",
                "site index %d out of order (expected %d)" % (n, self._site_seq),
            )
        self._site_seq += 1
        self.summary.site_count = self._site_seq

    def _divmod_assign(self, stmt: ast.Assign) -> None:
        # `_q, _rm = divmod((edx << 32) | eax, b)` — unsigned DIV
        target = stmt.targets[0]
        value = stmt.value
        if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "divmod" and len(value.args) == 2
                and len(target.elts) == 2
                and all(isinstance(e, ast.Name) for e in target.elts)):
            raise _unsupported(stmt, "unsupported tuple assignment")
        num = self._eval(value.args[0])
        den = self._project32(self._eval(value.args[1]))
        if isinstance(num, _Wide) and num.kind == "pair":
            hi, lo = num.args
        elif isinstance(num, (int, Expr)):
            # `(0 << 32) | eax` constant-folds to plain eax
            hi, lo = E.const(0), self._project32(num)
        else:
            raise _unsupported(stmt, "divmod on a non-pair dividend")
        if not self._assumed(E.eq(hi, E.const(0))):
            raise UnsupportedBlock("DIV without the EDX == 0 assumption")
        qname, rname = (e.id for e in target.elts)
        self.env[qname] = E.divu(lo, den)
        self.env[rname] = E.remu(lo, den)

    def _syscall_dispatch(self, value) -> None:
        # `_sr = I.syscalls.dispatch(r0, [r3, r1, r2], M)`
        fn = self._eval(value.func) if isinstance(value, ast.Call) else None
        if not (isinstance(fn, _Token) and fn.kind == "DISPATCH"):
            raise _unsupported(value, "unsupported _sr assignment")
        args = value.args
        ok = (len(args) == 3 and isinstance(args[1], ast.List)
              and [getattr(a, "id", None) for a in args[1].elts] == ["r3", "r1", "r2"]
              and getattr(args[0], "id", None) == "r0")
        if not ok:
            self.summary.note("syscall-args",
                              "dispatch argument registers are not eax/[ebx,ecx,edx]")
        last = self.instrs[-1]
        if last.op is not Op.INT:
            raise UnsupportedBlock("syscall dispatch in a non-INT block")
        self.summary.syscall = True
        self.env["_sr"] = _Token("SR")
        # the symbolic convention stops at the syscall boundary: eax is
        # the pre-dispatch value and next_pc the return address — the
        # `if _sr.exited:` postlude is consumed without modeling
        self.env["@eip"] = E.const(last.next_address)

    # -- expression statements ---------------------------------------------

    def _expr_stmt(self, stmt: ast.Expr) -> None:
        value = stmt.value
        if isinstance(value, ast.Call):
            fn = self._eval(value.func)
            if isinstance(fn, _Token):
                if fn.kind == "BUMP":
                    return self._record_bump(value)
                if fn.kind == "OB.call":
                    return  # observer calls are side-effect-free for state
                if fn.kind == "NC":
                    self.summary.note("smc-guard-mismatch",
                                      "NC call outside its bounds guard")
                    return
        raise _unsupported(stmt, "unsupported expression statement")

    def _record_bump(self, call: ast.Call) -> None:
        if len(call.args) != 2:
            raise _unsupported(call, "unsupported bump arity")
        key = call.args[0]
        amount = _const_int(call.args[1])
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)) \
                or amount is None:
            raise _unsupported(call, "non-literal bump")
        if self.branch_depth:
            raise _unsupported(call, "stats bump inside a branch")
        if key.value != "instructions":
            self.summary.note("stats-mismatch",
                              "closure bumps the unknown counter %r" % key.value)
            return
        self.summary.instructions = (self.summary.instructions or 0) + amount

    # -- if statements -----------------------------------------------------

    def _if(self, node: ast.If) -> None:
        test = node.test

        # entry guard: `if S.eip != N: return -1`
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.NotEq)
                and isinstance(test.left, ast.Attribute)
                and test.left.attr == "eip"):
            want = _const_int(test.comparators[0])
            ok = (want is not None and not node.orelse and len(node.body) == 1
                  and isinstance(node.body[0], ast.Return)
                  and _const_int(node.body[0].value) == -1)
            if ok:
                self.summary.entry_guard = want
            else:
                self.summary.note("missing-entry-guard", "entry guard is malformed")
            return

        # observer guard: `if OB is not None: OB.on_*(...)`
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.left, ast.Name) and test.left.id == "OB"):
            for s in node.body:
                if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
                        and isinstance(s.value.func, ast.Attribute)
                        and s.value.func.attr in ("on_read", "on_write")):
                    raise _unsupported(s, "unsupported observer body")
            if node.orelse:
                raise _unsupported(node, "observer guard with else")
            return

        # syscall postlude: `if _sr.exited:` — consumed, see _syscall_dispatch
        if (isinstance(test, ast.Attribute) and test.attr == "exited"
                and isinstance(self.env.get(getattr(test.value, "id", None)), _Token)):
            return

        # page dispatch (loads/stores probe `_p` from the page table)
        if self._mentions_name(test, "_p"):
            return self._page_if(node)

        if self._is_smc_guard(node):
            return self._consume_smc_guard(node)

        if any(isinstance(s, ast.Raise) for s in node.body):
            return self._fault_if(node)

        # IDIV sign fixup: `if (_n < 0) != (_d < 0): _q = -_q`
        if (not node.orelse and len(node.body) == 1
                and isinstance(node.body[0], ast.Assign)):
            a = node.body[0]
            t = a.targets[0]
            if (isinstance(t, ast.Name)
                    and isinstance(a.value, ast.UnaryOp)
                    and isinstance(a.value.op, ast.USub)
                    and getattr(a.value.operand, "id", None) == t.id):
                cur = self.env.get(t.id)
                if isinstance(cur, _Wide) and cur.kind == "idiv_mag":
                    self.env[t.id] = _Wide("idivq", *cur.args)
                    return

        return self._generic_if(node)

    @staticmethod
    def _mentions_name(node, name: str) -> bool:
        return any(isinstance(n, ast.Name) and n.id == name
                   for n in ast.walk(node))

    def _generic_if(self, node: ast.If) -> None:
        """A semantic two-way branch (JCC arms, dynamic shift-count zero)."""
        cond = self._bool_ast(node.test)
        saved_env = dict(self.env)
        mem0 = self.state.mem
        nfaults = len(self.state.faults)
        self.branch_depth += 1
        try:
            self._block(node.body)
            then_env, then_mem = self.env, self.state.mem
            self.env = dict(saved_env)
            self.state.mem = mem0
            self._block(node.orelse)
        finally:
            self.branch_depth -= 1
        else_env = self.env
        if then_mem is not mem0 or self.state.mem is not mem0:
            raise UnsupportedBlock("memory store under a semantic branch")
        if len(self.state.faults) != nfaults:
            raise UnsupportedBlock("fault guard under a semantic branch")
        joined: Dict[str, object] = {}
        for key in {**then_env, **else_env}:
            tv = then_env.get(key, _MISSING)
            ev = else_env.get(key, _MISSING)
            if tv is _MISSING or ev is _MISSING:
                # a temp local live only inside one arm (e.g. `_cy`);
                # a later read would hit the unbound-name check
                continue
            if tv is ev or (isinstance(tv, int) and tv == ev):
                joined[key] = tv
                continue
            joined[key] = E.ite(cond, self._project32(tv), self._project32(ev))
        self.env = joined

    def _fault_if(self, node: ast.If) -> None:
        """A `if <cond>: _ip = k; raise _GF(...)` guard (div by zero etc.)."""
        if node.orelse:
            raise _unsupported(node, "fault guard with else")
        raise_seen = False
        for s in node.body:
            if (isinstance(s, ast.Assign) and len(s.targets) == 1
                    and getattr(s.targets[0], "id", None) == "_ip"):
                n = _const_int(s.value)
                if n is None:
                    raise _unsupported(s, "non-literal _ip")
                self._note_site(n)
            elif isinstance(s, ast.Raise):
                raise_seen = True
                exc = s.exc
                ok = (isinstance(exc, ast.Call)
                      and getattr(exc.func, "id", None) == "_GF"
                      and len(exc.args) == 2
                      and _const_int(exc.args[0]) is not None)
                if not ok:
                    self.summary.note("fault-site-order", "malformed _GF raise")
            else:
                raise _unsupported(s, "unsupported fault-guard body")
        if not raise_seen:
            raise _unsupported(node, "fault guard without a raise")
        test = node.test
        # `if divisor == 0:` — an architectural fault both sides record.
        # Overflow guards (`_q > 0xFFFFFFFF`, quotient range checks) are
        # JIT-only: statically unreachable under the same speculation
        # assumptions that gate the divide, so they are not recorded.
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and _const_int(test.comparators[0]) == 0):
            value = self._cmp_operand(self._eval(test.left))
            fault = E.eq(value, E.const(0))
            if not any(f is fault for f in self.state.faults):
                self.state.faults.append(fault)

    # -- page-dispatched loads and stores ------------------------------------

    def _page_if(self, node: ast.If) -> None:
        test = node.test
        if isinstance(test, ast.BoolOp):  # `if _p is None or _o > 4092:`
            slow, fast, width = node.body, node.orelse, 4
        else:  # `if _p is not None:` (byte store: fast arm first)
            slow, fast, width = node.orelse, node.body, 1
        if len(slow) != 1 or len(fast) != 1:
            raise _unsupported(node, "unsupported page dispatch")
        s, f = slow[0], fast[0]

        if isinstance(s, ast.Assign):  # 32-bit load (byte loads are IfExps)
            call = s.value
            fn = self._eval(call.func) if isinstance(call, ast.Call) else None
            if not (isinstance(fn, _Token) and fn.kind == "M.read_u32"):
                raise _unsupported(s, "unsupported slow-arm load")
            addr = self._project32(self._eval(call.args[0]))
            dest = s.targets[0].id
            self._check_fast_load(f, dest, addr)
            self.env[dest] = E.load(self.state.mem, addr, 4)
            return

        if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)):
            raise _unsupported(s, "unsupported slow arm")
        fn = self._eval(s.value.func)
        if not (isinstance(fn, _Token)
                and fn.kind in ("M.write_u8", "M.write_u32")):
            raise _unsupported(s, "unsupported slow-arm store")
        addr = self._project32(self._eval(s.value.args[0]))
        value = self._project32(self._eval(s.value.args[1]))
        mem0 = self.state.mem
        store = E.store(mem0, addr, value, width)
        self._check_fast_store(f, mem0, addr, store, width)
        self.state.mem = store
        self.pending_smc = (addr, width)

    def _page_of(self, name_node) -> Optional[_Page]:
        page = self.env.get(getattr(name_node, "id", None))
        return page if isinstance(page, _Page) else None

    def _check_fast_load(self, f, dest: str, addr: Expr) -> None:
        """`dest = _FB(_p[_o:_o + 4], 'little')` must read the same word."""
        try:
            assert isinstance(f, ast.Assign) and f.targets[0].id == dest
            call = f.value
            assert isinstance(call, ast.Call) \
                and getattr(call.func, "id", None) == "_FB"
            sub = call.args[0]
            assert isinstance(sub, ast.Subscript) \
                and isinstance(sub.slice, ast.Slice)
            page = self._page_of(sub.value)
            assert page is not None and page.addr is addr
            off = self._project32(self._eval(sub.slice.lower))
            assert off is E.band(addr, E.const(4095))
            upper = sub.slice.upper
            assert (isinstance(upper, ast.BinOp) and isinstance(upper.op, ast.Add)
                    and getattr(upper.left, "id", None)
                    == getattr(sub.slice.lower, "id", None)
                    and _const_int(upper.right) == 4)
        except (AssertionError, AttributeError, IndexError, UnsupportedBlock):
            self.summary.note("page-path-mismatch",
                              "fast-path load disagrees with the slow path")

    def _check_fast_store(self, f, mem0: Expr, addr: Expr,
                          slow_store: Expr, width: int) -> None:
        try:
            assert isinstance(f, ast.Assign)
            sub = f.targets[0]
            assert isinstance(sub, ast.Subscript)
            page = self._page_of(sub.value)
            assert page is not None and page.addr is addr
            if width == 1:
                # `_p[addr & 4095] = value & 255`
                index = self._project32(self._eval(sub.slice))
                assert index is E.band(addr, E.const(4095))
                value = self._project32(self._eval(f.value))
                assert E.store(mem0, addr, value, 1) is slow_store
            else:
                # `_p[_o:_o + 4] = (value).to_bytes(4, 'little')`
                assert isinstance(sub.slice, ast.Slice)
                off = self._project32(self._eval(sub.slice.lower))
                assert off is E.band(addr, E.const(4095))
                call = f.value
                assert (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "to_bytes")
                value = self._project32(self._eval(call.func.value))
                assert E.store(mem0, addr, value, 4) is slow_store
        except (AssertionError, AttributeError, IndexError, UnsupportedBlock):
            self.summary.note("page-path-mismatch",
                              "fast-path store disagrees with the slow path")

    # -- SMC guards ----------------------------------------------------------

    @staticmethod
    def _is_smc_guard(stmt) -> bool:
        return (isinstance(stmt, ast.If) and len(stmt.body) == 1
                and not stmt.orelse
                and isinstance(stmt.body[0], ast.Expr)
                and isinstance(stmt.body[0].value, ast.Call)
                and getattr(stmt.body[0].value.func, "id", None) == "NC")

    def _consume_smc_guard(self, node: ast.If) -> None:
        pending, self.pending_smc = self.pending_smc, None
        if pending is None:
            self.summary.note("smc-guard-mismatch",
                              "NC guard with no preceding store")
            return
        addr, size = pending
        try:
            test = node.test
            assert isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
            low, high = test.values
            # `addr + size > DL`
            assert (isinstance(low, ast.Compare)
                    and isinstance(low.ops[0], ast.Gt)
                    and getattr(low.comparators[0], "id", None) == "DL"
                    and isinstance(low.left, ast.BinOp)
                    and isinstance(low.left.op, ast.Add)
                    and _const_int(low.left.right) == size)
            assert self._project32(self._eval(low.left.left)) is addr
            # `addr - 15 <= DH`
            assert (isinstance(high, ast.Compare)
                    and isinstance(high.ops[0], ast.LtE)
                    and getattr(high.comparators[0], "id", None) == "DH"
                    and isinstance(high.left, ast.BinOp)
                    and isinstance(high.left.op, ast.Sub)
                    and _const_int(high.left.right) == 15)
            assert self._project32(self._eval(high.left.left)) is addr
            call = node.body[0].value
            assert self._project32(self._eval(call.args[0])) is addr
            assert _const_int(call.args[1]) == size
        except (AssertionError, AttributeError, IndexError,
                ValueError, UnsupportedBlock):
            self.summary.note("smc-guard-mismatch",
                              "NC guard does not cover the preceding store")

    # -- flag word helpers ---------------------------------------------------

    def _packed_flags(self) -> Expr:
        if self._packed_flags_cache is None:
            parts = []
            for flag in ALL_FLAGS:
                pos = int(flag)
                bit = self.state.flags[flag]
                parts.append(bit if pos == 0 else E.shl(bit, E.const(pos)))
            self._packed_flags_cache = E.bor(*parts)
        return self._packed_flags_cache

    def _writeback_flags(self, value) -> None:
        fl = self._project32(value)
        for flag in ALL_FLAGS:
            pos = int(flag)
            word = fl if pos == 0 else E.shr(fl, E.const(pos))
            self.state.flags[flag] = E.band(word, E.const(1))

    def _lint_flag_assign(self, value) -> None:
        """Check a `fl = (fl & ~M) | parts` update against the flag word."""
        if isinstance(value, ast.Attribute):
            return  # header `fl = S.flags`
        node, part_nodes = value, []
        while isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            part_nodes.append(node.right)
            node = node.left
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                and getattr(node.left, "id", None) == "fl"):
            return  # not the update shape; the semantic compare still covers it
        mask = self._eval(node.right)
        if not isinstance(mask, int):
            return
        cleared = u32(~mask)
        if cleared & ~FLAG_WORD_MASK:
            self.summary.note(
                "flag-mask-mismatch",
                "update clears non-flag bits %#x" % (cleared & ~FLAG_WORD_MASK),
            )
        if part_nodes:
            parts = E.bor(*[self._project32(self._eval(p))
                            for p in part_nodes])
            stray = parts.ones & ~cleared
            if stray:
                self.summary.note(
                    "flag-mask-mismatch",
                    "flag parts may set bits %#x outside the cleared mask %#x"
                    % (stray, cleared),
                )

    # -- expression evaluation ----------------------------------------------

    def _eval(self, node):
        if isinstance(node, ast.Constant):
            if type(node.value) is int or isinstance(node.value, str):
                return node.value
            raise _unsupported(node, "unsupported literal")
        if isinstance(node, ast.Name):
            try:
                return self.env[node.id]
            except KeyError:
                raise UnsupportedBlock("read of unbound name %r" % node.id)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.BoolOp):
            return self._bool_ast(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.IfExp):
            return self._ifexp(node)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        raise _unsupported(node, "unsupported expression")

    def _attribute(self, node: ast.Attribute):
        base = self._eval(node.value)
        if isinstance(base, _Token):
            key = (base.kind, node.attr)
            kind = _ATTR_TOKENS.get(key)
            if kind is not None:
                return _Token(kind)
            if base.kind == "S" and node.attr == "flags":
                return self._packed_flags()
        raise _unsupported(node, "unsupported attribute")

    def _subscript(self, node: ast.Subscript):
        # `_PF[x]`: PF_TABLE is pre-shifted — entry x is `parity(x) << 2`,
        # the packed PF bit ready to OR into fl
        if isinstance(node.value, ast.Name) and node.value.id == "_PF":
            return E.shl(E.parity(self._project32(self._eval(node.slice))),
                         E.const(2))
        base = self._eval(node.value)
        if isinstance(base, _Token) and base.kind == "R":
            n = _const_int(node.slice)
            if n is None:
                raise _unsupported(node, "non-literal register index")
            return self.state.regs[n]
        if isinstance(base, _Page):
            raise UnsupportedBlock("raw page access outside dispatch pattern")
        raise _unsupported(node, "unsupported subscript")

    def _call(self, node: ast.Call):
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "abs" and len(node.args) == 1:
                return ("abs", self._eval(node.args[0]))
            if name == "_FB":
                raise UnsupportedBlock("fast byte load outside dispatch pattern")
            raise _unsupported(node, "unsupported call")
        fn = self._eval(node.func)
        if isinstance(fn, _Token):
            if fn.kind == "M.read_u32":
                addr = self._project32(self._eval(node.args[0]))
                return E.load(self.state.mem, addr, 4)
            if fn.kind == "M.read_u8":
                addr = self._project32(self._eval(node.args[0]))
                return E.load(self.state.mem, addr, 1)
            if fn.kind == "MP.get":
                arg = node.args[0]
                if (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.RShift)
                        and _const_int(arg.right) == 12):
                    return _Page(self._project32(self._eval(arg.left)))
                raise _unsupported(node, "unsupported page probe")
        raise _unsupported(node, "unsupported call")

    def _unary(self, node: ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return self._bool_ast(node)
        v = self._eval(node.operand)
        if isinstance(node.op, ast.USub):
            if isinstance(v, int):
                return -v
            if isinstance(v, Expr):
                return _Wide("neg", v)
            raise _unsupported(node, "negation of a wide value")
        if isinstance(node.op, ast.Invert):
            if isinstance(v, int):
                return ~v
            return E.bnot(self._project32(v))
        raise _unsupported(node, "unsupported unary op")

    def _binop(self, node: ast.BinOp):
        op = node.op
        if isinstance(op, ast.FloorDiv):
            l = self._eval(node.left)
            r = self._eval(node.right)
            # `abs(_n) // abs(_d)` — IDIV magnitude under the EDX guard
            if (isinstance(l, tuple) and l[0] == "abs"
                    and isinstance(r, tuple) and r[0] == "abs"):
                return self._idiv_magnitude(l[1], r[1])
            raise _unsupported(node, "unsupported floor division")
        l = self._eval(node.left)
        r = self._eval(node.right)
        if isinstance(op, ast.Add):
            return self._wide_sum(l, r)
        if isinstance(op, ast.Sub):
            return self._wide_sub(l, r)
        if isinstance(op, ast.Mult):
            return self._mult(l, r)
        if isinstance(op, ast.BitAnd):
            return self._band(l, r)
        if isinstance(op, ast.BitOr):
            return self._bor(l, r)
        if isinstance(op, ast.BitXor):
            return self._bxor(l, r)
        if isinstance(op, ast.LShift):
            return self._shl(l, r)
        if isinstance(op, ast.RShift):
            return self._shr(node, l, r)
        raise _unsupported(node, "unsupported binary op")

    def _idiv_magnitude(self, num, den) -> _Wide:
        if not (isinstance(num, _Wide) and num.kind == "spair"
                and isinstance(den, _Wide) and den.kind == "signed"):
            raise UnsupportedBlock("IDIV magnitude outside the emitted shape")
        hi, lo = num.args
        divisor = den.args[0]
        if not self._assumed(E.eq(hi, E.sar(lo, E.const(31)))):
            raise UnsupportedBlock("IDIV without the EDX == sign(EAX) assumption")
        return _Wide("idiv_mag", lo, divisor)

    def _assumed(self, candidate: Expr) -> bool:
        return any(a is candidate for a in self.state.assumes)

    def _wide_sum(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l + r
        if isinstance(l, _Wide) and l.kind == "sum":
            return _Wide("sum", *(l.args + (r,)))
        return _Wide("sum", l, r)

    def _wide_sub(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l - r
        # `_rm = _n - _q * _d` — the IDIV remainder
        if (isinstance(l, _Wide) and l.kind == "spair"
                and isinstance(r, _Wide) and r.kind == "idiv_prod"):
            lo, divisor = r.args
            if l.args[1] is lo:
                return E.rems(lo, divisor)
            raise UnsupportedBlock("IDIV remainder operand mismatch")
        return _Wide("diff", l, r)

    def _mult(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l * r
        if isinstance(l, _Wide) or isinstance(r, _Wide):
            if (isinstance(l, _Wide) and l.kind == "signed"
                    and isinstance(r, _Wide) and r.kind == "signed"):
                return _Wide("prod_s", l.args[0], r.args[0])
            if (isinstance(l, _Wide) and l.kind == "idivq"
                    and isinstance(r, _Wide) and r.kind == "signed"):
                lo, divisor = l.args
                if r.args[0] is divisor:
                    return _Wide("idiv_prod", lo, divisor)
            raise UnsupportedBlock("unsupported wide product")
        # always wide: a MUL high word (`_prod >> 32`) must see the
        # product even when constant propagation made an operand const;
        # address scales project back to E.mul under the `& 0xFFFFFFFF`
        return _Wide("prod_u", self._project32(l), self._project32(r))

    def _band(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l & r
        if isinstance(l, _Wide) or isinstance(r, _Wide):
            wide, mask = (l, r) if isinstance(l, _Wide) else (r, l)
            if not isinstance(mask, int):
                raise UnsupportedBlock("wide & non-constant")
            m = u32(mask) if mask < 0 or mask <= MASK32 else None
            if m is None:
                raise UnsupportedBlock("wide & oversized mask")
            # congruent: every wide is ≡ its 32-bit projection mod 2^32
            return E.band(self._project32(wide), E.const(m))
        return E.band(self._project32(l), self._project32(r))

    def _bor(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l | r
        if isinstance(l, _Wide) and l.kind == "shl" and l.args[1] == 32:
            # `(edx << 32) | eax` — the 64-bit dividend pair
            return _Wide("pair", l.args[0], self._project32(r))
        if (isinstance(l, int) and l & MASK32 == 0
                and 0 < l >> 32 <= MASK32 and not isinstance(r, _Wide)):
            # the same pair with a constant-folded high word
            return _Wide("pair", E.const(l >> 32), self._project32(r))
        if isinstance(l, _Wide) or isinstance(r, _Wide):
            raise UnsupportedBlock("unsupported wide bitwise-or")
        return E.bor(self._project32(l), self._project32(r))

    def _bxor(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l ^ r
        if isinstance(l, _Wide) or isinstance(r, _Wide):
            raise UnsupportedBlock("unsupported wide xor")
        return E.bxor(self._project32(l), self._project32(r))

    def _shl(self, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l << r
        count = r if isinstance(r, int) else self._project32(r)
        a = self._project32(l)
        if (isinstance(count, int) and 0 <= count < 32
                and (a.ones << count) <= MASK32):
            # known bits prove the exact Python shift never exceeds 32
            # bits, so the mod-2^32 node is equal — flag-bit packing
            # (`(_res == 0) << 6`) stays narrow
            return E.shl(a, E.const(count))
        return _Wide("shl", a, count)

    def _shr(self, node, l, r):
        if isinstance(l, int) and isinstance(r, int):
            return l >> r
        if isinstance(l, _Wide):
            kind = l.kind
            if kind == "sum" and len(l.args) == 2 and r == 32:
                # ADD carry: `(a + b) >> 32` == unsigned overflow
                a = self._project32(l.args[0])
                b = self._project32(l.args[1])
                return E.ult(E.add(a, b), a)
            if kind == "sum" and len(l.args) == 2 and r == 8:
                # byte ADD carry
                a = self._project32(l.args[0])
                b = self._project32(l.args[1])
                return E.shr(E.add(a, b), E.const(8))
            if kind == "shl" and r == 32:
                # SHL carry: `((a << c) >> 32) & 1` == bit (32 - c) of a
                a, c = l.args
                if isinstance(c, int):
                    if not 0 < c < 32:
                        raise UnsupportedBlock("shl carry with count %r" % c)
                    return E.shr(a, E.const(32 - c))
                return E.shr(a, E.sub(E.const(32), c))
            if kind == "prod_u" and r == 32:
                return E.mulhu(l.args[0], l.args[1])
            if kind == "signed":
                # SAR body and its carry (`_s >> c`, `_s >> (c - 1)`)
                return E.sar(l.args[0], self._count(r))
            raise UnsupportedBlock("unsupported wide shift (%s)" % kind)
        return E.shr(self._project32(l), self._count(r))

    def _count(self, r) -> Expr:
        """A shift count — always < 32 in the emitted grammar, so the
        unmasked `c - 1` difference projects soundly."""
        if isinstance(r, int):
            return E.const(r)
        return self._project32(r)

    def _compare(self, node: ast.Compare):
        if len(node.ops) != 1:
            raise _unsupported(node, "chained comparison outside overflow check")
        op = node.ops[0]
        l = self._eval(node.left)
        r = self._eval(node.comparators[0])
        if isinstance(op, ast.Eq):
            return E.eq(self._cmp_operand(l), self._cmp_operand(r))
        if isinstance(op, ast.NotEq):
            return E.bxor(E.eq(self._cmp_operand(l), self._cmp_operand(r)),
                          E.const(1))
        if isinstance(op, ast.Gt):
            return E.ult(self._project32(r), self._project32(l))
        if isinstance(op, ast.Lt):
            return E.ult(self._project32(l), self._project32(r))
        raise _unsupported(node, "unsupported comparison")

    def _cmp_operand(self, v) -> Expr:
        # zero tests see through sign extension: signed(x) == 0 iff x == 0
        if isinstance(v, _Wide) and v.kind == "signed":
            return v.args[0]
        return self._project32(v)

    def _truthy(self, v) -> Expr:
        if isinstance(v, int):
            return E.const(1 if v else 0)
        if isinstance(v, Expr):
            if v.ones == 1:
                return v
            return E.bxor(E.eq(v, E.const(0)), E.const(1))
        raise UnsupportedBlock("truth test on a wide value")

    def _bool_ast(self, node) -> Expr:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            overflow = self._overflow_check(node.operand)
            if overflow is not None:
                return overflow
            return E.bxor(self._bool_ast(node.operand), E.const(1))
        if isinstance(node, ast.BoolOp):
            parts = [self._bool_ast(v) for v in node.values]
            if isinstance(node.op, ast.Or):
                return E.bor(*parts)
            return E.band(*parts)
        return self._truthy(self._eval(node))

    def _overflow_check(self, node) -> Optional[Expr]:
        """`not -2147483648 <= x <= 2147483647` on a signed product."""
        if not (isinstance(node, ast.Compare) and len(node.ops) == 2
                and isinstance(node.ops[0], ast.LtE)
                and isinstance(node.ops[1], ast.LtE)
                and _const_int(node.left) == -2147483648
                and _const_int(node.comparators[1]) == 2147483647):
            return None
        x = self._eval(node.comparators[0])
        if isinstance(x, _Wide) and x.kind == "prod_s":
            a, b = x.args
            result = E.mul(a, b)
            # exactly flagsem's IMUL overflow: hi != sign-fill(lo)
            return E.ult(E.const(0),
                         E.bxor(E.sar(result, E.const(31)), E.mulhs(a, b)))
        raise UnsupportedBlock("range check outside the IMUL pattern")

    def _ifexp(self, node: ast.IfExp):
        test, body, orelse = node.test, node.body, node.orelse

        # byte page read: `_p[_a & 4095] if _p is not None else M.read_u8(_a)`
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and getattr(test.left, "id", None) == "_p"):
            return self._page_byte_read(node)

        bt, et = _const_int(body), _const_int(orelse)
        if bt == 1 and et == 0:  # SETCC
            return self._bool_ast(test)
        if (bt == MASK32 and et == 0  # CDQ: sign-fill of EAX
                and isinstance(test, ast.BinOp)
                and isinstance(test.op, ast.BitAnd)
                and _const_int(test.right) == _SIGN32):
            return E.sar(self._project32(self._eval(test.left)), E.const(31))

        # MOVSX: `v | 4294967040 if v & 128 else v`
        if (isinstance(body, ast.BinOp) and isinstance(body.op, ast.BitOr)
                and _const_int(body.right) == 0xFFFFFF00
                and isinstance(test, ast.BinOp)
                and isinstance(test.op, ast.BitAnd)
                and _const_int(test.right) == 128
                and ast.dump(body.left) == ast.dump(orelse)
                and ast.dump(test.left) == ast.dump(orelse)):
            return E.sext8(self._project32(self._eval(orelse)))

        # signed widening: `x - 2^K if x & sign else x`
        if (isinstance(body, ast.BinOp) and isinstance(body.op, ast.Sub)
                and isinstance(test, ast.BinOp)
                and isinstance(test.op, ast.BitAnd)
                and ast.dump(body.left) == ast.dump(orelse)
                and ast.dump(test.left) == ast.dump(orelse)):
            sign = _const_int(test.right)
            span = _const_int(body.right)
            v = self._eval(orelse)
            if sign == _SIGN32 and span == 1 << 32:
                return _Wide("signed", self._project32(v))
            if (sign == 1 << 63 and span == 1 << 64
                    and isinstance(v, _Wide) and v.kind == "pair"):
                return _Wide("spair", *v.args)
            raise _unsupported(node, "unsupported sign widening")

        cond = self._bool_ast(test)
        tv = self._project32(self._eval(body))
        ev = self._project32(self._eval(orelse))
        return E.ite(cond, tv, ev)

    def _page_byte_read(self, node: ast.IfExp) -> Expr:
        slow = node.orelse
        fn = self._eval(slow.func) if isinstance(slow, ast.Call) else None
        if not (isinstance(fn, _Token) and fn.kind == "M.read_u8"):
            raise _unsupported(node, "unsupported byte-load slow arm")
        addr = self._project32(self._eval(slow.args[0]))
        try:
            sub = node.body
            assert isinstance(sub, ast.Subscript)
            page = self._page_of(sub.value)
            assert page is not None and page.addr is addr
            index = self._project32(self._eval(sub.slice))
            assert index is E.band(addr, E.const(4095))
        except (AssertionError, AttributeError, UnsupportedBlock):
            self.summary.note("page-path-mismatch",
                              "fast-path byte load disagrees with the slow path")
        return E.load(self.state.mem, addr, 1)

    def _project32(self, v) -> Expr:
        """The 32-bit expression a value denotes mod 2^32."""
        if isinstance(v, Expr):
            return v
        if isinstance(v, int):
            return E.const(v)
        if isinstance(v, _Wide):
            kind = v.kind
            if kind == "sum":
                return E.add(*[self._project32(t) for t in v.args])
            if kind == "diff":
                return E.sub(self._project32(v.args[0]),
                             self._project32(v.args[1]))
            if kind == "neg":
                return E.sub(E.const(0), self._project32(v.args[0]))
            if kind == "shl":
                a, c = v.args
                count = E.const(c) if isinstance(c, int) else c
                return E.shl(a, count)
            if kind in ("prod_u", "prod_s"):
                return E.mul(v.args[0], v.args[1])
            if kind in ("pair", "spair"):
                return v.args[1]  # low word
            if kind == "signed":
                return v.args[0]
            if kind == "idivq":
                return E.divs(v.args[0], v.args[1])
            raise UnsupportedBlock("cannot project wide %r" % kind)
        raise UnsupportedBlock("cannot use %r as a 32-bit value" % (v,))


# hashable sentinel distinct from every legitimate env value
_MISSING = object()


def run_closure(source: str, instrs: List[Instruction], address: int,
                count: int, state: SymState) -> Tuple[SymState, ClosureSummary]:
    """Abstractly execute a compiled block's generated source.

    ``state`` must be a fresh :func:`initial_state` clone sharing its
    variable nodes (and any speculation ``assumes``) with the guest
    evaluation it will be compared against.  Returns the mutated state
    and the structural :class:`ClosureSummary`; raises
    :class:`UnsupportedBlock` when the source falls outside the
    recognized closure grammar.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        raise UnsupportedBlock("closure source does not parse: %s" % err)
    walker = _ClosureEval(state, instrs, address, count)
    walker.run(tree)
    return state, walker.summary
