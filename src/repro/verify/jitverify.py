"""Static verification of JIT-compiled block closures (guest ≡ JIT).

The block JIT (:mod:`repro.guest.blockjit`) compiles hot guest blocks
to Python closures, bypassing the IR and host tiers whose translations
are proven by :mod:`repro.verify.equiv`.  :class:`JitVerifier` closes
that gap: for each JIT-eligible block it

1. **lints the generated source structurally** — unbound names, the
   ``return -1`` entry-guard contract, the trailing executed-count
   return and ``instructions`` bump, fault-handler shape, flag-mask
   constants and SMC-notification guards (the latter two surface as
   :class:`~repro.verify.symexec.jit_sem.ClosureSummary` notes); then

2. **discharges guest ≡ closure semantically** — the decoded
   instructions run through the guest evaluator, the generated source
   through :func:`repro.verify.symexec.jit_sem.run_closure`, over one
   shared intern table, and every register/flag/memory/next-pc
   obligation is proved by hash-cons identity or validated on seeded
   vectors, exactly like :class:`~repro.verify.equiv.EquivChecker`.

Structural defects and semantic counterexamples both raise
:class:`~repro.verify.findings.VerificationError` with a stable defect
``code``, so a corrupted closure is *attributed*, not just rejected.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.dbt.ir import ALL_FLAGS_MASK
from repro.guest.blockjit import Ineligible, compile_block
from repro.guest.isa import Instruction, Register

from repro.verify.equiv import DEFAULT_SEED, DEFAULT_VECTORS, EquivStats, SymbolicChecker
from repro.verify.findings import Finding, Severity, VerificationError
from repro.verify.symexec import expr as E
from repro.verify.symexec import guest_sem, jit_sem
from repro.verify.symexec.state import SymState, UnsupportedBlock, initial_state

#: names the closure namespace provides (``_base_namespace`` plus the
#: builtins the emitted source calls)
_CLOSURE_GLOBALS = frozenset(
    {"_MF", "_GF", "_PF", "_FB", "_SITES", "divmod", "abs", "str"}
)

_Defect = Tuple[str, str]


# -- guest side ------------------------------------------------------------


class _AssumingGuestEval(guest_sem._GuestEval):
    """Guest evaluator that *seeds* the divide speculation assumptions.

    On the equiv path the IR's GUARD uops put the DIV/IDIV dividend
    assumptions into the state before the guest evaluator keys off
    them; there is no IR here, so record them ourselves — the closure
    compiles the same speculative divide, guarded by the same faults.
    """

    def _exec_div(self, instr: Instruction) -> None:
        edx = self.state.regs[int(Register.EDX)]
        self.state.assumes.append(E.eq(edx, E.const(0)))
        super()._exec_div(instr)

    def _exec_idiv(self, instr: Instruction) -> None:
        edx = self.state.regs[int(Register.EDX)]
        eax = self.state.regs[int(Register.EAX)]
        self.state.assumes.append(E.eq(edx, E.sar(eax, E.const(31))))
        super()._exec_idiv(instr)


def run_guest_block(instrs: Sequence[Instruction], state: SymState) -> SymState:
    """Like :func:`guest_sem.run_block` over a bare instruction list."""
    evaluator = _AssumingGuestEval(state)
    for instr in instrs:
        evaluator.execute(instr)
        if state.exit_kind is not None:
            return state
    state.exit_kind = "jump"
    state.next_pc = E.const(instrs[-1].next_address)
    return state


# -- structural source lint ------------------------------------------------


def _expr_loads(node: ast.AST, scope: set, defects: List[_Defect]) -> None:
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            name = n.id
            if name not in scope and name not in _CLOSURE_GLOBALS:
                defects.append(("unbound-name", "read of unbound name %r" % name))
                scope.add(name)  # report each name once


def _walk_scope(stmts: Sequence[ast.stmt], scope: set,
                defects: List[_Defect]) -> None:
    """Flow-sensitive unbound-name walk; branch arms bind by intersection."""
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            _expr_loads(stmt.value, scope, defects)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    scope.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            scope.add(elt.id)
                else:  # subscript/attribute target: base and index are reads
                    _expr_loads(target, scope, defects)
        elif isinstance(stmt, ast.If):
            _expr_loads(stmt.test, scope, defects)
            then_scope = set(scope)
            _walk_scope(stmt.body, then_scope, defects)
            else_scope = set(scope)
            _walk_scope(stmt.orelse, else_scope, defects)
            scope |= then_scope & else_scope
        elif isinstance(stmt, ast.Try):
            body_scope = set(scope)
            _walk_scope(stmt.body, body_scope, defects)
            for handler in stmt.handlers:
                handler_scope = set(scope)
                if handler.type is not None:
                    _expr_loads(handler.type, handler_scope, defects)
                if handler.name:
                    handler_scope.add(handler.name)
                _walk_scope(handler.body, handler_scope, defects)
            scope |= body_scope  # the non-faulting path falls through
        elif isinstance(stmt, ast.For):
            _expr_loads(stmt.iter, scope, defects)
            loop_scope = set(scope)
            for n in ast.walk(stmt.target):
                if isinstance(n, ast.Name):
                    loop_scope.add(n.id)
            _walk_scope(stmt.body, loop_scope, defects)
        elif isinstance(stmt, ast.AugAssign):
            # read-modify-write: the target is a read as well
            _expr_loads(stmt.value, scope, defects)
            if isinstance(stmt.target, ast.Name):
                if stmt.target.id not in scope:
                    defects.append((
                        "unbound-name",
                        "augmented write to unbound name %r" % stmt.target.id,
                    ))
                scope.add(stmt.target.id)
            else:
                _expr_loads(stmt.target, scope, defects)
        elif isinstance(stmt, (ast.Expr, ast.Return, ast.Raise)):
            _expr_loads(stmt, scope, defects)
        # anything else is out of grammar; jit_sem rejects it


def _check_fault_handler(fn: ast.FunctionDef) -> List[_Defect]:
    """The ``except (_MF, _GF) as e:`` handler must exist and re-raise."""
    defects: List[_Defect] = []
    for stmt in fn.body:
        if not isinstance(stmt, ast.Try):
            continue
        if len(stmt.handlers) != 1:
            defects.append(("fault-handler", "expected exactly one except handler"))
            continue
        handler = stmt.handlers[0]
        caught = handler.type
        names = (sorted(getattr(e, "id", "?") for e in caught.elts)
                 if isinstance(caught, ast.Tuple) else None)
        if names != ["_GF", "_MF"]:
            defects.append(("fault-handler", "handler does not catch (_MF, _GF)"))
        if not (handler.body and isinstance(handler.body[-1], ast.Raise)):
            defects.append(("fault-handler", "handler does not end in a re-raise"))
        if not any(
            isinstance(s, ast.Assign) and isinstance(s.targets[0], ast.Attribute)
            and s.targets[0].attr == "eip"
            for s in handler.body
        ):
            defects.append(("fault-handler", "handler never rewinds S.eip"))
    return defects


def lint_closure_source(source: str) -> List[_Defect]:
    """Pure-AST structural lint of one generated closure."""
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [("closure-syntax", "closure source does not parse: %s" % err)]
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        return [("closure-syntax", "closure source is not a function")]
    fn = tree.body[0]
    defects: List[_Defect] = []
    _walk_scope(fn.body, {a.arg for a in fn.args.args}, defects)
    defects.extend(_check_fault_handler(fn))
    return defects


# -- the verifier ----------------------------------------------------------


class JitVerifier(SymbolicChecker):
    """Discharges guest ≡ JIT-closure, one compiled block at a time."""

    analyzer = "jitverify"

    def check_block(self, instrs: Sequence[Instruction], address: int) -> bool:
        """Compile the block and verify the closure; False if ineligible.

        Ineligible blocks are silently skipped — the engine runs them
        through the legacy interpreter path, which the equiv ladder
        already covers.
        """
        instrs = list(instrs)
        try:
            block = compile_block(instrs, address, len(instrs))
        except Ineligible:
            return False
        self.verify_closure(block.source, instrs, address, len(instrs))
        return True

    def verify_closure(self, source: str, instrs: Sequence[Instruction],
                       address: int, count: int) -> None:
        """Verify one generated closure against its decoded instructions.

        Raises :class:`VerificationError` naming the defect class on any
        structural violation or semantic counterexample; unsupported
        constructs downgrade to WARNING-level skips.
        """
        instrs = list(instrs)
        self.stats.blocks += 1
        defects = lint_closure_source(source)

        E.reset()
        initial = initial_state()
        guest_state: Optional[SymState] = None
        jit_state: Optional[SymState] = None
        summary = None
        skip_err: Optional[UnsupportedBlock] = None
        try:
            guest_state = run_guest_block(instrs, initial.clone())
        except UnsupportedBlock as err:
            skip_err = err
        if guest_state is not None:
            jit_init = initial.clone()
            jit_init.assumes = list(guest_state.assumes)
            try:
                jit_state, summary = jit_sem.run_closure(
                    source, instrs, address, count, jit_init
                )
            except UnsupportedBlock as err:
                skip_err = err

        if summary is not None:
            defects.extend(summary.notes)
            if summary.entry_guard != address:
                defects.append((
                    "missing-entry-guard",
                    "closure does not return -1 unless eip == %#x (guard: %r)"
                    % (address, summary.entry_guard),
                ))
            if summary.return_count != count:
                defects.append((
                    "bad-return-count",
                    "closure returns %r, interpreter executes %d instructions"
                    % (summary.return_count, count),
                ))
            if summary.instructions != count:
                defects.append((
                    "stats-mismatch",
                    "closure counts %r instructions, interpreter executes %d"
                    % (summary.instructions, count),
                ))

        stage = "jit"
        if defects:
            findings = [
                Finding(
                    analyzer=self.analyzer,
                    severity=Severity.ERROR,
                    code=code,
                    message=message,
                    address=address,
                    stage=stage,
                )
                for code, message in defects
            ]
            self.stats.refuted += 1
            self.stats.findings.extend(findings)
            raise VerificationError(stage, findings, context=self.context)
        # the structural contract held: one discharged obligation
        self.stats.proved += 1

        if skip_err is not None:
            self._skip(stage, skip_err)
            return
        self._compare(guest_state, jit_state, stage, ALL_FLAGS_MASK)


__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_VECTORS",
    "EquivStats",
    "JitVerifier",
    "lint_closure_source",
    "run_guest_block",
]
