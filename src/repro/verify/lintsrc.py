"""Determinism/soundness AST lint over the simulator's own sources.

The parallel figure runners promise bit-identical output for identical
inputs (a standing CI invariant), which a single nondeterministic
construct silently breaks.  ``python -m repro.verify lint-src`` walks
every Python file under ``src/repro`` and flags the hazard classes that
have actually bitten simulator codebases:

* ``set-iteration`` — iterating a set (or materializing one into an
  ordered container) without ``sorted``: set order varies with hash
  seeding, so any result derived from it is run-dependent;
* ``wall-clock`` — ``time.time``/``time_ns``/``datetime.now`` feed
  wall-clock values into simulation state (``time.perf_counter`` for
  *measuring* a run is fine and remains allowed);
* ``global-random`` — the ``random`` module's global-state functions
  outside :mod:`repro.common.prng`; seeded ``random.Random(seed)``
  instances are deterministic and allowed;
* ``mutable-default-arg`` — a mutable default evaluates once and leaks
  state across calls;
* ``shared-cache-mutation`` — a module that spawns workers (imports
  ``concurrent.futures`` or ``threading``) and also mutates a
  module-level mutable global from function scope: the mutation either
  races (threads) or silently diverges per process (processes);
* ``non-atomic-write`` — in harness/worker modules (anything under
  ``harness/`` or importing concurrency), a bare ``open(..., "w")``
  whose enclosing function never calls ``os.replace``/``os.rename``:
  a concurrent reader can observe the torn, partially-written file.
  The sanctioned pattern is stage-to-``*.tmp`` + ``os.replace`` (see
  ``harness/diskcache.py`` and the ``diskcache`` protocol model).

Intentional exceptions live in ``lint-src-allowlist.txt`` at the repo
root, one ``path::code`` per line with a mandatory ``#`` justification.
Entries that no longer match any finding are themselves reported as
``stale-allowlist`` WARNINGs so the file cannot accumulate dead rows.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.verify.findings import Finding, Severity

DEFAULT_ALLOWLIST = "lint-src-allowlist.txt"

#: modules whose use of `random` is the sanctioned randomness source
_PRNG_MODULES = ("common/prng.py",)

_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
}
#: `random.Random(seed)` is deterministic; everything else on the
#: module shares unseeded global state
_RANDOM_OK = {"Random", "SystemRandom"}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}
_MUTATING_METHODS = {"append", "add", "update", "clear", "extend", "insert",
                     "pop", "popitem", "setdefault", "remove", "discard"}
_CONCURRENCY_IMPORTS = {"concurrent", "concurrent.futures", "threading",
                        "multiprocessing"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra: either side evidently a set makes the result one
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        return name in _MUTABLE_CALLS
    return False


class _ModuleLint(ast.NodeVisitor):
    def __init__(self, rel_path: str, wants_random: bool) -> None:
        self.rel_path = rel_path
        self.wants_random = wants_random
        self.findings: List[Tuple[str, int, str]] = []
        self.uses_concurrency = False
        self.module_mutables: Set[str] = set()
        self.function_depth = 0
        #: enclosing-function node ids (scope keys for the atomic-write
        #: rule; module level is the empty stack -> key None)
        self._scope_stack: List[int] = []
        self._file_writes: List[Tuple[ast.AST, str, Optional[int]]] = []
        self._replace_scopes: Set[Optional[int]] = set()

    def flag(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append((code, getattr(node, "lineno", 0), message))

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if alias.name in _CONCURRENCY_IMPORTS or root in ("threading",
                                                              "multiprocessing"):
                self.uses_concurrency = True
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] in ("concurrent",
                                                         "threading",
                                                         "multiprocessing"):
            self.uses_concurrency = True
        self.generic_visit(node)

    # -- rule: mutable default args ----------------------------------------

    def _check_defaults(self, node) -> None:
        for default in list(node.args.defaults) + list(node.args.kw_defaults):
            if default is not None and _is_mutable_value(default):
                self.flag("mutable-default-arg", default,
                          "mutable default argument in %r" % node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.function_depth += 1
        self._scope_stack.append(id(node))
        self.generic_visit(node)
        self._scope_stack.pop()
        self.function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- rule: set iteration -----------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.flag("set-iteration", node.iter,
                      "iteration over a set: order is hash-seed dependent")
        self.generic_visit(node)

    def visit_comprehension_node(self, node) -> None:
        for gen in node.generators:
            if _is_set_expr(gen.iter):
                self.flag("set-iteration", gen.iter,
                          "comprehension over a set: order is hash-seed dependent")
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_node
    visit_GeneratorExp = visit_comprehension_node
    visit_DictComp = visit_comprehension_node

    # -- rule: wall clock + global random + ordered-from-set ---------------

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            pair = (fn.value.id, fn.attr)
            if pair in _WALL_CLOCK:
                self.flag("wall-clock", node,
                          "%s.%s() feeds wall-clock time into results" % pair)
            if (fn.value.id == "random" and not self.wants_random
                    and fn.attr not in _RANDOM_OK):
                self.flag("global-random", node,
                          "random.%s() uses unseeded global state "
                          "(use common/prng or random.Random(seed))" % fn.attr)
        if (isinstance(fn, ast.Name) and fn.id in ("list", "tuple", "enumerate")
                and node.args and _is_set_expr(node.args[0])):
            self.flag("set-iteration", node,
                      "%s() over a set materializes a hash-seed-dependent order"
                      % fn.id)
        # atomic-write bookkeeping: bare open() for writing, and the
        # os.replace/os.rename publishes that excuse the enclosing scope
        if isinstance(fn, ast.Name) and fn.id == "open":
            mode = self._open_mode(node)
            if mode is not None and any(ch in mode for ch in "wax"):
                self._file_writes.append((node, mode, self._scope_key()))
        if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                and fn.value.id == "os" and fn.attr in ("replace", "rename")):
            self._replace_scopes.add(self._scope_key())
        self.generic_visit(node)

    def _scope_key(self) -> Optional[int]:
        return self._scope_stack[-1] if self._scope_stack else None

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        mode = None
        if len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                mode = arg.value
        for keyword in node.keywords:
            if (keyword.arg == "mode" and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)):
                mode = keyword.value.value
        return mode

    # -- rule: shared-cache mutation in worker modules ---------------------

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.module_mutables.add(target.id)
            elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and _is_mutable_value(stmt.value)
                    and isinstance(stmt.target, ast.Name)):
                self.module_mutables.add(stmt.target.id)
        self.generic_visit(node)

    def _mutation_target(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return node.value.id
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.function_depth:
            for target in node.targets:
                name = self._mutation_target(target)
                if name in self.module_mutables:
                    self._flag_shared(node, name)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.function_depth:
            name = self._mutation_target(node.target)
            if name in self.module_mutables:
                self._flag_shared(node, name)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if (self.function_depth and isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.attr in _MUTATING_METHODS
                and call.func.value.id in self.module_mutables):
            self._flag_shared(node, call.func.value.id)
        self.generic_visit(node)

    def _flag_shared(self, node: ast.AST, name: str) -> None:
        self._pending_shared = getattr(self, "_pending_shared", [])
        self._pending_shared.append((node, name))

    def finish(self) -> None:
        # shared-cache mutations only count in modules that spawn workers
        if self.uses_concurrency:
            for node, name in getattr(self, "_pending_shared", []):
                self.flag("shared-cache-mutation", node,
                          "module-level mutable %r mutated in a module that "
                          "spawns workers" % name)
        # non-atomic writes only count where concurrent readers exist:
        # harness/worker modules (os.fdopen-over-mkstemp, the sanctioned
        # staging idiom, is deliberately not matched)
        if self.uses_concurrency or self.rel_path.startswith("src/repro/harness/"):
            for node, mode, scope in self._file_writes:
                if scope in self._replace_scopes:
                    continue
                self.flag("non-atomic-write", node,
                          "open(..., %r) in a worker module without os.replace: "
                          "readers can observe the torn file (stage to *.tmp "
                          "and os.replace instead)" % mode)


def _load_allowlist(path: Optional[Path]) -> Set[Tuple[str, str]]:
    entries: Set[Tuple[str, str]] = set()
    if path is None or not path.exists():
        return entries
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "::" in line:
            file_part, code = line.split("::", 1)
            entries.add((file_part.strip(), code.strip()))
    return entries


def lint_file(path: Path, rel_path: str) -> List[Finding]:
    """Lint one Python source file; findings carry ``path:line``."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as err:
        return [Finding(analyzer="lintsrc", severity=Severity.ERROR,
                        code="syntax-error", message="%s: %s" % (rel_path, err))]
    wants_random = any(rel_path.endswith(m) for m in _PRNG_MODULES)
    lint = _ModuleLint(rel_path, wants_random)
    lint.visit(tree)
    lint.finish()
    return [
        Finding(analyzer="lintsrc", severity=Severity.ERROR, code=code,
                message="%s:%d: %s" % (rel_path, line, message))
        for code, line, message in sorted(lint.findings, key=lambda f: f[1])
    ]


def _repo_root() -> Path:
    # src/repro/verify/lintsrc.py -> repository root
    return Path(__file__).resolve().parents[3]


def lint_tree(
    root: Optional[Path] = None,
    allowlist: Optional[str] = None,
) -> List[Finding]:
    """Lint every simulator source file, minus allowlisted findings."""
    base = root if root is not None else _repo_root()
    allow_path = Path(allowlist) if allowlist else base / DEFAULT_ALLOWLIST
    allowed = _load_allowlist(allow_path)
    used: Set[Tuple[str, str]] = set()
    findings: List[Finding] = []
    src = base / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(base).as_posix()
        for finding in lint_file(path, rel):
            if (rel, finding.code) in allowed:
                used.add((rel, finding.code))
                continue
            findings.append(finding)
    # an allowlist row that excuses nothing is dead weight — and a trap,
    # because it would silently excuse a future regression of that code
    for rel, code in sorted(allowed - used):
        findings.append(
            Finding(analyzer="lintsrc", severity=Severity.WARNING,
                    code="stale-allowlist",
                    message="%s::%s matches no finding; prune the allowlist row"
                            % (rel, code))
        )
    return findings
