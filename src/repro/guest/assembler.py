"""VX86 text assembler.

The assembler is the tool workload programs are written in.  Syntax is
Intel-flavored::

    .text
    _start:
        mov   ecx, 10
        xor   eax, eax
    loop:
        add   eax, ecx
        dec   ecx
        jnz   loop
        mov   ebx, eax          ; exit code
        mov   eax, 1            ; SYS_exit
        int   0x80

Features: labels, ``name equ expr`` constants, integer expressions
(``+ - * << >> & |`` and parentheses) in immediates and displacements,
``.text`` / ``.data`` sections, ``db`` / ``dd`` / ``dz`` / ``.align``
data directives, byte-width mnemonic suffix (``addb``, ``movb`` ...),
and the full Jcc/SETcc condition alias set (``jz``, ``jne``, ``setle``,
...).

Generated workloads repeat the same few thousand statements many times
over, so each stage works on *distinct* pieces and shares its result:

1. **Lex** each distinct line text once: strip the comment, peel the
   labels, split the operands.
2. **Parse** each distinct ``(mnemonic, operand text)`` (or data
   directive) once into a :class:`_Template`: the opcode, the resolved
   registers, each immediate or displacement as an expression tree, and
   the symbol names those trees read.
3. **Lay out** the program until the symbol values reach a fixpoint.
   Unknown names evaluate to a large placeholder in the first pass, so
   forward references start in their long form and shrink once their
   values are known.  A pass only *evaluates* templates: a symbol-free
   template is encoded once for every line that shares it, and one that
   reads symbols is encoded once per distinct tuple of values it reads.
   Direct branches have a fixed (long-form) size, so a pass only sizes
   them.
4. The **final pass** checks that every name a statement reads is
   defined, reuses the converged pass's bytes and encodes the direct
   branches at their settled addresses.

Errors found while parsing a template are raised when the layout
reaches a line that uses it, so the first error in source order wins
and each carries its own line's number.  The memo tables are locals of
one :func:`assemble` call.
"""

from __future__ import annotations

import operator
import re
import struct
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.guest.encoder import EncodeError, encode_instruction
from repro.guest.isa import (
    ALU_GROUP,
    CONDITION_ALIASES,
    ConditionCode,
    Immediate,
    Instruction,
    MemoryOperand,
    Op,
    Operand,
    REGISTER_NAMES,
    Register,
    RegisterOperand,
)
from repro.guest.program import GuestProgram, Section, TEXT_BASE

DATA_BASE = 0x08400000

#: Placeholder used in pass 1 for unresolved symbols; large enough to
#: force 32-bit immediate/displacement forms so sizes are stable.
_UNRESOLVED = 0x7F000000


class AssemblyError(Exception):
    """A syntax or semantic error in assembly source."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class _Malformed(Exception):
    """A statement error found before layout; raised at each line using it."""


# ---- expressions ------------------------------------------------------------

#: An expression tree: a folded constant, a symbol name, ``("neg", x)``
#: or ``(operator, left, right)``.
_Tree = Union[int, str, tuple]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>0x[0-9a-fA-F]+|\d+)|(?P<name>[A-Za-z_.$][\w.$]*)"
    r"|(?P<op><<|>>|[()+\-*&|])|(?P<char>'(?:\\.|[^'\\])'))"
)

_OPERATORS = {
    "|": operator.or_,
    "&": operator.and_,
    "<<": operator.lshift,
    ">>": operator.rshift,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def _fold(op: str, left: _Tree, right: _Tree) -> _Tree:
    if left.__class__ is int and right.__class__ is int:
        try:
            return _OPERATORS[op](left, right)
        except ValueError as err:  # negative shift count
            raise _Malformed(str(err)) from err
    return (op, left, right)


class _ExprParser:
    """Recursive-descent parser of integer expressions into trees.

    Constant subtrees are folded; every symbol name read is appended to
    ``names`` in evaluation order.
    """

    def __init__(self, text: str, names: List[str]) -> None:
        self._tokens = self._tokenize(text)
        self._pos = 0
        self._names = names

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens: List[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match or match.end() == pos:
                if text[pos:].strip():
                    raise _Malformed(f"bad expression near {text[pos:]!r}")
                break
            tokens.append(match.group().strip())
            pos = match.end()
        return tokens

    def _peek(self) -> Optional[str]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise _Malformed("unexpected end of expression")
        self._pos += 1
        return token

    def parse(self) -> _Tree:
        tree = self._binary(0)
        if self._peek() is not None:
            raise _Malformed(f"trailing tokens in expression: {self._peek()!r}")
        return tree

    #: Binary operators by precedence level, loosest first.
    _LEVELS = (("|",), ("&",), ("<<", ">>"), ("+", "-"), ("*",))

    def _binary(self, level: int) -> _Tree:
        if level == len(self._LEVELS):
            return self._unary()
        operators = self._LEVELS[level]
        tree = self._binary(level + 1)
        while self._peek() in operators:
            op = self._next()
            tree = _fold(op, tree, self._binary(level + 1))
        return tree

    def _unary(self) -> _Tree:
        token = self._next()
        if token == "-":
            operand = self._unary()
            return -operand if operand.__class__ is int else ("neg", operand)
        if token == "+":
            return self._unary()
        if token == "(":
            tree = self._binary(0)
            if self._next() != ")":
                raise _Malformed("missing closing parenthesis")
            return tree
        if token[0].isdigit():
            try:
                return int(token, 0)
            except ValueError:
                raise _Malformed(f"bad number {token!r}") from None
        if token[0] == "'":
            try:
                unescaped = token[1:-1].encode().decode("unicode_escape")
            except UnicodeDecodeError:
                unescaped = ""
            if len(unescaped) != 1:
                raise _Malformed(f"bad character literal {token}")
            return ord(unescaped)
        if token[0].isalpha() or token[0] in "_.$":
            self._names.append(token)
            return token
        raise _Malformed(f"unexpected {token!r} in expression")


#: A whole expression that is one decimal or hex number, or one name.
_ATOM_RE = re.compile(r"\s*(?:(0x[0-9a-fA-F]+|[1-9]\d*|0)|([A-Za-z_.$][\w.$]*))\s*")


def _parse_expr(text: str, names: List[str]) -> _Tree:
    atom = _ATOM_RE.fullmatch(text)
    if atom is None:
        return _ExprParser(text, names).parse()
    number, name = atom.groups()
    if number is not None:
        return int(number, 0)
    names.append(name)
    return name


def _eval(tree: _Tree, symbols: Dict[str, int]) -> int:
    """Value of ``tree``; unknown names read as the placeholder."""
    if tree.__class__ is int:
        return tree
    if tree.__class__ is str:
        return symbols.get(tree, _UNRESOLVED)
    if tree[0] == "neg":
        return -_eval(tree[1], symbols)
    op, left, right = tree
    return _OPERATORS[op](_eval(left, symbols), _eval(right, symbols))


# ---- operands ---------------------------------------------------------------

#: An operand as parsed: a finished :data:`Operand` when it reads no
#: symbol, else ``("imm", tree)`` or ``("mem", base, index, scale, tree)``.
_OperandSpec = Union[Operand, tuple]

_MEM_TERM_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*\*\s*(1|2|4|8)$")


def _parse_memory_operand(body: str, names: List[str]) -> _OperandSpec:
    """Parse the inside of ``[...]`` into base/index/scale/disp."""
    base: Optional[Register] = None
    index: Optional[Register] = None
    scale = 1
    disp_terms: List[str] = []

    # Split on top-level +/- while keeping signs with displacement terms.
    terms: List[str] = []
    depth = 0
    current = ""
    for char in body:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char in "+-" and depth == 0 and current.strip():
            terms.append(current.strip())
            current = char if char == "-" else ""
            continue
        if char == "+" and depth == 0:
            continue
        current += char
    if current.strip():
        terms.append(current.strip())

    for term in terms:
        stripped = term.lstrip("-").strip()
        negative = term.startswith("-")
        scaled = _MEM_TERM_RE.match(stripped)
        if scaled and scaled.group(1).lower() in REGISTER_NAMES and not negative:
            if index is not None:
                raise _Malformed("multiple index registers")
            index = REGISTER_NAMES[scaled.group(1).lower()]
            scale = int(scaled.group(2))
            continue
        if stripped.lower() in REGISTER_NAMES and not negative:
            reg = REGISTER_NAMES[stripped.lower()]
            if base is None:
                base = reg
            elif index is None:
                index = reg
            else:
                raise _Malformed("too many registers in address")
            continue
        disp_terms.append(term)

    disp: _Tree = 0
    for term in disp_terms:
        tree = _parse_expr(term, names)
        disp = tree if disp.__class__ is int and disp == 0 else _fold("+", disp, tree)
    try:
        if disp.__class__ is int:
            return MemoryOperand(base, index, scale, disp)
        checked = MemoryOperand(base, index, scale, 0)
    except ValueError as err:
        raise _Malformed(str(err)) from err
    return ("mem", checked.base, checked.index, checked.scale, disp)


def _parse_operand(text: str, names: List[str]) -> _OperandSpec:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise _Malformed(f"unterminated memory operand {text!r}")
        return _parse_memory_operand(text[1:-1], names)
    lowered = text.lower()
    if lowered in REGISTER_NAMES:
        return RegisterOperand(REGISTER_NAMES[lowered])
    value = _parse_expr(text, names)
    return Immediate(value) if value.__class__ is int else ("imm", value)


def _resolve(spec: Optional[_OperandSpec], symbols: Dict[str, int]) -> Optional[Operand]:
    if spec.__class__ is not tuple:
        return spec
    if spec[0] == "imm":
        return Immediate(_eval(spec[1], symbols))
    _, base, index, scale, disp = spec
    return MemoryOperand(base, index, scale, _eval(disp, symbols))


# ---- lexing -----------------------------------------------------------------


def _scan_quoted(text: str, start: int) -> int:
    """Index just past the string or char literal opening at ``start``."""
    quote = text[start]
    pos = start + 1
    while pos < len(text):
        char = text[pos]
        if char == "\\":
            pos += 2
            continue
        pos += 1
        if char == quote:
            break
    return pos


def _strip_comment(line: str) -> str:
    """``line`` without its ``;`` or ``#`` comment, right-stripped."""
    if '"' not in line and "'" not in line:
        return line.partition(";")[0].partition("#")[0].rstrip()
    pos = 0
    while pos < len(line):
        char = line[pos]
        if char in "\"'":
            pos = _scan_quoted(line, pos)
            continue
        if char in ";#":
            return line[:pos].rstrip()
        pos += 1
    return line.rstrip()


def _split_operands(rest: str) -> Tuple[str, ...]:
    """Split an operand list on commas not inside brackets/parens/literals."""
    if not any(char in rest for char in "\"'[("):
        operands = [part.strip() for part in rest.split(",")]
    else:
        operands = []
        depth = 0
        start = pos = 0
        while pos < len(rest):
            char = rest[pos]
            if char in "\"'":
                pos = _scan_quoted(rest, pos)
                continue
            if char in "[(":
                depth += 1
            elif char in "])":
                depth -= 1
            elif char == "," and depth == 0:
                operands.append(rest[start:pos].strip())
                start = pos + 1
            pos += 1
        operands.append(rest[start:].strip())
    if not operands[-1]:
        operands.pop()
    return tuple(operands)


_SIMPLE_OPS = {op.value: op for op in Op if op not in (Op.JCC, Op.SETCC)}


def _parse_mnemonic(mnemonic: str) -> Tuple[Op, int, Optional[ConditionCode]]:
    """Resolve a mnemonic to (op, width, condition-code)."""
    lowered = mnemonic.lower()
    if lowered.startswith("j") and lowered != "jmp":
        cc = CONDITION_ALIASES.get(lowered[1:])
        if cc is None:
            raise _Malformed(f"unknown branch mnemonic {mnemonic!r}")
        return Op.JCC, 32, ConditionCode(cc)
    if lowered.startswith("set"):
        cc = CONDITION_ALIASES.get(lowered[3:])
        if cc is None:
            raise _Malformed(f"unknown setcc mnemonic {mnemonic!r}")
        return Op.SETCC, 8, ConditionCode(cc)
    if lowered in _SIMPLE_OPS:
        return _SIMPLE_OPS[lowered], 32, None
    if lowered.endswith("b") and lowered[:-1] in _SIMPLE_OPS:
        op = _SIMPLE_OPS[lowered[:-1]]
        if op not in ALU_GROUP:
            raise _Malformed(f"{op.value} has no byte form")
        return op, 8, None
    raise _Malformed(f"unknown mnemonic {mnemonic!r}")


# ---- templates --------------------------------------------------------------


#: Bytes of a statement at an address, under a symbol table.
_Encoder = Callable[[Dict[str, int], int], bytes]


class _Template:
    """One distinct statement, parsed once and shared by every line using it.

    ``names`` are the symbols it reads, in evaluation order.  ``fixed``
    holds the bytes of a statement that reads none; ``memo`` maps each
    tuple of values read to the bytes they give.  A direct branch has a
    fixed ``size`` and is encoded only in the final pass.  ``error`` is
    the message of a malformed statement.
    """

    __slots__ = ("names", "fixed", "memo", "size", "error", "encode")

    def __init__(self, parse: Callable[..., Tuple[_Encoder, Optional[int]]], *args: str) -> None:
        self.names: Tuple[str, ...] = ()
        self.fixed: Optional[bytes] = None
        self.memo: Dict[object, bytes] = {}
        self.size: Optional[int] = None
        self.error: Optional[str] = None
        names: List[str] = []
        try:
            self.encode, self.size = parse(names, *args)
        except _Malformed as err:
            self.error = str(err)
            return
        self.names = tuple(dict.fromkeys(names))
        if self.size is None and not self.names:
            try:
                self.fixed = self.encode({}, 0)
            except (EncodeError, ValueError) as err:
                self.error = str(err)

    def key(self, symbols: Dict[str, int]) -> object:
        """The values this template reads, as a memo key."""
        names = self.names
        if len(names) == 1:
            return symbols.get(names[0], _UNRESOLVED)
        return tuple([symbols.get(name, _UNRESOLVED) for name in names])


def _parse_instruction(
    names: List[str], mnemonic: str, rest: str
) -> Tuple[_Encoder, Optional[int]]:
    """An instruction's encoder, and its size if it is a direct branch."""
    op, width, cc = _parse_mnemonic(mnemonic)
    operands = _split_operands(rest)

    def operand(i: int) -> _OperandSpec:
        return _parse_operand(operands[i], names)

    def expect(count: int) -> None:
        if len(operands) != count:
            raise _Malformed(f"{mnemonic} expects {count} operand(s), got {len(operands)}")

    dst: Optional[_OperandSpec] = None
    src: Optional[_OperandSpec] = None
    target: Optional[_Tree] = None
    imm: Optional[_Tree] = None
    if op is Op.JCC:
        expect(1)
        target = _parse_expr(operands[0], names)
    elif op is Op.SETCC:
        expect(1)
        dst = operand(0)
    elif op in (Op.JMP, Op.CALL):
        expect(1)
        text = operands[0].strip()
        if text.startswith("[") or text.lower() in REGISTER_NAMES:
            dst = operand(0)
        else:
            target = _parse_expr(text, names)
    elif op is Op.RET:
        if operands:
            imm = _parse_expr(operands[0], names)
    elif op is Op.INT:
        expect(1)
        imm = _parse_expr(operands[0], names)
    elif op in (Op.PUSH, Op.POP):
        expect(1)
        dst = operand(0)
    elif op in (Op.INC, Op.DEC, Op.NEG, Op.NOT):
        expect(1)
        dst = operand(0)
    elif op in (Op.MUL, Op.DIV, Op.IDIV):
        expect(1)
        src = operand(0)
    elif op in (Op.CDQ, Op.NOP, Op.HLT):
        expect(0)
    elif op in (Op.SHL, Op.SHR, Op.SAR):
        expect(2)
        src = operand(1)
        if isinstance(src, RegisterOperand) and src.reg is not Register.ECX:
            raise _Malformed("register shift count must be ecx (CL)")
        dst = operand(0)
    else:
        # remaining: two-operand ALU/MOV group + IMUL/LEA/MOVZX/MOVSX/XCHG
        expect(2)
        dst = operand(0)
        src = operand(1)

    def encode(symbols: Dict[str, int], address: int) -> bytes:
        instr = Instruction(
            op,
            width,
            _resolve(dst, symbols),
            _resolve(src, symbols),
            cc,
            None if target is None else _eval(target, symbols) & 0xFFFFFFFF,
            None if imm is None else _eval(imm, symbols),
            address,
        )
        return encode_instruction(instr, allow_short=False)

    if target is None:
        return encode, None
    # Long-form direct branch: Jcc rel32 is 6 bytes, JMP/CALL rel32 5.
    return encode, 6 if op is Op.JCC else 5


_BYTE = struct.Struct("B")
_DWORD = struct.Struct("<I")


def _parse_data(names: List[str], kind: str, rest: str) -> Tuple[_Encoder, None]:
    """The encoder of a ``db``/``dd``/``dz`` statement."""
    items = _split_operands(rest)
    if kind == "dz":
        if len(items) != 1:
            raise _Malformed(f"dz expects 1 operand(s), got {len(items)}")
        count = _parse_expr(items[0], names)

        def encode_zeros(symbols: Dict[str, int], address: int) -> bytes:
            value = _eval(count, symbols)
            if value < 0:
                raise ValueError(f"dz count {value} is negative")
            return bytes(value)

        return encode_zeros, None

    parts: List[Union[bytes, _Tree]] = []
    for item in items:
        if item.startswith('"') and item.endswith('"') and len(item) > 1:
            try:
                parts.append(item[1:-1].encode().decode("unicode_escape").encode("latin-1"))
            except ValueError as err:
                raise _Malformed(f"bad string literal {item}: {err}") from None
        else:
            parts.append(_parse_expr(item, names))
    mask, pack = (0xFF, _BYTE.pack) if kind == "db" else (0xFFFFFFFF, _DWORD.pack)

    def encode(symbols: Dict[str, int], address: int) -> bytes:
        return b"".join(
            part if part.__class__ is bytes else pack(_eval(part, symbols) & mask)
            for part in parts
        )

    return encode, None


# ---- lexing into line records ------------------------------------------------

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_EQU_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s+equ\s+(.+)$", re.IGNORECASE)

#: What :func:`_lex` makes of one line text: its labels, its kind and a
#: kind-specific payload (see :func:`_lex_text`).
_Piece = Tuple[Tuple[str, ...], Optional[str], object]


class _Expr:
    """A directive's expression (``equ``, ``.data``, ``.align``), parsed once."""

    __slots__ = ("tree", "names", "error")

    def __init__(self, text: str) -> None:
        names: List[str] = []
        self.tree: _Tree = 0
        self.error: Optional[str] = None
        try:
            self.tree = _parse_expr(text, names)
        except _Malformed as err:
            self.error = str(err)
        self.names = tuple(dict.fromkeys(names))

    def value(self, symbols: Dict[str, int], line_number: int) -> int:
        if self.error is not None:
            raise AssemblyError(line_number, self.error)
        try:
            return _eval(self.tree, symbols)
        except ValueError as err:
            raise AssemblyError(line_number, str(err)) from err


def _lex_text(raw: str, templates: Dict[tuple, _Template]) -> Optional[_Piece]:
    """Lex one line text; ``None`` for a blank or comment-only line.

    The payload is an :class:`_Expr` for ``equ`` (with its name) and
    ``.align``, the section name and optional address :class:`_Expr` for
    ``.text``/``.data``, the symbol name for ``.entry`` and a
    :class:`_Template` (shared through ``templates``) for data and
    instructions.
    """
    text = _strip_comment(raw).strip()
    if not text:
        return None

    equ = _EQU_RE.match(text)
    if equ:
        return (), "equ", (equ.group(1), _Expr(equ.group(2)))

    labels: List[str] = []
    while True:
        label = _LABEL_RE.match(text)
        if not label:
            break
        labels.append(label.group(1))
        text = text[label.end() :].strip()
    if not text:
        return tuple(labels), None, None

    parts = text.split(None, 1)
    head = parts[0].lower()
    rest = parts[1] if len(parts) > 1 else ""
    if head in (".text", ".data"):
        address = _Expr(rest) if head == ".data" and rest else None
        return tuple(labels), "section", (head[1:], address)
    if head == ".entry":
        return tuple(labels), "entry", rest.strip()
    if head == ".align":
        return tuple(labels), "align", _Expr(rest)
    if head in ("db", "dd", "dz"):
        key = (head, rest)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _Template(_parse_data, head, rest)
        return tuple(labels), "data", template
    key = (parts[0], rest)
    template = templates.get(key)
    if template is None:
        template = templates[key] = _Template(_parse_instruction, parts[0], rest)
    return tuple(labels), "instr", template


def _lex(source: str) -> List[Tuple[int, _Piece]]:
    """Lex source text into ``(line number, piece)`` records.

    Each distinct line text is lexed once, and each distinct statement
    parsed once; lines that repeat a text share its piece.
    """
    pieces: Dict[str, Optional[_Piece]] = {}
    templates: Dict[tuple, _Template] = {}
    records: List[Tuple[int, _Piece]] = []
    for line_number, raw in enumerate(source.splitlines(), start=1):
        if raw in pieces:
            piece = pieces[raw]
        else:
            piece = pieces[raw] = _lex_text(raw, templates)
        if piece is not None:
            records.append((line_number, piece))
    return records


# ---- layout -----------------------------------------------------------------


def _names_read(kind: Optional[str], payload: object) -> Tuple[str, ...]:
    """The symbol names a lexed piece's expressions read."""
    if kind == "equ":
        return payload[1].names
    if kind == "section":
        return payload[1].names if payload[1] is not None else ()
    if kind in ("align", "data", "instr"):
        return payload.names
    return ()


def _statement_error(
    line_number: int, template: _Template, defined: Set[str], err: Exception
) -> AssemblyError:
    """Blame an encode failure on a name nothing defines, if it read one."""
    for name in template.names:
        if name not in defined:
            return AssemblyError(line_number, f"undefined symbol {name!r}")
    return AssemblyError(line_number, str(err))


#: A placed statement's content: its bytes, a count of zero bytes, or a
#: direct branch ``(template, address, line number)`` encoded by the
#: final pass.
_Part = Union[bytes, int, Tuple[_Template, int, int]]


def _layout_pass(
    records: List[Tuple[int, _Piece]],
    known_symbols: Dict[str, int],
    text_base: int,
    data_base: int,
    defined_names: Set[str],
) -> Tuple[Dict[str, int], Dict[str, List[_Part]], Dict[str, int], Optional[str]]:
    """Lay the program out once using last iteration's symbols.

    Returns the symbols, each section's parts, the section bases and
    the ``.entry`` symbol.
    """
    symbols: Dict[str, int] = dict(known_symbols)
    defined: Set[str] = set()
    parts: Dict[str, List[_Part]] = {"text": [], "data": []}
    location = {"text": text_base, "data": data_base}
    bases = {"text": text_base, "data": data_base}
    data_emitted = False
    section = "text"
    out = parts[section]
    here = text_base
    entry_symbol: Optional[str] = None

    def define(name: str, value: int, line_number: int) -> None:
        if name in defined:
            raise AssemblyError(line_number, f"duplicate label {name!r}")
        defined.add(name)
        symbols[name] = value

    for line_number, (labels, kind, payload) in records:
        if kind == "equ":
            name, expr = payload
            define(name, expr.value(symbols, line_number), line_number)
            continue
        if labels:
            for label in labels:
                define(label, here, line_number)

        if kind == "instr" or kind == "data":
            template: _Template = payload
            if kind == "data" and section == "data":
                data_emitted = True
            encoded = template.fixed
            if encoded is None:
                if template.error is not None:
                    raise AssemblyError(line_number, template.error)
                if template.size is not None:
                    out.append((template, here, line_number))
                    here += template.size
                    continue
                key = template.key(symbols)
                encoded = template.memo.get(key)
                if encoded is None:
                    try:
                        encoded = template.memo[key] = template.encode(symbols, 0)
                    except (EncodeError, ValueError) as err:
                        raise _statement_error(line_number, template, defined_names, err) from err
            out.append(encoded)
            here += len(encoded)
        elif kind == "section":
            location[section] = here
            section, address = payload
            if address is not None:
                if data_emitted:
                    raise AssemblyError(line_number, ".data address set after data emitted")
                location["data"] = bases["data"] = address.value(symbols, line_number)
            out = parts[section]
            here = location[section]
        elif kind == "entry":
            entry_symbol = payload
        elif kind == "align":
            alignment = payload.value(symbols, line_number)
            padding = (-here) % max(1, alignment)
            out.append(padding)
            here += padding

    return symbols, parts, bases, entry_symbol


_MAX_LAYOUT_ITERATIONS = 10


def assemble(
    source: str,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
    name: str = "a.out",
) -> GuestProgram:
    """Assemble VX86 source text into a loadable :class:`GuestProgram`.

    Layout iterates to a fixpoint: forward references start as
    long-form placeholders and shrink to their final encodings once
    symbol values are known (classic assembler relaxation).
    """
    records = _lex(source)
    defined_names: Set[str] = set()
    reads: List[Tuple[int, Tuple[str, ...]]] = []
    for line_number, (labels, kind, payload) in records:
        defined_names.update(labels)
        if kind == "equ":
            defined_names.add(payload[0])
        names = _names_read(kind, payload)
        if names:
            reads.append((line_number, names))

    symbols: Dict[str, int] = {}
    for _ in range(_MAX_LAYOUT_ITERATIONS):
        settled, parts, bases, entry_symbol = _layout_pass(
            records, symbols, text_base, data_base, defined_names
        )
        if settled == symbols:
            break
        symbols = settled
    else:
        raise AssemblyError(0, "layout failed to converge (oscillating encodings)")

    # ---- final pass: every name read is defined; encode direct branches ----
    for line_number, names in reads:
        for symbol in names:
            if symbol not in symbols:
                raise AssemblyError(line_number, f"undefined symbol {symbol!r}")
    images = {}
    for section_name, section_parts in parts.items():
        for i, part in enumerate(section_parts):
            if part.__class__ is int:
                section_parts[i] = bytes(part)
            elif part.__class__ is tuple:
                template, address, line_number = part
                try:
                    section_parts[i] = template.encode(symbols, address)
                except ValueError as err:
                    raise AssemblyError(line_number, str(err)) from err
        images[section_name] = b"".join(section_parts)

    sections = [Section(".text", text_base, images["text"])]
    if images["data"]:
        sections.append(Section(".data", bases["data"], images["data"]))

    if entry_symbol is not None:
        if entry_symbol not in symbols:
            raise AssemblyError(0, f"entry symbol {entry_symbol!r} undefined")
        entry = symbols[entry_symbol]
    else:
        entry = symbols.get("_start", text_base)
    return GuestProgram(entry=entry, sections=sections, symbols=dict(symbols), name=name)
