"""Random straight-line VX86 block generator for the equivalence tests.

Produces assembly source for a single basic block of random ALU,
shift, flag, stack and memory traffic, ending in a syscall (so every
flag is live at the exit and the checker compares all of them).

Deliberately out of scope, to keep generated programs inside the
translator's (documented) equivalence envelope:

* ``div``/``idiv`` — quotient guards make random operands fault-prone;
* ``xchg`` with a memory operand — the frontend caches the effective
  address while the interpreter recomputes it after the first write;
* memory addressing beyond ``[buf + masked_reg (+ disp)]`` — the
  interpreter-differential tests need every access inside mapped data.

Dynamic shift counts always come from ``ecx`` (the only register the
frontend reads for a register count, mirroring x86's CL rule).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.guest.interpreter import AccessObserver

REGS = ("eax", "ecx", "edx", "ebx", "esi", "edi")
SETCC = ("sete", "setne", "setb", "setae", "setl", "setg", "setbe", "sets", "seto", "setp")
JCC = ("jz", "jnz", "jb", "jae", "jl", "jg", "jbe", "js", "jo", "jp")
ALU = ("add", "sub", "and", "or", "xor", "cmp")
SHIFTS = ("shl", "shr", "sar")

#: data buffer backing all generated memory traffic
BUF_BYTES = 512

_IMMEDIATES = (0, 1, 2, 5, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0xFFFF, 0x7FFFFFFF, 0x80000000)


class AccessRecorder(AccessObserver):
    """Logs ``(kind, address, size)`` for every data access, in order.

    The observer stream is the guest's execution record (with the
    instruction count), so the differential tests compare it across
    execution paths.
    """

    def __init__(self) -> None:
        self.log: List[Tuple[str, int, int]] = []

    def on_read(self, address: int, size: int) -> None:
        self.log.append(("read", address, size))

    def on_write(self, address: int, size: int) -> None:
        self.log.append(("write", address, size))


def _imm(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.choice(_IMMEDIATES)
    return rng.getrandbits(32)


def _mem(rng: random.Random, lines: List[str], width: int) -> str:
    """A `[buf + reg]` operand, first masking the index into bounds."""
    reg = rng.choice(REGS)
    mask = (BUF_BYTES - 4) & ~3 if width == 32 else BUF_BYTES - 1
    lines.append(f"    and {reg}, {mask:#x}")
    return f"[buf + {reg}]"


def _one_instruction(rng: random.Random, lines: List[str], stack_depth: int, shifts: int) -> int:
    """Append one random instruction (plus any masking prelude).

    Returns the new stack depth; mutates ``lines`` in place.
    """
    dst = rng.choice(REGS)
    src = rng.choice(REGS)
    kind = rng.randrange(16)
    if kind == 0:
        lines.append(f"    mov {dst}, {_imm(rng)}")
    elif kind == 1:
        lines.append(f"    mov {dst}, {src}")
    elif kind == 2:
        op = rng.choice(ALU)
        rhs = str(_imm(rng)) if rng.random() < 0.4 else src
        lines.append(f"    {op} {dst}, {rhs}")
    elif kind == 3:
        lines.append(f"    test {dst}, {src}")
    elif kind == 4:
        op = rng.choice(SHIFTS)
        if shifts < 2 and rng.random() < 0.3:
            lines.append(f"    {op} {dst}, ecx")
            return stack_depth
        lines.append(f"    {op} {dst}, {rng.randrange(0, 32)}")
    elif kind == 5:
        lines.append(f"    {rng.choice(('inc', 'dec', 'neg', 'not'))} {dst}")
    elif kind == 6:
        lines.append(f"    imul {dst}, {src}")
    elif kind == 7:
        lines.append(f"    {rng.choice(SETCC)} {dst}")
    elif kind == 8:
        scale = rng.choice((1, 2, 4, 8))
        lines.append(f"    lea {dst}, [{src} + {rng.choice(REGS)}*{scale} + {rng.randrange(64)}]")
    elif kind == 9:
        lines.append(f"    push {dst}")
        return stack_depth + 1
    elif kind == 10:
        if stack_depth > 0:
            lines.append(f"    pop {dst}")
            return stack_depth - 1
        lines.append(f"    push {src}")
        return stack_depth + 1
    elif kind == 11:
        lines.append("    cdq")
    elif kind == 12:
        lines.append(f"    xchg {dst}, {src}")
    elif kind == 13:
        operand = _mem(rng, lines, 32)
        if rng.random() < 0.5:
            lines.append(f"    mov {dst}, {operand}")
        else:
            lines.append(f"    {rng.choice(('mov', 'add', 'xor'))} {operand}, {dst}")
    elif kind == 14:
        operand = _mem(rng, lines, 8)
        if rng.random() < 0.5:
            lines.append(f"    {rng.choice(('movzx', 'movsx'))} {dst}, {operand}")
        else:
            lines.append(f"    movb {operand}, {dst}")
    else:
        op = rng.choice(("addb", "subb", "xorb", "cmpb"))
        lines.append(f"    {op} {dst}, {src}")
    return stack_depth


def random_block_lines(rng: random.Random, length: int) -> List[str]:
    """Body instructions only (no label, no terminator)."""
    lines: List[str] = []
    depth = 0
    shifts = 0
    for _ in range(length):
        before = len(lines)
        depth = _one_instruction(rng, lines, depth, shifts)
        shifts += sum(
            line.split()[0] in SHIFTS and line.endswith("ecx") for line in lines[before:]
        )
    while depth > 0:
        lines.append(f"    pop {rng.choice(REGS)}")
        depth -= 1
    return lines


def render_program(body: List[str], terminator: Optional[str] = None) -> str:
    """Wrap block body lines into a complete assemblable program."""
    lines = ["_start:"]
    lines += body
    if terminator:
        lines.append(f"    {terminator} done")
        lines.append("    add eax, 11")
    lines += [
        "done:",
        "    int 0x80",
        ".data",
        f"buf: dz {BUF_BYTES}",
    ]
    return "\n".join(lines) + "\n"


def random_program(seed: int, length: int = 12) -> str:
    """One-call generator used by the differential fuzz tests."""
    rng = random.Random(seed)
    body = random_block_lines(rng, length)
    terminator = rng.choice((None, None, *JCC))
    return render_program(body, terminator)


# -- JIT-eligibility-biased profile ---------------------------------------
#
# The block JIT compiles a strictly larger envelope than the default
# profile exercises: divides (speculative, guarded), MUL's 64-bit
# product, XCHG with a memory operand, and every terminator shape
# (direct/computed jmp, call, ret, halt).  This profile folds those in
# so the jitverify property test covers the whole closure grammar.


def _one_jit_instruction(rng: random.Random, lines: List[str],
                         stack_depth: int, shifts: int) -> int:
    roll = rng.random()
    if roll < 0.15:
        choice = rng.randrange(4)
        if choice == 0:
            # unsigned divide under the zeroed-EDX convention; a zero
            # divisor faults identically in closure and interpreter
            lines.append("    xor edx, edx")
            lines.append(f"    div {rng.choice(('ebx', 'esi', 'edi'))}")
        elif choice == 1:
            # signed divide under the CDQ sign-fill convention
            lines.append("    cdq")
            lines.append(f"    idiv {rng.choice(('ebx', 'esi', 'edi'))}")
        elif choice == 2:
            lines.append(f"    mul {rng.choice(REGS)}")
        else:
            operand = _mem(rng, lines, 32)
            lines.append(f"    xchg {rng.choice(REGS)}, {operand}")
        return stack_depth
    return _one_instruction(rng, lines, stack_depth, shifts)


def random_jit_block_lines(rng: random.Random, length: int) -> List[str]:
    """Like :func:`random_block_lines` with the JIT-biased op mix."""
    lines: List[str] = []
    depth = 0
    shifts = 0
    for _ in range(length):
        before = len(lines)
        depth = _one_jit_instruction(rng, lines, depth, shifts)
        shifts += sum(
            line.split()[0] in SHIFTS and line.endswith("ecx") for line in lines[before:]
        )
    while depth > 0:
        lines.append(f"    pop {rng.choice(REGS)}")
        depth -= 1
    return lines


#: terminator shapes the JIT profile rotates through; each lands on the
#: trailing `done: int 0x80` epilogue
_JIT_TERMINATORS = (
    None,  # fall through into the syscall block
    "jcc",
    ("    jmp done",),
    ("    mov esi, done", "    jmp esi"),  # computed jump
    ("    push done", "    ret"),  # indirect return
    ("    call done",),
)


def render_jit_program(body: List[str], terminator) -> str:
    """Wrap a JIT-profile body with one of the terminator shapes."""
    if terminator is None or terminator == "jcc" or isinstance(terminator, str):
        return render_program(body, terminator if terminator != "jcc" else None)
    lines = ["_start:"] + body + list(terminator)
    lines += ["done:", "    int 0x80", ".data", f"buf: dz {BUF_BYTES}"]
    return "\n".join(lines) + "\n"


def random_jit_program(seed: int, length: int = 12) -> str:
    """One-call JIT-profile generator for the jitverify property test."""
    rng = random.Random(seed)
    body = random_jit_block_lines(rng, length)
    terminator = rng.choice(_JIT_TERMINATORS)
    if terminator == "jcc":
        return render_program(body, rng.choice(JCC))
    return render_jit_program(body, terminator)


# -- multi-block loop profile ----------------------------------------------
#
# The dispatch loop runs hot blocks as compiled closures, so its
# differential tests need multi-block loops hot enough to compile: a
# counted loop over several blocks joined by direct jumps, stable
# computed jumps (``mov esi, label; jmp esi`` — an indirect terminator
# whose target never changes), and optionally a one-shot
# self-modifying patch into the loop's own code page mid-run (the SMC
# invalidate and recompile path).  ``ecx`` (loop counter) and ``esi``
# (computed-jump target) are reserved; bodies draw from the rest.

_LOOP_BODY_REGS = ("eax", "ebx", "edx", "edi")


def _one_loop_instruction(rng: random.Random, lines: List[str]) -> None:
    dst = rng.choice(_LOOP_BODY_REGS)
    src = rng.choice(_LOOP_BODY_REGS)
    kind = rng.randrange(8)
    if kind == 0:
        lines.append(f"    mov {dst}, {_imm(rng)}")
    elif kind == 1:
        lines.append(f"    mov {dst}, {src}")
    elif kind == 2:
        # imul included deliberately: its emitter burns the most helper
        # temporaries (register form only — no immediate encoding)
        op = rng.choice(ALU + ("imul",))
        rhs = src if op == "imul" else (
            str(_imm(rng)) if rng.random() < 0.4 else src
        )
        lines.append(f"    {op} {dst}, {rhs}")
    elif kind == 3:
        lines.append(f"    {rng.choice(SHIFTS)} {dst}, {rng.randrange(0, 32)}")
    elif kind == 4:
        lines.append(f"    {rng.choice(('inc', 'dec', 'neg', 'not'))} {dst}")
    elif kind == 5:
        lines.append(f"    {rng.choice(SETCC)} {dst}")
    elif kind == 6:
        scale = rng.choice((1, 2, 4))
        lines.append(f"    lea {dst}, [{src} + {dst}*{scale} + {rng.randrange(64)}]")
    else:
        mask = (BUF_BYTES - 4) & ~3
        lines.append(f"    and {src}, {mask:#x}")
        if rng.random() < 0.5:
            lines.append(f"    mov {dst}, [buf + {src}]")
        else:
            lines.append(f"    mov [buf + {src}], {dst}")


def random_loop_program(
    seed: int,
    iterations: int = 40,
    body_length: int = 3,
) -> str:
    """A multi-block counted loop for the JIT differential tests.

    Each generated program terminates (the loop is counter-driven and
    the patch never touches the loop control), runs its body hot enough
    for blocks to compile at the default threshold, and mixes in
    dispatch hazards at random: a stable computed jump, a conditional
    interior branch, and a mid-run self-modifying store into a code
    page the loop itself spans.
    """
    rng = random.Random(seed)
    blocks = rng.randrange(2, 5)
    computed_at = rng.randrange(blocks - 1) if rng.random() < 0.5 else None
    patch = rng.random() < 0.5
    interior_jcc = rng.random() < 0.4

    lines = ["_start:", f"    mov ecx, {iterations}", "head:"]
    # fixed patch anchor: `mov eax, 5` whose immediate byte sits at
    # [head + 2] once the counter init is behind us (same idiom as the
    # self-patching fast-path test)
    lines.append("    mov eax, 5")
    for j in range(blocks):
        for _ in range(rng.randrange(1, body_length + 1)):
            _one_loop_instruction(rng, lines)
        if j < blocks - 1:
            if interior_jcc and j == 0:
                # a conditional that settles: taken the same way every
                # iteration after the first few, so the path stays hot
                lines.append(f"    cmp ecx, {iterations + 1}")
                lines.append(f"    {rng.choice(('jb', 'jne', 'jl'))} b{j + 1}")
                lines.append("    add edi, 3")
            if computed_at == j:
                lines.append(f"    mov esi, b{j + 1}")
                lines.append("    jmp esi")
            else:
                lines.append(f"    jmp b{j + 1}")
            lines.append(f"b{j + 1}:")
    if patch:
        lines.append(f"    cmp ecx, {iterations // 2}")
        lines.append("    jne nopatch")
        lines.append("    movb [head + 2], 9")
        lines.append("nopatch:")
    lines += [
        "    sub ecx, 1",
        "    jnz head",
        "    mov eax, 1",
        "    and ebx, 255",
        "    int 0x80",
        ".data",
        f"buf: dz {BUF_BYTES}",
    ]
    return "\n".join(lines) + "\n"
