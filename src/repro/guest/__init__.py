"""VX86: the guest instruction set.

A condensed x86-like CISC architecture that preserves the properties the
paper's translator must fight: variable-length encoding with ModRM/SIB
operand bytes and escape prefixes, two-operand instructions that can
touch memory, condition codes set as a side effect of almost every ALU
operation, subtle flag nuances (INC/DEC preserve CF, shifts by zero
leave flags untouched), indirect branches, and INT-style system calls.

The package provides the full toolchain for the guest side:

* :mod:`repro.guest.isa` — instruction/operand model and opcode tables
* :mod:`repro.guest.encoder` / :mod:`repro.guest.decoder` — binary format
* :mod:`repro.guest.assembler` — text assembler (layout fixpoint, then a strict final pass)
* :mod:`repro.guest.interpreter` — reference interpreter (golden model)
* :mod:`repro.guest.program` — program images and the loader
* :mod:`repro.guest.syscalls` — the proxy system-call interface
"""

from repro.guest.isa import (
    ConditionCode,
    Immediate,
    Instruction,
    MemoryOperand,
    Op,
    Register,
    RegisterOperand,
)
from repro.guest.assembler import AssemblyError, assemble
from repro.guest.decoder import DecodeError, decode_instruction
from repro.guest.encoder import EncodeError, encode_instruction
from repro.guest.interpreter import GuestFault, GuestInterpreter, GuestState
from repro.guest.program import GuestProgram, Section

__all__ = [
    "ConditionCode",
    "Immediate",
    "Instruction",
    "MemoryOperand",
    "Op",
    "Register",
    "RegisterOperand",
    "AssemblyError",
    "assemble",
    "DecodeError",
    "decode_instruction",
    "EncodeError",
    "encode_instruction",
    "GuestFault",
    "GuestInterpreter",
    "GuestState",
    "GuestProgram",
    "Section",
]
