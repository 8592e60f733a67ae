"""32-bit integer arithmetic helpers.

Both the guest (VX86) and host (R32) architectures are 32-bit machines,
while Python integers are arbitrary precision.  Every architectural
register value in the simulator is stored as an *unsigned* Python int in
``[0, 2**32)``; these helpers perform the wrapping, sign extension and
signed reinterpretation that the interpreters and the translator need.
"""

from __future__ import annotations

MASK8 = 0xFF
MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF

_SIGN8 = 0x80
_SIGN16 = 0x8000
_SIGN32 = 0x80000000


def u32(value: int) -> int:
    """Wrap ``value`` to an unsigned 32-bit integer."""
    return value & MASK32


def u16(value: int) -> int:
    """Wrap ``value`` to an unsigned 16-bit integer."""
    return value & MASK16


def u8(value: int) -> int:
    """Wrap ``value`` to an unsigned 8-bit integer."""
    return value & MASK8


def to_signed32(value: int) -> int:
    """Reinterpret an unsigned 32-bit value as signed (two's complement)."""
    value &= MASK32
    return value - 0x100000000 if value & _SIGN32 else value


def to_unsigned32(value: int) -> int:
    """Reinterpret a signed value as its unsigned 32-bit representation."""
    return value & MASK32


def sext8(value: int) -> int:
    """Sign-extend the low 8 bits of ``value`` to 32 bits (unsigned repr)."""
    value &= MASK8
    return u32(value - 0x100) if value & _SIGN8 else value


def sext16(value: int) -> int:
    """Sign-extend the low 16 bits of ``value`` to 32 bits (unsigned repr)."""
    value &= MASK16
    return u32(value - 0x10000) if value & _SIGN16 else value


def sext32(value: int) -> int:
    """Identity at width 32; exists for symmetry in width-indexed tables."""
    return value & MASK32


def zext8(value: int) -> int:
    """Zero-extend the low 8 bits of ``value``."""
    return value & MASK8


def parity8(value: int) -> bool:
    """x86 parity flag: even parity of the low 8 bits."""
    value &= MASK8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return not (value & 1)


def bit(value: int, index: int) -> int:
    """Return bit ``index`` of ``value`` as 0 or 1."""
    return (value >> index) & 1


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Base-2 logarithm of a power of two; raises ``ValueError`` otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value!r} is not a power of two")
    return value.bit_length() - 1
