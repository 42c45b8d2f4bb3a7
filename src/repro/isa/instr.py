"""Instruction representation, encoding, and symbolic operands.

Before linking, an instruction's ``imm1`` may be symbolic: a
:class:`SymRef` naming a global symbol (``"pkg.func"``, ``"pkg.var"``,
``"lit:<id>"`` for rodata literals) or a :class:`LabelRef` naming a
local jump target inside the same function.  The linker resolves both
into absolute addresses and then encodes to bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import LinkError
from repro.isa.opcodes import INSTR_SIZE, Op

_FMT = struct.Struct("<BBhiq")  # op, reserved, imm2, reserved, imm1
assert _FMT.size == INSTR_SIZE


@dataclass(frozen=True)
class SymRef:
    """Reference to a linker-resolved global symbol, plus a byte offset."""

    name: str
    offset: int = 0

    def __repr__(self) -> str:
        return f"@{self.name}+{self.offset}" if self.offset else f"@{self.name}"


@dataclass(frozen=True)
class LabelRef:
    """Reference to an instruction index within the same function."""

    index: int

    def __repr__(self) -> str:
        return f"L{self.index}"


Operand = int | SymRef | LabelRef


@dataclass(frozen=True)
class Instr:
    """One instruction; ``imm1`` may still be symbolic before linking."""

    op: Op
    imm1: Operand = 0
    imm2: int = 0

    def encode(self) -> bytes:
        if not isinstance(self.imm1, int):
            raise LinkError(f"encoding unresolved instruction {self}")
        return _FMT.pack(int(self.op), 0, self.imm2, 0, self.imm1)

    @staticmethod
    def decode(raw: bytes) -> "Instr":
        op, _, imm2, _, imm1 = _FMT.unpack(raw)
        return Instr(Op(op), imm1, imm2)

    def __repr__(self) -> str:
        parts = [self.op.name]
        if self.imm1 or isinstance(self.imm1, (SymRef, LabelRef)):
            parts.append(repr(self.imm1) if not isinstance(self.imm1, int)
                         else str(self.imm1))
        if self.imm2:
            parts.append(f"n={self.imm2}")
        return " ".join(parts)


def encode_all(instrs: list[Instr]) -> bytes:
    return b"".join(i.encode() for i in instrs)


def resolve(instrs: list[Instr], func_addr: int,
            symbols: dict[str, int]) -> list[Instr]:
    """Resolve symbolic operands given the function's base address and
    the global symbol table."""
    resolved: list[Instr] = []
    for instr in instrs:
        imm1 = instr.imm1
        if isinstance(imm1, LabelRef):
            imm1 = func_addr + imm1.index * INSTR_SIZE
        elif isinstance(imm1, SymRef):
            base = symbols.get(imm1.name)
            if base is None:
                raise LinkError(f"undefined symbol {imm1.name!r}")
            imm1 = base + imm1.offset
        resolved.append(Instr(instr.op, imm1, instr.imm2))
    return resolved
