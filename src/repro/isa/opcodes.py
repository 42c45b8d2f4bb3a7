"""Instruction set of the simulated stack machine.

Values in flight live on a CPU-internal operand stack (the "register
file"); call frames, locals, globals, and heap data live in simulated
memory and are subject to the active execution environment's view.
Instructions are fixed-width (16 bytes) so `.text` sections have real,
page-aligned extents.
"""

from __future__ import annotations

import enum

INSTR_SIZE = 16


class Op(enum.IntEnum):
    NOP = 0
    HALT = 1          # pop exit code; stop the program

    # Constants and operand-stack shuffling.
    PUSH = 2          # push imm1
    DROP = 3
    DUP = 4
    SWAP = 5

    # Frame-relative accesses (locals live in simulated memory).
    LOADL = 6         # push mem[fp + 16 + 8*imm1]
    STOREL = 7        # mem[fp + 16 + 8*imm1] = pop
    ADDRL = 8         # push fp + 16 + 8*imm1

    # Absolute accesses.
    LOAD = 9          # pop addr; push mem64[addr]
    STORE = 10        # pop value; pop addr; mem64[addr] = value
    LOAD1 = 11        # pop addr; push mem8[addr]
    STORE1 = 12       # pop value; pop addr; mem8[addr] = value
    MEMCPY = 13       # pop n; pop src; pop dst

    # Arithmetic / logic (binary ops pop b then a, push a OP b).
    ADD = 20
    SUB = 21
    MUL = 22
    DIV = 23
    MOD = 24
    AND = 25
    OR = 26
    XOR = 27
    SHL = 28
    SHR = 29
    NEG = 30
    NOT = 31          # logical: push 1 if pop == 0 else 0

    # Comparisons (signed; push 0/1).
    EQ = 40
    NE = 41
    LT = 42
    LE = 43
    GT = 44
    GE = 45

    # Control flow (imm1 = absolute target address).
    JMP = 50
    JZ = 51           # pop cond; jump if zero
    JNZ = 52
    CALL = 53         # imm1 = target
    CALLCLO = 54      # pop closure ptr; imm2 = user-arg count
    RET = 55
    ENTER = 56        # imm1 = nargs, imm2 = nlocals (>= nargs)

    # System interfaces.
    SYSCALL = 60      # pop nr; pop imm1 args (reversed); push result
    RTCALL = 61       # imm1 = runtime service id, imm2 = nargs
    LBCALL = 62       # imm1 = LitterBox hook id, imm2 = nargs

    # MPK register (only LitterBox-owned text may contain WRPKRU).
    WRPKRU = 70       # pop value
    RDPKRU = 71       # push value


#: One past the highest opcode value; sizes the interpreter's dispatch
#: table and the per-opcode perf counters.
NUM_OPCODES = max(Op) + 1


#: LitterBox hook ids for the LBCALL instruction (mirrors the API, §4.2).
class Hook(enum.IntEnum):
    PROLOG = 0
    EPILOG = 1
    TRANSFER = 2
    EXECUTE = 3


#: Opcodes that write the PKRU register.  The MPK backend scans every
#: executable section at Init to ensure only LitterBox's own text
#: contains them (ERIM-style binary inspection, §5.3).
PKRU_WRITING_OPS = frozenset({Op.WRPKRU})

BINARY_ALU = {
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
    Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
    Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE,
}

COMPARISONS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)

# --------------------------------------------------------------- fusion
# Superinstruction fusion: the loader's peephole pass replaces an
# adjacent pair of instructions with one dispatch that runs both halves'
# own handlers (identical simulated charges and effects).  It is not
# invisible: a pair straddling a scheduler slice budget retires whole,
# one instruction past it (see repro.isa.interp).
#
# Safety contract for the *first* element of a pair: it must be a
# straight-line op — it completes unconditionally, advances the pc by
# exactly one instruction, and can never raise WouldBlock.  A fault it
# raises leaves the pc on the pair's first instruction, exactly as the
# unfused sequence would.  The second element may be anything: the
# fused handler retires the first half (pc advanced) before running it,
# so faults, branches, and WouldBlock retries observe the same pc and
# operand stack as unfused execution.  The pairs below are the hot
# adjacencies of the Table 2 workloads: push+binop, load/store shapes,
# and compare+branch.

_FUSED_EXTRA = (
    (Op.LOADL, Op.PUSH), (Op.LOADL, Op.LOADL), (Op.LOADL, Op.STOREL),
    (Op.LOADL, Op.ADD), (Op.PUSH, Op.LOADL), (Op.LOAD, Op.PUSH),
    (Op.LOAD, Op.STORE), (Op.LOAD, Op.LT), (Op.LOAD, Op.MUL),
    (Op.ADD, Op.LOAD), (Op.ADD, Op.STOREL), (Op.ADD, Op.LOADL),
    (Op.MUL, Op.LOADL), (Op.STOREL, Op.LOADL), (Op.STOREL, Op.JMP),
    (Op.DROP, Op.LOADL),
)

#: The fused pairs, in slot order.  Slot ``i`` dispatches at opcode
#: ``FUSED_BASE + i``; the perf counters index the same space.
FUSED_PAIRS: tuple[tuple[int, int], ...] = tuple(
    [(Op.PUSH, op) for op in sorted(BINARY_ALU)]
    + [(cmp, branch) for cmp in COMPARISONS
       for branch in (Op.JZ, Op.JNZ)]
    + list(_FUSED_EXTRA)
)

#: Fused pseudo-opcodes live directly above the real opcode space.
FUSED_BASE = NUM_OPCODES
DISPATCH_SLOTS = FUSED_BASE + len(FUSED_PAIRS)

#: Pseudo-opcode of a JIT region entry (see :mod:`repro.isa.jit`).
#: It sits one past the dispatch table so ``op >= JIT_OP`` is a single
#: comparison in the slice loop; JIT entries never land in
#: ``op_counts`` (regions account their constituent groups instead).
JIT_OP = DISPATCH_SLOTS

#: (op1, op2) -> fused dispatch slot.
FUSED_INDEX: dict[tuple[int, int], int] = {
    pair: FUSED_BASE + i for i, pair in enumerate(FUSED_PAIRS)}

#: Slot-ordered display names ("PUSH+ADD"), for the perf counters.
FUSED_NAMES: tuple[str, ...] = tuple(
    f"{Op(a).name}+{Op(b).name}" for a, b in FUSED_PAIRS)
