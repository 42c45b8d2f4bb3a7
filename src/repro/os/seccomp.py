"""seccomp-BPF: a classic-BPF interpreter plus LitterBox's filter builder.

The MPK backend translates every enclosure's SysFilter into one BPF
program "which indexes the current environment (from the PKRU value) to
a mask of permitted system calls" (§5.3).  The PKRU value reaches the
filter through the ``seccomp_data`` extension of kernel patch [45]: we
place it at offset 64, after ``nr``/``arch``/``ip``/``args[6]``.

The filter is *actually evaluated* on every system call, instruction by
instruction, and the kernel charges simulated time per executed BPF
instruction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ConfigError

# Instruction classes (subset of classic BPF used by seccomp filters).
LD_W_ABS = "ld_abs"     # A = data[k:k+4]
LD_IMM = "ld_imm"       # A = k
JMP_JA = "ja"           # pc += k
JMP_JEQ_K = "jeq"       # pc += (A == k) ? jt : jf
JMP_JGT_K = "jgt"
JMP_JGE_K = "jge"
JMP_JSET_K = "jset"     # pc += (A & k) ? jt : jf
ALU_AND_K = "and"
ALU_RSH_K = "rsh"
RET_K = "ret"

SECCOMP_RET_ALLOW = 0x7FFF0000
SECCOMP_RET_KILL = 0x00000000
SECCOMP_RET_ERRNO = 0x00050000  # | errno in low 16 bits

# seccomp_data offsets.
OFF_NR = 0
OFF_ARCH = 4
OFF_IP = 8
OFF_ARGS = 16           # 6 x u64
OFF_PKRU = 64           # kernel patch [45]
DATA_SIZE = 68

AUDIT_ARCH_X86_64 = 0xC000003E


@dataclass(frozen=True)
class BpfInsn:
    code: str
    k: int = 0
    jt: int = 0
    jf: int = 0


def encode_seccomp_data(nr: int, args: tuple[int, ...], pkru: int) -> bytes:
    """Pack the (extended) seccomp_data structure."""
    padded = list(args)[:6] + [0] * (6 - min(6, len(args)))
    low = [a & 0xFFFFFFFFFFFFFFFF for a in padded]
    return struct.pack(
        "<IIQ6QI", nr & 0xFFFFFFFF, AUDIT_ARCH_X86_64, 0, *low,
        pkru & 0xFFFFFFFF)


class BpfProgram:
    """An immutable classic-BPF program."""

    MAX_INSNS = 4096

    def __init__(self, insns: list[BpfInsn]):
        if not insns:
            raise ConfigError("empty BPF program")
        if len(insns) > self.MAX_INSNS:
            raise ConfigError(f"BPF program too long ({len(insns)} insns)")
        self.insns = tuple(insns)

    def __len__(self) -> int:
        return len(self.insns)

    def run(self, data: bytes) -> tuple[int, int]:
        """Evaluate the program; returns ``(ret_value, insns_executed)``."""
        acc = 0
        pc = 0
        executed = 0
        insns = self.insns
        while pc < len(insns):
            insn = insns[pc]
            executed += 1
            code = insn.code
            if code == LD_W_ABS:
                if insn.k + 4 > len(data):
                    return SECCOMP_RET_KILL, executed
                acc = struct.unpack_from("<I", data, insn.k)[0]
                pc += 1
            elif code == LD_IMM:
                acc = insn.k & 0xFFFFFFFF
                pc += 1
            elif code == JMP_JA:
                pc += 1 + insn.k
            elif code == JMP_JEQ_K:
                pc += 1 + (insn.jt if acc == insn.k else insn.jf)
            elif code == JMP_JGT_K:
                pc += 1 + (insn.jt if acc > insn.k else insn.jf)
            elif code == JMP_JGE_K:
                pc += 1 + (insn.jt if acc >= insn.k else insn.jf)
            elif code == JMP_JSET_K:
                pc += 1 + (insn.jt if acc & insn.k else insn.jf)
            elif code == ALU_AND_K:
                acc &= insn.k
                pc += 1
            elif code == ALU_RSH_K:
                acc = (acc & 0xFFFFFFFF) >> insn.k
                pc += 1
            elif code == RET_K:
                return insn.k, executed
            else:  # pragma: no cover - builder never emits unknown codes
                raise ConfigError(f"unknown BPF opcode {code!r}")
        raise ConfigError("BPF program fell off the end")


@dataclass
class ArgRule:
    """Argument-granular allowance (the §6.5 sysfilter extension).

    For syscall ``nr``, the call is allowed only when argument
    ``arg_index``'s low 32 bits are one of ``allowed_values``.
    """

    nr: int
    arg_index: int
    allowed_values: tuple[int, ...]


class _Assembler:
    """Label-resolving assembler for generated filters."""

    def __init__(self) -> None:
        self._items: list[tuple] = []  # ("insn", code,k,jtlbl,jflbl) | ("label", name)

    def label(self, name: str) -> None:
        self._items.append(("label", name))

    def emit(self, code: str, k: int = 0, jt: str | None = None,
             jf: str | None = None) -> None:
        self._items.append(("insn", code, k, jt, jf))

    def assemble(self) -> BpfProgram:
        addresses: dict[str, int] = {}
        pc = 0
        for item in self._items:
            if item[0] == "label":
                if item[1] in addresses:
                    raise ConfigError(f"duplicate BPF label {item[1]}")
                addresses[item[1]] = pc
            else:
                pc += 1
        insns: list[BpfInsn] = []
        pc = 0
        for item in self._items:
            if item[0] == "label":
                continue
            _, code, k, jt, jf = item
            def offset(label: str | None) -> int:
                if label is None:
                    return 0
                target = addresses.get(label)
                if target is None:
                    raise ConfigError(f"undefined BPF label {label}")
                delta = target - (pc + 1)
                if delta < 0:
                    raise ConfigError("backward BPF jump (not allowed)")
                return delta
            if code == JMP_JA:
                insns.append(BpfInsn(code, k=offset(jt)))
            else:
                insns.append(BpfInsn(code, k=k, jt=offset(jt), jf=offset(jf)))
            pc += 1
        return BpfProgram(insns)


def build_pkru_filter(env_masks: dict[int, frozenset[int]],
                      arg_rules: list[ArgRule] | None = None) -> BpfProgram:
    """Build LitterBox's per-program seccomp filter.

    ``env_masks`` maps each execution environment's PKRU value to the
    set of permitted syscall numbers.  The trusted environment (PKRU
    value granting all access) must be present and typically allows
    everything.  An unknown PKRU value kills the program.

    ``arg_rules`` optionally narrows specific syscalls to specific
    argument values (the §6.5 per-IP ``connect`` extension).
    """
    rules_by_nr: dict[int, list[ArgRule]] = {}
    for rule in arg_rules or []:
        rules_by_nr.setdefault(rule.nr, []).append(rule)

    asm = _Assembler()
    # Architecture pin, as every real seccomp filter does.
    asm.emit(LD_W_ABS, OFF_ARCH)
    asm.emit(JMP_JEQ_K, AUDIT_ARCH_X86_64, jt="arch_ok", jf="kill")
    asm.label("arch_ok")
    asm.emit(LD_W_ABS, OFF_PKRU)
    envs = sorted(env_masks.items())
    for index, (pkru_value, _) in enumerate(envs):
        asm.emit(JMP_JEQ_K, pkru_value, jt=f"env{index}", jf=f"envchk{index}")
        asm.label(f"envchk{index}")
    asm.emit(JMP_JA, jt="kill")

    for index, (_, allowed) in enumerate(envs):
        asm.label(f"env{index}")
        asm.emit(LD_W_ABS, OFF_NR)
        for nr in sorted(allowed):
            target = f"env{index}_arg{nr}" if nr in rules_by_nr else "allow"
            asm.emit(JMP_JEQ_K, nr, jt=target, jf=f"env{index}_n{nr}")
            asm.label(f"env{index}_n{nr}")
        asm.emit(JMP_JA, jt="kill")
        for nr, rules in rules_by_nr.items():
            if nr not in allowed:
                continue
            asm.label(f"env{index}_arg{nr}")
            for rule_no, rule in enumerate(rules):
                asm.emit(LD_W_ABS, OFF_ARGS + 8 * rule.arg_index)
                for value in rule.allowed_values:
                    asm.emit(JMP_JEQ_K, value & 0xFFFFFFFF, jt="allow",
                             jf=f"env{index}_arg{nr}_r{rule_no}_{value}")
                    asm.label(f"env{index}_arg{nr}_r{rule_no}_{value}")
            asm.emit(JMP_JA, jt="kill")

    asm.label("allow")
    asm.emit(RET_K, SECCOMP_RET_ALLOW)
    asm.label("kill")
    asm.emit(RET_K, SECCOMP_RET_KILL)
    return asm.assemble()
