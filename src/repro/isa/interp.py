"""The fetch/decode/execute loop of the simulated CPU.

Each executed instruction charges simulated time; loads, stores, and
instruction fetches are permission-checked by the MMU against the
CPU's current translation context, which is what makes enclosure
memory views enforceable against arbitrary compiled code.

Fast paths (wall-clock only; simulated costs are unchanged):

* **fetch** — instead of a full MMU walk per instruction, the
  interpreter keeps the TLB entry that validated its code page
  (:meth:`MMU.exec_tag`) and each step checks that the installed table
  still holds that very entry for the pc's page, filled under the
  context's EPT.  An edit, another page or a CR3 write fails the check
  and forces a checked fetch, so enforcement is identical to walking.
* **dispatch** — opcodes index a handler table (built once per
  interpreter) instead of walking a long ``if``/``elif`` chain, and each
  binary ALU op gets its own handler around its :data:`_ALU_FUNCS`
  entry instead of re-deciding which operator applies on every
  instruction.

Superinstruction fusion no longer pays for itself as a fast path (the
trace JIT retires 92-99% of every perfbench workload's instructions),
but its slice-budget overshoot (below) shows in perfbench's committed
tenants-30 digest, so it stays until that digest is re-pinned.
:meth:`Interpreter.register_code` runs a load-time peephole pass that
replaces adjacent pairs (push+binop, load/store shapes,
compare+branch; see :data:`repro.isa.opcodes.FUSED_PAIRS`) with one
:class:`FusedInstr`, which :meth:`Interpreter._op_fused` dispatches by
running the pair's two ordinary handlers back to back.  The original
second instruction is kept at its own address, so jumps into the
middle of a pair execute it unfused; a pair never spans a page
boundary, so the per-page exec check still covers every fetched byte.
A pair charges, faults, branches and retries exactly as its halves do.
What differs is the slice budget: a fused pair is one dispatch that
retires two instructions, so a pair straddling the budget retires
whole, one instruction past it, and quota step charges taken from
slice lengths can differ by one.
"""

from __future__ import annotations

from repro.errors import Fault, MachineHalt, SimError, WouldBlock
from repro.hw.clock import COSTS, SimClock
from repro.hw.cpu import CPU
from repro.hw.mmu import KIND_X, MMU, wrap64
from repro.hw.pages import PAGE_SHIFT
from repro.isa.instr import Instr
from repro.isa.jit import GUARDS, JitCompiler
from repro.isa.opcodes import (
    DISPATCH_SLOTS,
    FUSED_BASE,
    FUSED_INDEX,
    FUSED_PAIRS,
    INSTR_SIZE,
    JIT_OP,
    NUM_OPCODES,
    Op,
)


class GoroutineExit(SimError):
    """The current goroutine returned from its top-level function."""


class FusedInstr:
    """Two adjacent instructions fused into one dispatch.

    ``op`` is the fused pseudo-opcode (``FUSED_BASE + pair index``);
    ``i1``/``i2`` are the original decoded instructions and ``h1``/``h2``
    their unfused handlers, which :meth:`Interpreter._op_fused` runs
    back to back.
    """

    __slots__ = ("op", "i1", "i2", "h1", "h2")

    def __init__(self, op: int, i1: Instr, i2: Instr, h1, h2):
        self.op = op
        self.i1 = i1
        self.i2 = i2
        self.h1 = h1
        self.h2 = h2


_U64 = (1 << 64) - 1


class Interpreter:
    """Executes instructions against a :class:`CPU`."""

    def __init__(self, mmu: MMU, clock: SimClock, fusion: bool = True,
                 jit: bool = False, profiler=None):
        self.mmu = mmu
        self.clock = clock
        self.perf = mmu.perf
        #: Whether register_code runs the superinstruction peephole.
        self.fusion = fusion
        #: Trace-JIT compiler (None when the `jit` switch is off); see
        #: :mod:`repro.isa.jit`.  Engaged only by :meth:`run_slice` —
        #: :meth:`step` always interprets.
        self.jit = JitCompiler(self) if jit else None
        #: Architectural instructions retired by complete dispatch
        #: groups of a JIT region before the group that faulted (see
        #: :meth:`_jit_fault`); folded into :attr:`slice_executed`.
        self._jit_partial = 0
        #: vaddr -> decoded instruction, filled by the loader.  Text pages
        #: are never writable, so the cache cannot go stale.
        self.code: dict[int, Instr] = {}
        #: The TLB entry that validated the most recently fetched code
        #: page (:meth:`MMU.exec_tag`); ``None`` forces the next fetch
        #: through the MMU.
        self._exec_entry: tuple | None = None
        #: Architectural instructions retired by the most recent
        #: :meth:`run_slice` call (valid even if it raised).
        self.slice_executed = 0
        #: Sim-time sampling profiler, passed by the machine; drained by
        #: :meth:`run_slice` at retire boundaries.  Fixed for the
        #: interpreter's life, because compiled traces bake in whether
        #: they drain it at group boundaries.
        self.profiler = profiler
        self._dispatch = _build_dispatch()

    def register_code(self, base: int, instrs: list[Instr]) -> None:
        code = self.code
        for offset, instr in enumerate(instrs):
            code[base + offset * INSTR_SIZE] = instr
        if not self.fusion:
            if self.jit is not None:
                self.jit.register(base, instrs)
            return
        # Peephole: overwrite the *first* address of each fusible pair
        # with a FusedInstr.  The second instruction stays at its own
        # address, so a jump into the middle of a pair executes it
        # unfused.  Greedy, non-overlapping, never across a page
        # boundary (the fused handler runs both halves under the first
        # page's exec check).
        dispatch = self._dispatch
        index = 0
        last = len(instrs) - 1
        while index < last:
            a = instrs[index]
            slot = FUSED_INDEX.get((a.op, instrs[index + 1].op))
            if slot is None:
                index += 1
                continue
            pc0 = base + index * INSTR_SIZE
            if (pc0 >> PAGE_SHIFT) != ((pc0 + INSTR_SIZE) >> PAGE_SHIFT):
                index += 1
                continue
            b = instrs[index + 1]
            code[pc0] = FusedInstr(slot, a, b, dispatch[a.op], dispatch[b.op])
            index += 2
        if self.jit is not None:
            # After fusion, so each leader's entry displaces the real
            # dispatch group there (a fused pair is one group).
            self.jit.register(base, instrs)

    # -- single step -------------------------------------------------------

    def step(self, cpu: CPU) -> int:
        """Execute one dispatch and return how many architectural
        instructions it covered (1, or 2 for a fused pair — the
        scheduler budgets time slices in instructions, not dispatches).

        Raises :class:`WouldBlock` (instruction rolled back),
        :class:`GoroutineExit`, :class:`MachineHalt`, or a
        :class:`Fault`.
        """
        pc = cpu.pc
        ctx = cpu.ctx
        entry = self._exec_entry
        if entry is None or entry[2] is not ctx.ept \
                or entry is not ctx.page_table.tlb.get(
                    (pc >> PAGE_SHIFT) * 4 + KIND_X):
            self.perf.fetch_slow += 1
            self._exec_entry = self.mmu.exec_tag(ctx, pc)
        instr = self.code.get(pc)
        if instr is None:
            raw = self.mmu.read(ctx, pc, INSTR_SIZE, charge=False)
            instr = Instr.decode(raw)
            self.code[pc] = instr
        op = instr.op
        if op >= JIT_OP:
            # Single-step always interprets; region entry is a slice-
            # loop concern (warm-up counting included, so step-driven
            # runs stay deterministic).
            instr = instr.orig
            op = instr.op
        self.perf.op_counts[op] += 1
        handler = self._dispatch[op]
        if handler is None:  # pragma: no cover
            raise Fault("exec", f"unknown opcode {op!r} at {pc:#x}")
        handler(self, cpu, instr)
        return 1 if op < FUSED_BASE else 2

    def run_slice(self, cpu: CPU, budget: int) -> int:
        """Execute dispatches until at least ``budget`` architectural
        instructions have retired; returns the count.

        Semantically identical to looping :meth:`step` — this just
        hoists the per-step attribute lookups (code cache, dispatch
        table, perf counters) out of the loop, which is the scheduler's
        hottest path.  The running count is also stored in
        :attr:`slice_executed` *before* any exception propagates, so the
        scheduler's total-instruction accounting (step-budget overrun
        detection) stays exact when a slice ends early on a fault,
        ``WouldBlock``, or exit.

        With a sampling profiler attached, every retired dispatch whose
        clock has crossed the profiler's ``next_due`` drains it with the
        pre-dispatch pc.  The drain charges no simulated cost, so sim-ns
        stays bit-identical with profiling on; compiled traces drain at
        their own group boundaries, so none is due after one.
        """
        executed = 0
        code = self.code
        dispatch = self._dispatch
        perf = self.perf
        op_counts = perf.op_counts
        mmu = self.mmu
        profiler = self.profiler
        clock = self.clock
        jit_op = JIT_OP
        exec_kind = KIND_X
        self._jit_partial = 0
        try:
            while executed < budget:
                pc = cpu.pc
                ctx = cpu.ctx
                entry = self._exec_entry
                if entry is None or entry[2] is not ctx.ept \
                        or entry is not ctx.page_table.tlb.get(
                            (pc >> PAGE_SHIFT) * 4 + exec_kind):
                    perf.fetch_slow += 1
                    self._exec_entry = mmu.exec_tag(ctx, pc)
                instr = code.get(pc)
                if instr is None:
                    raw = mmu.read(ctx, pc, INSTR_SIZE, charge=False)
                    instr = Instr.decode(raw)
                    code[pc] = instr
                op = instr.op
                if op >= jit_op:
                    fn = instr.fn
                    n = 0
                    if fn is not None and budget - executed >= instr.length \
                            and len(cpu.operands) >= instr.min_depth:
                        n = fn(self, cpu, budget - executed)
                        if n > 0:
                            executed += n
                            continue
                    instr = self._jit_fallback(instr, cpu, budget - executed,
                                               n)
                    op = instr.op
                op_counts[op] += 1
                handler = dispatch[op]
                if handler is None:  # pragma: no cover
                    raise Fault("exec", f"unknown opcode {op!r} at {pc:#x}")
                handler(self, cpu, instr)
                executed += 1 if op < FUSED_BASE else 2
                if profiler is not None and profiler.next_due <= clock.now_ns:
                    profiler.drain_retire(pc)
        finally:
            self.slice_executed = executed + self._jit_partial
        return executed

    # -- JIT cooperation ------------------------------------------------------

    def _jit_fallback(self, entry, cpu: CPU, remaining: int, code: int):
        """A region entry could not run compiled: count why, warm cold
        leaders, and hand the displaced instruction to the interpreter
        (which *is* the deopt path — it executes the region exactly).
        ``code`` is the trace's return when it declined its entry."""
        if entry.fn is None:
            self.jit.warm(entry)
        else:
            deopts = self.perf.jit_deopts
            if remaining < entry.length:
                reason = "budget"
            elif len(cpu.operands) < entry.min_depth:
                reason = "depth"
            else:
                reason = GUARDS[code]
            deopts[reason] = deopts.get(reason, 0) + 1
        return entry.orig

    def _jit_fault(self, cpu: CPU, entry_pc: int, bk: int,
                   counts: tuple[int, ...], exc: BaseException) -> None:
        """Called from a compiled trace's except hook before it
        re-raises: replay the per-dispatch accounting the interpreter
        would have recorded up to the faulting instruction.

        ``counts`` holds each block's passes so far, the faulting block
        ``bk``'s partial pass included; ``cpu.pc`` was synced by the
        trace before the faulting op.  Interpreted execution increments
        ``op_counts`` *before* a dispatch and ``executed`` only *after*
        a handler returns, so every complete block pass, plus the
        faulting block's groups up to and including the faulting one,
        is counted, while :attr:`slice_executed` (via ``_jit_partial``)
        covers complete groups only — a faulting fused pair contributes
        neither half, exactly as in ``run_slice``.  Each LOADL and
        STOREL retired before the fault stands for a word fast-path
        access, so their ``word_fast``/``tlb_hits`` are replayed here
        too (the trace's dynamic-word tallies were already flushed by
        its except hook, which has also written the frame slots it
        caches back to memory, so the frame already holds what those
        STORELs wrote).  A channel ``WouldBlock`` is a ``block`` deopt,
        anything else a ``fault``.
        """
        perf = self.perf
        deopts = perf.jit_deopts
        reason = "block" if isinstance(exc, WouldBlock) else "fault"
        deopts[reason] = deopts.get(reason, 0) + 1
        region = self.jit.entries[entry_pc].region
        code = region.code
        local = (Op.LOADL, Op.STOREL)
        op_counts = perf.op_counts
        retired = fast = 0
        for bid, groups in enumerate(region.blocks):
            passes = counts[bid] - (bid == bk)   # complete passes
            for slot, gpc, arch in groups:
                span = range(gpc, gpc + arch * INSTR_SIZE, INSTR_SIZE)
                op_counts[slot] += passes
                retired += passes * arch
                fast += passes * sum(code[pc].op in local for pc in span)
        for slot, gpc, arch in region.blocks[bk]:
            span = range(gpc, gpc + arch * INSTR_SIZE, INSTR_SIZE)
            op_counts[slot] += 1
            fast += sum(code[pc].op in local for pc in span
                        if pc < cpu.pc)
            if cpu.pc in span:
                break
            retired += arch
        perf.word_fast += fast
        perf.tlb_hits += fast
        perf.jit_insns += retired
        self._jit_partial = retired

    # -- helpers -------------------------------------------------------------

    def _do_call(self, cpu: CPU, target: int, ret_pc: int) -> None:
        cpu.clock.charge(COSTS.INSN_CALL)
        frame = cpu.sp
        cpu.check_stack(frame + 16)
        self.mmu.write_word(cpu.ctx, frame, cpu.fp, charge=False)
        self.mmu.write_word(cpu.ctx, frame + 8, ret_pc, charge=False)
        cpu.fp = frame
        cpu.sp = frame + 16

    def _guarded(self, cpu: CPU, action, *args) -> None:
        """Run a popping action; on WouldBlock restore the operand stack
        so the instruction can be retried after wake-up."""
        saved = list(cpu.operands)
        try:
            action(cpu, *args)
        except WouldBlock:
            cpu.operands = saved
            raise

    def _do_syscall(self, cpu: CPU, nargs: int) -> None:
        if cpu.syscall_handler is None:
            raise Fault("syscall", "no syscall handler wired")
        nr = cpu.pop()
        args = tuple(cpu.popn(nargs))
        cpu.push(wrap64(cpu.syscall_handler(cpu, nr, args)))

    def _do_rtcall(self, cpu: CPU, service: int, nargs: int) -> None:
        if cpu.rtcall_handler is None:
            raise Fault("exec", "no runtime handler wired")
        cpu.clock.charge(COSTS.RTCALL)
        args = tuple(cpu.popn(nargs))
        cpu.push(wrap64(cpu.rtcall_handler(cpu, service, args)))

    def _do_lbcall(self, cpu: CPU, hook: int, nargs: int) -> None:
        if cpu.lbcall_handler is None:
            raise Fault("exec", "no LitterBox handler wired")
        args = tuple(cpu.popn(nargs))
        cpu.push(wrap64(cpu.lbcall_handler(cpu, hook, args)))

    # -- opcode handlers ------------------------------------------------------
    # Each handler performs the instruction's effects and only then
    # advances ``cpu.pc``, so a fault or WouldBlock raised mid-handler
    # leaves the instruction retriable (same contract as before the
    # table-dispatch refactor).

    def _op_push(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.push(instr.imm1)
        cpu.pc += INSTR_SIZE

    def _op_loadl(self, cpu: CPU, instr: Instr) -> None:
        cpu.push(self.mmu.read_word(cpu.ctx, cpu.fp + 16 + 8 * instr.imm1))
        cpu.pc += INSTR_SIZE

    def _op_storel(self, cpu: CPU, instr: Instr) -> None:
        self.mmu.write_word(cpu.ctx, cpu.fp + 16 + 8 * instr.imm1, cpu.pop())
        cpu.pc += INSTR_SIZE

    def _op_addrl(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.push(cpu.fp + 16 + 8 * instr.imm1)
        cpu.pc += INSTR_SIZE

    def _op_load(self, cpu: CPU, instr: Instr) -> None:
        cpu.push(self.mmu.read_word(cpu.ctx, cpu.pop()))
        cpu.pc += INSTR_SIZE

    def _op_store(self, cpu: CPU, instr: Instr) -> None:
        value = cpu.pop()
        addr = cpu.pop()
        self.mmu.write_word(cpu.ctx, addr, value)
        cpu.pc += INSTR_SIZE

    def _op_load1(self, cpu: CPU, instr: Instr) -> None:
        cpu.push(self.mmu.read_byte(cpu.ctx, cpu.pop()))
        cpu.pc += INSTR_SIZE

    def _op_store1(self, cpu: CPU, instr: Instr) -> None:
        value = cpu.pop()
        addr = cpu.pop()
        self.mmu.write_byte(cpu.ctx, addr, value)
        cpu.pc += INSTR_SIZE

    def _op_memcpy(self, cpu: CPU, instr: Instr) -> None:
        n = cpu.pop()
        src = cpu.pop()
        dst = cpu.pop()
        if n < 0:
            raise Fault("arith", "negative MEMCPY length")
        self.mmu.memcpy(cpu.ctx, dst, src, n)
        cpu.pc += INSTR_SIZE

    def _op_neg(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.push(wrap64(-cpu.pop()))
        cpu.pc += INSTR_SIZE

    def _op_not(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.push(1 if cpu.pop() == 0 else 0)
        cpu.pc += INSTR_SIZE

    def _op_drop(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.pop()
        cpu.pc += INSTR_SIZE

    def _op_dup(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.push(cpu.peek())
        cpu.pc += INSTR_SIZE

    def _op_swap(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        b = cpu.pop()
        a = cpu.pop()
        cpu.push(b)
        cpu.push(a)
        cpu.pc += INSTR_SIZE

    def _op_jmp(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN_BRANCH
        cpu.pc = instr.imm1

    def _op_jz(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN_BRANCH
        cpu.pc = instr.imm1 if cpu.pop() == 0 else cpu.pc + INSTR_SIZE

    def _op_jnz(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN_BRANCH
        cpu.pc = instr.imm1 if cpu.pop() != 0 else cpu.pc + INSTR_SIZE

    def _op_call(self, cpu: CPU, instr: Instr) -> None:
        target = instr.imm1
        self._do_call(cpu, target, cpu.pc + INSTR_SIZE)
        cpu.pc = target

    def _op_callclo(self, cpu: CPU, instr: Instr) -> None:
        clo = cpu.pop()
        code_addr = self.mmu.read_word(cpu.ctx, clo)
        cpu.push(clo)  # hidden environment argument
        self._do_call(cpu, code_addr, cpu.pc + INSTR_SIZE)
        cpu.pc = code_addr

    def _op_ret(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.charge(COSTS.INSN_CALL)
        ret_pc = self.mmu.read_word(cpu.ctx, cpu.fp + 8)
        saved_fp = self.mmu.read_word(cpu.ctx, cpu.fp)
        cpu.sp = cpu.fp
        cpu.fp = saved_fp
        if ret_pc == 0:
            raise GoroutineExit()
        cpu.pc = ret_pc

    def _op_enter(self, cpu: CPU, instr: Instr) -> None:
        clock = cpu.clock
        clock.charge(COSTS.INSN)
        nargs, nlocals = instr.imm1, instr.imm2
        new_sp = cpu.fp + 16 + 8 * nlocals
        cpu.check_stack(new_sp)
        cpu.sp = new_sp
        values = cpu.popn(nargs)
        for slot, value in enumerate(values):
            self.mmu.write_word(cpu.ctx, cpu.fp + 16 + 8 * slot, value,
                                charge=False)
        clock.charge(COSTS.INSN_MEM * nargs)
        cpu.pc += INSTR_SIZE

    def _op_syscall(self, cpu: CPU, instr: Instr) -> None:
        self._guarded(cpu, self._do_syscall, instr.imm1)
        cpu.pc += INSTR_SIZE

    def _op_rtcall(self, cpu: CPU, instr: Instr) -> None:
        self._guarded(cpu, self._do_rtcall, instr.imm1, instr.imm2)
        cpu.pc += INSTR_SIZE

    def _op_lbcall(self, cpu: CPU, instr: Instr) -> None:
        self._guarded(cpu, self._do_lbcall, instr.imm1, instr.imm2)
        cpu.pc += INSTR_SIZE

    def _op_wrpkru(self, cpu: CPU, instr: Instr) -> None:
        cpu.write_pkru(cpu.pop())
        cpu.pc += INSTR_SIZE

    def _op_rdpkru(self, cpu: CPU, instr: Instr) -> None:
        cpu.push(cpu.read_pkru())
        cpu.pc += INSTR_SIZE

    def _op_nop(self, cpu: CPU, instr: Instr) -> None:
        cpu.clock.now_ns += COSTS.INSN
        cpu.pc += INSTR_SIZE

    def _op_halt(self, cpu: CPU, instr: Instr) -> None:
        raise MachineHalt(cpu.pop())

    def _op_fused(self, cpu: CPU, f: FusedInstr) -> None:
        """A fused pair: run both original handlers back to back.

        ``h1`` retires completely (charges, effects, pc advance) before
        ``h2`` runs, so anything ``h2`` raises — a fault, a branch
        taken, a WouldBlock retry — sees exactly the state the unfused
        sequence would have at the second instruction.
        """
        f.h1(self, cpu, f.i1)
        f.h2(self, cpu, f.i2)

    # -- driving --------------------------------------------------------------

    def run(self, cpu: CPU, max_steps: int = 50_000_000) -> int:
        """Run a single-goroutine program until HALT.

        Convenience driver for tests and simple programs; multi-goroutine
        programs are driven by the scheduler instead.
        """
        steps = 0
        try:
            while steps < max_steps:
                steps += self.step(cpu)
        except MachineHalt as halt:
            cpu.halted = True
            cpu.exit_code = halt.exit_code
            return halt.exit_code
        except GoroutineExit:
            cpu.halted = True
            return 0
        raise Fault("exec", f"program exceeded {max_steps} steps")


def _trunc_div(a: int, b: int) -> int:
    """C/Go-style truncated integer division (round toward zero)."""
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


def _alu_add(a: int, b: int) -> int:
    return wrap64(a + b)


def _alu_sub(a: int, b: int) -> int:
    return wrap64(a - b)


def _alu_mul(a: int, b: int) -> int:
    return wrap64(a * b)


def _alu_div(a: int, b: int) -> int:
    if b == 0:
        raise Fault("arith", "integer divide by zero")
    return wrap64(_trunc_div(a, b))


def _alu_mod(a: int, b: int) -> int:
    if b == 0:
        raise Fault("arith", "integer modulo by zero")
    return wrap64(a - _trunc_div(a, b) * b)


def _alu_and(a: int, b: int) -> int:
    return wrap64(a & b)


def _alu_or(a: int, b: int) -> int:
    return wrap64(a | b)


def _alu_xor(a: int, b: int) -> int:
    return wrap64(a ^ b)


def _alu_shl(a: int, b: int) -> int:
    return wrap64(a << (b & 63))


def _alu_shr(a: int, b: int) -> int:
    return wrap64((a & _U64) >> (b & 63))


#: Binary ALU semantics, indexed by opcode (comparisons inline the 0/1
#: encoding); :func:`_build_dispatch` wraps each in its own handler.
_ALU_FUNCS: dict[int, object] = {
    Op.ADD: _alu_add,
    Op.SUB: _alu_sub,
    Op.MUL: _alu_mul,
    Op.DIV: _alu_div,
    Op.MOD: _alu_mod,
    Op.AND: _alu_and,
    Op.OR: _alu_or,
    Op.XOR: _alu_xor,
    Op.SHL: _alu_shl,
    Op.SHR: _alu_shr,
    Op.EQ: lambda a, b: 1 if a == b else 0,
    Op.NE: lambda a, b: 1 if a != b else 0,
    Op.LT: lambda a, b: 1 if a < b else 0,
    Op.LE: lambda a, b: 1 if a <= b else 0,
    Op.GT: lambda a, b: 1 if a > b else 0,
    Op.GE: lambda a, b: 1 if a >= b else 0,
}


def _make_alu_handler(fn):
    def handler(self, cpu, instr):
        cpu.clock.now_ns += COSTS.INSN
        a, b = cpu.pop2()
        cpu.push(fn(a, b))
        cpu.pc += INSTR_SIZE
    return handler


def _build_dispatch() -> list:
    """Opcode -> handler table (shared shape; built per interpreter so
    handlers stay plain functions called as ``handler(self, cpu, instr)``).
    Every slot at and above ``FUSED_BASE`` holds
    :meth:`Interpreter._op_fused`."""
    table: list = [None] * DISPATCH_SLOTS
    named = {
        Op.NOP: Interpreter._op_nop,
        Op.HALT: Interpreter._op_halt,
        Op.PUSH: Interpreter._op_push,
        Op.DROP: Interpreter._op_drop,
        Op.DUP: Interpreter._op_dup,
        Op.SWAP: Interpreter._op_swap,
        Op.LOADL: Interpreter._op_loadl,
        Op.STOREL: Interpreter._op_storel,
        Op.ADDRL: Interpreter._op_addrl,
        Op.LOAD: Interpreter._op_load,
        Op.STORE: Interpreter._op_store,
        Op.LOAD1: Interpreter._op_load1,
        Op.STORE1: Interpreter._op_store1,
        Op.MEMCPY: Interpreter._op_memcpy,
        Op.NEG: Interpreter._op_neg,
        Op.NOT: Interpreter._op_not,
        Op.JMP: Interpreter._op_jmp,
        Op.JZ: Interpreter._op_jz,
        Op.JNZ: Interpreter._op_jnz,
        Op.CALL: Interpreter._op_call,
        Op.CALLCLO: Interpreter._op_callclo,
        Op.RET: Interpreter._op_ret,
        Op.ENTER: Interpreter._op_enter,
        Op.SYSCALL: Interpreter._op_syscall,
        Op.RTCALL: Interpreter._op_rtcall,
        Op.LBCALL: Interpreter._op_lbcall,
        Op.WRPKRU: Interpreter._op_wrpkru,
        Op.RDPKRU: Interpreter._op_rdpkru,
    }
    for op, handler in named.items():
        table[op] = handler
    for op, fn in _ALU_FUNCS.items():
        table[op] = _make_alu_handler(fn)
    table[FUSED_BASE:] = [Interpreter._op_fused] * len(FUSED_PAIRS)
    return table
