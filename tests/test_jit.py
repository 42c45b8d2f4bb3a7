"""Tracing JIT internals: region building, guards, deopt accounting,
and traces outliving enforcement changes (INTERNALS.md §13).

Macro-level bit-identity lives in test_fastpaths.py; this file drives
the compiler through :class:`MiniMachine` programs where the regions,
guards, and fault points are built by hand.
"""

from __future__ import annotations

import random
import re
import struct

import pytest

from repro.errors import ConfigError, Fault, MachineHalt, WouldBlock
from repro.hw import PAGE_SIZE, PTE, PageTable, Perm, make_pkru
from repro.hw.mmu import wrap64
from repro.isa import INSTR_SIZE, Instr, Interpreter, Op, jit
from repro.isa.jit import JIT_MIN_LEN, JitEntry, build_region, leaders
from repro.isa.opcodes import BINARY_ALU, FUSED_BASE
from repro.machine import Machine, MachineConfig
from repro.obs import Observer
from repro.runtime.runtime import Runtime
from repro.workloads.bild import build_bild_image
from repro.workloads.fasthttp import run_fasthttp_server
from repro.workloads.httpserver import run_http_server

from tests.golite_helpers import run_golite
from tests.harness import (
    DATA_BASE,
    DATA_SIZE,
    STACK_BASE,
    STACK_SIZE,
    TEXT_BASE,
    MiniMachine,
)


def jit_mini(threshold: int = 1) -> MiniMachine:
    """A MiniMachine whose interpreter has the JIT enabled (the stock
    harness interpreter leaves it off, like ``Interpreter``'s default)."""
    mm = MiniMachine()
    mm.interp = Interpreter(mm.mmu, mm.clock, jit=True)
    mm.interp.jit.threshold = threshold
    return mm


def run_slices(mm: MiniMachine, budget: int = 512) -> int:
    """Drive run_slice (the only JIT-engaging loop) until HALT."""
    mm.cpu.pc = TEXT_BASE
    while True:
        try:
            mm.interp.run_slice(mm.cpu, budget)
        except MachineHalt as halt:
            return halt.exit_code


#: Counts a local down from 200; the body (instrs 2..7) branches back
#: to its own entry with net stack delta zero -> a loop region.
COUNTDOWN = [
    Instr(Op.PUSH, 200),
    Instr(Op.STOREL, 0),
    Instr(Op.LOADL, 0),                  # loop entry
    Instr(Op.PUSH, 1),
    Instr(Op.SUB),
    Instr(Op.STOREL, 0),
    Instr(Op.LOADL, 0),
    Instr(Op.JNZ, TEXT_BASE + 2 * INSTR_SIZE),
    Instr(Op.PUSH, 42),
    Instr(Op.HALT),
]

#: Same loop with a conditional break: the JNZ in the middle leaves
#: the loop for ``PUSH 7`` when the local reaches 250.
SIDE_EXIT = [
    Instr(Op.PUSH, 300),
    Instr(Op.STOREL, 0),
    Instr(Op.LOADL, 0),                  # loop entry
    Instr(Op.PUSH, 250),
    Instr(Op.EQ),
    Instr(Op.JNZ, TEXT_BASE + 12 * INSTR_SIZE),  # the break
    Instr(Op.LOADL, 0),
    Instr(Op.PUSH, 1),
    Instr(Op.SUB),
    Instr(Op.STOREL, 0),
    Instr(Op.LOADL, 0),
    Instr(Op.JNZ, TEXT_BASE + 2 * INSTR_SIZE),
    Instr(Op.PUSH, 7),
    Instr(Op.HALT),
]


def at(index: int) -> int:
    return TEXT_BASE + index * INSTR_SIZE


def branchy(divisor_offset: int = -1) -> list[Instr]:
    """A loop whose body is an if/else with a ``break`` in front.

    Locals: 0 is ``i``, 1 is ``acc``, 2 is ``found``.  Each pass
    breaks when ``i == 100`` (``found = 1``), else adds 3 to ``acc`` for
    odd ``i`` and ``100 / (i - divisor_offset)`` for even ``i``, then
    increments ``i``; ``main`` halts with ``acc``.  A divisor offset of
    50 divides by zero in the else arm on pass 50."""
    return [
        Instr(Op.PUSH, 0), Instr(Op.STOREL, 0),              # 0  i = 0
        Instr(Op.PUSH, 0), Instr(Op.STOREL, 1),              # 2  acc = 0
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 100), Instr(Op.EQ),
        Instr(Op.JZ, at(11)),                                # 4  loop head
        Instr(Op.PUSH, 1), Instr(Op.STOREL, 2),
        Instr(Op.JMP, at(33)),                               # 8  break
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 2), Instr(Op.MOD),
        Instr(Op.JZ, at(20)),                                # 11 if odd
        Instr(Op.LOADL, 1), Instr(Op.PUSH, 3), Instr(Op.ADD),
        Instr(Op.STOREL, 1), Instr(Op.JMP, at(28)),          # 15 then
        Instr(Op.LOADL, 1), Instr(Op.PUSH, 100), Instr(Op.LOADL, 0),
        Instr(Op.PUSH, divisor_offset), Instr(Op.SUB), Instr(Op.DIV),
        Instr(Op.ADD), Instr(Op.STOREL, 1),                  # 20 else
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 1), Instr(Op.ADD),
        Instr(Op.STOREL, 0), Instr(Op.JMP, at(4)),           # 28 join
        Instr(Op.LOADL, 1), Instr(Op.HALT),                  # 33 done
    ]


#: A join reached at two stack depths: local 0 == 0 jumps straight to
#: ``PUSH 7`` at depth 0; otherwise two pushes reach it at depth 2.
UNEVEN_JOIN = [
    Instr(Op.LOADL, 0),
    Instr(Op.JZ, at(4)),
    Instr(Op.PUSH, 5),
    Instr(Op.PUSH, 6),
    Instr(Op.PUSH, 7),                   # the join
    Instr(Op.PUSH, 8),
    Instr(Op.ADD),
    Instr(Op.PUSH, 2),
    Instr(Op.MUL),
    Instr(Op.HALT),
]


def region_at(mm: MiniMachine, program: list[Instr], index: int):
    return build_region(TEXT_BASE, program, mm.interp.code, at(index))


class TestRegionDiscovery:
    def test_loop_region_installed_at_back_branch_target(self):
        """COUNTDOWN's leader at instruction 2 closes into a loop; its
        longest pass leaves through the fall-through and so also runs
        ``PUSH 42`` before the HALT exit."""
        mm = jit_mini()
        mm.load(COUNTDOWN)
        assert at(2) in leaders(TEXT_BASE, COUNTDOWN)
        assert isinstance(mm.interp.code[at(2)], JitEntry)
        region = region_at(mm, COUNTDOWN, 2)
        assert region.min_depth == 0
        assert region.length == 7
        edges = [edge for ends in region.ends for edge in ends]
        assert (at(2), 0) in edges           # the back edge
        assert (at(9), -1) in edges          # the HALT exit
        assert region.code[at(8)] == Instr(Op.PUSH, 42)

    def test_breaking_branch_to_a_simple_op_stays_in_the_region(self):
        """SIDE_EXIT's breaking JNZ targets ``PUSH 7``, a simple op, so
        both of its edges stay inside the region, and the loop's own
        fall-through joins the break's target."""
        mm = jit_mini()
        mm.load(SIDE_EXIT)
        region = region_at(mm, SIDE_EXIT, 2)
        (taken, fall), = [ends for groups, ends
                          in zip(region.blocks, region.ends)
                          if groups[-1][1] == at(5)]
        assert taken[0] == at(12) and taken[1] > 0
        assert fall[0] == at(6) and fall[1] > 0
        assert (at(2), 0) in region.ends[fall[1]]
        assert region.ends[taken[1]] == ((at(13), -1),)

    def test_short_sections_get_no_entries(self):
        """A too-short leader is a cold entry until it turns hot, then
        is handed back to the interpreter."""
        mm = jit_mini()
        program = [Instr(Op.PUSH, 1), Instr(Op.HALT)]
        mm.load(program)
        entry = mm.interp.code[TEXT_BASE]
        assert isinstance(entry, JitEntry) and entry.fn is None
        assert run_slices(mm) == 1
        assert mm.interp.code[TEXT_BASE] is entry.orig
        assert mm.interp.jit.entries == {}
        assert mm.interp.perf.jit_traces_compiled == 0

    def test_discovery_honors_fusion_groups(self):
        """Regions walk the code dict's actual dispatch groups, so a
        region built under fusion accounts a fused pair as one dispatch
        of two architectural instructions."""
        mm = jit_mini()
        mm.load(COUNTDOWN)
        region = region_at(mm, COUNTDOWN, 2)
        groups = [group for block in region.blocks for group in block]
        assert sum(arch for _, _, arch in groups) == len(region.code) == 7
        assert len(groups) < len(region.code)
        fused = [group for group in groups if group[2] == 2]
        assert fused and all(slot >= FUSED_BASE for slot, _, _ in fused)

    def test_min_region_length_is_enforced(self):
        for program in (COUNTDOWN, SIDE_EXIT, branchy(), UNEVEN_JOIN):
            mm = jit_mini()
            mm.load(program)
            for pc in leaders(TEXT_BASE, program):
                region = build_region(TEXT_BASE, program, mm.interp.code, pc)
                assert region is None or region.length >= JIT_MIN_LEN


class TestExecutionIdentity:
    def test_countdown_identical_with_jit_off(self):
        results = []
        for threshold in (1, 10 ** 9):  # hot vs never-compiles
            mm = jit_mini(threshold)
            mm.load(COUNTDOWN)
            code = run_slices(mm)
            results.append((code, mm.clock.now_ns,
                            list(mm.interp.perf.op_counts)))
        assert results[0] == results[1]
        assert results[0][0] == 42

    def test_side_exit_identical_with_jit_off(self):
        results = []
        for threshold in (1, 10 ** 9):
            mm = jit_mini(threshold)
            mm.load(SIDE_EXIT)
            code = run_slices(mm)
            results.append((code, mm.clock.now_ns,
                            list(mm.interp.perf.op_counts)))
        assert results[0] == results[1]
        assert results[0][0] == 7

    def test_loop_trace_retires_many_iterations_per_call(self):
        mm = jit_mini(threshold=1)
        mm.load(COUNTDOWN)
        run_slices(mm)
        perf = mm.interp.perf
        assert perf.jit_traces_compiled >= 1
        # ~200 iterations of a 6-instruction body in a handful of
        # trace executions, not one call per iteration.
        assert perf.jit_insns > 1000
        assert perf.jit_trace_executions < 50

    def test_trace_source_is_attached_for_debugging(self):
        mm = jit_mini(threshold=1)
        mm.load(COUNTDOWN)
        run_slices(mm)
        entry = mm.interp.code[TEXT_BASE + 2 * INSTR_SIZE]
        assert entry.fn is not None
        assert "while True:" in entry.fn.__jit_source__

    def test_traces_are_shared_across_machines(self):
        """An identical region resolves to one process-global function
        object (compile once, run everywhere)."""
        fns = []
        for _ in range(2):
            mm = jit_mini(threshold=1)
            mm.load(COUNTDOWN)
            run_slices(mm)
            fns.append(mm.interp.code[TEXT_BASE + 2 * INSTR_SIZE].fn)
        assert fns[0] is fns[1]

    def test_fresh_image_links_without_generating_source(self, monkeypatch):
        """The process-wide trace cache is keyed by what the source is
        generated from, so a second fresh image of one program links
        its hot trace without generating the source again."""
        program = ("package main\nfunc main() {\n    sum := 0\n"
                   "    for i := 0; i < 200; i = i + 1 {\n"
                   "        sum = sum + i\n    }\n    println(sum)\n}\n")
        first, _ = run_golite(program, config=MachineConfig(jit=True))
        generated = []
        real = jit.gen_source
        monkeypatch.setattr(jit, "gen_source", lambda region, profiled: (
            generated.append(region.entry) or real(region, profiled)))
        second, _ = run_golite(program, config=MachineConfig(jit=True))
        assert second.image is not first.image
        assert second.stdout == first.stdout == b"19900\n"
        assert second.perf.jit_traces_compiled >= 1
        assert generated == []


def drive(program: list[Instr], threshold: int, budget: int = 512,
          local0: int | None = None, runs: int = 1, setup=None,
          encoded: bool = True):
    """Run ``program`` ``runs`` times slice by slice from its start, and
    snapshot everything a trace could get wrong: each slice's
    (executed, pc, sim-ns), how each run ended, then the final
    ``op_counts``, ``word_fast``, ``word_slow``, ``tlb_hits``, pc and
    operand stack.  RTCALLs reach a stock ``Runtime.dispatch``, so
    traces open-code SLICE_AT/SLICE_PUT; ``setup(mm)`` runs after the
    load.  Without ``encoded`` the program is registered as built, as
    an ``Instr`` list whose immediates need not fit the encoding."""
    mm = jit_mini(threshold)
    if encoded:
        mm.load(program)
    else:
        mm._map(TEXT_BASE, PAGE_SIZE, Perm.RX)
        mm.interp.register_code(TEXT_BASE, program)
    mm.cpu.rtcall_handler = Runtime(mm.mmu, None, None, None, []).dispatch
    if setup is not None:
        setup(mm)
    slices = []
    for _ in range(runs):
        if local0 is not None:
            mm.poke_word(mm.cpu.fp + 16, local0)
        mm.cpu.pc = TEXT_BASE
        mm.cpu.operands = []
        while True:
            try:
                executed = mm.interp.run_slice(mm.cpu, budget)
            except (MachineHalt, Fault) as stop:
                slices.append((repr(stop), mm.interp.slice_executed,
                               mm.cpu.pc, mm.clock.now_ns))
                break
            slices.append((executed, mm.cpu.pc, mm.clock.now_ns))
    perf = mm.interp.perf
    return mm, (slices, list(perf.op_counts), perf.word_fast,
                perf.word_slow, perf.tlb_hits, mm.cpu.pc,
                list(mm.cpu.operands))


class TestForwardRegions:
    """Branching loop bodies run as one trace, and every way out of one
    — exits, the back edge's budget check, a fault in a middle block, a
    join reached at two stack depths — matches the interpreter."""

    def test_branching_loop_runs_in_a_few_trace_calls(self):
        mm, _ = drive(branchy(), threshold=1, budget=4096)
        perf = mm.interp.perf
        # 101 passes through the if/else and the break's test.
        assert perf.jit_trace_executions < 10
        assert perf.jit_insns >= 0.9 * perf.instructions

    @pytest.mark.parametrize("budget", [5, 7, 13, 64, 4096])
    def test_branching_loop_matches_interpreter_per_slice(self, budget):
        on = drive(branchy(), threshold=1, budget=budget)
        off = drive(branchy(), threshold=10 ** 9, budget=budget)
        assert on[1] == off[1]
        assert on[0].interp.perf.jit_trace_executions > 0

    def test_fault_in_a_middle_block_matches_interpreter(self):
        """The else arm divides by zero on pass 50: a block that is
        neither the entry nor the last one faults mid-trace."""
        on = drive(branchy(divisor_offset=50), threshold=1)
        off = drive(branchy(divisor_offset=50), threshold=10 ** 9)
        assert on[1] == off[1]
        assert "divide by zero" in on[1][0][-1][0]
        assert on[0].interp.perf.jit_deopts.get("fault") == 1

    @pytest.mark.parametrize("local0", [0, 1])
    def test_join_at_two_stack_depths_matches_interpreter(self, local0):
        on = drive(UNEVEN_JOIN, threshold=1, local0=local0, runs=3)
        off = drive(UNEVEN_JOIN, threshold=10 ** 9, local0=local0, runs=3)
        assert on[1] == off[1]
        assert on[0].interp.perf.jit_trace_executions > 0

    def test_machines_from_one_image_share_region_and_trace(self):
        image = build_bild_image(8, 8, 1)
        machines = [Machine(image, MachineConfig(backend="mpk"))
                    for _ in range(2)]
        for machine in machines:
            machine.run()
        first, second = (machine.interp.jit.entries for machine in machines)
        hot = [pc for pc, entry in first.items() if entry.fn is not None]
        assert hot
        for pc in hot:
            assert second[pc].region is first[pc].region
            assert second[pc].fn is first[pc].fn


#: 1 on the pass where local 0 has counted down to 0, else 0.
LAST_PASS = [Instr(Op.LOADL, 0), Instr(Op.NOT)]
#: DATA_BASE, or an unmapped page on the last pass.
BAD_ADDR = LAST_PASS + [Instr(Op.PUSH, 0x300000), Instr(Op.MUL),
                        Instr(Op.PUSH, DATA_BASE), Instr(Op.ADD)]
#: One instruction per op that can fault inside a trace, with its
#: operands; each faults on the last pass and leaves nothing behind
#: when it does not.
FAULTING = {
    "load": BAD_ADDR + [Instr(Op.LOAD), Instr(Op.DROP)],
    "store": BAD_ADDR + [Instr(Op.PUSH, 5), Instr(Op.STORE)],
    "load1": BAD_ADDR + [Instr(Op.LOAD1), Instr(Op.DROP)],
    "store1": BAD_ADDR + [Instr(Op.PUSH, 5), Instr(Op.STORE1)],
    "memcpy": [Instr(Op.PUSH, DATA_BASE + 64), Instr(Op.PUSH, DATA_BASE)]
    + LAST_PASS + [Instr(Op.PUSH, -9), Instr(Op.MUL), Instr(Op.PUSH, 8),
                   Instr(Op.ADD), Instr(Op.MEMCPY)],
    "div": [Instr(Op.PUSH, 100), Instr(Op.LOADL, 0), Instr(Op.DIV),
            Instr(Op.DROP)],
    "mod": [Instr(Op.PUSH, 100), Instr(Op.LOADL, 0), Instr(Op.MOD),
            Instr(Op.DROP)],
}


class ViolationStamps(Observer):
    """Records each violation the MMU reports, with the simulated time
    an observer reads when it is reported."""

    def __init__(self, clock):
        self.clock = clock
        self.stamps = []

    def on_violation(self, kind, vaddr, detail, **extra):
        self.stamps.append((kind, vaddr, detail, self.clock.now_ns))


def fault_loop(fault: list[Instr]) -> list[Instr]:
    """A loop at instruction 3 whose region pops an entry operand (77,
    pushed before the loop) and keeps it, a DUP result, an unconsumed
    PUSH literal and two SWAP results live under ``fault``; local 0
    counts the passes down from 3, so ``fault`` faults on the fourth,
    which runs compiled at threshold 1."""
    return [
        Instr(Op.PUSH, 77),
        Instr(Op.PUSH, 3), Instr(Op.STOREL, 0),
        Instr(Op.DUP),                                   # 3  loop entry
        Instr(Op.PUSH, 5),
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 9), Instr(Op.SWAP),
        *fault,
        Instr(Op.DROP), Instr(Op.DROP), Instr(Op.DROP), Instr(Op.DROP),
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 1), Instr(Op.SUB),
        Instr(Op.STOREL, 0),
        Instr(Op.JMP, at(3)),
    ]


class TestFaultRebuildsTheStack:
    """A trace keeps operands in locals; when an instruction faults
    mid-trace, the fault hook must leave ``cpu.operands`` exactly as
    the interpreter does: every operand below the faulting
    instruction's own (which stay popped), literals and copies
    included."""

    @pytest.mark.parametrize("op", sorted(FAULTING))
    def test_fault_leaves_the_interpreters_stack(self, op):
        program = fault_loop(FAULTING[op])
        on = drive(program, threshold=1)
        off = drive(program, threshold=10 ** 9)
        assert on[1] == off[1]
        assert on[1][-1] == [77, 77, 5, 9, 0]
        assert "Fault" in on[1][0][-1][0]
        assert on[0].interp.code[at(3)].min_depth >= 1
        assert on[0].interp.perf.jit_deopts["fault"] == 1

    @pytest.mark.parametrize("op", ["load", "load1", "store", "store1"])
    def test_violation_is_reported_at_the_interpreters_clock(self, op):
        """The MMU reports a violation to observers, which read the
        clock: a trace stores its clock back before any call into the
        MMU, so the tracer stamps the violation as interpreted."""
        recorders = []

        def setup(mm):
            mm.mmu.obs = ViolationStamps(mm.clock)
            recorders.append(mm.mmu.obs)

        program = fault_loop(FAULTING[op])
        on = drive(program, threshold=1, setup=setup)
        off = drive(program, threshold=10 ** 9, setup=setup)
        assert on[1] == off[1]
        on_stamps, off_stamps = (recorder.stamps for recorder in recorders)
        assert on_stamps == off_stamps and len(on_stamps) == 1
        assert on[0].interp.perf.jit_deopts["fault"] == 1

    def test_guarded_call_sees_and_leaves_the_interpreters_stack(self):
        """A channel receive (a ``_guarded`` call) sees the whole stack
        in ``cpu.operands``, and after a ``WouldBlock`` retry, a
        returned value or a fault leaves it as the interpreter does."""
        program = fault_loop([Instr(Op.LOADL, 0),
                              Instr(Op.RTCALL, 5, 1),     # CHAN_RECV
                              Instr(Op.DROP)])

        def run(threshold):
            mm = jit_mini(threshold)
            mm.load(program)
            seen = []

            def recv(cpu, service, args):
                seen.append((service, args, list(cpu.operands)))
                if args == (2,) and len(seen) == 2:
                    raise WouldBlock(("chan", 2))
                if args == (0,):
                    raise Fault("exec", "receive on a closed channel")
                return 10 * args[0]

            mm.cpu.rtcall_handler = recv
            mm.cpu.pc = TEXT_BASE
            stops = []
            while True:
                try:
                    mm.interp.run_slice(mm.cpu, 512)
                except (WouldBlock, Fault) as stop:
                    stops.append((repr(stop), mm.cpu.pc, mm.clock.now_ns,
                                  list(mm.cpu.operands)))
                    if isinstance(stop, Fault):
                        op_counts = list(mm.interp.perf.op_counts)
                        return mm, (seen, stops, op_counts)

        on, off = run(1), run(10 ** 9)
        assert on[1] == off[1]
        seen, stops, _ = on[1]
        assert [stack for _, _, stack in seen] == [[77, 77, 5, 9, i]
                                                   for i in (3, 2, 2, 1, 0)]
        assert [stack for _, _, _, stack in stops] == [[77, 77, 5, 9, 2, 2],
                                                       [77, 77, 5, 9, 0]]
        assert on[0].interp.perf.jit_deopts == {"block": 1, "fault": 1}


SLICE_LEN = 12
#: The first address of DATA's third page; slice data runs across it.
PAGE2 = DATA_BASE + 2 * PAGE_SIZE


def slice_loop(elem: int, computed: bool, desc: int,
               offset: int) -> list[Instr]:
    """SLICE_PUT then SLICE_AT in a countdown loop: pass ``i`` (12 down
    to 1) stores ``7 * i`` at index ``i - offset``, reads it back and
    sums the reads into local 2, which HALT returns.  With ``computed``
    the descriptor and the element size come from locals 3 and 1
    (LOADL), else from PUSH immediates, which traces hold as
    literals."""
    operands = ([Instr(Op.LOADL, 3), Instr(Op.LOADL, 1)] if computed
                else [Instr(Op.PUSH, desc), Instr(Op.PUSH, elem)])
    operands += [Instr(Op.LOADL, 0), Instr(Op.PUSH, offset), Instr(Op.SUB)]
    return [
        Instr(Op.PUSH, SLICE_LEN), Instr(Op.STOREL, 0),
        Instr(Op.PUSH, elem), Instr(Op.STOREL, 1),
        Instr(Op.PUSH, 0), Instr(Op.STOREL, 2),
        Instr(Op.PUSH, desc), Instr(Op.STOREL, 3),
        *operands,                                           # 8  loop head
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 7), Instr(Op.MUL),
        Instr(Op.RTCALL, 23, 4), Instr(Op.DROP),             # SLICE_PUT
        Instr(Op.LOADL, 2), *operands,
        Instr(Op.RTCALL, 22, 3),                             # SLICE_AT
        Instr(Op.ADD), Instr(Op.STOREL, 2),
        Instr(Op.LOADL, 0), Instr(Op.PUSH, 1), Instr(Op.SUB), Instr(Op.DUP),
        Instr(Op.STOREL, 0), Instr(Op.JNZ, at(8)),
        Instr(Op.LOADL, 2), Instr(Op.HALT),
    ]


#: layout -> (descriptor address, data address for an element size,
#: index offset).  The data of every layout spans PAGE2, so compiled
#: passes miss the TLB when the countdown crosses it.
SLICE_LAYOUTS = {
    "two-pages": (DATA_BASE + 64, lambda elem: PAGE2 - 5 * elem, 1),
    # Index -1 on pass 11, which runs compiled.
    "index-out-of-range": (DATA_BASE + 64, lambda elem: PAGE2 - 5 * elem, 3),
    # Element 4 spans PAGE2 (word slices only).
    "word-spans-page": (DATA_BASE + 64, lambda elem: PAGE2 - 36, 1),
    # The descriptor spans DATA's first two pages: the generic call.
    "descriptor-spans-page": (DATA_BASE + PAGE_SIZE - 8,
                              lambda elem: PAGE2 - 5 * elem, 1),
}


class TestSliceAccess:
    """Traces open-code SLICE_AT/SLICE_PUT against a stock runtime; on
    every arm — byte and word elements, a literal or a computed
    element size, the TLB missing mid-trace, an index out of range, a
    word spanning a page, a descriptor spanning a page — they must
    match the interpreter."""

    @pytest.mark.parametrize("computed", [False, True],
                             ids=["literal-size", "computed-size"])
    @pytest.mark.parametrize("layout, elem", [
        (layout, elem) for layout in sorted(SLICE_LAYOUTS) for elem in (1, 8)
        if elem == 8 or layout != "word-spans-page"
    ], ids=lambda value: {1: "byte", 8: "word"}.get(value, value))
    def test_slice_loop_matches_interpreter(self, layout, elem, computed):
        desc, data_at, offset = SLICE_LAYOUTS[layout]
        data = data_at(elem)
        program = slice_loop(elem, computed, desc, offset)

        def setup(mm):
            mm.poke_bytes(desc, struct.pack("<qqq", data, SLICE_LEN,
                                            SLICE_LEN))

        for budget in (64, 4096):
            runs = [drive(program, threshold, budget, setup=setup)
                    for threshold in (1, 10 ** 9)]
            on, off = ([mm.peek_bytes(data, SLICE_LEN * elem),
                        mm.peek_word(mm.cpu.fp + 32), snapshot]
                       for mm, snapshot in runs)
            assert on == off, budget
        mm = runs[0][0]
        source = mm.interp.code[at(8)].fn.__jit_source__
        assert "desc2(" in source
        # A computed size is tested against 1 at run time, a literal
        # one never.
        size_tests = [atom for atom in re.findall(r"if (\S+) == 1:", source)
                      if atom != "bk"]
        assert bool(size_tests) is computed
        assert all(re.fullmatch(r"s\d+", atom) for atom in size_tests)
        perf = mm.interp.perf
        assert perf.jit_insns > perf.instructions // 2
        assert "guard:rtcall" not in perf.jit_deopts
        if layout == "index-out-of-range":
            assert perf.jit_deopts["fault"] == 1
            assert "slice index -1" in on[-1][0][-1][0]
        if layout == "word-spans-page":
            assert perf.word_slow > 0


#: One access to DATA per op kind a trace open-codes, leaving the
#: stack as it found it; the slice descriptor sits at DATA_BASE + 64.
DATA_ACCESS = {
    "load": [Instr(Op.PUSH, DATA_BASE + 8), Instr(Op.LOAD), Instr(Op.DROP)],
    "store": [Instr(Op.PUSH, DATA_BASE + 8), Instr(Op.LOADL, 0),
              Instr(Op.STORE)],
    "load1": [Instr(Op.PUSH, DATA_BASE + 8), Instr(Op.LOAD1),
              Instr(Op.DROP)],
    "store1": [Instr(Op.PUSH, DATA_BASE + 8), Instr(Op.LOADL, 0),
               Instr(Op.STORE1)],
    "slice-at": [Instr(Op.PUSH, DATA_BASE + 64), Instr(Op.PUSH, 8),
                 Instr(Op.PUSH, 1), Instr(Op.RTCALL, 22, 3), Instr(Op.DROP)],
    "slice-put": [Instr(Op.PUSH, DATA_BASE + 64), Instr(Op.PUSH, 1),
                  Instr(Op.PUSH, 1), Instr(Op.LOADL, 0),
                  Instr(Op.RTCALL, 23, 4), Instr(Op.DROP)],
}


def data_loop(op: str) -> list[Instr]:
    """A four-pass countdown loop making one ``DATA_ACCESS[op]`` per
    pass, then halting with 0."""
    return [Instr(Op.PUSH, 4), Instr(Op.STOREL, 0),
            *DATA_ACCESS[op],                                # 2  loop head
            Instr(Op.LOADL, 0), Instr(Op.PUSH, 1), Instr(Op.SUB),
            Instr(Op.DUP), Instr(Op.STOREL, 0), Instr(Op.JNZ, at(2)),
            Instr(Op.PUSH, 0), Instr(Op.HALT)]


def data_loop_machine(op: str, threshold: int) -> MiniMachine:
    """``data_loop(op)`` loaded with a stock runtime, the slice
    descriptor at DATA_BASE + 64 and violations stamped."""
    mm = jit_mini(threshold)
    mm.load(data_loop(op))
    mm.cpu.rtcall_handler = Runtime(mm.mmu, None, None, None, []).dispatch
    mm.poke_bytes(DATA_BASE + 64, struct.pack("<qqq", DATA_BASE + 256, 4, 4))
    mm.mmu.obs = ViolationStamps(mm.clock)
    return mm


def run_program(mm: MiniMachine) -> tuple:
    """Run the loaded program once from its start, slice by slice; how
    it stopped, at which pc and sim-ns."""
    mm.cpu.pc = TEXT_BASE
    mm.cpu.operands = []
    while True:
        try:
            mm.interp.run_slice(mm.cpu, 512)
        except (MachineHalt, Fault) as stop:
            return repr(stop), mm.cpu.pc, mm.clock.now_ns


#: Tables a CR3 write may install over the data page: name -> edit of
#: a copy of the loader's table.
SWITCHED_TABLES = {
    "not-present": lambda table: table.set_present_range(
        DATA_BASE, PAGE_SIZE, False),
    "read-only": lambda table: table.protect_range(DATA_BASE, PAGE_SIZE,
                                                   Perm.R),
}


def _copy(table: PageTable, name: str) -> PageTable:
    """A new table mapping ``table``'s entries (not its TLB)."""
    copy = PageTable(name)
    for vpn in table.mapped_vpns():
        copy.map_page(vpn, table.lookup(vpn))
    return copy


class TestTraceEnforcement:
    """PKRU is not part of a cached translation, in traces too: a WRPKRU
    between two trace calls governs the very next access a hot trace
    makes through a hot entry, exactly where and when the interpreter
    faults.  A CR3 write between two calls needs no flush either: the
    hot entries stay in the old table's TLB, so the trace declines its
    entry or misses, and faults where the interpreter does.  Nor does a
    guest-table edit that points a page at a frame outside the VM's
    EPT: the edit dropped the hot entries, and the refill's walk meets
    the EPT violation."""

    @pytest.mark.parametrize("op", sorted(DATA_ACCESS))
    def test_remap_outside_the_ept_reaches_a_hot_trace(self, op):
        def run(threshold):
            mm = data_loop_machine(op, threshold)
            mm.cpu.ctx.ept = {mm.table.lookup(vpn).pfn
                              for vpn in mm.table.mapped_vpns()}
            stops = [run_program(mm)]
            old = mm.table.lookup(DATA_BASE >> 12)
            mm.table.map_page(DATA_BASE >> 12,
                              PTE(mm.physmem.alloc_frame(), old.perms))
            stops.append(run_program(mm))
            perf = mm.interp.perf
            return mm, (stops, mm.mmu.obs.stamps, list(perf.op_counts),
                        perf.word_fast, perf.word_slow, perf.tlb_hits,
                        perf.tlb_misses)

        (mm, on), (_, off) = run(1), run(10 ** 9)
        assert on == off
        assert "halt(0)" in on[0][0][0] and "EPT violation" in on[0][1][0]
        assert mm.interp.perf.jit_trace_executions >= 1

    @pytest.mark.parametrize("warm", [False, True],
                             ids=["cold-locals", "warm-locals"])
    @pytest.mark.parametrize("table", sorted(SWITCHED_TABLES))
    @pytest.mark.parametrize("op", sorted(DATA_ACCESS))
    def test_cr3_switch_reaches_a_hot_trace(self, op, table, warm):
        def run(threshold):
            mm = data_loop_machine(op, threshold)
            stops = [run_program(mm)]
            before = dict(mm.interp.perf.jit_deopts)
            switched = _copy(mm.table, "switched")
            SWITCHED_TABLES[table](switched)
            mm.cpu.ctx.page_table = switched
            if warm:
                # The locals page's entries under the new table, so the
                # trace passes its entry guard and meets the old data
                # entries itself.
                mm.poke_word(mm.cpu.fp + 16, mm.peek_word(mm.cpu.fp + 16))
            stops.append(run_program(mm))
            perf = mm.interp.perf
            deopts = {reason: count - before.get(reason, 0)
                      for reason, count in perf.jit_deopts.items()}
            return mm, deopts, (stops, mm.mmu.obs.stamps,
                                list(perf.op_counts), perf.word_fast,
                                perf.word_slow, perf.tlb_hits,
                                perf.tlb_misses)

        (mm, deopts, on), (_, _, off) = run(1), run(10 ** 9)
        assert on == off
        denied = table == "not-present" or op in ("store", "store1",
                                                 "slice-put")
        assert ("PageFault" in on[0][1][0]) is denied
        perf = mm.interp.perf
        assert perf.tlb_flushes == 0
        # With the locals page cold under the new table, each trace
        # declines its first call after the switch and the interpreter
        # faults; with it warm, the trace meets the old data entry.
        if not warm:
            assert deopts["guard:tlb"] >= 1 and "fault" not in deopts
        elif denied:
            assert deopts == {"fault": 1}
        else:
            assert deopts == {}
        if not denied:
            assert perf.jit_trace_executions >= 2

    @pytest.mark.parametrize("rights", ["", "r"],
                             ids=["access-disable", "write-disable"])
    @pytest.mark.parametrize("op", sorted(DATA_ACCESS))
    def test_pkru_revocation_reaches_a_hot_trace(self, op, rights):
        def run(threshold):
            mm = data_loop_machine(op, threshold)
            mm.table.set_pkey_range(DATA_BASE, DATA_SIZE, 3)
            stops = []
            for grant in ("rw", rights):
                mm.cpu.ctx.pkru = make_pkru({0: "rw", 3: grant})
                stops.append(run_program(mm))
            perf = mm.interp.perf
            return mm, (stops, mm.mmu.obs.stamps, list(perf.op_counts),
                        perf.word_fast, perf.tlb_hits, perf.tlb_misses)

        on, off = run(1), run(10 ** 9)
        assert on[1] == off[1]
        denied = rights == "" or op in ("store", "store1", "slice-put")
        assert ("PkeyFault" in on[1][0][1][0]) is denied
        # The second run entered the hot trace: it faulted in it or ran.
        perf = on[0].interp.perf
        if denied:
            assert perf.jit_deopts["fault"] == 1
        else:
            assert "fault" not in perf.jit_deopts
            assert perf.jit_trace_executions >= 2


#: PUSH immediates for generated programs: small, negative, and at the
#: edges of the signed 64-bit range, where ADD/SUB/MUL/NEG/SHL wrap.
IMMEDIATES = (0, 1, 2, 3, 7, 63, 64, -1, -2, -7, 2 ** 62, 2 ** 63 - 1,
              -2 ** 63)


def random_body(rng: random.Random, out: list, depth: int, steps: int,
                arms: int) -> None:
    """Append ``steps`` random region-grammar instructions to ``out``,
    then settle the stack back to ``depth``.  Local 0 is the loop
    counter, read but never written; locals 1-3 carry values between
    passes.  ``arms`` bounds the nesting of forward JZ/JNZ arms."""
    start = depth
    for _ in range(steps):
        kinds = ["push", "loadl", "addrl-load"]
        if depth >= 1:
            kinds += ["storel", "addrl-store", "dup", "drop", "neg", "not",
                      "zero-divisor"]
        if depth >= 2:
            kinds += ["swap", "alu", "alu", "alu"]
        if depth >= 1 and arms:
            kinds += ["arm"]
        kind = rng.choice(kinds)
        if kind == "push":
            out.append(Instr(Op.PUSH, rng.choice(IMMEDIATES)))
            depth += 1
        elif kind == "loadl":
            out.append(Instr(Op.LOADL, rng.randint(0, 3)))
            depth += 1
        elif kind == "addrl-load":
            out += [Instr(Op.ADDRL, rng.randint(0, 3)), Instr(Op.LOAD)]
            depth += 1
        elif kind == "storel":
            out.append(Instr(Op.STOREL, rng.randint(1, 3)))
            depth -= 1
        elif kind == "addrl-store":
            out += [Instr(Op.ADDRL, rng.randint(1, 3)), Instr(Op.SWAP),
                    Instr(Op.STORE)]
            depth -= 1
        elif kind in ("dup", "drop", "neg", "not", "swap"):
            out.append(Instr(Op[kind.upper()]))
            depth += {"dup": 1, "drop": -1}.get(kind, 0)
        elif kind == "alu":
            out.append(Instr(rng.choice(sorted(BINARY_ALU))))
            depth -= 1
        elif kind == "zero-divisor":
            # Local 0 minus a constant: zero on some pass, or never.
            out += [Instr(Op.LOADL, 0), Instr(Op.PUSH, rng.randint(1, 12)),
                    Instr(Op.SUB), Instr(rng.choice((Op.DIV, Op.MOD)))]
        else:
            branch = len(out)
            out.append(None)
            random_body(rng, out, depth - 1, rng.randint(1, 6), arms - 1)
            out[branch] = Instr(rng.choice((Op.JZ, Op.JNZ)), at(len(out)))
            depth -= 1
    while depth > start:
        out.append(rng.choice((Instr(Op.DROP),
                               Instr(Op.STOREL, rng.randint(1, 3)))))
        depth -= 1
    while depth < start:
        out.append(Instr(Op.LOADL, rng.randint(0, 3)))
        depth += 1


def random_loop(rng: random.Random) -> list[Instr]:
    """A random loop body wrapped in a countdown loop: local 0 counts 3
    to 8 passes down, locals 1-3 start at random immediates, and HALT's
    exit code folds them together."""
    out = [Instr(Op.PUSH, rng.randint(3, 8)), Instr(Op.STOREL, 0)]
    for k in (1, 2, 3):
        out += [Instr(Op.PUSH, rng.choice(IMMEDIATES)), Instr(Op.STOREL, k)]
    head = len(out)
    random_body(rng, out, 0, rng.randint(4, 24), arms=2)
    out += [Instr(Op.LOADL, 0), Instr(Op.PUSH, 1), Instr(Op.SUB),
            Instr(Op.DUP), Instr(Op.STOREL, 0), Instr(Op.JNZ, at(head)),
            Instr(Op.LOADL, 1), Instr(Op.LOADL, 2), Instr(Op.XOR),
            Instr(Op.LOADL, 3), Instr(Op.ADD), Instr(Op.HALT)]
    return out


class TestGeneratedRegions:
    """Seeded differential test of generated regions: random programs
    from the region grammar, run slice by slice with the JIT compiling
    at once and never, must agree on everything :func:`drive` snapshots
    plus the frame's locals."""

    SEED = 24
    EXAMPLES = 60
    #: At budget 4096 the corpus must retire this share of its
    #: instructions in traces (0.735 at SEED), so it cannot pass by
    #: deopting.
    COVERAGE_FLOOR = 0.65

    def test_generated_loops_match_the_interpreter(self):
        rng = random.Random(self.SEED)
        traced = total = faults = 0
        ops = set()
        for example in range(self.EXAMPLES):
            program = random_loop(rng)
            ops.update(ins.op for ins in program)
            for budget in (5, 13, 4096):
                runs = [drive(program, threshold, budget)
                        for threshold in (1, 10 ** 9)]
                on, off = ([mm.peek_word(mm.cpu.fp + 16 + 8 * k)
                            for k in range(4)] + [snapshot]
                           for mm, snapshot in runs)
                assert on == off, (example, budget, program)
                if budget == 4096:
                    perf = runs[0][0].interp.perf
                    traced += perf.jit_insns
                    total += perf.instructions
                    faults += perf.jit_deopts.get("fault", 0)
        assert traced / total >= self.COVERAGE_FLOOR, traced / total
        assert BINARY_ALU <= ops
        assert faults > 0


#: Where :func:`slot_loop` puts the loop head, after ``before``.
LOOP_HEAD = 8


def slot_loop(body: list[Instr], before: tuple = ()) -> list[Instr]:
    """``body`` in a six-pass countdown loop over local 3, entered after
    ``before``; locals 0-2 start at 5, 6 and 7, and HALT's exit code
    folds them together."""
    out = [Instr(Op.PUSH, 6), Instr(Op.STOREL, 3)]
    for k in (0, 1, 2):
        out += [Instr(Op.PUSH, 5 + k), Instr(Op.STOREL, k)]
    out += before
    head = len(out)
    out += body
    out += [Instr(Op.LOADL, 3), Instr(Op.PUSH, 1), Instr(Op.SUB),
            Instr(Op.DUP), Instr(Op.STOREL, 3), Instr(Op.JNZ, at(head)),
            Instr(Op.LOADL, 0), Instr(Op.LOADL, 1), Instr(Op.XOR),
            Instr(Op.LOADL, 2), Instr(Op.ADD), Instr(Op.HALT)]
    return out


def pass_times(k: int) -> list[Instr]:
    """Push the loop counter (local 3) times ``k``."""
    return [Instr(Op.LOADL, 3), Instr(Op.PUSH, k), Instr(Op.MUL)]


def add_to(slot: int) -> list[Instr]:
    """Pop a value and add it to local ``slot``."""
    return [Instr(Op.LOADL, slot), Instr(Op.ADD), Instr(Op.STOREL, slot)]


#: Descriptors and data for the slot-aliasing programs, in DATA.
SRC_DATA = DATA_BASE + 8        # 8 words MEMCPY copies into a slot
OUT_DATA = DATA_BASE + 128      # 8 words copied out of a slot
COPY_SRC = DATA_BASE + 600      # a word SLICE_COPY copies into a slot
COPY_OUT = DATA_BASE + 640      # a word SLICE_COPY copies out of a slot
DESC_SLOT1 = DATA_BASE + 512    # 1-word slices over local 1, ...
DESC_SLOT2 = DATA_BASE + 536    # ... over local 2,
DESC_SRC = DATA_BASE + 560      # ... over COPY_SRC,
DESC_OUT = DATA_BASE + 584      # ... and over COPY_OUT
#: A descriptor spanning DATA's first two pages, over local 2.
DESC_SPANNING = DATA_BASE + PAGE_SIZE - 8
#: A second virtual page mapped to the locals' physical frame.
ALIAS = 0x0028_0000
#: PUSH immediates outside the signed 64-bit range.
WIDE = (2 ** 63, 2 ** 64 - 1, -2 ** 63 - 1)


def _slot(mm: MiniMachine, k: int) -> int:
    return mm.cpu.fp + 16 + 8 * k


def _descriptors(mm: MiniMachine) -> None:
    for desc, data in ((DESC_SLOT1, _slot(mm, 1)), (DESC_SLOT2, _slot(mm, 2)),
                       (DESC_SRC, COPY_SRC), (DESC_OUT, COPY_OUT),
                       (DESC_SPANNING, _slot(mm, 2))):
        mm.poke_bytes(desc, struct.pack("<qqq", data, 1, 1))
    for i in range(8):
        mm.poke_word(SRC_DATA + 8 * i, 1000 + 37 * i)


def _page_start_frame(mm: MiniMachine) -> None:
    """Put local 0 at the start of the stack's second page."""
    mm.cpu.fp = STACK_BASE + PAGE_SIZE - 16


def _last_slots_frame(mm: MiniMachine) -> None:
    """Put locals 0-3 at the end of the stack's last mapped page."""
    _descriptors(mm)
    mm.cpu.fp = STACK_BASE + STACK_SIZE - 48


def _alias_frame(mm: MiniMachine) -> None:
    pfn = mm.table.lookup(STACK_BASE >> 12).pfn
    mm.table.map_range(ALIAS, PAGE_SIZE, [pfn], Perm.RW)


def _frame_channel(mm: MiniMachine) -> None:
    """A CHAN_RECV handler that reads local 1 and writes local 2
    through the MMU, as a runtime service touching the frame would."""
    def recv(cpu, service, args):
        value = mm.mmu.read_word(cpu.ctx, _slot(mm, 1), charge=False)
        mm.mmu.write_word(cpu.ctx, _slot(mm, 2), 3 * value + args[0],
                          charge=False)
        return value
    mm.cpu.rtcall_handler = recv


def _setups(*steps):
    def setup(mm):
        for step in steps:
            step(mm)
    return setup


#: name -> (loop body, setup): each reaches a cached frame slot other
#: than through LOADL/STOREL, and reads the slot back or the memory it
#: wrote, so a stale slot or stale memory changes the run.
SLOT_ALIASES = {
    # A MEMCPY into local 1 after the pass read it, then one out of
    # local 2 after a STOREL to it.
    "memcpy": ([Instr(Op.LOADL, 1), *add_to(0),
                Instr(Op.ADDRL, 1), Instr(Op.PUSH, SRC_DATA), *pass_times(8),
                Instr(Op.ADD), Instr(Op.PUSH, 8), Instr(Op.MEMCPY),
                Instr(Op.LOADL, 1), *add_to(0),
                *pass_times(11), Instr(Op.STOREL, 2),
                Instr(Op.PUSH, OUT_DATA), *pass_times(8), Instr(Op.ADD),
                Instr(Op.ADDRL, 2), Instr(Op.PUSH, 8), Instr(Op.MEMCPY),
                Instr(Op.PUSH, OUT_DATA), *pass_times(8), Instr(Op.ADD),
                Instr(Op.LOAD), *add_to(0)], _descriptors),
    # A MEMCPY into local 2 after a STOREL to it; on the last pass it
    # runs on over local 3 into the unmapped page after it, so it
    # writes both locals, then faults.
    "memcpy-faults-midway": (
        [*pass_times(53), Instr(Op.STOREL, 2),
         Instr(Op.ADDRL, 2), Instr(Op.PUSH, SRC_DATA),
         Instr(Op.LOADL, 3), Instr(Op.PUSH, 1), Instr(Op.EQ),
         Instr(Op.PUSH, 16), Instr(Op.MUL), Instr(Op.PUSH, 8), Instr(Op.ADD),
         Instr(Op.MEMCPY), Instr(Op.LOADL, 2), *add_to(0)],
        _last_slots_frame),
    # A pure service: SLICE_COPY into a slice over local 1, then out of
    # one over local 2 after a STOREL to it.
    "slice-copy": ([Instr(Op.PUSH, COPY_SRC), *pass_times(13), Instr(Op.STORE),
                    Instr(Op.PUSH, DESC_SLOT1), Instr(Op.PUSH, DESC_SRC),
                    Instr(Op.PUSH, 8), Instr(Op.RTCALL, 26, 3), Instr(Op.DROP),
                    Instr(Op.LOADL, 1), *add_to(0),
                    *pass_times(17), Instr(Op.STOREL, 2),
                    Instr(Op.PUSH, DESC_OUT), Instr(Op.PUSH, DESC_SLOT2),
                    Instr(Op.PUSH, 8), Instr(Op.RTCALL, 26, 3), Instr(Op.DROP),
                    Instr(Op.PUSH, COPY_OUT), Instr(Op.LOAD), *add_to(0)],
                   _descriptors),
    # SLICE_AT/SLICE_PUT through a page-spanning descriptor (the generic
    # dispatch) over local 2: a read after a STOREL, a write before a
    # LOADL.
    "descriptor-spans-page": (
        [*pass_times(19), Instr(Op.STOREL, 2),
         Instr(Op.PUSH, DESC_SPANNING), Instr(Op.PUSH, 8), Instr(Op.PUSH, 0),
         Instr(Op.RTCALL, 22, 3), *add_to(0),
         Instr(Op.PUSH, DESC_SPANNING), Instr(Op.PUSH, 8), Instr(Op.PUSH, 0),
         *pass_times(23), Instr(Op.RTCALL, 23, 4), Instr(Op.DROP),
         Instr(Op.LOADL, 2), *add_to(1)], _descriptors),
    # A word LOAD, then a word STORE, spanning the page boundary into
    # local 0 (the uncharged helpers).
    "word-spans-into-slot": (
        [*pass_times(29), Instr(Op.STOREL, 0),
         Instr(Op.ADDRL, 0), Instr(Op.PUSH, 4), Instr(Op.SUB), Instr(Op.LOAD),
         *add_to(1),
         Instr(Op.ADDRL, 0), Instr(Op.PUSH, 4), Instr(Op.SUB),
         *pass_times(31), Instr(Op.STORE),
         Instr(Op.LOADL, 0), *add_to(2)], _page_start_frame),
    # Word and byte accesses through a second mapping of the frame: a
    # store and a byte store into local 1 read back by LOADL, a load
    # and a byte load of local 0 after a STOREL to it.
    "second-mapping": (
        [Instr(Op.PUSH, ALIAS + 24), *pass_times(37), Instr(Op.STORE),
         Instr(Op.LOADL, 1), *add_to(2),
         Instr(Op.PUSH, ALIAS + 25), *pass_times(3), Instr(Op.STORE1),
         Instr(Op.LOADL, 1), *add_to(2),
         *pass_times(41), Instr(Op.STOREL, 0),
         Instr(Op.PUSH, ALIAS + 16), Instr(Op.LOAD), *add_to(2),
         *pass_times(43), Instr(Op.STOREL, 0),
         Instr(Op.PUSH, ALIAS + 16), Instr(Op.LOAD1), *add_to(2)],
        _alias_frame),
    # A guarded channel call whose handler reads local 1 and writes
    # local 2, with a wide literal under its argument that the trace
    # refills from cpu.operands after the call and stores.
    "channel-call": (
        [*pass_times(47), Instr(Op.STOREL, 1),
         Instr(Op.PUSH, 2 ** 64 - 5), Instr(Op.LOADL, 3),
         Instr(Op.RTCALL, 5, 1), *add_to(0),
         Instr(Op.LOADL, 2), *add_to(0), Instr(Op.STOREL, 2)],
        _frame_channel),
}


def wide_stores(value: int) -> dict[str, list[Instr]]:
    """The three ways a PUSH immediate ``value`` reaches a STOREL in a
    trace: as a literal, as an entry operand the interpreter left on
    the stack before the loop, and settled into a local at a block
    edge.  Each program reads the slot back."""
    readback = [Instr(Op.LOADL, 1), *add_to(2)]
    return {
        "literal": slot_loop([Instr(Op.PUSH, value), Instr(Op.STOREL, 1),
                              *readback]),
        "entry-operand": slot_loop([Instr(Op.DUP), Instr(Op.STOREL, 1),
                                    *readback],
                                   before=(Instr(Op.PUSH, value),)),
        # A pass with an even counter skips the NOP: the literal
        # reaches the STOREL's block along two edges.
        "block-edge": slot_loop([Instr(Op.PUSH, value), Instr(Op.LOADL, 3),
                                 Instr(Op.PUSH, 1), Instr(Op.AND),
                                 Instr(Op.JZ, at(LOOP_HEAD + 6)),
                                 Instr(Op.NOP), Instr(Op.STOREL, 1),
                                 *readback]),
    }


class TestCachedFrameSlots:
    """A trace caches the frame slots its region names in Python
    locals.  Whatever else reaches the frame — a MEMCPY, a pure or
    guarded runtime call, the generic slice dispatch, a page-spanning
    word, a second mapping of the frame's page — must see the slots
    and leave them as the interpreter would, and a slot holds what
    STOREL then LOADL would return even for an immediate outside the
    signed 64-bit range.  Each case must match a run that never
    compiles, frame and data memory included."""

    @staticmethod
    def compare(program, setup=None):
        for budget in (13, 4096):
            runs = [drive(program, threshold, budget, setup=setup,
                          encoded=False) for threshold in (1, 10 ** 9)]
            on, off = ([[mm.peek_word(_slot(mm, k)) for k in range(4)],
                        mm.peek_bytes(DATA_BASE, 1024), snapshot]
                       for mm, snapshot in runs)
            assert on == off, budget
        perf = runs[0][0].interp.perf
        assert perf.jit_insns > perf.instructions // 2
        return runs[0][0]

    @pytest.mark.parametrize("case", sorted(SLOT_ALIASES))
    def test_aliased_slot_matches_the_interpreter(self, case):
        body, setup = SLOT_ALIASES[case]
        mm = self.compare(slot_loop(body), setup)
        head = mm.interp.code[at(LOOP_HEAD)]
        assert isinstance(head, JitEntry) and head.fn is not None

    @pytest.mark.parametrize("value", WIDE)
    @pytest.mark.parametrize("way", ["literal", "entry-operand",
                                     "block-edge"])
    def test_wide_immediate_is_stored_wrapped(self, way, value):
        mm = self.compare(wide_stores(value)[way])
        assert mm.peek_word(_slot(mm, 1)) == wrap64(value)


def unused_hoists(source: str) -> list[str]:
    """The trace-prologue locals that ``source`` never reads: a name
    assigned before ``now = clock.now_ns`` and mentioned in no later
    line other than a ``perf.<counter> += ...`` flush."""
    lines = source.splitlines()
    start = lines.index("    now = clock.now_ns")
    unused = []
    for k in range(1, start):
        match = re.fullmatch(r"    ([A-Za-z_]\w*) = .*", lines[k])
        if match is None:
            continue
        name = re.compile(rf"\b{match[1]}\b")
        if not any(name.search(line) for line in lines[k + 1:]
                   if not line.lstrip().startswith("perf.")):
            unused.append(match[1])
    return unused


class TestHoists:
    def test_every_hoisted_name_is_read(self):
        """The prologue hoists what the emitted trace reads, not what
        its ops might need: over the traces an async server compiles
        under load, no hoisted local goes unused (``wf`` summed into
        ``perf.word_fast`` but never incremented counts as unused)."""
        from repro.workloads.loadgen import run_level
        machine = run_level("mpk", 40_000, 60, 1).machine
        sources = [fn.__jit_source__
                   for _region, fn in machine.image.jit_memo.values()
                   if fn is not None]
        assert len(sources) >= 40
        assert not [names for names in map(unused_hoists, sources)
                    if names]


class TestGuardsAndDeopts:
    def _warm_countdown(self) -> MiniMachine:
        mm = jit_mini(threshold=1)
        mm.load(COUNTDOWN)
        run_slices(mm)
        return mm

    def test_budget_deopt_runs_interpreted(self):
        mm = self._warm_countdown()
        entry_pc = TEXT_BASE + 2 * INSTR_SIZE
        mm.poke_word(mm.cpu.fp + 16, 3)  # local 0 = 3
        mm.cpu.pc = entry_pc
        before = dict(mm.interp.perf.jit_deopts)
        executed = mm.interp.run_slice(mm.cpu, 2)  # < region length 6
        assert executed >= 2  # interpreted (a fused pair may overshoot)
        deopts = mm.interp.perf.jit_deopts
        assert deopts.get("budget", 0) == before.get("budget", 0) + 1

    def test_depth_guard_deopts(self):
        mm = jit_mini(threshold=1)
        mm.load([Instr(Op.ADD)] * 4 + [Instr(Op.HALT)])
        for _ in range(2):  # warm + compiled pass
            mm.cpu.pc = TEXT_BASE
            mm.cpu.operands = [1, 1, 1, 1, 1]
            mm.interp.run_slice(mm.cpu, 4)
        entry = mm.interp.code[TEXT_BASE]
        assert isinstance(entry, JitEntry) and entry.fn is not None
        assert entry.min_depth == 5
        # run_slice's depth precheck skips the trace and counts the
        # deopt (budget must cover the region or that reason wins);
        # the interpreted replay then underflows on the second ADD.
        mm.cpu.pc = TEXT_BASE
        mm.cpu.operands = [1, 1]
        with pytest.raises(ConfigError, match="underflow"):
            mm.interp.run_slice(mm.cpu, 4)
        assert mm.interp.perf.jit_deopts.get("depth", 0) >= 1

    def test_custom_rtcall_handler_fails_the_slice_guard(self):
        """A trace with specialized SLICE_AT codegen must refuse to run
        against a non-stock rtcall handler (tests install their own):
        the entry guard deopts and the interpreter dispatches it."""
        mm = jit_mini(threshold=1)
        mm.load([
            Instr(Op.PUSH, 0x200000),    # desc
            Instr(Op.PUSH, 8),           # elem size
            Instr(Op.PUSH, 1),           # index
            Instr(Op.RTCALL, 22, 3),     # SLICE_AT
            Instr(Op.DROP),
            Instr(Op.HALT),
        ])
        calls = []

        def handler(cpu, service, args):
            calls.append((service, args))
            return 77

        mm.cpu.rtcall_handler = handler
        entry = mm.interp.code[TEXT_BASE]
        assert isinstance(entry, JitEntry)
        for _ in range(3):
            mm.cpu.pc = TEXT_BASE
            mm.cpu.operands = []
            mm.interp.run_slice(mm.cpu, 5)
        assert entry.fn is not None
        assert "RTD" in entry.fn.__jit_source__
        # Compiled on pass 1; passes 2 and 3 guard-deopt.
        assert mm.interp.perf.jit_deopts.get("guard:rtcall", 0) == 2
        assert len(calls) == 3
        assert calls[0] == (22, (0x200000, 8, 1))

    def test_fault_inside_trace_replays_accounting(self):
        program = [
            Instr(Op.PUSH, 8),
            Instr(Op.PUSH, 4),
            Instr(Op.DIV),
            Instr(Op.PUSH, 0),
            Instr(Op.DIV),               # faults: divide by zero
            Instr(Op.HALT),
        ]

        def double_fault(threshold):
            mm = jit_mini(threshold)
            mm.load(program)
            for _ in range(2):
                mm.cpu.pc = TEXT_BASE
                mm.cpu.operands = []
                with pytest.raises(Fault, match="divide by zero"):
                    mm.interp.run_slice(mm.cpu, 16)
                # The pc parks on the faulting DIV either way.
                assert mm.cpu.pc == TEXT_BASE + 4 * INSTR_SIZE
            return (mm.clock.now_ns, list(mm.interp.perf.op_counts),
                    mm.interp.slice_executed)

        jit_on = double_fault(threshold=1)
        jit_off = double_fault(threshold=10 ** 9)
        assert jit_on == jit_off
        mm = jit_mini(threshold=1)
        mm.load(program)
        for _ in range(2):
            mm.cpu.pc = TEXT_BASE
            mm.cpu.operands = []
            with pytest.raises(Fault):
                mm.interp.run_slice(mm.cpu, 16)
        assert mm.interp.perf.jit_deopts.get("fault", 0) == 1


    def test_channel_wouldblock_is_a_block_deopt(self):
        """FastHTTP's workers block on channel receives inside traces:
        each is a ``block`` deopt, never a ``fault``."""
        driver = run_fasthttp_server("mpk")
        for _ in range(10):  # the receive loop turns hot at request 8
            driver.request()
        deopts = driver.machine.perf.jit_deopts
        assert deopts.get("block", 0) > 0
        assert "fault" not in deopts


def serve_through_a_revival(backend: str, use_jit: bool):
    """The HTTP macro with one injected pkey violation in ``main_1``:
    12 clean requests warm its traces, the 13th trips the quarantine,
    ``LitterBox.revive`` lifts it, and 12 more clean requests follow.
    Returns the machine, the responses, and the trace counters and
    links read before the trip."""
    config = MachineConfig(backend=backend, fault_policy="quarantine",
                           quarantine_threshold=1,
                           inject="pkey@main_1:after=12,count=1",
                           inject_seed=7, jit=use_jit)
    driver = run_http_server(backend, config=config)
    machine = driver.machine
    responses = [driver.request() for _ in range(12)]
    perf = machine.perf
    linked = {pc: entry.fn for pc, entry in machine.interp.jit.entries.items()
              if entry.fn is not None} if use_jit else {}
    before = (perf.jit_traces_compiled, perf.jit_trace_executions, linked)
    responses.append(driver.request())
    lb = machine.litterbox
    (env_id,) = lb.quarantined
    assert lb.revive(env_id)
    responses += [driver.request() for _ in range(12)]
    return machine, responses, before


class TestInvalidation:
    """Nothing invalidates a linked trace: each call re-checks the
    translation state it hoists, so quarantine and revival leave the
    JIT's links alone."""

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_hot_traces_outlive_a_quarantine_and_revival(self, backend):
        on, on_responses, (compiled, executions, linked) = \
            serve_through_a_revival(backend, use_jit=True)
        off, off_responses, _ = serve_through_a_revival(backend, use_jit=False)
        assert on_responses == off_responses
        assert sum(r.startswith(b"HTTP/1.1 200 OK")
                   for r in on_responses) == 24
        assert on.clock.now_ns == off.clock.now_ns
        assert on.clock.counters == off.clock.counters
        assert on.stdout == off.stdout
        assert on.containment_report() == off.containment_report()
        # Every trace linked before the trip stayed linked through it
        # and the revival, and nothing was linked again.
        perf = on.perf
        assert linked and compiled == len(linked)
        assert perf.jit_traces_compiled == compiled
        assert perf.jit_trace_executions > executions
        entries = on.interp.jit.entries
        assert all(entries[pc].fn is fn for pc, fn in linked.items())

    def test_discovery_api_is_pure(self):
        """build_region inspects but never mutates the code dict
        (JitCompiler owns the installation)."""
        mm = MiniMachine()  # stock interpreter, no JIT
        mm.load(COUNTDOWN)
        code_before = dict(mm.interp.code)
        regions = [build_region(TEXT_BASE, COUNTDOWN, mm.interp.code, pc)
                   for pc in leaders(TEXT_BASE, COUNTDOWN)]
        loops = [region.entry for region in regions if region is not None
                 and any(bid == 0 for ends in region.ends
                         for _, bid in ends)]
        assert loops == [at(2)]
        assert mm.interp.code == code_before
