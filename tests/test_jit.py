"""Tracing JIT internals: region discovery, guards, deopt accounting,
and cache invalidation (INTERNALS.md §13).

Macro-level bit-identity lives in test_fastpaths.py; this file drives
the compiler through :class:`MiniMachine` programs where the regions,
guards, and fault points are built by hand.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, Fault, MachineHalt
from repro.isa import INSTR_SIZE, Instr, Interpreter, Op
from repro.isa.jit import JIT_MIN_LEN, JitEntry, discover_regions
from repro.machine import Machine, MachineConfig
from repro.workloads.bild import build_bild_image

from tests.harness import TEXT_BASE, MiniMachine


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
#: to its own entry with net stack delta zero -> one loop region.
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

#: Same loop with a conditional break: the JZ/JNZ pair in the middle
#: leaves the trace through a side exit when the local reaches 250.
SIDE_EXIT = [
    Instr(Op.PUSH, 300),
    Instr(Op.STOREL, 0),
    Instr(Op.LOADL, 0),                  # loop entry
    Instr(Op.PUSH, 250),
    Instr(Op.EQ),
    Instr(Op.JNZ, TEXT_BASE + 12 * INSTR_SIZE),  # side exit
    Instr(Op.LOADL, 0),
    Instr(Op.PUSH, 1),
    Instr(Op.SUB),
    Instr(Op.STOREL, 0),
    Instr(Op.LOADL, 0),
    Instr(Op.JNZ, TEXT_BASE + 2 * INSTR_SIZE),
    Instr(Op.PUSH, 7),
    Instr(Op.HALT),
]


class TestRegionDiscovery:
    def test_loop_region_installed_at_back_branch_target(self):
        mm = jit_mini()
        mm.load(COUNTDOWN)
        entry_pc = TEXT_BASE + 2 * INSTR_SIZE
        entry = mm.interp.code[entry_pc]
        assert isinstance(entry, JitEntry)
        assert entry.region.loop
        assert entry.region.length == 6
        assert entry.region.exits == []

    def test_side_exits_are_recorded_in_order(self):
        mm = jit_mini()
        mm.load(SIDE_EXIT)
        entry = mm.interp.code[TEXT_BASE + 2 * INSTR_SIZE]
        assert entry.region.loop
        # The breaking JNZ is instruction 3 of the body; the
        # terminator's back-branch is not a side exit.
        assert entry.region.exits == [3]
        assert len(entry.region.exit_tables()) == 1

    def test_short_sections_get_no_entries(self):
        mm = jit_mini()
        mm.load([Instr(Op.PUSH, 1), Instr(Op.HALT)])
        assert not any(isinstance(i, JitEntry)
                       for i in mm.interp.code.values())

    def test_discovery_honors_fusion_groups(self):
        """Regions walk the code dict's actual dispatch groups, so a
        region discovered under fusion accounts fused pairs as one
        dispatch of two architectural instructions."""
        mm = jit_mini()
        mm.load(COUNTDOWN)
        entry = mm.interp.code[TEXT_BASE + 2 * INSTR_SIZE]
        arch = sum(garch for _, _, garch in entry.region.groups)
        assert arch == entry.region.length
        assert len(entry.region.groups) <= entry.region.length

    def test_min_region_length_is_enforced(self):
        mm = jit_mini()
        mm.load(COUNTDOWN)
        for entry in mm.interp.jit.entries.values():
            assert entry.region.length >= JIT_MIN_LEN


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
        """Identical generated source resolves to one process-global
        function object (compile once, run everywhere)."""
        fns = []
        for _ in range(2):
            mm = jit_mini(threshold=1)
            mm.load(COUNTDOWN)
            run_slices(mm)
            fns.append(mm.interp.code[TEXT_BASE + 2 * INSTR_SIZE].fn)
        assert fns[0] is fns[1]


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
        assert mm.interp.perf.jit_deopts.get("guard", 0) == 2
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


class TestInvalidation:
    def test_flush_discards_traces_and_recompiles(self):
        mm = jit_mini(threshold=1)
        mm.load(COUNTDOWN)
        run_slices(mm)
        interp = mm.interp
        compiled = interp.perf.jit_traces_compiled
        assert compiled >= 1
        gen = interp.jit.gen
        interp.flush_jit()
        assert interp.jit.gen == gen + 1
        assert interp.jit.cache == {}
        assert interp.perf.jit_flushes == 1
        assert all(e.fn is None and e.count == 0
                   for e in interp.jit.entries.values())
        # Re-warming under the new generation compiles again and the
        # program still runs to the same exit code.
        assert run_slices(mm) == 42
        assert interp.perf.jit_traces_compiled > compiled

    def test_quarantine_trip_flushes_traces(self):
        machine = Machine(build_bild_image(8, 8, 1),
                          MachineConfig(backend="mpk",
                                        fault_policy="quarantine",
                                        quarantine_threshold=1))
        assert machine.litterbox.jit_flush is not None
        lb = machine.litterbox
        env = lb.env(1)
        fault = Fault("mem", "contained violation")
        fault.attribute(env)
        lb.note_contained_fault(fault)
        assert env.id in lb.quarantined
        assert machine.perf.jit_flushes == 1

    def test_discovery_api_is_pure(self):
        """discover_regions inspects but never mutates the code dict
        (JitCompiler.register owns the installation)."""
        mm = MiniMachine()  # stock interpreter, no JIT
        mm.load(COUNTDOWN)
        code_before = dict(mm.interp.code)
        regions = discover_regions(TEXT_BASE, COUNTDOWN, mm.interp.code)
        assert [r.entry for r in regions if r.loop] == \
            [TEXT_BASE + 2 * INSTR_SIZE]
        assert mm.interp.code == code_before
