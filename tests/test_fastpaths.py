"""Interpreter fast paths: bit-identity, engagement, and invalidation.

Two wall-clock fast paths have MachineConfig kill-switches: load-time
superinstruction fusion (INTERNALS.md §11) and the trace JIT (§13).
Both are optimizations of the *simulator*, not of the simulated
machine, so the contract is strict: simulated time, traces, and
workload output must be bit-identical with each path disabled, and no
decision made before a quarantine may replay past it.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import Fault, QuarantinedFault, SimError
from repro.isa import Instr, Op
from repro.isa.interp import FusedInstr, Interpreter
from repro.isa.opcodes import FUSED_NAMES, FUSED_PAIRS
from repro.machine import Machine, MachineConfig
from repro.workloads.bild import build_bild_image, run_bild
from repro.workloads import loadgen
from repro.workloads.fasthttp import run_fasthttp_server
from repro.workloads.httpserver import run_http_server

from tests.golite_helpers import run_golite
from tests.harness import DATA_BASE, TEXT_BASE, MiniMachine

KNOBS = ["fuse_superinstructions", "jit"]
ENFORCING = ["mpk", "vtx"]


def _bild_snapshot(backend: str, **knobs):
    machine = run_bild(backend, 16, 16, 1,
                       config=MachineConfig(backend=backend, trace=True,
                                            **knobs))
    return (machine.clock.now_ns, machine.stdout,
            machine.tracer.summary())


def _http_snapshot(runner, backend: str, **knobs):
    driver = runner(backend, config=MachineConfig(backend=backend, **knobs))
    responses = [driver.request() for _ in range(4)]
    return (driver.machine.clock.now_ns, responses)


class TestBitIdentity:
    """Each kill-switch flips wall-clock behaviour only: simulated
    nanoseconds, stdout, trace summaries, and response bytes match the
    fast configuration exactly."""

    @pytest.mark.parametrize("backend", ENFORCING + ["lwc"])
    @pytest.mark.parametrize("knob", KNOBS)
    def test_bild_identical_with_path_disabled(self, knob, backend):
        assert _bild_snapshot(backend) == \
            _bild_snapshot(backend, **{knob: False})

    @pytest.mark.parametrize("backend", ENFORCING)
    @pytest.mark.parametrize("knob", KNOBS)
    def test_http_identical_with_path_disabled(self, knob, backend):
        assert _http_snapshot(run_http_server, backend) == \
            _http_snapshot(run_http_server, backend, **{knob: False})

    @pytest.mark.parametrize("backend", ENFORCING)
    @pytest.mark.parametrize("knob", KNOBS)
    def test_fasthttp_identical_with_path_disabled(self, knob, backend):
        assert _http_snapshot(run_fasthttp_server, backend) == \
            _http_snapshot(run_fasthttp_server, backend, **{knob: False})

    def test_all_paths_off_at_once(self):
        off = {knob: False for knob in KNOBS}
        assert _bild_snapshot("mpk") == _bild_snapshot("mpk", **off)


class TestObservabilityBitIdentity:
    """PR-5 observers obey the same contract from the other direction:
    *enabling* the metrics registry or the sampling profiler changes no
    simulated value (sim-ns, stdout, trace summaries, response bytes)."""

    OBSERVERS = ["metrics", "profile", "spans"]

    @pytest.mark.parametrize("backend", ENFORCING + ["lwc"])
    @pytest.mark.parametrize("knob", OBSERVERS)
    def test_bild_identical_with_observer_enabled(self, knob, backend):
        assert _bild_snapshot(backend) == \
            _bild_snapshot(backend, **{knob: True})

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_http_identical_with_all_observers_enabled(self, backend):
        assert _http_snapshot(run_http_server, backend) == \
            _http_snapshot(run_http_server, backend,
                           metrics=True, profile=True, spans=True)

    def test_fasthttp_identical_with_all_observers_enabled(self):
        assert _http_snapshot(run_fasthttp_server, "mpk") == \
            _http_snapshot(run_fasthttp_server, "mpk",
                           metrics=True, profile=True, spans=True)


BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_interp.json"

#: Table 2 at its committed sizes: cell -> (BENCH_interp.json key, the
#: cell's simulated value on a machine configured as given).
TABLE2_CELLS = {
    "bild": ("sim_ns", lambda config: run_bild(
        config.backend, 32, 32, 2, config=config).clock.now_ns),
    "HTTP": ("sim_req_per_s", lambda config: run_http_server(
        config.backend, config=config).throughput(15)),
    "FastHTTP": ("sim_req_per_s", lambda config: run_fasthttp_server(
        config.backend, config=config).throughput(15)),
}


class TestJitBitIdentity:
    """The tracing JIT (INTERNALS.md §13) under the same contract as
    the other fast paths, exercised through its hardest corners:
    deterministic fault injection, quarantine containment, and with
    every observer enabled at once."""

    def test_identical_under_fault_injection(self):
        def snap(jit):
            driver = run_http_server("mpk", config=MachineConfig(
                backend="mpk", jit=jit, fault_policy="kill-goroutine",
                inject="eagain@*:nr=0,every=2"))
            responses = [driver.request() for _ in range(6)]
            return (driver.machine.clock.now_ns, responses)
        assert snap(True) == snap(False)

    def test_identical_under_quarantine_with_metrics(self):
        def snap(jit):
            driver = run_http_server("mpk", config=MachineConfig(
                backend="mpk", jit=jit, metrics=True,
                fault_policy="quarantine", quarantine_threshold=2,
                inject="pkey@main_1:every=3"))
            responses = [driver.request() for _ in range(8)]
            machine = driver.machine
            report = machine.containment_report()
            return (machine.clock.now_ns, responses,
                    len(report["contained"]),
                    sorted(report["quarantined"]))
        assert snap(True) == snap(False)

    def test_identical_with_all_observers_enabled(self):
        def snap(jit):
            machine = run_bild("mpk", 16, 16, 1, config=MachineConfig(
                backend="mpk", jit=jit, trace=True, metrics=True,
                profile=True, spans=True))
            return (machine.clock.now_ns, machine.stdout,
                    machine.tracer.summary())
        assert snap(True) == snap(False)

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_traces_cover_the_injected_macro(self, backend):
        """An injected run stays in compiled traces between faults,
        and still matches pure interpretation."""
        def run(jit):
            driver = run_http_server(backend, config=MachineConfig(
                backend=backend, jit=jit, fault_policy="quarantine",
                quarantine_threshold=1000, inject="pkey@main_1:every=5"))
            responses = [driver.request() for _ in range(12)]
            return driver.machine, responses

        on, on_responses = run(True)
        off, off_responses = run(False)
        assert on.perf.jit_insns / on.perf.instructions >= 0.8
        assert on.injector.total_fired > 0
        assert (on.clock.now_ns, on_responses, on.containment_report()) \
            == (off.clock.now_ns, off_responses, off.containment_report())

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_async_server_runs_in_long_traces(self, backend):
        """The open-loop async server's branching header-scan loops run
        as long traces, and still match pure interpretation."""
        def run(jit):
            result = loadgen.run_level(backend, 40_000.0, 60, 7,
                                       config=MachineConfig(
                                           backend=backend, metrics=True,
                                           jit=jit))
            perf = result.machine.perf
            return perf, (result.machine.clock.now_ns, result.latencies_ns,
                          result.duration_ns, perf.instructions,
                          list(perf.op_counts), perf.word_fast,
                          perf.tlb_hits)

        on_perf, on = run(True)
        _, off = run(False)
        assert on == off
        assert on_perf.jit_insns / on_perf.instructions >= 0.95
        assert on_perf.jit_insns / on_perf.jit_trace_executions >= 100

    def test_jit_engages_on_macro_workloads(self):
        driver = run_http_server("mpk")
        for _ in range(5):
            driver.request()
        perf = driver.machine.perf
        assert perf.jit_traces_compiled > 0
        assert perf.jit_trace_executions > 0
        # Traces retire the bulk of the instruction stream.
        assert perf.jit_insns > perf.instructions // 2

    @pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx"])
    @pytest.mark.parametrize("cell", sorted(TABLE2_CELLS))
    def test_table2_without_jit_matches_committed_pr6(self, cell, backend):
        """Pure interpretation reproduces the committed Table 2 values
        (BENCH_interp.json ``pr6``, recorded with the JIT on) at the one
        decimal that entry keeps."""
        key, measure = TABLE2_CELLS[cell]
        pr6 = json.loads(BENCH_FILE.read_text())["pr6"]["table2"]
        value = measure(MachineConfig(backend=backend, jit=False))
        assert round(value, 1) == pr6[f"{cell}/{backend}"][key]

    def test_kill_switch_zeroes_the_counters(self):
        machine = run_bild("mpk", 16, 16, 1,
                           config=MachineConfig(backend="mpk", jit=False))
        perf = machine.perf
        assert perf.jit_traces_compiled == 0
        assert perf.jit_trace_executions == 0
        assert perf.jit_insns == 0
        assert perf.jit_deopts == {}
        assert machine.interp.jit is None


class TestEngagement:
    """Fusion actually fires on the macro workloads (guards against a
    silently-dead fast path that would make the bit-identity tests
    vacuous)."""

    def test_fusion_fires_on_http(self):
        driver = run_http_server("mpk")
        for _ in range(5):
            driver.request()
        assert driver.machine.perf.fused_instructions > 0

    def test_fusion_covers_most_of_bild(self):
        machine = run_bild("mpk", 16, 16, 1)
        perf = machine.perf
        assert perf.fused_instructions > perf.instructions // 2

    def test_kill_switches_zero_the_counters(self):
        machine = run_bild("mpk", 16, 16, 1, config=MachineConfig(
            backend="mpk", fuse_superinstructions=False))
        assert machine.perf.fused_instructions == 0

    def test_fusion_switch_controls_code_cache(self):
        fused = Machine(build_bild_image(8, 8, 1),
                        MachineConfig(backend="mpk"))
        assert any(isinstance(i, FusedInstr)
                   for i in fused.interp.code.values())
        plain = Machine(build_bild_image(8, 8, 1),
                        MachineConfig(backend="mpk",
                                      fuse_superinstructions=False))
        assert not any(isinstance(i, FusedInstr)
                       for i in plain.interp.code.values())


#: PUSH, then a PUSH+ADD pair that the peephole fuses.
SLICE_PROGRAM = [Instr(Op.PUSH, 1), Instr(Op.PUSH, 2), Instr(Op.ADD),
                 Instr(Op.PUSH, 0), Instr(Op.HALT)]


#: Immediates for the ops that read one: a pushed value that divides
#: cleanly, a local slot, and the second NOP after the pair as the
#: branch target.
PAIR_TARGET = TEXT_BASE + 3 * 16
PAIR_IMMEDIATES = {Op.PUSH: 3, Op.LOADL: 1, Op.STOREL: 1,
                   Op.JMP: PAIR_TARGET, Op.JZ: PAIR_TARGET,
                   Op.JNZ: PAIR_TARGET}


def _run_pair(pair, depth: int, fusion: bool):
    """Retire ``pair`` as one two-instruction slice over an operand
    stack of ``depth`` copies of DATA_BASE; returns the pc, the operand
    stack, the sim-ns spent and the type of any SimError raised."""
    mm = MiniMachine()
    mm.interp = Interpreter(mm.mmu, mm.clock, fusion=fusion)
    mm.load([Instr(op, PAIR_IMMEDIATES.get(op, 0)) for op in pair]
            + [Instr(Op.NOP), Instr(Op.NOP), Instr(Op.HALT)])
    assert isinstance(mm.interp.code[TEXT_BASE], FusedInstr) == fusion
    mm.cpu.pc = TEXT_BASE
    mm.cpu.operands = [DATA_BASE] * depth
    start = mm.clock.now_ns
    raised = None
    try:
        mm.interp.run_slice(mm.cpu, 2)
    except SimError as exc:
        raised = type(exc)
    return mm.cpu.pc, mm.cpu.operands, mm.clock.now_ns - start, raised


class TestFusionSemantics:
    """The peephole's safety contract at the ISA level."""

    @pytest.mark.parametrize("depth", range(4))
    @pytest.mark.parametrize("pair", FUSED_PAIRS, ids=FUSED_NAMES)
    def test_pair_retires_like_its_halves(self, pair, depth):
        """Every fused pair leaves the pc, the operand stack and the
        clock exactly as its two halves dispatched one at a time, and
        raises what they raise, on stacks too shallow for it too."""
        assert _run_pair(pair, depth, fusion=True) == \
            _run_pair(pair, depth, fusion=False)

    def test_jump_into_pair_middle_executes_unfused(self):
        """The second instruction of a fused pair keeps its own address,
        so a branch target inside the pair still works."""
        mm = MiniMachine()
        instrs = [
            Instr(Op.PUSH, 7),
            Instr(Op.PUSH, 2),
            Instr(Op.JMP, TEXT_BASE + 4 * 16),  # into the pair's middle
            Instr(Op.PUSH, 100),                # fused with the ADD below
            Instr(Op.ADD),
            Instr(Op.HALT),
        ]
        mm.load(instrs)
        # The pair was fused at its first address...
        assert isinstance(mm.interp.code[TEXT_BASE + 3 * 16], FusedInstr)
        # ...but the ADD is still dispatchable on its own.
        assert mm.run() == 9  # 7 + 2, never + 100

    def test_pair_never_spans_a_page_boundary(self):
        page_instrs = 4096 // 16
        instrs = [Instr(Op.NOP)] * (page_instrs - 1) + [
            Instr(Op.PUSH, 1), Instr(Op.ADD), Instr(Op.HALT)]
        mm = MiniMachine()
        mm.load(instrs)
        boundary_pc = TEXT_BASE + (page_instrs - 1) * 16
        assert not isinstance(mm.interp.code[boundary_pc], FusedInstr)

    def test_fault_in_second_half_retires_first_half(self):
        """A divide-by-zero inside PUSH+DIV must leave the pc on the DIV
        and the operand stack as the unfused sequence would."""
        mm = MiniMachine()
        mm.load([Instr(Op.PUSH, 1), Instr(Op.PUSH, 0), Instr(Op.DIV),
                 Instr(Op.HALT)])
        assert isinstance(mm.interp.code[TEXT_BASE + 16], FusedInstr)
        with pytest.raises(Fault, match="divide by zero"):
            mm.run()
        assert mm.cpu.pc == TEXT_BASE + 2 * 16  # the DIV's own address
        assert mm.cpu.operands == []            # both operands consumed

    def test_run_slice_counts_architectural_instructions(self):
        """Fused dispatches count as two instructions, so a slice budget
        is the same architectural work with fusion on or off — up to
        the overshoot of a pair straddling it (next test)."""
        mm = MiniMachine()
        mm.load(SLICE_PROGRAM)
        mm.cpu.pc = TEXT_BASE
        interp = mm.interp
        executed = interp.run_slice(mm.cpu, 3)
        # PUSH, then the fused PUSH+ADD pair: 3 instructions retired.
        assert executed == 3
        assert interp.slice_executed == 3

    @pytest.mark.parametrize("fusion, retired", [(True, 3), (False, 2)])
    def test_pair_straddling_the_budget_overshoots_it(self, fusion, retired):
        """The one place fusion is observable: a fused pair straddling
        the slice budget retires whole, one instruction past it, where
        unfused execution stops on the budget.  Slice lengths, and the
        quota step charges taken from them, can therefore differ by one:
        the CPU-hog tenant of perfbench's tenants-30 workload is charged
        400001 steps with fusion on and 400000 with it off."""
        mm = MiniMachine()
        mm.interp = Interpreter(mm.mmu, mm.clock, fusion=fusion)
        mm.load(SLICE_PROGRAM)
        mm.cpu.pc = TEXT_BASE
        assert mm.interp.run_slice(mm.cpu, 2) == retired
        assert mm.interp.slice_executed == retired


SECRETS = """
package secretz

var Value int = 777
"""

#: Both goroutines enter the *same* enclosure through the same call
#: site.  The first makes a benign call, then violates on its second
#: call, tripping the quarantine; the second goroutine's entry must be
#: denied even though the same transition was approved before the
#: breaker tripped.
WARM_THEN_VIOLATE = """
package main

import "secretz"

var out int

func bad(ch chan int) {
    f := with "secretz:U, none" func(x int) int {
        if x == 0 {
            return 1
        }
        return secretz.Value
    }
    ch <- f(0)
    ch <- f(1)
}

func main() {
    ch := make(chan int, 4)
    go bad(ch)
    go bad(ch)
    out = <-ch
}
"""


class TestQuarantineInvalidation:
    @pytest.mark.parametrize("backend", ENFORCING + ["lwc"])
    def test_warm_transition_cannot_replay_past_quarantine(self, backend):
        machine, result = run_golite(
            WARM_THEN_VIOLATE, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="quarantine",
                                 quarantine_threshold=1))
        assert result.status == "exited", machine.fault
        lb = machine.litterbox
        assert len(lb.quarantined) == 1
        denied = [f for f in machine.scheduler.contained
                  if isinstance(f, QuarantinedFault)]
        # The second goroutine's (previously approved) entry was denied
        # at the boundary.
        assert denied and denied[0].kind == "denied-entry"
