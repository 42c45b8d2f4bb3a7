"""Tests for the enforcement-event tracer (``repro/trace.py``).

Covers the ISSUE's trace-correctness requirements: exact Prolog/Epilog
pairs, one deny event per filtered system call, transfer events that
match allocator activity on both MPK and VTX, violation events, the
strict Chrome trace-event schema check, and bit-identical simulated
time with tracing disabled.
"""

import json

import pytest

from repro.machine import Machine, MachineConfig
from repro.trace import (
    TraceFormatError,
    Tracer,
    describe_trace,
    validate_chrome_trace,
    write_chrome_json,
)

from tests.fig1 import build_image
from tests.golite_helpers import run_golite


def run_traced(backend, body="invert", policy="secrets:R, none"):
    machine = Machine(build_image(body=body, policy=policy),
                      MachineConfig(backend=backend, trace=True))
    result = machine.run()
    return machine, result


MULTI_CALL_SRC = (
    "package main\n\nimport \"lib\"\n\nfunc main() {\n"
    '    f := with "none" func(x int) int { return lib.Triple(x) }\n'
    "    s := 0\n"
    "    for i := 0; i < 3; i = i + 1 {\n"
    "        s = s + f(i)\n"
    "    }\n"
    "    println(s)\n}\n")

LIB_SRC = "package lib\n\nfunc Triple(x int) int { return 3*x }\n"

SECRETS_SRC = "package secretz\n\nvar Value int = 777\n"

#: Two workers share one closure.  Worker 0 parks on ``c`` inside it;
#: worker 1 reads ``secretz.Value``, faults and trips the quarantine;
#: main's send then wakes worker 0, whose resume into the quarantined
#: enclosure is refused.
QUARANTINED_RESUME_SRC = """
package main

import "secretz"

var out int

func worker(f func(chan int, int) int, c chan int, mode int) {
    out = f(c, mode)
}

func signal(sig chan int) {
    sig <- 1
}

func main() {
    c := make(chan int)
    sig := make(chan int)
    f := with "secretz:U, none" func(c chan int, mode int) int {
        if mode == 0 {
            return <-c
        }
        return secretz.Value
    }
    go worker(f, c, 0)
    go worker(f, c, 1)
    go signal(sig)
    <-sig
    c <- 5
    go signal(sig)
    <-sig
}
"""


class TestSwitchEvents:
    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_single_prolog_epilog_pair(self, backend):
        machine, result = run_traced(backend)
        assert result.status == "exited"
        tracer = machine.tracer
        prologs = tracer.select(kind="prolog")
        epilogs = tracer.select(kind="epilog")
        assert len(prologs) == 1 and len(epilogs) == 1
        assert prologs[0].name == "prolog:rcl"
        assert epilogs[0].name == "epilog:rcl"
        # Both switch spans are attributed to the enclosure itself.
        assert prologs[0].env == "rcl" and epilogs[0].env == "rcl"
        assert prologs[0].ts <= epilogs[0].ts
        assert prologs[0].args["from"] == "trusted"
        assert epilogs[0].args["to"] == "trusted"

    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_exactly_one_pair_per_enclosure_call(self, backend):
        machine, result = run_golite(
            LIB_SRC, MULTI_CALL_SRC,
            config=MachineConfig(backend=backend, trace=True))
        assert result.status == "exited", machine.fault
        tracer = machine.tracer
        prologs = tracer.select(kind="prolog")
        epilogs = tracer.select(kind="epilog")
        assert len(prologs) == 3
        assert len(epilogs) == 3
        # Pairs nest: every epilog closes after its prolog opened.
        for pro, epi in zip(prologs, epilogs):
            assert pro.ts <= epi.ts

    def test_execute_events_cover_scheduler_handoffs(self):
        machine, result = run_traced("mpk")
        executes = machine.tracer.select(kind="execute")
        assert executes, "scheduler hand-offs must be traced"
        assert all(e.cat == "switch" for e in executes)
        assert executes[0].name == "execute:trusted"


class TestFilterEvents:
    DENY_MECHANISM = {"mpk": "seccomp-bpf", "vtx": "guest-os",
                      "lwc": "lwc-kernel"}

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_one_deny_event_per_filtered_syscall(self, backend):
        machine, result = run_traced(backend, body="syscall")
        assert result.status == "faulted"
        denies = [e for e in machine.tracer.select(cat="filter")
                  if e.name == "filter:deny"]
        assert len(denies) == 1
        deny = denies[0]
        assert deny.args["mechanism"] == self.DENY_MECHANISM[backend]
        assert deny.args["nr"] == 102  # getuid
        assert deny.args["verdict"] == "kill"

    def test_mpk_deny_records_pkru_and_bpf_verdict(self):
        machine, result = run_traced("mpk", body="syscall")
        (deny,) = [e for e in machine.tracer.select(cat="filter")
                   if e.name == "filter:deny"]
        # The seccomp filter keyed on PKRU saw the enclosure's value.
        assert deny.args["pkru"] not in (0, None)
        assert deny.args["bpf_insns"] > 0

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_allowed_syscall_traced_as_allow(self, backend):
        machine, result = run_traced(backend, body="syscall",
                                     policy="secrets:R, proc")
        assert result.status == "exited"
        tracer = machine.tracer
        allows = [e for e in tracer.select(cat="filter")
                  if e.name == "filter:allow"
                  and e.args.get("nr") == 102]
        assert len(allows) == 1
        assert not [e for e in tracer.select(cat="filter")
                    if e.name == "filter:deny"]

    def test_vtx_syscall_pays_a_traced_vm_exit(self):
        machine, result = run_traced("vtx", body="syscall",
                                     policy="secrets:R, proc")
        assert result.status == "exited"
        tracer = machine.tracer
        exits = tracer.select(kind="vm_exit")
        assert exits and exits[0].name == "vm_exit:hypercall"
        assert all(e.dur > 0 for e in exits)
        # The forwarded call appears as a guest-sys span around it.
        guest = [e for e in tracer.select(cat="syscall")
                 if e.name == "guest-sys:getuid"]
        assert len(guest) == 1


class TestTransferEvents:
    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_transfers_match_allocator_activity(self, backend):
        machine, result = run_traced(backend)
        assert result.status == "exited"
        transfers = machine.tracer.select(kind="transfer")
        assert len(transfers) == machine.clock.count("transfers")
        # Replaying the events in order gives LitterBox's arena owners.
        owners = {}
        for event in transfers:
            base, size = event.args["base"], event.args["size"]
            for vpn in range(base >> 12, (base + size - 1 >> 12) + 1):
                owners[vpn] = event.pkg
        assert owners and owners == machine.litterbox.arena_owner

    def test_transfer_span_includes_nested_syscall_once(self):
        """On MPK a Transfer is a pkey_mprotect syscall: the nested
        sys: span is visible but only the outer transfer accumulates."""
        machine, result = run_traced("mpk")
        tracer = machine.tracer
        (transfer,) = tracer.select(kind="transfer")
        nested = [e for e in tracer.select(cat="syscall")
                  if e.name == "sys:pkey_mprotect"
                  and transfer.ts <= e.ts <= transfer.ts + transfer.dur]
        assert nested, "nested pkey_mprotect span should be recorded"
        summary = tracer.summary()[transfer.env]
        # The enclosing environment's enforcement time never exceeds
        # its gross time — nested spans are not double counted.
        enforced = (summary["switch_ns"] + summary["syscall_ns"]
                    + summary["transfer_ns"])
        assert enforced <= summary["total_ns"] + 1e-6


class TestViolationEvents:
    def test_mpk_pkey_violation(self):
        machine, result = run_traced("mpk", body="smash")
        assert result.status == "faulted"
        violations = machine.tracer.select(cat="violation")
        kinds = {e.name for e in violations}
        assert "violation:pkey" in kinds
        assert "violation:abort" in kinds

    def test_vtx_page_fault_violation(self):
        machine, result = run_traced("vtx", body="smash")
        assert result.status == "faulted"
        kinds = {e.name for e in machine.tracer.select(cat="violation")}
        assert "violation:page-fault" in kinds
        assert "violation:abort" in kinds


class TestAttribution:
    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_gross_times_partition_simulated_time(self, backend):
        machine, result = run_traced(backend)
        summary = machine.tracer.summary()
        total = sum(row["total_ns"] for row in summary.values())
        assert total == pytest.approx(machine.clock.now_ns, rel=1e-9)

    def test_enclosure_window_spans_prolog_to_epilog(self):
        machine, result = run_traced("mpk")
        tracer = machine.tracer
        (prolog,) = tracer.select(kind="prolog")
        (epilog,) = tracer.select(kind="epilog")
        window = (epilog.ts + epilog.dur) - prolog.ts
        assert tracer.summary()["rcl"]["total_ns"] == \
            pytest.approx(window, rel=1e-9)

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_refused_resume_closes_its_execute_span(self, backend):
        """A resume into a since-quarantined enclosure raises inside
        Execute: its span still closes, so the containment that follows
        is outermost and counts toward the enclosure's contain_ns."""
        machine, result = run_golite(
            QUARANTINED_RESUME_SRC, SECRETS_SRC,
            config=MachineConfig(backend=backend, trace=True,
                                 fault_policy="quarantine"))
        assert result.status == "exited", machine.fault
        kinds = [fault.kind for fault in machine.scheduler.contained]
        assert kinds[1:] == ["denied-entry"]
        tracer = machine.tracer
        assert tracer._open == []
        assert "execute:main_1" in {event.name for event in tracer.events}
        contains = [event for event in tracer.select(kind="contain")
                    if event.ph == "X"]
        assert len(contains) == 2
        assert tracer.summary()["main_1"]["contain_ns"] == \
            sum(event.dur for event in contains)

    def test_describe_reports_every_environment(self):
        machine, result = run_traced("mpk")
        lines = describe_trace(machine.tracer.chrome_trace(),
                               machine.tracer.summary())
        assert lines[0].startswith("trace: ")
        text = "\n".join(lines)
        assert "rcl:" in text and "trusted:" in text
        assert "compute" in text


class TestDisabledTracer:
    @pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx", "lwc"])
    def test_sim_ns_bit_identical(self, backend):
        plain = Machine(build_image(), MachineConfig(backend=backend))
        plain_result = plain.run()
        traced = Machine(build_image(),
                         MachineConfig(backend=backend, trace=True))
        traced_result = traced.run()
        assert plain.tracer is None
        assert plain_result.status == traced_result.status
        # Bit-identical: the tracer never charges the SimClock.
        assert plain.clock.now_ns == traced.clock.now_ns
        for counter in ("switches", "transfers", "syscalls", "vm_exits"):
            assert plain.clock.count(counter) == traced.clock.count(counter)
        assert plain.stdout == traced.stdout

    def test_hooks_are_skipped_when_disabled(self):
        machine = Machine(build_image(), MachineConfig(backend="mpk"))
        machine.run()
        assert machine.tracer is None
        for obj in (machine, machine.mmu, machine.kernel,
                    machine.litterbox, machine.scheduler):
            assert obj.obs is None


class TestChromeExport:
    def test_export_validates_and_loads(self, tmp_path):
        machine, result = run_traced("vtx", body="syscall",
                                     policy="secrets:R, proc")
        out = tmp_path / "trace.json"
        count = write_chrome_json(out, machine.tracer.chrome_trace())
        assert validate_chrome_trace(out) == count
        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ns"
        assert document["otherData"]["sim_total_ns"] == machine.clock.now_ns

    def test_one_thread_lane_per_environment(self):
        machine, result = run_traced("mpk")
        document = machine.tracer.chrome_trace()
        threads = {e["args"]["name"]: e["tid"]
                   for e in document["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "env:trusted" in threads and "env:rcl" in threads
        assert threads["env:trusted"] == 0  # lane 0 is the starting env
        lanes = {e["tid"] for e in document["traceEvents"]
                 if e["ph"] != "M"}
        assert lanes <= set(threads.values())

    def test_timestamps_are_microseconds(self):
        machine, result = run_traced("mpk")
        document = machine.tracer.chrome_trace()
        (prolog_event,) = machine.tracer.select(kind="prolog")
        (record,) = [e for e in document["traceEvents"]
                     if e["name"] == "prolog:rcl"]
        assert record["ts"] == pytest.approx(prolog_event.ts / 1000.0)
        assert record["dur"] == pytest.approx(prolog_event.dur / 1000.0)

    # -- strict schema rejection -----------------------------------------

    def _valid_doc(self):
        machine, _ = run_traced("mpk")
        return machine.tracer.chrome_trace()

    def test_rejects_non_object_top_level(self):
        with pytest.raises(TraceFormatError, match="object"):
            validate_chrome_trace([])

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceFormatError, match="non-empty"):
            validate_chrome_trace({"traceEvents": [],
                                   "displayTimeUnit": "ns"})

    def test_rejects_bad_display_unit(self):
        document = self._valid_doc()
        document["displayTimeUnit"] = "fortnights"
        with pytest.raises(TraceFormatError, match="displayTimeUnit"):
            validate_chrome_trace(document)

    def test_rejects_bad_phase(self):
        document = self._valid_doc()
        document["traceEvents"][-1]["ph"] = "Z"
        with pytest.raises(TraceFormatError, match="phase"):
            validate_chrome_trace(document)

    def test_rejects_missing_duration(self):
        document = self._valid_doc()
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        del spans[0]["dur"]
        with pytest.raises(TraceFormatError, match="dur"):
            validate_chrome_trace(document)

    def test_rejects_negative_timestamp(self):
        document = self._valid_doc()
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        spans[0]["ts"] = -1.0
        with pytest.raises(TraceFormatError, match="ts"):
            validate_chrome_trace(document)

    def test_rejects_bad_instant_scope(self):
        document = self._valid_doc()
        document["traceEvents"].append(
            {"name": "x", "cat": "filter", "ph": "i", "ts": 0.0,
             "pid": 1, "tid": 0, "s": "q"})
        with pytest.raises(TraceFormatError, match="scope"):
            validate_chrome_trace(document)

    def test_rejects_non_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(TraceFormatError, match="JSON"):
            validate_chrome_trace(bad)


class TestTracerUnit:
    def test_outermost_only_accumulation(self):
        from repro.hw.clock import SimClock
        clock = SimClock()
        tracer = Tracer(clock)
        outer = tracer.begin("transfer", "transfer:pkg")
        clock.now_ns += 100.0
        inner = tracer.begin("syscall", "sys:pkey_mprotect")
        clock.now_ns += 50.0
        assert tracer.end() is inner
        clock.now_ns += 25.0
        assert tracer.end() is outer
        summary = tracer.summary()["trusted"]
        assert summary["transfer_ns"] == pytest.approx(175.0)
        # The nested syscall span is an event but not double counted.
        assert summary["syscall_ns"] == pytest.approx(0.0)
        assert len(tracer.events) == 2

    def test_set_env_backdates_boundary(self):
        from repro.hw.clock import SimClock
        clock = SimClock()
        tracer = Tracer(clock)
        clock.now_ns = 1000.0
        tracer.set_env("encl", at=400.0)
        clock.now_ns = 1500.0
        summary = tracer.summary()
        assert summary["trusted"]["total_ns"] == pytest.approx(400.0)
        assert summary["encl"]["total_ns"] == pytest.approx(1100.0)
