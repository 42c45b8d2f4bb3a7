"""The deterministic fault injector: spec grammar, budgets, hooks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, PageFault, PkeyFault, SyscallFault
from repro.golite import build_program
from repro.inject import FaultInjector, InjectClause, parse_inject_spec
from repro.machine import Machine, MachineConfig
from repro.os import errno
from repro.workloads import tenants
from repro.workloads.httpserver import run_http_server
from tests.golite_helpers import run_golite

SECRETS = """
package secretz

var Value int = 777
"""

ENCLOSED_APP = """
package main

var out int

func main() {
    f := with "none" func() int { return 7 }
    out = f()
}
"""


class TestSpecGrammar:
    def test_parse_full_spec(self):
        clauses = parse_inject_spec(
            "eagain@main_1:every=3,after=1,count=2,nr=0;"
            "pkey@*:p=0.5;entry@main_2")
        assert [c.kind for c in clauses] == ["eagain", "pkey", "entry"]
        first = clauses[0]
        assert (first.env, first.every, first.after, first.count,
                first.nr) == ("main_1", 3, 1, 2, 0)
        assert clauses[1].env == "*" and clauses[1].p == 0.5
        assert clauses[1].matches_env("anything")
        assert not clauses[0].matches_env("main_2")

    def test_describe_round_trips(self):
        spec = "eintr@main_1:every=2,after=1,count=3,p=0.25,nr=45"
        clause = parse_inject_spec(spec)[0]
        assert parse_inject_spec(clause.describe())[0].describe() == \
            clause.describe()

    @pytest.mark.parametrize("bad", [
        "frobnicate@main_1",      # unknown kind
        "eagain",                 # missing @ENV
        "pkey@",                  # empty env
        "eagain@x:every=0",       # every must be >= 1
        "eagain@x:after=-1",      # negative after
        "eagain@x:count=-1",      # negative count
        "eagain@x:p=1.5",         # probability out of range
        "eagain@x:p=-0.1",        # probability out of range
        "eagain@x:nr=-2",         # negative syscall number
        "eagain@x:bogus=1",       # unknown option
        "eagain@x:every=abc",     # non-integer
        "eagain@x:p=zzz",         # non-float
        "eagain@x:every",         # option with no '='
        "pkey@x:nr=1",            # nr on a non-transient kind
        ";;",                     # no clauses at all
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_inject_spec(bad)

    @pytest.mark.parametrize("bad", [
        "frobnicate@main_1",
        "eagain@x:every=0",
        "eagain@x:count=-1",
        "eagain@x:p=1.5",
        "pkey@x:nr=1",
        "eagain@x:bogus=1",
        "eagain@x:every=abc",
    ])
    def test_error_names_offending_clause(self, bad):
        """A multi-clause spec's error must quote the bad clause's own
        text, not just a generic message."""
        spec = f"eagain@ok_1:every=2;{bad};eintr@ok_2"
        with pytest.raises(ConfigError) as exc:
            parse_inject_spec(spec)
        assert repr(bad) in str(exc.value)


class TestFiringDiscipline:
    def _fire_pattern(self, clause: InjectClause, events: int) -> list[int]:
        injector = FaultInjector([clause])
        fired = []
        for i in range(events):
            if injector._should_fire(clause):
                fired.append(i)
        return fired

    def test_every(self):
        clause = InjectClause("eagain", "*", every=3)
        assert self._fire_pattern(clause, 10) == [0, 3, 6, 9]

    def test_after_then_every(self):
        clause = InjectClause("eagain", "*", every=2, after=3)
        assert self._fire_pattern(clause, 10) == [3, 5, 7, 9]

    def test_count_budget(self):
        clause = InjectClause("eagain", "*", count=2)
        assert self._fire_pattern(clause, 10) == [0, 1]

    def test_probability_is_seeded(self):
        patterns = set()
        for _ in range(3):
            clause = InjectClause("eagain", "*", p=0.5)
            injector = FaultInjector([clause], seed=99)
            patterns.add(tuple(i for i in range(64)
                               if injector._should_fire(clause)))
        assert len(patterns) == 1          # same seed -> same draws
        fired = next(iter(patterns))
        assert 0 < len(fired) < 64         # actually probabilistic


class TestSyscallHook:
    def test_returns_negative_errno(self):
        injector = FaultInjector("eagain@*:every=2")
        results = [injector.on_syscall(0) for _ in range(4)]
        assert results == [-errno.EAGAIN, None, -errno.EAGAIN, None]

    def test_eintr(self):
        injector = FaultInjector("eintr@*")
        assert injector.on_syscall(0) == -errno.EINTR

    def test_nr_filter(self):
        injector = FaultInjector("eagain@*:nr=1")
        assert injector.on_syscall(0) is None
        assert injector.on_syscall(1) == -errno.EAGAIN
        assert injector.clauses[0].seen == 1   # nr mismatch not eligible

    def test_env_scoping(self):
        injector = FaultInjector("eagain@main_1")
        injector.env_provider = lambda: "trusted"
        assert injector.on_syscall(0) is None
        injector.env_provider = lambda: "main_1"
        assert injector.on_syscall(0) == -errno.EAGAIN


class TestAccessHook:
    def _armed(self, spec: str) -> FaultInjector:
        class Env:
            id = 1
            name = "main_1"
        injector = FaultInjector(spec)
        injector.env_provider = lambda: "main_1"
        injector.on_prolog(Env())
        return injector

    def test_pkey_fires_once_on_data_access(self):
        injector = self._armed("pkey@main_1")
        injector.on_access(0x1000, "x")        # fetches never fault
        with pytest.raises(PkeyFault) as info:
            injector.on_access(0x1000, "r")
        assert info.value.env_name == "main_1"
        assert info.value.pkg == "injected"
        injector.on_access(0x1000, "r")        # disarmed after firing

    def test_page_fault_kind(self):
        injector = self._armed("page@main_1")
        with pytest.raises(PageFault):
            injector.on_access(0x2000, "w")

    def test_sysdeny_fires_on_any_access(self):
        injector = self._armed("sysdeny@main_1")
        with pytest.raises(SyscallFault):
            injector.on_access(0x3000, "x")

    def test_armed_fault_waits_for_matching_env(self):
        injector = self._armed("pkey@main_1")
        injector.env_provider = lambda: "trusted"
        injector.on_access(0x1000, "r")        # wrong env: stays armed
        injector.env_provider = lambda: "main_1"
        with pytest.raises(PkeyFault):
            injector.on_access(0x1000, "r")


class TestMMUHook:
    """The injector holds the MMU's access hook only while a fault is
    armed, so the rest of an injected run keeps the MMU and JIT fast
    paths."""

    def test_hook_spans_arming_prolog_to_firing_access(self):
        machine = Machine(build_program([ENCLOSED_APP]), MachineConfig(
            backend="mpk", inject="pkey@main_1"))
        injector = machine.injector
        assert machine.mmu.inject is None
        seen = []
        on_prolog, on_access = injector.on_prolog, injector.on_access

        def prolog(env):
            on_prolog(env)
            seen.append(("prolog", machine.mmu.inject))

        def access(vaddr, kind):
            seen.append(("access", machine.mmu.inject))
            on_access(vaddr, kind)

        injector.on_prolog, injector.on_access = prolog, access
        machine.run()
        assert isinstance(machine.fault, PkeyFault)
        assert seen[0] == ("prolog", injector)
        assert all(hook is injector for _, hook in seen)
        assert machine.mmu.inject is None

    def test_transient_spec_never_attaches_the_hook(self):
        driver = run_http_server("mpk", config=MachineConfig(
            backend="mpk", inject="eagain@*:nr=0,every=2"))
        injector = driver.machine.injector
        accesses = []
        injector.on_access = lambda vaddr, kind: accesses.append(vaddr)
        for _ in range(4):
            driver.request()
        assert injector.total_fired >= 2
        assert accesses == []
        assert driver.machine.mmu.inject is None

    @pytest.fixture(scope="class")
    def study(self):
        _, legs = tenants.tenants_study("mpk", tenants=10, requests=60)
        return dict(legs)["study"]

    def test_study_leg_ends_detached(self, study):
        assert study.injector.total_fired > 0
        assert study.mmu.inject is None

    def test_traces_cover_the_study_leg(self, study):
        assert study.perf.jit_insns / study.perf.instructions >= 0.5


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_entry_denial_aborts_under_default_policy(self, backend):
        machine, result = run_golite(
            ENCLOSED_APP,
            config=MachineConfig(backend=backend,
                                 inject="entry@main_1"))
        assert result.status == "faulted"
        assert machine.fault.kind == "denied-entry"
        assert machine.fault.pkg == "injected"
        assert "env 'main_1'" in machine.fault_trace()

    def test_injected_memory_fault_aborts_like_a_real_one(self):
        machine, result = run_golite(
            ENCLOSED_APP,
            config=MachineConfig(backend="mpk",
                                 inject="pkey@main_1"))
        assert result.status == "faulted"
        assert isinstance(machine.fault, PkeyFault)

    def test_transient_syscall_errors_are_absorbed(self):
        """EAGAIN on the server's reads: the request parser sees a short
        read and still answers — no containment needed."""
        from repro.workloads.httpserver import run_http_server
        driver = run_http_server("mpk", config=MachineConfig(
            backend="mpk", inject="eagain@*:nr=0,every=2"))
        responses = [driver.request() for _ in range(4)]
        assert all(r.startswith(b"HTTP/1.1 200") for r in responses)
        assert driver.machine.injector.total_fired >= 2

    def test_report_shape(self):
        injector = FaultInjector("eagain@*:count=1;pkey@main_1", seed=5)
        injector.on_syscall(0)
        report = injector.report()
        assert report["seed"] == 5
        assert report["total_fired"] == 1
        assert len(report["clauses"]) == 2
        assert report["clauses"][0]["fired"] == 1
