"""SMP: multi-core scheduling, shootdown accounting, and coherence.

The SMP machine must satisfy two contracts at once:

* ``cores=1`` is **bit-identical** to the historical uniprocessor —
  same simulated ns, same counters, same traces, JIT on or off;
* ``cores>1`` is **deterministic** (a pure function of the seed) and
  *honest*: cross-core TLB/PKRU invalidation is charged as IPIs, and a
  quarantine tripped on one core is visible to every other core before
  it takes another step (no stale Prolog success).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, QuarantinedFault
from repro.golite import build_program
from repro.hw.pagetable import PTE, PageTable
from repro.hw.pages import Perm
from repro.machine import Machine, MachineConfig
from repro.workloads import loadgen
from tests.golite_helpers import run_golite

ENFORCING = ["mpk", "vtx", "lwc"]
ALL_BACKENDS = ["baseline"] + ENFORCING

SECRETS = """
package secretz

var Value int = 777
"""

#: Several CPU-bound goroutines: enough independent work that a second
#: core must steal to stay busy.
SPINNERS = """
package main

var out int

func spin(ch chan int, rounds int) {
    n := 0
    for i := 0; i < rounounds; i++ {
        n = n + i
    }
    ch <- n
}

func main() {
    ch := make(chan int, 8)
    for k := 0; k < 6; k++ {
        go spin(ch, 3000)
    }
    total := 0
    for k := 0; k < 6; k++ {
        total = total + <-ch
    }
    out = total
}
""".replace("rounounds", "rounds")

#: Producer/consumer pairs over unbuffered channels, plus spinners to
#: spread goroutines over both cores: wakeups must cross cores.
PINGPONG = """
package main

var out int

func consume(in chan int, done chan int) {
    v := <-in
    done <- v * 2
}

func burn(ch chan int) {
    n := 0
    for i := 0; i < 4000; i++ {
        n = n + 1
    }
    ch <- n
}

func main() {
    in := make(chan int)
    done := make(chan int)
    scratch := make(chan int, 4)
    for k := 0; k < 4; k++ {
        go burn(scratch)
    }
    go consume(in, done)
    go consume(in, done)
    in <- 10
    in <- 11
    total := <-done + <-done
    for k := 0; k < 4; k++ {
        total = total + <-scratch
    }
    out = total
}
"""

#: A permitted enclosure call: its stack preparation re-tags pages of
#: the shared host table, which on SMP must shoot down the other core.
ENCLOSED = """
package main

import "secretz"

var out int

func main() {
    f := with "secretz:R, none" func() int { return secretz.Value }
    out = f()
}
"""

#: Two goroutines race into the same enclosure; one trips quarantine.
#: On SMP the loser's Prolog runs on another core and must be denied.
RACE_APP = """
package main

import "secretz"

var out int

func bad(ch chan int) {
    f := with "secretz:U, none" func() int { return secretz.Value }
    ch <- f()
}

func good(ch chan int) {
    n := 0
    for i := 0; i < 2000; i++ {
        n = n + 1
    }
    ch <- 42
}

func main() {
    ch := make(chan int, 3)
    go bad(ch)
    go bad(ch)
    go good(ch)
    out = <-ch
}
"""

#: ``main`` returns at once, leaving the worker it spawned runnable.
LEFTOVER = """
package main

var out int

func spin(rounds int) {
    n := 0
    for i := 0; i < rounds; i++ {
        n = n + i
    }
    out = n
}

func main() {
    go spin(200)
}
"""


def fingerprint(machine, result):
    """Everything bit-identity covers: time, counters, outcomes."""
    clock = machine.clock
    return (clock.now_ns, dict(clock.counters), result.status,
            machine.stdout, result.goroutines)


class TestConfig:
    def test_cores_must_be_positive(self):
        image = build_program([SPINNERS])
        with pytest.raises(ConfigError, match="cores"):
            Machine(image, MachineConfig(backend="baseline", cores=0))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_cores1_bit_identical_to_default(self, backend):
        """`cores=1` must produce the exact same simulation as an
        unconfigured machine."""
        m_default, r_default = run_golite(SPINNERS, backend=backend)
        m_one, r_one = run_golite(
            SPINNERS, config=MachineConfig(backend=backend, cores=1))
        assert fingerprint(m_default, r_default) == \
            fingerprint(m_one, r_one)

    def test_cores1_has_no_smp_artifacts(self):
        machine, result = run_golite(SPINNERS, backend="mpk")
        assert machine.scheduler.smp is False
        assert machine.clock.count("tlb_shootdowns") == 0
        assert machine.clock.count("ipis") == 0
        # Attribution is still present (everything ran on core 0).
        assert all(g["core"] == 0 for g in result.goroutines.values())


class TestDeterminism:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_cores4_identical_across_runs(self, backend):
        config = MachineConfig(backend=backend, cores=4)
        runs = [run_golite(SPINNERS, config=config) for _ in range(2)]
        assert fingerprint(*runs[0]) == fingerprint(*runs[1])

    def test_cores4_jit_invariant(self):
        """The simulated timeline is bit-identical with the JIT on and
        off on SMP too (each trace call checks its own core's
        translation state)."""
        on = run_golite(PINGPONG,
                        config=MachineConfig(backend="mpk", cores=4))
        off = run_golite(PINGPONG,
                         config=MachineConfig(backend="mpk", cores=4,
                                              jit=False))
        assert fingerprint(*on) == fingerprint(*off)


class TestScheduler:
    def test_work_stealing_spreads_load(self):
        """Everything spawns on core 0; an idle core 1 must steal, and
        both cores must end up having run goroutines to completion."""
        machine, result = run_golite(
            SPINNERS, config=MachineConfig(backend="baseline", cores=2))
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 6 * sum(range(3000))
        assert machine.scheduler.steals > 0
        cores_used = {g["core"] for g in result.goroutines.values()}
        assert cores_used == {0, 1}

    def test_stealing_takes_from_busiest_queue_front(self):
        """Four cores, six goroutines: nobody starves even though every
        spawn lands on the spawner's (main's) queue."""
        machine, result = run_golite(
            SPINNERS, config=MachineConfig(backend="baseline", cores=4))
        assert result.status == "exited", machine.fault
        states = {g["state"] for g in result.goroutines.values()}
        assert states == {"ran"}
        assert len({g["core"] for g in result.goroutines.values()}) > 2

    def test_cross_core_channel_wakeup(self):
        """A consumer parked on core 1 is woken by a sender running on
        core 0: the wakeup crosses cores and re-enqueues the consumer
        on its own core (affinity), not the waker's."""
        machine, result = run_golite(
            PINGPONG, config=MachineConfig(backend="baseline", cores=2))
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 10 * 2 + 11 * 2 + 4 * 4000
        cores_used = {g["core"] for g in result.goroutines.values()}
        assert cores_used == {0, 1}

    def test_vtime_frontier_on_exit(self):
        """The clock ends at the busiest core's virtual time, never at a
        laggard's: simulated time on SMP is the makespan."""
        machine, result = run_golite(
            SPINNERS, config=MachineConfig(backend="baseline", cores=2))
        frontier = max(core.vtime for core in machine.scheduler.cores)
        assert machine.clock.now_ns >= frontier

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_resume_never_rewinds_a_host_advanced_clock(self, cores):
        """``main`` returns with its worker still runnable; the host
        advances the clock and drives the machine again.  The worker
        must run after the host's instant — not at its stale ready
        instant on an idle core — so the clock never goes backwards."""
        machine = Machine(build_program([LEFTOVER]),
                          MachineConfig(backend="mpk", cores=cores))
        starts = []
        run_slice = machine.interp.run_slice

        def timed_slice(cpu, budget):
            starts.append(machine.clock.now_ns)
            return run_slice(cpu, budget)

        machine.interp.run_slice = timed_slice
        assert machine.run().status == "exited"
        machine.clock.charge(1e6)
        host = machine.clock.now_ns
        starts.clear()
        assert machine.resume().status == "idle"
        assert machine.read_global("main.out") == sum(range(200))
        assert starts and min(starts) >= host
        assert machine.clock.now_ns >= host
        if cores == 1:
            # A one-core drive starts each slice on the clock itself.
            assert machine.clock.now_ns == 1005554.9000000423


#: A consumer that parks on a channel immediately and a CPU-bound
#: producer: work stealing separates them onto different cores, so the
#: send that wakes the consumer crosses cores.
CROSSCORE = """
package main

var out int

func consume(in chan int, done chan int) {
    v := <-in
    done <- v + 1
}

func produce(in chan int) {
    n := 0
    for i := 0; i < 3000; i++ {
        n = n + i
    }
    in <- 7
}

func main() {
    in := make(chan int)
    done := make(chan int)
    go consume(in, done)
    go produce(in)
    out = <-done
}
"""


class TestSpanPropagationSMP:
    def test_cross_core_wakeup_keeps_trace_id(self):
        """A traced goroutine parked on a channel and woken by a sender
        running on another core keeps its own trace id (the sender's
        context must not overwrite a receiver that is already tracing
        its own request), and the two traces' core attributions jointly
        cover both cores."""
        config = MachineConfig(backend="baseline", cores=2, spans=True)
        machine = Machine(build_program([CROSSCORE]), config)
        recorder = machine.spans
        ctx_consumer = recorder.client_arrival(0, 0.0)
        ctx_producer = recorder.client_arrival(1, 0.0)
        spawned = []

        def stamp_spawn(parent, child):
            # Stand in for the HTTP front end: hand each worker its own
            # request context at spawn time.
            child.trace_ctx = (ctx_consumer if not spawned
                               else ctx_producer)
            spawned.append(child)

        recorder.on_spawn = stamp_spawn
        result = machine.run()
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 8
        consumer, producer = spawned[0], spawned[1]
        # Woken by the cross-core send, the consumer kept its identity
        # (the channel handoff only adopts onto context-less receivers).
        assert consumer.trace_ctx is ctx_consumer
        assert producer.trace_ctx is ctx_producer
        record_c = recorder.traces[ctx_consumer.trace_id]
        record_p = recorder.traces[ctx_producer.trace_id]
        assert record_c.cores and record_p.cores
        assert record_c.cores | record_p.cores == {0, 1}


class TestShootdowns:
    def test_pagetable_hook_fires_only_when_stale(self):
        """Fresh mappings leave nothing stale in any TLB (Linux charges
        no IPIs for mmap); remaps, unmaps, and permission changes do."""
        table = PageTable("t")
        fired = []
        table.shootdown = fired.append
        table.map_range(0x1000, 0x2000, [1, 2], Perm.RW)
        assert fired == []                      # fresh: no shootdown
        table.map_page(1, PTE(3, Perm.RW))
        assert len(fired) == 1                  # remap: stale
        table.protect_range(0x1000, 0x2000, Perm.R)
        assert len(fired) == 2
        table.unmap_range(0x1000, 0x2000)
        assert len(fired) == 3                  # one burst for the range
        table.unmap_page(9999)
        assert len(fired) == 3                  # was never mapped

    def test_mpk_stack_retag_charges_shootdowns_on_smp(self):
        """MPK stack retagging mutates the shared host table: with a
        second core holding that table, the mutation pays an IPI burst."""
        machine, result = run_golite(
            ENCLOSED, SECRETS,
            config=MachineConfig(backend="mpk", cores=2))
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 777
        assert machine.clock.count("tlb_shootdowns") > 0
        assert machine.clock.count("ipis") > 0
        assert machine._shootdown_ns > 0

    def test_uniprocessor_never_charges_shootdowns(self):
        machine, _ = run_golite(
            ENCLOSED, SECRETS, config=MachineConfig(backend="mpk"))
        assert machine.clock.count("tlb_shootdowns") == 0
        assert machine.clock.count("ipis") == 0

    def test_shootdowns_visible_in_tracer_and_metrics(self):
        machine, _ = run_golite(
            ENCLOSED, SECRETS,
            config=MachineConfig(backend="mpk", cores=2,
                                 trace=True, metrics=True))
        cats = {event.cat for event in machine.tracer.events}
        assert "shootdown" in cats
        exposition = machine.metrics_registry.render_text()
        assert "tlb_shootdown_ipis_total" in exposition
        assert "tlb_shootdown_ns_total" in exposition

    def test_remote_core_vtime_advances(self):
        """The remote core pays the flush on its own timeline, even if
        it never runs a goroutine."""
        machine, _ = run_golite(
            ENCLOSED, SECRETS,
            config=MachineConfig(backend="mpk", cores=2))
        assert all(core.vtime > 0 for core in machine.scheduler.cores)


class TestQuarantineRace:
    @pytest.mark.parametrize("backend", ENFORCING)
    def test_racing_prolog_is_denied_never_stale(self, backend):
        """Core 0 trips quarantine; the second violator's Prolog (on
        whichever core picked it up) must fault with QuarantinedFault —
        it must never read the secret through a stale view."""
        machine, result = run_golite(
            RACE_APP, SECRETS,
            config=MachineConfig(backend=backend, cores=2,
                                 fault_policy="quarantine",
                                 quarantine_threshold=1))
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 42
        contained = machine.scheduler.contained
        assert len(contained) == 2
        denied = [f for f in contained if isinstance(f, QuarantinedFault)]
        assert denied and all(f.kind == "denied-entry" for f in denied)
        assert len(machine.litterbox.quarantined) == 1

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_fault_attribution_carries_core(self, backend):
        machine, result = run_golite(
            RACE_APP, SECRETS,
            config=MachineConfig(backend=backend, cores=2,
                                 fault_policy="quarantine",
                                 quarantine_threshold=1))
        report = machine.containment_report()
        assert report["contained"]
        for entry in report["contained"]:
            assert "core" in entry
        assert {g["core"] for g in result.goroutines.values()} <= {0, 1}


class TestLoadgenSMP:
    def test_run_level_scales_and_accounts_every_request(self):
        one = loadgen.run_level("mpk", 40_000.0, 80, 7, cores=1)
        two = loadgen.run_level("mpk", 40_000.0, 80, 7, cores=2)
        for r in (one, two):
            assert r.ok + r.shed + r.refused + r.reset == r.requests
        assert one.cores == 1 and two.cores == 2
        # Two cores drain the same offered load with less queueing.
        assert two.p99_ns < one.p99_ns

    def test_run_level_smp_deterministic(self):
        a = loadgen.run_level("vtx", 40_000.0, 60, 3, cores=2)
        b = loadgen.run_level("vtx", 40_000.0, 60, 3, cores=2)
        assert a.to_dict() == b.to_dict()
        assert a.latencies_ns == b.latencies_ns
