"""User-level goroutine scheduler (paper §5.1 Runtime).

"The scheduler uses the Execute hook to switch between goroutines
associated with different environments" and "execution environments are
transitively inherited by goroutine creation so that user-level threads
created inside an enclosure's environment continue to execute in the
same environment" (preventing escalation through `go`).

SMP (``MachineConfig(cores=N)``): the scheduler owns one
:class:`SchedCore` per simulated CPU, each with its own run queue and
*virtual time* — the simulated instant up to which that core has
executed.  The drive loop always runs the core with the smallest
virtual time (lowest id on ties), sliding the shared :class:`SimClock`
to ``max(floor, core.vtime, goroutine.ready_at)`` before the slice —
``floor`` being the clock at drive entry, so no slice starts before
the host's own time — and recording the core's new frontier after it.
The interleaving is therefore a pure function of the workload and
seed — no host concurrency is involved — and on one core the same
loop is a plain round-robin queue (see :meth:`Scheduler.run`).

An idle core steals the far half of the busiest core's queue (fairness:
no goroutine can starve behind a long queue while another core idles),
and a wakeup re-enqueues the goroutine on the core it last ran on,
migrating across cores only through stealing — the cheap case on real
hardware, since a migrated goroutine repopulates the new core's TLB.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.enclosure import Environment
from repro.errors import Fault, MachineHalt, QuarantinedFault, WouldBlock
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU, StackSegment
from repro.isa.interp import GoroutineExit, Interpreter


@dataclass
class Goroutine:
    """One user-level thread."""

    id: int
    env: Environment
    entry: int
    args: tuple[int, ...] = ()
    activation: dict | None = None
    #: Stack of (env, fp, sp, stack) saved by Prolog for nested switches.
    env_stack: list = field(default_factory=list)
    #: Per-environment split stacks: env id -> StackSegment.
    stacks: dict[int, StackSegment] = field(default_factory=dict)
    state: str = "new"  # new | runnable | blocked | done
    wait_key: tuple | None = None
    #: How the goroutine ended: "" while live, then "ran" (exited
    #: normally) or "killed-by-fault" (containment).
    exit: str = ""
    #: The contained fault that killed this goroutine, if any.
    fault: Fault | None = None
    #: Supervised-restart generation (see ``Scheduler.restart_limit``).
    restarts: int = 0
    #: The core this goroutine last ran on (its wake affinity).
    core: int = 0
    #: Simulated instant the goroutine became runnable; an SMP core
    #: never starts a slice before the goroutine was actually ready.
    ready_at: float = 0.0
    #: Request-scoped trace context (spans observer): inherited across
    #: ``go``, adopted from the wire/channels, never charged sim time.
    trace_ctx: object = None


@dataclass
class RunResult:
    """Outcome of a scheduler drive."""

    status: str              # exited | halted | faulted | killed | idle
    exit_code: int = 0
    fault: Fault | None = None
    #: Per-goroutine exit summary, filled in by ``Machine.run`` only:
    #: a server driven by ``Machine.resume`` reads it, when needed, from
    #: ``Machine.containment_report``.
    goroutines: dict | None = None


@dataclass
class SchedCore:
    """One simulated CPU as the scheduler sees it."""

    id: int
    cpu: CPU
    #: This core's canonical translation context (its CR3, EPT and
    #: PKRU cells; cached translations live with the page tables, which
    #: every core shares).  A migrated goroutine's saved activation
    #: still points at the context of the core it last ran on; the
    #: drive loop re-installs the executing core's own context after
    #: every restore.
    ctx: object = None
    runq: deque = field(default_factory=deque)
    #: Virtual time: the simulated instant this core has executed up to.
    vtime: float = 0.0


class Scheduler:
    """Cooperative round-robin scheduler over N simulated CPUs."""

    TIME_SLICE = 200_000  # instructions before a voluntary rotate

    def __init__(self, cpu: CPU, interp: Interpreter, litterbox,
                 cpus: list[CPU] | None = None) -> None:
        self.cpu = cpu
        self.interp = interp
        self.litterbox = litterbox
        self.cpus = list(cpus) if cpus else [cpu]
        self.cores = [SchedCore(i, c, ctx=c.ctx)
                      for i, c in enumerate(self.cpus)]
        #: True on a multi-core machine; SMP-only behaviour (installing
        #: the core's own context, per-core trace args, the load
        #: generator's dispatch instant) keys on this.
        self.smp = len(self.cores) > 1
        self.current_core: SchedCore = self.cores[0]
        #: Work-stealing events so far (queues migrated, not goroutines).
        self.steals = 0
        self.goroutines: list[Goroutine] = []
        self.blocked: dict[tuple, list[Goroutine]] = {}
        self.current: Goroutine | None = None
        self.main: Goroutine | None = None
        #: Observer bus (repro.obs), wired by the machine.
        self.obs = None
        #: Fault policy: "abort" (paper §2.2), "kill-goroutine", or
        #: "quarantine" (kill + trip the enclosure's quarantine breaker).
        self.fault_policy = "abort"
        #: Optional kernel callback ``reclaim(gid) -> int`` that closes
        #: the dead goroutine's fds; wired by the machine.
        self.reclaim = None
        #: Faults contained (not aborted) so far, in order.
        self.contained: list[Fault] = []
        #: How many times a killed goroutine may be respawned at its
        #: original entry (supervised restart, 0 = never).
        self.restart_limit = 0
        #: Optional per-enclosure quota table (machine-wired): charged
        #: one completed slice's instructions at every rotation, keyed
        #: by the environment the goroutine ended the slice in.  ``None``
        #: keeps the drive loop quota-free and bit-identical.
        self.quota = None
        self._next_id = 1

    # -- creation ------------------------------------------------------------

    def spawn(self, entry: int, args: tuple[int, ...] = (),
              env: Environment | None = None) -> Goroutine:
        """Create a goroutine; it inherits the spawner's environment
        unless one is given explicitly (only the machine does that,
        for the main goroutine)."""
        if env is None:
            if self.current is None:
                raise Fault("exec", "spawn with no current environment")
            env = self.current.env
        goroutine = Goroutine(id=self._next_id, env=env, entry=entry,
                              args=args)
        self._next_id += 1
        self.goroutines.append(goroutine)
        if self.main is None:
            self.main = goroutine
        goroutine.state = "runnable"
        # A goroutine starts on its spawner's core (cheap: the spawner's
        # cache is warm with its arguments); core 0 when spawned from
        # outside the machine.  On one core this is the classic queue.
        if self.current is not None:
            goroutine.core = self.current.core
        if self.obs is not None:
            self.obs.on_spawn(self.current, goroutine)
        goroutine.ready_at = self.cpu.clock.now_ns
        self.cores[goroutine.core].runq.append(goroutine)
        return goroutine

    def _first_activation(self, goroutine: Goroutine, cpu: CPU) -> dict:
        stack = self.litterbox.allocate_initial_stack(goroutine)
        return {
            "pc": goroutine.entry,
            "fp": stack.base,
            "sp": stack.base + 16,
            "stack": stack,
            "operands": list(goroutine.args),
            "ctx": cpu.ctx,
        }

    # -- wake/park -------------------------------------------------------------

    def wake(self, key: tuple) -> None:
        """Move every goroutine blocked on ``key`` back to runnable.

        Each waiter re-enqueues on the core it last ran on; if that
        core is swamped while another idles, work stealing migrates it.
        """
        waiters = self.blocked.pop(key, None)
        if not waiters:
            return
        now = self.cpu.clock.now_ns
        for goroutine in waiters:
            goroutine.state = "runnable"
            goroutine.wait_key = None
            goroutine.ready_at = now
            self.cores[goroutine.core].runq.append(goroutine)

    def _park(self, goroutine: Goroutine, key: tuple, cpu: CPU) -> None:
        goroutine.state = "blocked"
        goroutine.wait_key = key
        goroutine.activation = cpu.save_activation()
        self.blocked.setdefault(key, []).append(goroutine)

    # -- the drive loop ----------------------------------------------------------

    def run(self, max_total_steps: int = 200_000_000,
            stop_when_main_exits: bool = True) -> RunResult:
        """Drive goroutines until HALT, main exit, a fault, or idleness.

        Deterministic N-core interleaving under one clock.  The next
        core to run is always the one with the least virtual time; the
        shared clock slides to the latest of that core's frontier, the
        goroutine's ready instant and the clock at drive entry (a host
        that advanced the clock between drives is never rewound) for
        the slice, and the frontier is recorded back afterwards.  On
        any exit the clock lands on the global frontier, so callers
        driving the machine in pieces (servers, load generators)
        observe a monotonic clock between drives.

        On one core the frontier is the clock itself and every ready
        instant lies behind it, so each slice starts where the last
        one ended and the loop is a plain round-robin queue.
        """
        self._total = 0
        clock = self.cpu.clock
        floor = clock.now_ns
        try:
            while True:
                core = self._pick_core()
                if core is None:
                    return RunResult("idle")
                goroutine = core.runq.popleft()
                if goroutine.state != "runnable":
                    continue
                clock.now_ns = max(floor, core.vtime, goroutine.ready_at)
                try:
                    result = self._run_one(core, goroutine,
                                           stop_when_main_exits)
                finally:
                    core.vtime = clock.now_ns
                if result is not None:
                    return result
                if self._total > max_total_steps:
                    raise self._step_budget_fault(max_total_steps)
        finally:
            clock.now_ns = max(clock.now_ns,
                               max(c.vtime for c in self.cores))

    def _pick_core(self) -> SchedCore | None:
        """The core that runs next: strictly the least virtual time,
        lowest id on ties.  An idle winner first steals the far half of
        the busiest queue; ``None`` means every queue is empty."""
        best = None
        for core in self.cores:
            if best is None or core.vtime < best.vtime:
                best = core
        if not best.runq:
            busiest = None
            for core in self.cores:
                if core.runq and (busiest is None
                                  or len(core.runq) > len(busiest.runq)):
                    busiest = core
            if busiest is None:
                return None
            take = (len(busiest.runq) + 1) // 2
            for _ in range(take):
                stolen = busiest.runq.popleft()
                stolen.core = best.id
                best.runq.append(stolen)
            self.steals += 1
        return best

    def _step_budget_fault(self, max_total_steps: int) -> Fault:
        starved = sorted(g.id for g in self.goroutines
                         if g.state in ("runnable", "running"))
        return Fault(
            "exec",
            "scheduler exceeded step budget of "
            f"{max_total_steps} with runnable goroutines "
            f"{starved} still starved")

    def _run_one(self, core: SchedCore, goroutine: Goroutine,
                 stop_when_main_exits: bool) -> RunResult | None:
        """One scheduling slice of ``goroutine`` on ``core``; a
        RunResult ends the drive, ``None`` continues it."""
        cpu = core.cpu
        self.current = goroutine
        self.current_core = core
        goroutine.core = core.id
        try:
            if goroutine.activation is None:
                goroutine.activation = self._first_activation(goroutine, cpu)
            cpu.restore_activation(goroutine.activation)
            if self.smp:
                # A migrated goroutine's activation still references
                # the previous core's translation context; install this
                # core's own (its CR3 and PKRU).  The Execute hook
                # below re-applies the environment's restrictions to it.
                cpu.ctx = core.ctx
            obs = self.obs
            if obs is not None:
                obs.on_execute_begin(goroutine,
                                     core.id if self.smp else None)
            resumed = False
            try:
                cpu.clock.charge(COSTS.SCHED_SWITCH)
                # Execute hook: resume in the goroutine's own
                # environment (refused if it was since quarantined).
                self.litterbox.execute(cpu, goroutine)
                resumed = True
            finally:
                if obs is not None:
                    obs.on_execute_end(goroutine, resumed)
            goroutine.state = "running"

            # run_slice counts architectural instructions (2 per
            # fused dispatch), so the slice budget means the same
            # work with fusion on or off — except that a fused pair
            # straddling the budget retires whole, one instruction
            # past it.  That overshoot is the one place fusion is
            # observable: it moves rotation points and the quota
            # step charges below.  slice_executed is valid even
            # when the slice ends in an exception, so the step
            # total stays exact across parks/faults/exits.
            interp = self.interp
            try:
                interp.run_slice(cpu, self.TIME_SLICE)
            finally:
                self._total += interp.slice_executed
            if self.quota is not None:
                # Slice-granular CPU metering: a goroutine that ran
                # its slice to exhaustion inside an enclosure is
                # charged against that enclosure's step budget; an
                # overrun raises QuotaFault into the containment
                # path below, exactly like a memory fault.  One table
                # serves all cores, so a tenant's budget is the sum of
                # its consumption machine-wide.
                self.quota.charge_steps(goroutine.env,
                                        interp.slice_executed)
            # Preemption point: rotate.
            goroutine.state = "runnable"
            goroutine.activation = cpu.save_activation()
            goroutine.ready_at = cpu.clock.now_ns
            core.runq.append(goroutine)
        except WouldBlock as block:
            self._park(goroutine, block.wait_key, cpu)
        except GoroutineExit:
            goroutine.state = "done"
            goroutine.exit = "ran"
            goroutine.activation = None
            self.litterbox.release_stacks(goroutine)
            if stop_when_main_exits and goroutine is self.main:
                return RunResult("exited", 0)
        except MachineHalt as halt:
            goroutine.state = "done"
            goroutine.exit = "ran"
            return RunResult("halted", halt.exit_code)
        except Fault as fault:
            return self._on_fault(goroutine, fault, stop_when_main_exits,
                                  cpu)
        return None

    # -- fault containment -----------------------------------------------------

    def _on_fault(self, goroutine: Goroutine, fault: Fault,
                  stop_when_main_exits: bool,
                  cpu: CPU | None = None) -> RunResult | None:
        """Apply the machine's fault policy to a fault raised while
        ``goroutine`` was running.

        Under ``abort`` (the paper's §2.2 semantics: "a fault stops the
        execution of the closure and aborts the program") the whole run
        ends.  Otherwise the fault is *contained*: the goroutine's
        environment stack is unwound back to its base frame
        (Epilog-on-fault), the backend charges the hardware cost of
        fielding the fault, the kernel reclaims the goroutine's fds, and
        only the offending goroutine dies.
        """
        if cpu is None:
            cpu = self.cpu
        fault.attribute(goroutine.env)
        fault.core = goroutine.core
        goroutine.fault = fault
        if self.fault_policy == "abort":
            goroutine.state = "done"
            goroutine.exit = "killed-by-fault"
            return RunResult("faulted", fault=fault)

        lb = self.litterbox
        fault_env = goroutine.env.name
        obs = self.obs
        if obs is not None:
            obs.on_contain_begin(goroutine, fault_env, fault)
        # 1. Unwind nested Prolog frames back to the goroutine's base
        #    environment (Epilog-on-fault).
        depth = lb.unwind_on_fault(cpu, goroutine)
        # 2. The backend pays for fielding the fault (signal delivery /
        #    VM exit / kernel trap) without tearing the machine down.
        lb.backend.contained_fault(cpu)
        # 3. Count it against the faulting enclosure; a QuarantinedFault
        #    is the quarantine *working*, not a fresh violation.
        if not isinstance(fault, QuarantinedFault):
            lb.note_contained_fault(fault)
        # 4. The kernel reclaims the dead goroutine's fds and wake keys.
        reclaimed = self.reclaim(goroutine.id) if self.reclaim else 0
        goroutine.state = "done"
        goroutine.exit = "killed-by-fault"
        goroutine.activation = None
        lb.release_stacks(goroutine)
        self.contained.append(fault)
        if obs is not None:
            obs.on_contained(goroutine, fault_env, fault, depth, reclaimed)

        if goroutine.restarts < self.restart_limit:
            fresh = self.spawn(goroutine.entry, goroutine.args,
                               env=goroutine.env)
            fresh.restarts = goroutine.restarts + 1
            # The restart serves future requests, not the one that
            # died with its spawner's context.
            fresh.trace_ctx = None
            if goroutine is self.main:
                self.main = fresh
            if obs is not None:
                obs.on_restart(fault_env, fresh)
            return None
        if goroutine is self.main and stop_when_main_exits:
            return RunResult("killed", 1, fault)
        return None

    def exit_summary(self) -> dict[int, dict]:
        """Per-goroutine end-of-run report: how each one ended up."""
        summary: dict[int, dict] = {}
        for g in self.goroutines:
            if g.state == "done":
                state = g.exit or "ran"
            elif g.state == "blocked":
                state = "parked"
            else:
                state = g.state  # new | runnable | running
            entry = {"state": state, "env": g.env.name, "core": g.core}
            if g.fault is not None:
                entry["fault"] = f"{g.fault.kind}: {g.fault.detail}"
            if g.restarts:
                entry["restarts"] = g.restarts
            summary[g.id] = entry
        return summary

    # -- inspection -----------------------------------------------------------

    def blocked_count(self) -> int:
        return sum(len(v) for v in self.blocked.values())
