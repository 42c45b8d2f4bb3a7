"""The assembled machine: hardware + OS + LitterBox + runtime + program.

A :class:`Machine` loads one linked :class:`~repro.image.elf.ElfImage`
and runs it under one of the paper's three configurations:

* ``baseline`` — vanilla closures, no enforcement;
* ``mpk``      — LitterBox over Intel MPK (``LBMPK``);
* ``vtx``      — LitterBox over Intel VT-x / KVM (``LBVTX``);
* ``lwc``      — LitterBox over light-weight contexts, the §8
  hardware-agnostic alternative backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backends import Backend, BaselineBackend
from repro.core.enclosure import LITTERBOX_SUPER
from repro.core.lb_lwc import LWCBackend
from repro.core.lb_mpk import MPKBackend
from repro.core.lb_vtx import VTXBackend
from repro.core.litterbox import LitterBox
from repro.errors import ConfigError, Fault
from repro.hw.clock import COSTS, SimClock
from repro.hw.cpu import CPU
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.mpk import PKRU_ALLOW_ALL
from repro.hw.pages import PAGE_SIZE
from repro.hw.pagetable import PageTable
from repro.hw.physmem import PhysicalMemory
from repro.image.elf import ElfImage
from repro.inject import FaultInjector
from repro.isa.interp import Interpreter
from repro.metrics import EnforcementMetrics, MetricsRegistry
from repro.obs import fan_out
from repro.perf import PerfStats
from repro.profiler import Profiler
from repro.isa.opcodes import Hook
from repro.os.kernel import Kernel
from repro.os.seccomp import ArgRule
from repro.runtime.allocator import Allocator
from repro.runtime.channels import ChannelTable
from repro.runtime.runtime import Runtime, read_string
from repro.runtime.scheduler import RunResult, Scheduler
from repro.trace import Tracer


@dataclass
class MachineConfig:
    backend: str = "baseline"          # baseline | mpk | vtx | lwc
    #: Simulated CPU cores.  ``1`` is the historical single-core
    #: machine, bit-identical with every prior release; ``N > 1``
    #: builds N CPUs (each with its own CR3 and PKRU; cached
    #: translations live with each page table, shared by every core)
    #: under one SimClock with a deterministic per-core virtual-time
    #: interleave, and turns on honest cross-core costs: every
    #: page-table or PKRU revocation charges TLB-shootdown IPIs against
    #: the remote cores.
    cores: int = 1
    virtualize_keys: bool = False      # libmpk-style ablation (LBMPK)
    arg_rules: list[ArgRule] | None = None  # §6.5 sysfilter extension
    trace: bool = False                # enforcement-event tracer
    #: What a fault inside an enclosure does: "abort" (paper §2.2),
    #: "kill-goroutine" (only the offending goroutine dies), or
    #: "quarantine" (kill + trip the enclosure's quarantine breaker).
    fault_policy: str = "abort"
    #: Fault-injection spec (see :mod:`repro.inject`); None disables.
    inject: str | None = None
    inject_seed: int = 0
    #: Contained faults an enclosure absorbs before quarantine trips
    #: (only meaningful under fault_policy="quarantine").
    quarantine_threshold: int = 1
    #: Supervised restarts per killed goroutine (0 = never respawn).
    restart_limit: int = 0
    #: Per-enclosure resource quotas (see :mod:`repro.quota`): a spec
    #: string like ``"*:steps=450000,spans=16"`` or a pre-parsed target
    #: map.  ``None`` (the default) leaves every metering hook a single
    #: ``is None`` test, keeping sim-ns bit-identical.
    quotas: str | dict | None = None
    # Kill-switch for superinstruction fusion, so the bit-identity
    # tests can diff it against plain dispatch.  A fused pair that
    # straddles a slice budget retires one instruction past it, so
    # slice lengths (and quota step charges) can differ by one.
    #: Load-time superinstruction peephole in the interpreter.
    fuse_superinstructions: bool = True
    # Trace-JIT (PR 6): compile hot forward regions to generated
    # Python (see repro/isa/jit.py).  Wall-clock only: every
    # simulated value is bit-identical with the JIT on or off, and
    # jit=False restores pure interpretation exactly.
    jit: bool = True
    # Observability (PR 5).  Both are wall-clock-only like the tracer:
    # they charge no simulated cost, so sim-ns is bit-identical with
    # either on or off.
    #: Prometheus-style metrics registry over every enforcement point.
    metrics: bool = False
    #: Deterministic sim-time sampling profiler (one sample per
    #: ``profiler.DEFAULT_PERIOD_NS`` of simulated time).
    profile: bool = False
    # Request-scoped distributed tracing (repro.spans).  Same
    # wall-clock-only contract as the tracer/metrics/profiler: the
    # recorder never charges simulated time, and with ``spans=False``
    # every propagation hook is a single ``is None`` test.
    #: Attach a SpanRecorder to every propagation/enforcement point.
    spans: bool = False
    #: Seed for deterministic trace-id derivation (the load generator
    #: overrides this with its own seed per level).
    span_seed: int = 0
    #: Tail-sampling keep fraction for *healthy* traces; anomalous
    #: traces (faulted/shed/refused/reset/SLO-exceeded) always survive.
    span_sample: float = 1.0
    #: SLO latency threshold (sim ns) above which a trace is anomalous.
    span_slo_ns: float = 1_000_000.0

FAULT_POLICIES = ("abort", "kill-goroutine", "quarantine")


class Machine:
    """One simulated host running one program."""

    def __init__(self, image: ElfImage,
                 config: MachineConfig | str = "baseline"):
        if isinstance(config, str):
            config = MachineConfig(backend=config)
        if config.fault_policy not in FAULT_POLICIES:
            raise ConfigError(
                f"unknown fault_policy {config.fault_policy!r} "
                f"(choose from {', '.join(FAULT_POLICIES)})")
        if config.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {config.cores}")
        if not 0.0 <= config.span_sample <= 1.0:
            raise ConfigError(f"span_sample must be in [0, 1], got "
                              f"{config.span_sample}")
        self.config = config
        self.image = image
        self.clock = SimClock()
        #: Wall-clock observability counters (TLB, fetch, opcodes);
        #: shared by the MMU and interpreter, independent of SimClock.
        self.perf = PerfStats()
        # The observers (``None`` unless configured) subscribe to the
        # observer bus; the harness reads their results from here.
        #: Enforcement-event tracer (``config.trace``).
        self.tracer = Tracer(self.clock) if config.trace else None
        #: Enforcement metrics (``config.metrics``).
        self.metrics = None
        self.metrics_registry = None
        if config.metrics:
            self.metrics_registry = MetricsRegistry(
                const_labels={"backend": config.backend})
            self.metrics = EnforcementMetrics(self.metrics_registry)
            self.metrics_registry.gauge(
                "sim_time_ns",
                "Simulated nanoseconds elapsed on this machine's clock."
            ).set_function(lambda: self.clock.now_ns)
        #: Sim-time sampling profiler (``None`` unless ``config.profile``).
        self.profiler = (Profiler(self.clock, backend=config.backend)
                         if config.profile else None)
        #: Request-span recorder (``config.spans``); subscribed once the
        #: machine is assembled (it needs the scheduler), so boot is
        #: observed by the others only.
        self.spans = None
        #: The bus every watched component's ``obs`` slot holds.
        self.obs = fan_out(self.tracer, self.metrics, self.profiler)
        self.physmem = PhysicalMemory()
        self.mmu = MMU(self.physmem, self.clock, perf=self.perf)
        self.kernel = Kernel(self.physmem, self.mmu, self.clock)
        self.host_table = PageTable("host")
        self.kernel.host_table = self.host_table
        self.interp = Interpreter(self.mmu, self.clock,
                                  fusion=config.fuse_superinstructions,
                                  jit=config.jit, profiler=self.profiler)
        if self.interp.jit is not None:
            self.interp.jit.memo = image.jit_memo
        self.cpu = CPU(mmu=self.mmu, clock=self.clock)
        self.fault: Fault | None = None

        self._load_image()
        if self.profiler is not None:
            self.profiler.load_image(image)
            # The executing core's pc (core 0's on a one-core machine).
            self.profiler.pc_provider = (
                lambda: self.scheduler.current_core.cpu.pc)

        backend = self._make_backend(config)
        self.backend = backend
        self.litterbox = LitterBox(backend, self.kernel, self.mmu, self.clock)
        self.mmu.obs = self.kernel.obs = self.litterbox.obs = self.obs
        self.litterbox.trusted_ctx = TranslationContext(
            page_table=self.host_table, pkru=None)

        pkru = PKRU_ALLOW_ALL if config.backend == "mpk" else None
        self.cpu.ctx = TranslationContext(page_table=self.host_table,
                                          pkru=pkru)

        self.litterbox.init(image)
        backend.boot(self.cpu)

        # Further cores (SMP): each gets its own translation context —
        # its CR3, EPT and PKRU cells — starting from core 0's boot
        # state.  Core 0's CPU object and context are exactly the
        # historical single-core ones.
        self.cpus = [self.cpu]
        for _ in range(1, config.cores):
            cpu = CPU(mmu=self.mmu, clock=self.clock)
            cpu.ctx = TranslationContext(
                page_table=self.cpu.ctx.page_table,
                pkru=self.cpu.ctx.pkru,
                ept=self.cpu.ctx.ept)
            self.cpus.append(cpu)

        # Runtime services.
        self.pkg_names = sorted(image.graph.names())
        self.allocator = Allocator(self.litterbox)
        self.scheduler = Scheduler(self.cpu, self.interp, self.litterbox,
                                   cpus=self.cpus)
        self.channels = ChannelTable(self.scheduler.wake)
        if config.spans:
            from repro.spans import SpanRecorder
            self.spans = SpanRecorder(self.clock, self.scheduler,
                                      seed=config.span_seed,
                                      sample=config.span_sample,
                                      slo_ns=config.span_slo_ns)
        self.runtime = Runtime(self.mmu, self.allocator, self.scheduler,
                               self.channels, self.pkg_names)
        if self.metrics_registry is not None:
            # The in-sim /metrics route renders mid-slice, so it must
            # not run collectors: they read state settled only between
            # slices (the SMP core_time_ns frontiers), and the response
            # body's length is charged simulated time.
            self.runtime.metrics_renderer = (
                lambda: self.metrics_registry.render_text(collect=False))
        self.kernel.net.waker = self.scheduler.wake

        # Fault containment + injection wiring.
        self.litterbox.fault_policy = config.fault_policy
        self.litterbox.quarantine_threshold = config.quarantine_threshold
        self.scheduler.fault_policy = config.fault_policy
        self.scheduler.restart_limit = config.restart_limit
        self.scheduler.reclaim = self.kernel.reclaim_goroutine
        self.kernel.current_gid = lambda: (
            self.scheduler.current.id
            if self.scheduler.current is not None else 0)
        # Per-enclosure resource quotas (multi-tenant platform).
        self.quota = None
        if config.quotas:
            from repro.quota import QuotaTable
            quota = QuotaTable(config.quotas)
            self.quota = quota
            self.scheduler.quota = quota
            self.allocator.quota = quota
            self.kernel.quota = quota
            self.kernel.quota_env = lambda: (
                self.scheduler.current.env
                if self.scheduler.current is not None else None)
        self.obs = fan_out(self.tracer, self.metrics, self.profiler,
                           self.spans)
        vm = backend.vm if config.backend == "vtx" else None
        for part in (self.mmu, self.kernel, self.kernel.net, self.litterbox,
                     self.scheduler, self.channels, self.allocator,
                     self.quota, vm):
            if part is not None:
                part.obs = self.obs

        self.injector = None
        if config.inject:
            injector = FaultInjector(config.inject, seed=config.inject_seed)
            injector.env_provider = lambda: (
                self.scheduler.current.env.name
                if self.scheduler.current is not None else "trusted")
            injector.mmu = self.mmu
            self.injector = injector
            self.kernel.inject = injector
            self.litterbox.injector = injector

        for cpu in self.cpus:
            cpu.syscall_handler = lambda cpu, nr, args: \
                self.backend.syscall(cpu, nr, args)
            cpu.rtcall_handler = self.runtime.dispatch
            cpu.lbcall_handler = self._lbcall

        if config.cores > 1:
            self._wire_smp()

    # ------------------------------------------------------------------ SMP

    def _wire_smp(self) -> None:
        """Enable the honest cross-core cost model (``cores > 1`` only).

        Wired *after* boot so image loading and environment construction
        stay free of IPIs, exactly as on one core: a core that has never
        executed holds no stale TLB entries worth shooting down.  From
        here on, any mutation of a page table that a remote core has
        installed (as its root or its EPT) interrupts that core —
        ``mm_cpumask`` targeting, so transfers to an enclosure only IPI
        cores actually running with that table.  The machine's *current*
        core is the initiator and is never IPI'd; mutations arriving
        from outside any slice (tenant eviction between drives) attribute
        to the last core scheduled, a documented modeling simplification.
        """
        self._shootdown_ns = 0.0
        tables: dict[int, PageTable] = {id(self.host_table): self.host_table}
        for env in self.litterbox.envs.values():
            if env.table is not None:
                tables[id(env.table)] = env.table
        for cpu in self.cpus:
            if cpu.ctx.page_table is not None:
                tables[id(cpu.ctx.page_table)] = cpu.ctx.page_table
            if cpu.ctx.ept is not None:
                tables[id(cpu.ctx.ept)] = cpu.ctx.ept
        for table in tables.values():
            table.shootdown = self._table_shootdown
        # MPK quarantine revokes by rewriting a PKRU value — register
        # state, not page-table state — so it needs an explicit flush
        # of every remote core.
        self.backend.remote_flush = self._remote_flush
        if self.metrics_registry is not None:
            registry = self.metrics_registry
            registry.gauge(
                "tlb_shootdowns_total",
                "Cross-core TLB shootdown rounds issued (SMP only)."
            ).set_function(lambda: float(self.clock.count("tlb_shootdowns")))
            registry.gauge(
                "tlb_shootdown_ipis_total",
                "Remote cores interrupted across all shootdown rounds."
            ).set_function(lambda: float(self.clock.count("ipis")))
            registry.gauge(
                "tlb_shootdown_ns_total",
                "Simulated ns the initiating cores spent on shootdowns."
            ).set_function(lambda: self._shootdown_ns)
            core_time = registry.gauge(
                "core_time_ns", "Per-core virtual time frontier.",
                labelnames=("core",))

            def _collect_core_time() -> None:
                for core in self.scheduler.cores:
                    core_time.set(core.vtime, core=str(core.id))

            registry.add_collector(_collect_core_time)

    def _table_shootdown(self, table: PageTable) -> None:
        """A mutated translation: IPI every remote core using ``table``."""
        remotes = [core for core in self.scheduler.cores
                   if core is not self.scheduler.current_core
                   and (core.ctx.page_table is table or core.ctx.ept is table)]
        if remotes:
            self._charge_shootdown(remotes, f"shootdown:{table.name}")

    def _remote_flush(self) -> None:
        """A revoked PKRU value: every remote core must resync."""
        remotes = [core for core in self.scheduler.cores
                   if core is not self.scheduler.current_core]
        if remotes:
            self._charge_shootdown(remotes, "shootdown:pkru")

    def _charge_shootdown(self, remotes: list, name: str) -> None:
        """Charge one IPI burst: the initiator pays the send plus the
        wait for the last acknowledgement; each remote core's virtual
        time absorbs its handler at the delivery instant."""
        clock = self.clock
        t0 = clock.now_ns
        cost = len(remotes) * (COSTS.IPI + COSTS.TLB_SHOOTDOWN)
        clock.tick("tlb_shootdowns", cost)
        clock.counters["ipis"] = (clock.counters.get("ipis", 0)
                                  + len(remotes))
        for core in remotes:
            core.vtime = max(core.vtime, t0) + COSTS.TLB_SHOOTDOWN
        self._shootdown_ns += cost
        if self.obs is not None:
            self.obs.on_shootdown(name, t0, cost, len(remotes))

    # ------------------------------------------------------------------ setup

    def _make_backend(self, config: MachineConfig) -> Backend:
        if config.backend == "baseline":
            return BaselineBackend()
        if config.backend == "mpk":
            return MPKBackend(virtualize_keys=config.virtualize_keys,
                              arg_rules=config.arg_rules)
        if config.backend == "lwc":
            return LWCBackend(arg_rules=config.arg_rules)
        if config.backend == "vtx":
            return VTXBackend(arg_rules=config.arg_rules)
        raise ConfigError(f"unknown backend {config.backend!r}")

    def _load_image(self) -> None:
        """Map every linked section and copy its initial contents."""
        for load in self.image.sections:
            section = load.section
            pfns = []
            for _ in range(section.num_pages):
                pfns.append(self.physmem.alloc_frame())
            user = load.owner != LITTERBOX_SUPER
            self.host_table.map_range(section.base, section.size, pfns,
                                      section.perms, user=user)
            self.physmem.write(pfns[0] * PAGE_SIZE, b"")  # touch
            # Write contents page by page (frames may be discontiguous).
            for index, pfn in enumerate(pfns):
                chunk = load.data[index * PAGE_SIZE:(index + 1) * PAGE_SIZE]
                self.physmem.write(pfn * PAGE_SIZE, chunk)
        for addr, instrs in self.image.code_registry.items():
            self.interp.register_code(addr, instrs)

    # ------------------------------------------------------------------ LBCALL

    def _lbcall(self, cpu: CPU, hook: int, args: tuple[int, ...]) -> int:
        goroutine = self.scheduler.current
        if goroutine is None:
            raise Fault("exec", "LBCALL outside a goroutine")
        if hook == Hook.PROLOG:
            self.litterbox.prolog(cpu, goroutine, args[0], call_site=cpu.pc)
            return 0
        if hook == Hook.EPILOG:
            self.litterbox.epilog(cpu, goroutine, call_site=cpu.pc)
            return 0
        raise Fault("exec", f"LBCALL with unexpected hook {hook}")

    # ------------------------------------------------------------------ drive

    def run(self, entry_symbol: str | None = None,
            max_steps: int = 200_000_000) -> RunResult:
        """Run the program's main goroutine to completion.

        ``machine.perf`` is reset at entry so ``--stats`` and the
        benchmarks report the counters of *this* run only — back-to-back
        ``run()`` calls in one process no longer accumulate.
        (:meth:`resume` continues the current run and keeps counting.)
        """
        self.perf.begin_run()
        entry = (self.image.symbols[entry_symbol]
                 if entry_symbol else self.image.entry)
        self.scheduler.spawn(entry, env=self.litterbox.trusted_env)
        result = self._finish(self.scheduler.run(max_total_steps=max_steps))
        result.goroutines = self.scheduler.exit_summary()
        return result

    def resume(self, max_steps: int = 200_000_000) -> RunResult:
        """Continue driving goroutines (servers) after injecting events."""
        return self._finish(self.scheduler.run(
            max_total_steps=max_steps, stop_when_main_exits=False))

    def _finish(self, result: RunResult) -> RunResult:
        if self.profiler is not None:
            self.profiler.finish()
        if result.status == "faulted":
            self.fault = result.fault
            if self.config.backend == "vtx":
                # A fault triggers a VM EXIT before the program aborts.
                self.clock.tick("vm_exits", COSTS.VMEXIT_ROUNDTRIP)
            if self.obs is not None:
                self.obs.on_abort(result.fault)
        elif result.status == "killed":
            # Contained: the main goroutine died but the machine did not
            # abort; the backend already charged the containment cost.
            self.fault = result.fault
        return result

    # ------------------------------------------------------------------ tools

    def symbol(self, name: str) -> int:
        return self.image.symbols[name]

    def read_global(self, symbol: str) -> int:
        return self.mmu.read_word(self.litterbox.trusted_ctx,
                                  self.symbol(symbol), charge=False)

    def write_global(self, symbol: str, value: int) -> None:
        self.mmu.write_word(self.litterbox.trusted_ctx,
                            self.symbol(symbol), value, charge=False)

    def read_cstr(self, addr: int) -> bytes:
        return read_string(self.mmu, self.litterbox.trusted_ctx, addr)

    @property
    def stdout(self) -> bytes:
        return bytes(self.kernel.stdout)

    def fault_trace(self) -> str:
        """LitterBox's root-cause trace for an aborted program."""
        if self.fault is None:
            return ""
        trace = f"litterbox: program aborted: {self.fault}"
        if self.fault.env_name or self.fault.pkg:
            trace += f" [{self.fault.origin()}]"
        return trace

    def containment_report(self) -> dict:
        """Everything the run's fault containment did, in one dict."""
        lb = self.litterbox
        report = {
            "fault_policy": self.config.fault_policy,
            "contained": [
                {"kind": f.kind, "detail": f.detail, "origin": f.origin(),
                 "core": getattr(f, "core", 0)}
                for f in self.scheduler.contained
            ],
            "quarantined": {
                lb.envs[eid].name if eid in lb.envs else str(eid): why
                for eid, why in lb.quarantined.items()
            },
            "goroutines": self.scheduler.exit_summary(),
        }
        if self.injector is not None:
            report["injector"] = self.injector.report()
        if self.quota is not None:
            report["quota"] = self.quota.snapshot()
        if self.spans is not None and self.spans.fault_dumps:
            # The per-core flight recorder's black-box snapshots, one
            # per contained fault.  Keyed in only when non-empty so a
            # clean run's report is byte-identical to a spans-off run.
            report["flight_recorder"] = self.spans.flight_recorder()
        return report
