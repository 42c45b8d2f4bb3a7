"""LitterBox: the language-independent enclosure enforcement framework.

Exposes the six-call API of §4.2 — ``Init``, ``Prolog``, ``Epilog``,
``FilterSyscall``, ``Transfer``, ``Execute`` — on top of a pluggable
hardware backend (Intel MPK or Intel VT-x, plus an unenforced baseline).

LitterBox's own state is split like the paper's: the *user* package is
reachable from every environment (its call gates are the ``LBCALL``
instructions, validated against the ``.verif`` section), while the
*super* state — environment descriptions, the verification list —
lives behind supervisor-only pages and in host-level (Python) state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.backends import Backend
from repro.core.clustering import Clustering, cluster_packages
from repro.core.enclosure import (
    EnclosureSpec,
    Environment,
    compute_view,
    make_trusted_environment,
)
from repro.core.packages import DependenceGraph
from repro.errors import (
    CallSiteFault,
    ConfigError,
    EscalationFault,
    Fault,
    QuarantinedFault,
)
from repro.hw.clock import SimClock
from repro.hw.cpu import CPU, StackSegment
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.pages import PAGE_SIZE, Perm, Section, check_disjoint
from repro.image.elf import ElfImage
from repro.isa.opcodes import Hook
from repro.os.kernel import Kernel
from repro.os.syscalls import SYS_MMAP

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import Access
    from repro.runtime.scheduler import Goroutine

STACK_SIZE = 16 * PAGE_SIZE
_ARENA_PERMS = Perm.RW


@dataclass
class ProgramInfo:
    """What one Init registers: a linked ElfImage's three fields."""

    graph: DependenceGraph
    enclosures: list[EnclosureSpec] = field(default_factory=list)
    verif: dict[int, int] = field(default_factory=dict)


@dataclass
class ArenaRecord:
    """Ownership record for one transferred heap section."""

    section: Section
    owner: str


class LitterBox:
    """The enforcement framework instance for one loaded program."""

    def __init__(self, backend: Backend, kernel: Kernel, mmu: MMU,
                 clock: SimClock):
        self.backend = backend
        self.kernel = kernel
        self.mmu = mmu
        self.clock = clock
        #: The first Init's program description (MPK scans its code).
        self.image: ElfImage | ProgramInfo | None = None
        #: Every package registered so far, with its imports and sections.
        self.graph = DependenceGraph()
        self.trusted_env = make_trusted_environment()
        self.envs: dict[int, Environment] = {
            self.trusted_env.id: self.trusted_env}
        self.clustering: Clustering = Clustering()
        self.verif: dict[int, int] = {}
        self.arenas: list[ArenaRecord] = []
        #: Trusted translation context for runtime-privileged accesses
        #: (stack frame setup, GC-style metadata); set by the machine.
        self.trusted_ctx: TranslationContext | None = None
        #: Reusable stacks of exited goroutines, per environment (Go's
        #: runtime recycles goroutine stacks from a pool).
        self._stack_pools: dict[int, list[StackSegment]] = {}
        #: Observer bus (repro.obs), wired by the machine; ``None``
        #: keeps every emission site a single branch.
        self.obs = None
        #: Optional deterministic fault injector (repro.inject), wired
        #: by the machine; ``None`` keeps Prolog injection-free.
        self.injector = None
        #: Containment policy state (set by the machine from its config).
        self.fault_policy = "abort"
        self.quarantine_threshold = 1
        #: Quarantine registry: env id -> root-cause string.  Consulted
        #: on Prolog and Execute; empty (falsy) in the common case so
        #: the checks cost one truthiness test.
        self.quarantined: dict[int, str] = {}
        #: Contained-fault counts per environment (quarantine trip wire).
        self.fault_counts: dict[int, int] = {}
        self.initialized = False

    # ------------------------------------------------------------------ Init

    def init(self, image: ElfImage | ProgramInfo) -> None:
        """Register packages, enclosures and `.verif` call sites (§4.2):
        the Go frontend's whole program once, the Python frontend's
        partial information at every import and first call (§5.2).

        "LitterBox validates the configuration passed to Init by ensuring
        that sections are aligned and non-overlapping and that the memory
        views and authorized system calls can be satisfied" (§5.3); a
        call that fails changes nothing.  Existing views gain the new
        packages that became their natural dependencies."""
        if self.initialized and not self.backend.incremental:
            raise ConfigError("LitterBox.Init called twice for this program")
        graph = self.graph.merged(image.graph)
        check_disjoint([s for pkg in graph for s in pkg.sections])
        added = {}
        for spec in image.enclosures:
            if spec.id in self.envs or spec.id in added:
                raise ConfigError(f"duplicate enclosure id {spec.id}")
            added[spec.id] = Environment(
                id=spec.id, name=spec.name, view=compute_view(graph, spec),
                syscalls=spec.policy.syscall_numbers, spec=spec)

        # §5.2: a view gains only packages new in this call, so an import
        # never exposes a module loaded before (by trusted code, say).
        fresh = {pkg.name for pkg in image.graph if pkg.name not in self.graph}
        grown: dict[int, dict[str, Access]] = {}
        for env in self.envs.values():
            if env.spec is not None and fresh:
                view = compute_view(graph, env.spec)
                gained = {name: view[name] for name in fresh & view.keys()}
                if gained:
                    env.view = {**env.view, **gained}
                    grown[env.id] = gained
        self.graph = graph
        self.verif.update(image.verif)
        self.envs.update(added)
        self.clustering = cluster_packages(
            graph.names(), list(self.envs.values()))
        if self.initialized:
            self.backend.extend(grown)
        else:
            self.image = image
            self.backend.init(self)
            self.initialized = True

    def env(self, env_id: int) -> Environment:
        try:
            return self.envs[env_id]
        except KeyError:
            raise ConfigError(f"unknown environment id {env_id}") from None

    # -------------------------------------------------------------- switches

    def _verify_call_site(self, call_site: int, hook: Hook) -> None:
        """Check the LBCALL site against the `.verif` list (in super)."""
        registered = self.verif.get(call_site)
        if registered != int(hook):
            raise CallSiteFault(
                f"unverified LitterBox {hook.name} call-site", addr=call_site)

    def prolog(self, cpu: CPU, goroutine: "Goroutine", encl_id: int,
               call_site: int) -> None:
        """Enter an enclosure's execution environment (§4.2 Prolog)."""
        obs = self.obs
        if obs is not None:
            obs.on_prolog_begin(call_site, self.backend.name)
        entered = None
        try:
            current = goroutine.env
            self._verify_call_site(call_site, Hook.PROLOG)
            target = self.env(encl_id)
            if not target.is_subset_of(current):
                raise EscalationFault(
                    f"switch from {current.name!r} to less restrictive "
                    f"environment {target.name!r}").attribute(current)
            if self.quarantined and encl_id in self.quarantined:
                raise QuarantinedFault(
                    f"enclosure {target.name!r} is quarantined "
                    f"({self.quarantined[encl_id]})",
                    env_id=target.id, env_name=target.name)
            if self.injector is not None:
                self.injector.on_prolog(target)
            if obs is not None:
                obs.on_prolog(current, target)
            goroutine.env_stack.append(
                (current, cpu.fp, cpu.sp, cpu.stack))
            stack = self._stack_for(goroutine, target)
            cpu.stack = stack
            cpu.fp = stack.base
            cpu.sp = stack.base + 16
            self._init_frame(stack.base)
            goroutine.env = target
            self.clock.tick("switches")
            self.backend.switch_to(cpu, target)
            entered = target
        finally:
            if obs is not None:
                obs.on_prolog_end(goroutine, entered)

    def epilog(self, cpu: CPU, goroutine: "Goroutine",
               call_site: int) -> None:
        """Return to the caller's environment (§4.2 Epilog)."""
        obs = self.obs
        if obs is not None:
            obs.on_epilog_begin(goroutine.env.name, call_site,
                                self.backend.name)
        left = None
        try:
            self._verify_call_site(call_site, Hook.EPILOG)
            if not goroutine.env_stack:
                raise Fault("exec", "Epilog without a matching Prolog")
            previous, fp, sp, stack = goroutine.env_stack.pop()
            leaving = goroutine.env
            goroutine.env = previous
            cpu.fp, cpu.sp, cpu.stack = fp, sp, stack
            self.clock.tick("switches")
            self.backend.switch_to(cpu, previous)
            left = leaving
        finally:
            if obs is not None:
                obs.on_epilog_end(goroutine, left)

    def execute(self, cpu: CPU, goroutine: "Goroutine") -> None:
        """Scheduler hook: resume a goroutine in its own environment
        (§4.2 Execute).  Runtime-privileged; not an LBCALL site."""
        if self.quarantined and goroutine.env.id in self.quarantined:
            # A goroutine parked inside an enclosure that was since
            # quarantined must not resume in it.
            raise QuarantinedFault(
                f"resume into quarantined enclosure "
                f"{goroutine.env.name!r} "
                f"({self.quarantined[goroutine.env.id]})",
                env_id=goroutine.env.id, env_name=goroutine.env.name)
        self.backend.switch_to(cpu, goroutine.env)

    # ------------------------------------------------------------ containment

    def unwind_on_fault(self, cpu: CPU, goroutine: "Goroutine") -> int:
        """Epilog-on-fault: unwind a faulted goroutine to its outermost
        Prolog frame, restoring the base environment's stack, frame
        pointer, and hardware restrictions (PKRU / page table) exactly
        as a stack of Epilogs would.  Returns the frames unwound."""
        depth = len(goroutine.env_stack)
        if depth == 0:
            return 0
        base_env, fp, sp, stack = goroutine.env_stack[0]
        goroutine.env_stack.clear()
        goroutine.env = base_env
        cpu.fp, cpu.sp, cpu.stack = fp, sp, stack
        self.clock.tick("switches")
        self.backend.switch_to(cpu, base_env)
        if self.obs is not None:
            self.obs.on_unwind(base_env.name)
        return depth

    def note_contained_fault(self, fault: Fault) -> None:
        """Count a contained fault against its environment and trip the
        quarantine once the configured threshold is reached."""
        env_id = fault.env_id
        if env_id is None or env_id == self.trusted_env.id:
            return
        env = self.envs.get(env_id)
        if env is None or env_id in self.quarantined:
            return
        count = self.fault_counts.get(env_id, 0) + 1
        self.fault_counts[env_id] = count
        if self.fault_policy != "quarantine" or \
                count < self.quarantine_threshold:
            return
        self.quarantined[env_id] = f"{count} contained fault(s), " \
                                   f"last: fault[{fault.kind}]"
        self.backend.quarantine(env)
        if self.obs is not None:
            self.obs.on_quarantine(env.name, fault, count)

    def revive(self, env_id: int) -> bool:
        """Supervised revival of a quarantined environment (the tenant
        lifecycle manager's restart path).  Undoes the hardware
        revocation and clears the trip-wire count; returns ``False`` if
        the environment was not quarantined."""
        if env_id not in self.quarantined:
            return False
        env = self.envs.get(env_id)
        if env is None:
            return False
        del self.quarantined[env_id]
        self.fault_counts[env_id] = 0
        self.backend.unquarantine(env)
        if self.obs is not None:
            self.obs.on_revive(env.name)
        return True

    # -------------------------------------------------------------- transfer

    def transfer(self, base: int, size: int, to_pkg: str) -> None:
        """Dynamically repartition heap memory between arenas (§4.2)."""
        obs = self.obs
        if obs is not None:
            obs.on_transfer_begin(to_pkg, base, size, self.backend.name)
        moved = False
        try:
            if self.initialized and to_pkg not in self.graph:
                raise ConfigError(f"transfer to unknown package {to_pkg!r}")
            section = Section(f"{to_pkg}.arena+{base:#x}", base, size,
                              perms=_ARENA_PERMS)
            self.clock.tick("transfers")
            self.backend.transfer(section, to_pkg)
            self.arenas.append(ArenaRecord(section, to_pkg))
            moved = True
        finally:
            if obs is not None:
                obs.on_transfer_end(to_pkg, size, moved)

    # ----------------------------------------------------------------- stacks

    def _stack_for(self, goroutine: "Goroutine",
                   env: Environment) -> StackSegment:
        """Per-(goroutine, environment) split stacks: frames preceding the
        enclosure call stay in the caller's segment, which is not part of
        the enclosure's view."""
        stack = goroutine.stacks.get(env.id)
        if stack is None:
            pool = self._stack_pools.get(env.id)
            if pool:
                # Reuse a recycled stack: already tagged/mapped for this
                # environment, so no mmap and no re-tagging is needed.
                stack = pool.pop()
            else:
                base = self.kernel.syscall(
                    SYS_MMAP, (0, STACK_SIZE, 3, 0), None, pkru=0)
                if base < 0:
                    raise ConfigError("stack mmap failed")
                stack = StackSegment(base, STACK_SIZE)
                section = Section(f"stack.env{env.id}+{base:#x}", base,
                                  STACK_SIZE, _ARENA_PERMS)
                self.backend.prepare_stack(env, section)
            goroutine.stacks[env.id] = stack
        return stack

    def release_stacks(self, goroutine: "Goroutine") -> None:
        """Return an exited goroutine's stacks to the per-env pools."""
        for env_id, stack in goroutine.stacks.items():
            self._stack_pools.setdefault(env_id, []).append(stack)
        goroutine.stacks.clear()

    def allocate_initial_stack(self, goroutine: "Goroutine") -> StackSegment:
        """Create the trusted-environment stack of a new goroutine."""
        stack = self._stack_for(goroutine, goroutine.env)
        self._init_frame(stack.base)
        return stack

    _ZERO_FRAME = bytes(16)

    def _init_frame(self, base: int) -> None:
        if self.trusted_ctx is None:
            raise ConfigError("LitterBox has no trusted context wired")
        # One 16-byte store (stacks are page-aligned, so the root frame's
        # saved-fp/saved-pc pair never spans pages): a single translation
        # instead of two.
        self.mmu.write(self.trusted_ctx, base, self._ZERO_FRAME, charge=False)

    # ------------------------------------------------------------ accounting

    def arena_of(self, pkg: str) -> list[Section]:
        return [rec.section for rec in self.arenas if rec.owner == pkg]
