"""Backend interface shared by LitterBox's enforcement mechanisms.

LitterBox "provides a common implementation and only differentiates
between the selected hardware for three operations: (1) creating and
enforcing an execution environment (Init, FilterSyscall), (2) extending
a package's arena (Transfer), and (3) performing a switch between
execution environments (Prolog, Epilog, Execute)" (§5.3).  The two
backends that enforce with one page table per environment, VT-x and
LWC, share that implementation in :class:`TableBackend`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.core.enclosure import LITTERBOX_SUPER, Environment
from repro.core.policy import Access
from repro.errors import ConfigError, SyscallFault
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.pages import Perm, Section
from repro.hw.pagetable import PageTable
from repro.os.seccomp import ArgRule
from repro.os.syscalls import syscall_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox


class Backend(abc.ABC):
    """One hardware enforcement mechanism."""

    name: str = "abstract"
    #: Whether a later Init may register more of the program (§5.2).
    incremental: bool = True

    def __init__(self) -> None:
        self.litterbox: "LitterBox | None" = None
        #: SMP hook ``fn()`` wired by the machine on multi-core
        #: configurations: charge the IPI burst that forces every
        #: *other* core to drop privilege state cached in registers
        #: (PKRU) rather than in a page table — MPK quarantine revokes
        #: by rewriting an environment's PKRU value, which no page-table
        #: shootdown would otherwise cover.  ``None`` on one core.
        self.remote_flush = None

    @abc.abstractmethod
    def init(self, litterbox: "LitterBox") -> None:
        """The first Init: create the environments from the views."""

    def extend(self, grown: dict[int, dict[str, Access]]) -> None:
        """A later Init: set up new environments and grown views."""

    def boot(self, cpu: CPU) -> None:
        """Start ``cpu`` in the trusted environment once the first Init
        has run.  Default: the core keeps the loader's context."""

    @abc.abstractmethod
    def switch_to(self, cpu: CPU, env: Environment) -> None:
        """Install ``env``'s restrictions on the CPU (Prolog/Epilog/Execute)."""

    @abc.abstractmethod
    def transfer(self, section: Section, to_pkg: str) -> None:
        """Re-assign a memory section to ``to_pkg``'s arena."""

    @abc.abstractmethod
    def prepare_stack(self, env: Environment, section: Section) -> None:
        """Make a freshly mmapped stack section usable inside ``env``."""

    @abc.abstractmethod
    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        """Route one SYSCALL instruction through this backend's filter path."""

    def contained_fault(self, cpu: CPU) -> None:
        """Charge the hardware cost of *containing* (not aborting on) a
        fault: the trap delivery that hands control back to the runtime.
        Default: free (baseline has no enforcement trap)."""

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke a quarantined environment at the hardware layer,
        as defense in depth under the ``quarantine`` policy (the
        quarantine registry already denies Prolog/Execute).  Default:
        nothing to revoke."""

    def unquarantine(self, env: Environment) -> None:
        """Undo :meth:`quarantine` for a supervised revival (tenant
        lifecycle): restore the environment's hardware restrictions to
        their pre-quarantine state.  Default: nothing was revoked."""


class BaselineBackend(Backend):
    """No enforcement: enclosures behave as vanilla closures.

    This is the paper's *Baseline* configuration; Prolog/Epilog are
    no-ops and system calls go straight to the host kernel.
    """

    name = "baseline"

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        pass

    def transfer(self, section: Section, to_pkg: str) -> None:
        pass

    def prepare_stack(self, env: Environment, section: Section) -> None:
        pass

    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        return self.litterbox.kernel.syscall(nr, args, cpu.ctx, pkru=0)


def _perms_under(access: Access, kind: str, default: Perm) -> Perm | None:
    """Page permissions for a section kind under an access right (§2.2).

    ``None`` means the section is not mapped in this environment:
    text is only executable under RWX (hidden otherwise, like the
    Python frontend's code/data arena split), and U unmaps everything.
    """
    if access is Access.U:
        return None
    if kind == "text":
        return Perm.RX if access is Access.RWX else None
    if kind == "rodata":
        return Perm.R
    if kind == "data":
        return Perm.RW if access.includes(Access.RW) else Perm.R
    if kind == "meta":
        return None
    return default


class TableBackend(Backend):
    """Enforcement with one page table per execution environment.

    Each enclosure runs on a table built from its view; trusted code
    runs on a table that maps everything user-accessible except
    LitterBox's super.  A switch installs the target's table (a CR3
    write), a Transfer toggles presence and rights bits in every
    enclosure table during one kernel entry, and FilterSyscall runs in
    that kernel on the issuing core's environment.  Subclasses state
    the mechanism: which kernel that is and what entering it costs,
    the table names, and how an allowed call reaches the host.
    """

    #: Prefix of the per-environment table names (``<prefix>.<env>``).
    table_prefix: str
    #: Cost of entering the kernel that edits the tables on a Transfer.
    kernel_entry: float
    #: FilterSyscall's mechanism label on the observer bus.
    filter_name: str
    #: Who rejects a denied call, and what it calls an environment, in
    #: the fault message.
    filter_who: str
    env_noun: str

    def __init__(self, arg_rules: list[ArgRule] | None = None):
        super().__init__()
        self.trusted_table: PageTable | None = None
        #: §6.5 extension: argument-granular rules enforced by the
        #: filtering kernel (nr -> list of ArgRule).
        self._arg_rules: dict[int, list[ArgRule]] = {}
        for rule in arg_rules or []:
            self._arg_rules.setdefault(rule.nr, []).append(rule)
        #: env id -> present-vpn snapshot taken when the environment was
        #: quarantined (``revoke_all`` destroys the presence bits, so a
        #: supervised revival needs them recorded up front).
        self._quarantine_presence: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------ init

    @abc.abstractmethod
    def _trusted_table(self, host_table: PageTable) -> PageTable:
        """The table trusted (non-enclosed) code runs on."""

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox
        kernel = litterbox.kernel
        if kernel.host_table is None:
            raise ConfigError(
                f"{self.name.upper()} backend requires the loaded master table")
        self.trusted_table = self._trusted_table(kernel.host_table)
        litterbox.trusted_env.table = self.trusted_table
        self.extend({})
        kernel.mmap_hook = self._on_mmap

    def extend(self, grown: dict[int, dict[str, Access]]) -> None:
        """Build a table for each environment that has none, and map
        into each grown one the packages it gained."""
        for env in self.litterbox.envs.values():
            if env.trusted:
                continue
            if env.table is None:
                env.table = PageTable(f"{self.table_prefix}.{env.name}")
                self._map(env, [pkg.name for pkg in self.litterbox.graph])
            elif env.id in grown:
                self._map(env, grown[env.id])

    def _map(self, env: Environment, names) -> None:
        """Map the sections of the packages ``names`` into ``env``'s
        table under its view, then replay their Transfers, so that
        their arenas read as in a table that existed all along."""
        pages = []   # (section, perms, present)
        for name in names:
            access = Access.U if name == LITTERBOX_SUPER \
                else env.access_to(name)
            for section in self.litterbox.graph.get(name).sections:
                perms = _perms_under(access, section.name.rsplit(".", 1)[-1],
                                     section.perms)
                if perms is not None:
                    pages.append((section, perms, True))
        for record in self.litterbox.arenas:
            if record.owner in names:
                access = env.access_to(record.owner)
                pages.append((record.section, Perm.RW if access.includes(
                    Access.RW) else Perm.R, access is not Access.U))
        host_table = self.litterbox.kernel.host_table
        for section, perms, present in pages:
            for vpn in section.vpns():
                pte = host_table.lookup(vpn)
                if pte is None:
                    raise ConfigError(f"section {section.name} not loaded")
                env.table.map_page(vpn, type(pte)(
                    pfn=pte.pfn, perms=perms, pkey=pte.pkey,
                    present=present, user=True))

    def _on_mmap(self, base: int, size: int, pfns: list[int]) -> None:
        """New mmap'd memory appears RW in the host table and
        non-present in every enclosure table until transferred."""
        self.litterbox.kernel.host_table.map_range(base, size, pfns, Perm.RW)
        self._map_absent(base, size, pfns)

    def _map_absent(self, base: int, size: int, pfns: list[int]) -> None:
        """Map new memory non-present into every enclosure table."""
        for env in self.litterbox.envs.values():
            if env.table is not None and env.table is not self.trusted_table:
                env.table.map_range(base, size, pfns, Perm.RW, present=False)

    # --------------------------------------------------------------- switches

    def _install(self, cpu: CPU, env: Environment) -> None:
        """Make ``env``'s table the core's root.  That is a CR3 write;
        the subclass's switch charge (``CR3_WRITE``) already holds its
        simulated cost, hardware TLB flush included.  The software TLB
        needs no flush: each table keeps its own, so the old table's
        entries wait, still valid, until it is installed again."""
        cpu.ctx.page_table = env.table
        # Per-core state: SMP syscall filtering reads the environment
        # last installed on the issuing core, not a backend global.
        cpu.current_env = env

    # --------------------------------------------------------------- transfer

    def transfer(self, section: Section, to_pkg: str) -> None:
        """One kernel entry toggles presence/rights bits in every
        enclosure table (the fast 158ns row of Table 1 on VT-x)."""
        clock = self.litterbox.clock
        clock.charge(self.kernel_entry)
        for env in self.litterbox.envs.values():
            if env.table is None or env.trusted:
                continue
            access = env.access_to(to_pkg)
            if access is Access.U:
                updated = env.table.set_present_range(
                    section.base, section.size, False)
            else:
                perms = Perm.RW if access.includes(Access.RW) else Perm.R
                env.table.protect_range(section.base, section.size, perms)
                updated = env.table.set_present_range(
                    section.base, section.size, True)
            clock.charge(COSTS.PTE_UPDATE * updated)

    def prepare_stack(self, env: Environment, section: Section) -> None:
        """Make the per-environment stack present (RW) in that
        environment only; it is already RW to trusted code."""
        if env.table is None or env.trusted:
            return
        env.table.protect_range(section.base, section.size, Perm.RW)
        updated = env.table.set_present_range(
            section.base, section.size, True)
        self.litterbox.clock.charge(COSTS.PTE_UPDATE * updated)

    # ---------------------------------------------------------------- syscall

    def _filter(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> None:
        """FilterSyscall on the issuing core's environment: its syscall
        categories, then the §6.5 argument rules.  Raises on a denial."""
        obs = self.litterbox.obs
        env = cpu.current_env or self.litterbox.trusted_env
        if not env.allows_syscall(nr):
            if obs is not None:
                obs.on_verdict(self.filter_name, "kill", nr, env=env.name)
            raise SyscallFault(
                f"{self.filter_who} rejected {syscall_name(nr)} in "
                f"{self.env_noun} {env.name!r}", nr).attribute(env)
        for rule in self._arg_rules.get(nr, ()):
            value = args[rule.arg_index] if rule.arg_index < len(args) else 0
            if (value & 0xFFFFFFFF) not in \
                    {v & 0xFFFFFFFF for v in rule.allowed_values}:
                if obs is not None:
                    obs.on_verdict(self.filter_name, "kill", nr,
                                   env=env.name, arg_index=rule.arg_index,
                                   value=value)
                raise SyscallFault(
                    f"{self.filter_who} rejected {syscall_name(nr)}: "
                    f"argument {rule.arg_index} = {value:#x} not in the "
                    f"allow-list", nr).attribute(env)
        if obs is not None:
            obs.on_verdict(self.filter_name, "allow", nr, env=env.name)

    # ------------------------------------------------------------ containment

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke: mark every page of the quarantined environment's
        table non-present, so even a forged CR3 write into it faults on
        the first access."""
        if env.table is not None and env.table is not self.trusted_table:
            self._quarantine_presence[env.id] = env.table.present_vpns()
            env.table.revoke_all()

    def unquarantine(self, env: Environment) -> None:
        """Supervised revival: restore the presence snapshot taken at
        quarantine time.  Sound because a quarantined enclosure cannot
        allocate, so no Transfer retargets its pages while revoked;
        ``revoke_all`` dropped the pages' cached translations, so none
        can be stale."""
        snapshot = self._quarantine_presence.pop(env.id, None)
        if snapshot is not None and env.table is not None:
            env.table.restore_present(snapshot)
