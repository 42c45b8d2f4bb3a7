"""LBVTX: the Intel VT-x backend (paper §5.3).

The whole application runs in one VM.  Each execution environment is a
guest page table enforcing the enclosure description; a trusted page
table (user access to everything except LitterBox's super) runs
non-enclosed code.  Switches are specialized guest system calls that
validate the call-site (in super) and write the guest CR3; authorized
host system calls are forwarded through hypercalls, each paying a full
VM EXIT; transfers toggle presence bits in the relevant environments'
page tables without leaving the guest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import TableBackend
from repro.core.enclosure import Environment
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.pages import Perm
from repro.hw.pagetable import PageTable
from repro.hw.vtx import ExitReason, VirtualMachine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox


class VTXBackend(TableBackend):
    """Intel VT-x enforcement: guest page tables inside one VM."""

    name = "vtx"
    table_prefix = "gpt"
    kernel_entry = COSTS.GUEST_SYSCALL
    filter_name = "guest-os"
    filter_who = "guest OS"
    env_noun = "environment"
    #: The application's VM, created at Init.
    vm: VirtualMachine | None = None

    # ------------------------------------------------------------------ init

    def init(self, litterbox: "LitterBox") -> None:
        """Build the tables, give the EPT every frame of the trusted
        table, and launch the VM on it.  Every enclosure table maps a
        subset of those frames: both are built from the host table."""
        self.vm = VirtualMachine(litterbox.clock)
        super().init(litterbox)
        table = self.trusted_table
        self.vm.map_frames([table.lookup(vpn).pfn
                            for vpn in table.mapped_vpns()])
        self.vm.launch(table)

    def boot(self, cpu: CPU) -> None:
        """Entering guest mode installs the trusted table as CR3 and the
        EPT.  Translations cached before it stay in the host table's
        TLB, filled with no EPT, so none of them serves the guest."""
        cpu.ctx.page_table = self.trusted_table
        cpu.ctx.ept = self.vm.vmcs.ept

    def _trusted_table(self, host_table: PageTable) -> PageTable:
        # Everything user-accessible except super, which stays
        # supervisor-only (the loader maps it user=False already).
        return host_table.clone("gpt.trusted")

    def _on_mmap(self, base: int, size: int, pfns: list[int]) -> None:
        """New memory is RW in the host table and its trusted clone,
        non-present in every enclosure table, and reachable via the EPT,
        which learns its new frames (nothing else maps into the trusted
        table, and ``munmap`` frees no frame)."""
        self.litterbox.kernel.host_table.map_range(base, size, pfns, Perm.RW)
        self.trusted_table.map_range(base, size, pfns, Perm.RW)
        self._map_absent(base, size, pfns)
        self.vm.map_frames(pfns)

    # --------------------------------------------------------------- switches

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        """A switch is a specialized system call to the guest OS: enter
        the guest kernel, validate, write CR3, and iret (§5.3)."""
        self.litterbox.clock.charge(COSTS.GUEST_SYSCALL + COSTS.VERIF_VTX
                                    + COSTS.VTX_SWITCH_MISC)
        self.vm.write_cr3(env.table)
        self._install(cpu, env)

    # ---------------------------------------------------------------- syscall

    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        """FilterSyscall in the guest OS, then hypercall to the host.

        "The handler filters system calls according to the current
        execution environment's filter.  If authorized, system calls are
        passed through to the host via a hypercall (VM EXIT)" (§5.3).
        """
        obs = self.litterbox.obs
        if obs is None:
            return self._guest_syscall(cpu, nr, args)
        obs.on_guest_syscall_begin(nr)
        ret = None
        try:
            ret = self._guest_syscall(cpu, nr, args)
            return ret
        finally:
            obs.on_guest_syscall_end(nr, ret)

    def _guest_syscall(self, cpu: CPU, nr: int,
                       args: tuple[int, ...]) -> int:
        self.litterbox.clock.charge(COSTS.GUEST_SYSCALL)
        self._filter(cpu, nr, args)
        # The host performs the call in root mode, then VM RESUMEs; the
        # PKRU value is irrelevant (no seccomp filter is loaded).
        self.vm.vm_exit(ExitReason.HYPERCALL)
        return self.litterbox.kernel.syscall(nr, args, cpu.ctx, pkru=0)

    # ------------------------------------------------------------ containment

    def contained_fault(self, cpu: CPU) -> None:
        """A contained guest fault still pays the full VM EXIT round
        trip — it just RESUMEs the guest instead of tearing it down."""
        self.vm.vm_exit(ExitReason.CONTAIN)
