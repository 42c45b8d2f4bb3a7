"""LBVTX: the Intel VT-x backend (paper §5.3).

The whole application runs in one VM.  Each execution environment is a
guest page table enforcing the enclosure description; non-enclosed code
runs on the kernel's host table (user access to everything except
LitterBox's super), so a trusted ``mmap``, ``munmap`` or ``mprotect``
edits the table it runs on.  Switches are specialized guest system
calls that validate the call-site (in super) and write the guest CR3;
authorized host system calls are forwarded through hypercalls, each
paying a full VM EXIT; transfers toggle presence bits in the relevant
environments' page tables without leaving the guest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import TableBackend
from repro.core.enclosure import Environment
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
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
        """Build the tables, give the EPT every frame of the host table,
        and launch the VM on it.  Every enclosure table maps a subset
        of those frames, since each is built from the host table."""
        self.vm = VirtualMachine(litterbox.clock)
        super().init(litterbox)
        table = litterbox.kernel.host_table
        self.vm.map_frames([table.lookup(vpn).pfn
                            for vpn in table.mapped_vpns()])
        self.vm.launch(table)

    def boot(self, cpu: CPU) -> None:
        """Entering guest mode installs the host table as CR3 together
        with the VM's EPT, its frame set.  LitterBox's own accesses (a
        new stack's root frame, pylite's heap headers) run in the guest
        too, so its trusted context gets the EPT as well, and every
        fill made in the guest is checked against it."""
        ept = self.vm.vmcs.ept
        cpu.ctx.page_table = self.litterbox.kernel.host_table
        cpu.ctx.ept = ept
        self.litterbox.trusted_ctx.ept = ept

    def _on_mmap(self, base: int, size: int, pfns: list[int]) -> None:
        """New memory is also reachable via the EPT, which learns its
        new frames (``munmap`` frees no frame, so it never drops
        one)."""
        super()._on_mmap(base, size, pfns)
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
