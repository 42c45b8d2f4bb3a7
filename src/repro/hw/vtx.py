"""Intel VT-x simulation: VMCS, root/non-root modes, EPT, VM exits.

LitterBox's VT-x backend (``LBVTX``, :mod:`repro.core.lb_vtx`) runs the
whole application inside a single VM.  Each enclosure execution
environment is a separate *guest* page table; switches write the guest
CR3 (a specialized guest system call), and the backend forwards each
allowed host system call as a hypercall, paying a full VM EXIT /
VM RESUME round trip.  This module models only the VM: its VMCS, the
EPT, CR3 writes and VM-exit accounting.

As in the paper, the EPT identity-maps guest memory (GPA == HPA), so
it is the set of frames the VM owns: the MMU's walk faults a guest
page whose frame is outside it, and the set only ever grows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hw.clock import COSTS, SimClock
from repro.hw.pagetable import PageTable


class ExitReason(enum.Enum):
    """Why control returned from non-root to root mode."""

    HYPERCALL = "hypercall"
    FAULT = "fault"
    #: A guest fault intercepted and *contained* by the runtime instead
    #: of aborting the program (``fault_policy`` != ``abort``): the same
    #: hardware round trip as FAULT, but control returns to the guest.
    CONTAIN = "contain"
    HLT = "hlt"


@dataclass
class VMCS:
    """The subset of VMCS state the simulation needs."""

    guest_cr3: PageTable | None = None
    #: The frames the EPT identity-maps.
    ept: set[int] = field(default_factory=set)
    launched: bool = False
    exits: int = 0


class VirtualMachine:
    """A single VT-x VM hosting the application (as in LBVTX).

    The VM keeps the VMCS and provides the VM EXIT / VM RESUME cost
    accounting.
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.vmcs = VMCS()
        #: Observer bus (repro.obs), wired by the machine.
        self.obs = None

    # -- guest page-table management --------------------------------------

    def map_frames(self, pfns: list[int]) -> None:
        """Extend the EPT so each physical frame in ``pfns`` is
        reachable (identity mapping), charging one EPT update per frame
        it lacked.  The only write of the EPT: it never drops a frame."""
        ept = self.vmcs.ept
        for pfn in pfns:
            if pfn not in ept:
                ept.add(pfn)
                self.clock.charge(COSTS.EPT_UPDATE)

    # -- mode transitions --------------------------------------------------

    def launch(self, initial_cr3: PageTable) -> None:
        if self.vmcs.launched:
            raise ConfigError("VM already launched")
        self.vmcs.guest_cr3 = initial_cr3
        self.vmcs.launched = True

    def write_cr3(self, table: PageTable) -> None:
        """Guest CR3 write: switches the active environment's mappings.

        Only guest *kernel* code (LitterBox's super package) invokes
        this, via the specialized switch system call.
        """
        if not self.vmcs.launched:
            raise ConfigError("CR3 write before VM launch")
        self.clock.charge(COSTS.CR3_WRITE)
        self.vmcs.guest_cr3 = table

    def vm_exit(self, reason: ExitReason) -> None:
        """Account one VM EXIT + later VM RESUME round trip."""
        self.vmcs.exits += 1
        t0 = self.clock.now_ns
        self.clock.tick("vm_exits", COSTS.VMEXIT_ROUNDTRIP)
        if self.obs is not None:
            self.obs.on_vm_exit(reason.value, t0, COSTS.VMEXIT_ROUNDTRIP,
                                self.vmcs.exits)
