"""Direct unit tests for the VT-x hardware simulation."""

import pytest

from repro.errors import ConfigError
from repro.hw import (
    PAGE_SIZE,
    PTE,
    PageTable,
    Perm,
    PhysicalMemory,
    SimClock,
    VirtualMachine,
)
from repro.hw.clock import COSTS


@pytest.fixture
def vm():
    return VirtualMachine(SimClock())


def table_with_pages(name, pfns, base=0x10000):
    table = PageTable(name)
    table.map_range(base, len(pfns) * PAGE_SIZE, pfns, Perm.RW)
    return table


class TestGuestTables:
    def test_register_extends_ept(self, vm):
        vm.map_frames([3, 4, 5])
        for pfn in (3, 4, 5):
            assert vm.vmcs.ept.lookup(pfn) is not None

    def test_ept_identity_mapping(self, vm):
        vm.map_frames([7])
        ept_pte = vm.vmcs.ept.lookup(7)
        assert ept_pte.pfn == 7  # GPA == HVA preserved

    def test_reregistration_idempotent(self, vm):
        vm.map_frames([3])
        before = vm.clock.now_ns
        vm.map_frames([3])
        assert vm.clock.now_ns == before  # no duplicate EPT work


class TestModeTransitions:
    def test_launch_once(self, vm):
        table = table_with_pages("gpt.t", [1])
        vm.launch(table)
        assert vm.vmcs.guest_cr3 is table
        with pytest.raises(ConfigError):
            vm.launch(table)

    def test_cr3_write_requires_launch(self, vm):
        table = table_with_pages("gpt.t", [1])
        with pytest.raises(ConfigError):
            vm.write_cr3(table)

    def test_cr3_write_charges_tlb_flush(self, vm):
        table = table_with_pages("gpt.t", [1])
        other = table_with_pages("gpt.u", [2])
        vm.launch(table)
        before = vm.clock.now_ns
        vm.write_cr3(other)
        assert vm.clock.now_ns - before == COSTS.CR3_WRITE
        assert vm.vmcs.guest_cr3 is other

    def test_vm_exit_accounting(self, vm):
        from repro.hw.vtx import ExitReason
        before = vm.clock.now_ns
        vm.vm_exit(ExitReason.HYPERCALL)
        vm.vm_exit(ExitReason.FAULT)
        assert vm.vmcs.exits == 2
        assert vm.clock.count("vm_exits") == 2
        assert vm.clock.now_ns - before == 2 * COSTS.VMEXIT_ROUNDTRIP


class TestEptTranslationPath:
    def test_mmu_applies_ept_level(self):
        """With a non-identity EPT, the second translation level is
        actually exercised."""
        from repro.hw import MMU, TranslationContext
        clock = SimClock()
        physmem = PhysicalMemory()
        mmu = MMU(physmem, clock)
        real = physmem.alloc_frame()
        guest = PageTable("guest")
        # Guest thinks the page is at GPA frame 50.
        guest.map_range(0x10000, PAGE_SIZE, [50], Perm.RW)
        ept = PageTable("ept")
        ept.map_page(50, PTE(pfn=real, perms=Perm.RWX))
        ctx = TranslationContext(page_table=guest, ept=ept)
        mmu.write(ctx, 0x10008, b"via-ept", charge=False)
        assert physmem.read(real * PAGE_SIZE + 8, 7) == b"via-ept"

    def test_ept_violation_faults(self):
        from repro.errors import PageFault
        from repro.hw import MMU, TranslationContext
        mmu = MMU(PhysicalMemory(), SimClock())
        guest = PageTable("guest")
        guest.map_range(0x10000, PAGE_SIZE, [50], Perm.RW)
        ctx = TranslationContext(page_table=guest, ept=PageTable("ept"))
        with pytest.raises(PageFault, match="EPT"):
            mmu.read(ctx, 0x10000, 1, charge=False)
