"""Direct unit tests for the VT-x hardware simulation."""

import pytest

from repro.errors import ConfigError, PageFault
from repro.hw import (
    MMU,
    PAGE_SIZE,
    PageTable,
    Perm,
    PhysicalMemory,
    SimClock,
    TranslationContext,
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
    """The EPT is the set of frames the VM owns (GPA == HPA)."""

    def test_register_extends_ept(self, vm):
        before = vm.clock.now_ns
        vm.map_frames([3, 4, 5])
        assert vm.vmcs.ept == {3, 4, 5}
        assert vm.clock.now_ns - before == 3 * COSTS.EPT_UPDATE

    def test_ept_identity_mapping(self, vm):
        """A guest page whose frame the VM owns reaches that very host
        frame: the EPT adds a membership test, not a translation."""
        physmem = PhysicalMemory()
        mmu = MMU(physmem, vm.clock)
        pfn = physmem.alloc_frame()
        vm.map_frames([pfn])
        guest = table_with_pages("gpt.t", [pfn])
        ctx = TranslationContext(page_table=guest, ept=vm.vmcs.ept)
        mmu.write(ctx, 0x10008, b"via-ept", charge=False)
        assert physmem.read(pfn * PAGE_SIZE + 8, 7) == b"via-ept"

    def test_reregistration_idempotent(self, vm):
        vm.map_frames([3])
        before = vm.clock.now_ns
        vm.map_frames([3, 3])
        assert vm.clock.now_ns == before  # no duplicate EPT work
        assert vm.vmcs.ept == {3}


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


class _Violations:
    """Records each violation the MMU reports."""

    def __init__(self):
        self.seen = []

    def on_violation(self, kind, vaddr, detail, **extra):
        self.seen.append((kind, vaddr, detail, extra))


class TestEptTranslationPath:
    def test_mmu_applies_ept_level(self, vm):
        """Every access kind to a guest page outside the VM's frames
        is an EPT violation, reported to the observer with its GPA,
        and only after the guest table's own checks pass: a page the
        guest table denies faults there instead."""
        mmu = MMU(PhysicalMemory(), vm.clock)
        mmu.obs = _Violations()
        outside = mmu.physmem.alloc_frame()
        guest = table_with_pages("gpt.t", [outside])
        guest.protect_range(0x10000, PAGE_SIZE, Perm.RWX)
        guest.map_range(0x11000, PAGE_SIZE, [outside], Perm.R)
        ctx = TranslationContext(page_table=guest, ept=vm.vmcs.ept)
        gpa = outside * PAGE_SIZE + 8
        for access in (lambda: mmu.read(ctx, 0x10008, 1),
                       lambda: mmu.write(ctx, 0x10008, b"x"),
                       lambda: mmu.check_exec(ctx, 0x10008)):
            with pytest.raises(PageFault, match="EPT") as fault:
                access()
            assert fault.value.kind == "non-present"
        assert [(kind, extra["gpa"]) for kind, _, _, extra
                in mmu.obs.seen] == [("ept", gpa)] * 3
        with pytest.raises(PageFault, match="w-access"):
            mmu.write(ctx, 0x11008, b"x")
        assert mmu.obs.seen[-1][0] == "page-fault"

    def test_ept_violation_faults(self, vm):
        """A guest table mapping a frame outside the VM's set faults,
        and caches nothing."""
        mmu = MMU(PhysicalMemory(), vm.clock)
        vm.map_frames([mmu.physmem.alloc_frame()])
        outside = mmu.physmem.alloc_frame()
        guest = table_with_pages("gpt.t", [outside])
        ctx = TranslationContext(page_table=guest, ept=vm.vmcs.ept)
        for _ in range(2):
            with pytest.raises(PageFault, match="EPT violation for GPA "
                               f"{outside * PAGE_SIZE:#x}"):
                mmu.read(ctx, 0x10000, 1, charge=False)
        assert not guest.tlb
        vm.map_frames([outside])
        assert mmu.read(ctx, 0x10000, 1, charge=False) == b"\0"
