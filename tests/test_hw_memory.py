"""Unit tests for the simulated hardware memory subsystem."""

import pytest

from repro.errors import ConfigError, PageFault, PkeyFault
from repro.hw import (
    MMU,
    PAGE_SIZE,
    PTE,
    PageTable,
    Perm,
    PhysicalMemory,
    Section,
    SimClock,
    TranslationContext,
    check_disjoint,
    make_pkru,
    page_align_up,
)


@pytest.fixture
def mmu():
    return MMU(PhysicalMemory(), SimClock())


def make_ctx(mmu, pages, perms=Perm.RW, pkey=0, pkru=None):
    """Map `pages` fresh frames at vaddr 0x10000 and return a context."""
    table = PageTable("t")
    pfns = [mmu.physmem.alloc_frame() for _ in range(pages)]
    table.map_range(0x10000, pages * PAGE_SIZE, pfns, perms, pkey=pkey)
    return TranslationContext(page_table=table, pkru=pkru)


class TestSections:
    def test_alignment_enforced(self):
        with pytest.raises(ConfigError):
            Section("s", 0x1001, PAGE_SIZE, Perm.R)
        with pytest.raises(ConfigError):
            Section("s", 0x1000, 100, Perm.R)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            Section("s", 0x1000, 0, Perm.R)

    def test_contains_and_end(self):
        s = Section("s", 0x2000, 2 * PAGE_SIZE, Perm.RW)
        assert s.contains(0x2000)
        assert s.contains(0x3FFF)
        assert not s.contains(0x4000)
        assert s.end == 0x4000
        assert s.num_pages == 2

    def test_overlap_detection(self):
        a = Section("a", 0x1000, PAGE_SIZE, Perm.R)
        b = Section("b", 0x1000, PAGE_SIZE, Perm.R)
        c = Section("c", 0x2000, PAGE_SIZE, Perm.R)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        with pytest.raises(ConfigError):
            check_disjoint([a, b])
        check_disjoint([a, c])  # no error

    def test_page_align_up(self):
        assert page_align_up(0) == 0
        assert page_align_up(1) == PAGE_SIZE
        assert page_align_up(PAGE_SIZE) == PAGE_SIZE


class TestPhysicalMemory:
    def test_alloc_zeroed(self):
        pm = PhysicalMemory()
        pfn = pm.alloc_frame()
        assert pm.read(pfn * PAGE_SIZE, 16) == bytes(16)

    def test_write_read_roundtrip_across_frames(self):
        pm = PhysicalMemory()
        a = pm.alloc_frame()
        b = pm.alloc_frame()
        assert b == a + 1
        data = bytes(range(100)) * 2
        pm.write(a * PAGE_SIZE + 4000, data)
        assert pm.read(a * PAGE_SIZE + 4000, len(data)) == data

    def test_free_and_reuse(self):
        pm = PhysicalMemory()
        pfn = pm.alloc_frame()
        pm.free_frame(pfn)
        assert pm.alloc_frame() == pfn

    def test_double_free_rejected(self):
        pm = PhysicalMemory()
        pfn = pm.alloc_frame()
        pm.free_frame(pfn)
        with pytest.raises(ConfigError):
            pm.free_frame(pfn)

    def test_unallocated_access_rejected(self):
        pm = PhysicalMemory()
        with pytest.raises(ConfigError):
            pm.read(999 * PAGE_SIZE, 1)


class TestPageTable:
    def test_map_and_translate(self):
        pt = PageTable()
        pt.map_page(4, PTE(pfn=7, perms=Perm.RW))
        pte, paddr = pt.translate_addr(4 * PAGE_SIZE + 12)
        assert pte is not None
        assert paddr == 7 * PAGE_SIZE + 12

    def test_unmapped_translate(self):
        pt = PageTable()
        pte, _ = pt.translate_addr(0x5000)
        assert pte is None

    def test_update_counts_pages(self):
        pt = PageTable()
        pfns = [1, 2, 3, 4]
        pt.map_range(0x10000, 4 * PAGE_SIZE, pfns, Perm.RW)
        assert pt.set_present_range(0x10000, 4 * PAGE_SIZE, False) == 4
        assert not pt.lookup(0x10).present

    def test_update_unmapped_rejected(self):
        pt = PageTable()
        with pytest.raises(ConfigError):
            pt.protect_range(0x10000, PAGE_SIZE, Perm.R)

    def test_bad_pkey_rejected(self):
        with pytest.raises(ConfigError):
            PTE(pfn=1, perms=Perm.R, pkey=16)


class TestMMU:
    def test_read_write_roundtrip(self, mmu):
        ctx = make_ctx(mmu, 2)
        mmu.write(ctx, 0x10100, b"hello world")
        assert mmu.read(ctx, 0x10100, 11) == b"hello world"

    def test_cross_page_access(self, mmu):
        ctx = make_ctx(mmu, 2)
        data = bytes(range(256))
        mmu.write(ctx, 0x10000 + PAGE_SIZE - 100, data)
        assert mmu.read(ctx, 0x10000 + PAGE_SIZE - 100, 256) == data

    def test_word_roundtrip_signed(self, mmu):
        ctx = make_ctx(mmu, 1)
        mmu.write_word(ctx, 0x10008, -12345)
        assert mmu.read_word(ctx, 0x10008) == -12345

    def test_word_wraps_to_64_bits(self, mmu):
        ctx = make_ctx(mmu, 1)
        mmu.write_word(ctx, 0x10000, 1 << 64)
        assert mmu.read_word(ctx, 0x10000) == 0

    def test_unmapped_faults(self, mmu):
        ctx = make_ctx(mmu, 1)
        with pytest.raises(PageFault):
            mmu.read(ctx, 0x90000, 1)

    def test_write_to_readonly_faults(self, mmu):
        ctx = make_ctx(mmu, 1, perms=Perm.R)
        assert mmu.read(ctx, 0x10000, 4) == bytes(4)
        with pytest.raises(PageFault):
            mmu.write(ctx, 0x10000, b"x")

    def test_exec_check(self, mmu):
        ctx = make_ctx(mmu, 1, perms=Perm.RX)
        mmu.check_exec(ctx, 0x10000)
        ctx2 = make_ctx(mmu, 1, perms=Perm.RW)
        with pytest.raises(PageFault):
            mmu.check_exec(ctx2, 0x10000)

    def test_non_present_faults(self, mmu):
        ctx = make_ctx(mmu, 1)
        ctx.page_table.set_present_range(0x10000, PAGE_SIZE, False)
        with pytest.raises(PageFault):
            mmu.read(ctx, 0x10000, 1)

    def test_pkey_denies_read(self, mmu):
        ctx = make_ctx(mmu, 1, pkey=3, pkru=make_pkru({0: "rw"}))
        with pytest.raises(PkeyFault) as ei:
            mmu.read(ctx, 0x10000, 1)
        assert ei.value.pkey == 3

    def test_pkey_read_only(self, mmu):
        ctx = make_ctx(mmu, 1, pkey=3, pkru=make_pkru({0: "rw", 3: "r"}))
        mmu.read(ctx, 0x10000, 1)
        with pytest.raises(PkeyFault):
            mmu.write(ctx, 0x10000, b"x")

    def test_pkey_allows_rw(self, mmu):
        ctx = make_ctx(mmu, 1, pkey=5, pkru=make_pkru({0: "rw", 5: "rw"}))
        mmu.write(ctx, 0x10000, b"ok")
        assert mmu.read(ctx, 0x10000, 2) == b"ok"

    def test_pkru_not_checked_without_mpk(self, mmu):
        ctx = make_ctx(mmu, 1, pkey=9, pkru=None)
        mmu.write(ctx, 0x10000, b"ok")

    def test_supervisor_page_denied_to_user(self, mmu):
        table = PageTable()
        pfn = mmu.physmem.alloc_frame()
        table.map_range(0x10000, PAGE_SIZE, [pfn], Perm.RW, user=False)
        ctx = TranslationContext(page_table=table)
        with pytest.raises(PageFault, match="supervisor"):
            mmu.read(ctx, 0x10000, 1)

    def test_memcpy_checks_both_sides(self, mmu):
        ctx = make_ctx(mmu, 2)
        mmu.write(ctx, 0x10000, b"abcd")
        mmu.memcpy(ctx, 0x10800, 0x10000, 4)
        assert mmu.read(ctx, 0x10800, 4) == b"abcd"
        with pytest.raises(PageFault):
            mmu.memcpy(ctx, 0x90000, 0x10000, 4)

    def test_charges_simulated_time(self, mmu):
        ctx = make_ctx(mmu, 1)
        before = mmu.clock.now_ns
        mmu.read(ctx, 0x10000, 8)
        assert mmu.clock.now_ns > before
