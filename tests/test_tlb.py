"""Software-TLB correctness: invalidation and PKRU semantics.

The MMU caches approved translations per context (see the module
docstring of :mod:`repro.hw.mmu`).  These tests pin down the security
contract of that cache:

* any page-table edit — remap, unmap, protect, presence toggle — takes
  effect on the *next* access, even with a hot TLB entry (generation
  tags, no shootdown needed);
* EPT edits invalidate guest translations the same way;
* a denied translation is never cached;
* PKRU is not part of the TLB tag: a ``WRPKRU`` revocation faults the
  very next data access through a hot entry, and a grant is honored
  without any flush.

* a CR3 write needs no flush: an entry cached under one table is
  never served under another, and hits again once its table is back
  unless a fill under the other replaced it.

Plus end-to-end runs under every backend, where switches and transfers
run for real and nothing flushes.
"""

import pytest

from repro.errors import PageFault, PkeyFault
from repro.hw import (
    MMU,
    PAGE_SIZE,
    PTE,
    PageTable,
    Perm,
    PhysicalMemory,
    SimClock,
    TranslationContext,
    make_pkru,
)

from repro.machine import Machine, MachineConfig
from repro.os.syscalls import SYS_MMAP

from tests.fig1 import build_image
from tests.golite_helpers import run_golite

BASE = 0x10000


def _fig1_machine(backend):
    return Machine(build_image(), MachineConfig(backend=backend))


@pytest.fixture
def mmu():
    return MMU(PhysicalMemory(), SimClock())


def make_ctx(mmu, pages=1, perms=Perm.RW, pkey=0, pkru=None, ept=None):
    table = PageTable("t")
    pfns = [mmu.physmem.alloc_frame() for _ in range(pages)]
    table.map_range(BASE, pages * PAGE_SIZE, pfns, perms, pkey=pkey)
    return TranslationContext(page_table=table, pkru=pkru, ept=ept)


class TestTLBCounters:
    def test_second_access_hits(self, mmu):
        ctx = make_ctx(mmu)
        mmu.read(ctx, BASE, 8)
        assert (mmu.perf.tlb_misses, mmu.perf.tlb_hits) == (1, 0)
        mmu.read(ctx, BASE + 64, 8)
        assert (mmu.perf.tlb_misses, mmu.perf.tlb_hits) == (1, 1)

    def test_kinds_cached_separately(self, mmu):
        ctx = make_ctx(mmu)
        mmu.read(ctx, BASE, 8)
        mmu.write(ctx, BASE, b"x")  # same page, different kind: a miss
        assert mmu.perf.tlb_misses == 2

    def test_flush_clears_and_counts(self, mmu):
        ctx = make_ctx(mmu)
        mmu.read(ctx, BASE, 8)
        assert ctx.tlb
        mmu.flush_tlb(ctx)
        assert not ctx.tlb
        assert mmu.perf.tlb_flushes == 1
        mmu.read(ctx, BASE, 8)
        assert mmu.perf.tlb_misses == 2


class TestTableSwitch:
    """A CR3 write installs another table and flushes nothing.  An
    entry cached under table A is never served under table B, whatever
    B maps at the page.  Once A is back, each of its entries that no
    fill under B replaced (the TLB keeps one entry per page and kind)
    hits again with no new miss."""

    #: case -> (B's outcome for a read and for a write, how many of A's
    #: two entries B's fills replace)
    CASES = {"remap": ((b"B!", None), 2),
             "read-only": ((b"A!", PageFault), 1),
             "not-mapped": ((PageFault, PageFault), 0)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_entry_stays_with_its_table(self, mmu, case):
        outcome, replaced = self.CASES[case]
        ctx = make_ctx(mmu)
        table_a = ctx.page_table
        mmu.write(ctx, BASE, b"A!")
        assert mmu.read(ctx, BASE, 2) == b"A!"  # both kinds now hot
        table_b = PageTable("b")
        if case == "remap":
            pfn = mmu.physmem.alloc_frame()
            mmu.physmem.write(pfn * PAGE_SIZE, b"B!")
            table_b.map_page(BASE >> 12, PTE(pfn, Perm.RW))
        elif case == "read-only":
            table_b.map_page(BASE >> 12,
                             PTE(table_a.lookup(BASE >> 12).pfn, Perm.R))
        perf = mmu.perf

        def attempt(access):
            try:
                return access()
            except PageFault:
                return PageFault

        ctx.page_table = table_b
        hits, misses = perf.tlb_hits, perf.tlb_misses
        assert (attempt(lambda: mmu.read(ctx, BASE, 2)),
                attempt(lambda: mmu.write(ctx, BASE, b"b?"))) == outcome
        assert (perf.tlb_hits - hits, perf.tlb_misses - misses) == (0, 2)

        ctx.page_table = table_a
        hits, misses = perf.tlb_hits, perf.tlb_misses
        assert mmu.read(ctx, BASE, 2) == b"A!"
        mmu.write(ctx, BASE, b"A!")
        assert (perf.tlb_hits - hits, perf.tlb_misses - misses) == \
            (2 - replaced, replaced)
        assert perf.tlb_flushes == 0


class TestPageTableEditInvalidation:
    """Edits must be visible on the next access despite a hot entry."""

    def test_remap_to_new_frame(self, mmu):
        ctx = make_ctx(mmu)
        mmu.write(ctx, BASE, b"old!")
        assert mmu.read(ctx, BASE, 4) == b"old!"  # read entry now hot
        new_pfn = mmu.physmem.alloc_frame()
        mmu.physmem.write(new_pfn * PAGE_SIZE, b"new!")
        ctx.page_table.map_page(BASE >> 12, PTE(new_pfn, Perm.RW))
        assert mmu.read(ctx, BASE, 4) == b"new!"

    def test_protect_revokes_write(self, mmu):
        ctx = make_ctx(mmu)
        mmu.write(ctx, BASE, b"ok")  # write entry now hot
        ctx.page_table.protect_range(BASE, PAGE_SIZE, Perm.R)
        with pytest.raises(PageFault):
            mmu.write(ctx, BASE, b"no")
        assert mmu.read(ctx, BASE, 2) == b"ok"

    def test_unmap_faults(self, mmu):
        ctx = make_ctx(mmu)
        mmu.read(ctx, BASE, 8)
        ctx.page_table.unmap_range(BASE, PAGE_SIZE)
        with pytest.raises(PageFault):
            mmu.read(ctx, BASE, 8)

    def test_presence_toggle_faults(self, mmu):
        ctx = make_ctx(mmu)
        mmu.read(ctx, BASE, 8)
        ctx.page_table.set_present_range(BASE, PAGE_SIZE, False)
        with pytest.raises(PageFault):
            mmu.read(ctx, BASE, 8)
        ctx.page_table.set_present_range(BASE, PAGE_SIZE, True)
        mmu.read(ctx, BASE, 8)  # and back

    def test_exec_revocation(self, mmu):
        ctx = make_ctx(mmu, perms=Perm.RX)
        mmu.check_exec(ctx, BASE)
        mmu.check_exec(ctx, BASE + 4)  # hot
        ctx.page_table.protect_range(BASE, PAGE_SIZE, Perm.RW)
        with pytest.raises(PageFault):
            mmu.check_exec(ctx, BASE)

    def test_exec_tag_goes_stale(self, mmu):
        """The interpreter's per-page fetch tag embeds the generation;
        any edit must force it through check_exec again."""
        ctx = make_ctx(mmu, perms=Perm.RX)
        tag = mmu.exec_tag(ctx, BASE)
        assert tag[2] is ctx.page_table and tag[3] == ctx.page_table.gen
        ctx.page_table.protect_range(BASE, PAGE_SIZE, Perm.RW)
        assert tag[3] != ctx.page_table.gen


def guest_ctx(mmu):
    """Identity-EPT context over one RW page, like the VT-x backend's
    GPA == HVA model; returns it with the guest-physical page."""
    ctx = make_ctx(mmu)
    gpa_page = ctx.page_table.lookup(BASE >> 12).pfn
    ept = PageTable("ept")
    ept.map_page(gpa_page, PTE(gpa_page, Perm.RWX))
    ctx.ept = ept
    return ctx, gpa_page


class TestEPTInvalidation:
    def test_ept_remap_redirects_hot_entry(self, mmu):
        ctx, gpa_page = guest_ctx(mmu)
        mmu.write(ctx, BASE, b"guest")
        assert mmu.read(ctx, BASE, 5) == b"guest"  # hot through the EPT
        shadow = mmu.physmem.alloc_frame()
        mmu.physmem.write(shadow * PAGE_SIZE, b"host!")
        ctx.ept.map_page(gpa_page, PTE(shadow, Perm.RWX))
        assert mmu.read(ctx, BASE, 5) == b"host!"

    def test_ept_unmap_is_a_violation(self, mmu):
        ctx, gpa_page = guest_ctx(mmu)
        mmu.read(ctx, BASE, 8)
        ctx.ept.unmap_page(gpa_page)
        with pytest.raises(PageFault, match="EPT"):
            mmu.read(ctx, BASE, 8)


class TestDeniedNeverCached:
    def test_perm_denied_leaves_no_entry(self, mmu):
        ctx = make_ctx(mmu, perms=Perm.R)
        with pytest.raises(PageFault):
            mmu.write(ctx, BASE, b"x")
        assert not ctx.tlb
        with pytest.raises(PageFault):
            mmu.check_exec(ctx, BASE)
        assert not ctx.tlb

    def test_supervisor_entry_not_reused_by_user(self, mmu):
        table = PageTable()
        pfn = mmu.physmem.alloc_frame()
        table.map_range(BASE, PAGE_SIZE, [pfn], Perm.RW, user=False)
        ctx = TranslationContext(page_table=table, user=False)
        mmu.read(ctx, BASE, 1)  # cached under supervisor privilege
        ctx.user = True
        with pytest.raises(PageFault):
            mmu.read(ctx, BASE, 1)


class TestPKRUNotInTag:
    """Protection keys are checked per access, so WRPKRU needs no flush."""

    def test_revocation_faults_next_access_on_hot_entry(self, mmu):
        ctx = make_ctx(mmu, pkey=3, pkru=make_pkru({0: "rw", 3: "rw"}))
        mmu.write(ctx, BASE, b"secret")
        assert mmu.read(ctx, BASE, 6) == b"secret"
        hits_before = mmu.perf.tlb_hits
        ctx.pkru = make_pkru({0: "rw"})  # WRPKRU: revoke key 3
        with pytest.raises(PkeyFault) as ei:
            mmu.read(ctx, BASE, 6)
        assert ei.value.pkey == 3
        with pytest.raises(PkeyFault):
            mmu.write_word(ctx, BASE, 1)
        # Both denials went through the still-hot TLB entries: caching
        # served the translation, the key check still fired.
        assert mmu.perf.tlb_hits == hits_before + 2
        assert ctx.tlb

    def test_downgrade_to_read_only(self, mmu):
        ctx = make_ctx(mmu, pkey=3, pkru=make_pkru({0: "rw", 3: "rw"}))
        mmu.write(ctx, BASE, b"ok")
        ctx.pkru = make_pkru({0: "rw", 3: "r"})
        assert mmu.read(ctx, BASE, 2) == b"ok"
        with pytest.raises(PkeyFault):
            mmu.write(ctx, BASE, b"no")

    def test_grant_honored_without_flush(self, mmu):
        ctx = make_ctx(mmu, pkey=5, pkru=make_pkru({0: "rw"}))
        with pytest.raises(PkeyFault):
            mmu.read(ctx, BASE, 1)
        ctx.pkru = make_pkru({0: "rw", 5: "rw"})
        mmu.write(ctx, BASE, b"granted")
        assert mmu.read(ctx, BASE, 7) == b"granted"

    def test_fetches_ignore_pkru(self, mmu):
        """MPK governs data only; a hot exec entry stays valid across
        a revoking WRPKRU (faithful hardware limitation, §5.3)."""
        ctx = make_ctx(mmu, perms=Perm.RX, pkey=3,
                       pkru=make_pkru({0: "rw", 3: "rw"}))
        mmu.check_exec(ctx, BASE)
        ctx.pkru = make_pkru({0: "rw"})
        mmu.check_exec(ctx, BASE)  # no fault
        with pytest.raises(PkeyFault):
            mmu.read(ctx, BASE, 1)


def remap(mmu, ctx):
    """Point the page at a fresh frame holding a byte pattern."""
    pfn = mmu.physmem.alloc_frame()
    mmu.physmem.write(pfn * PAGE_SIZE, bytes(range(256)) * (PAGE_SIZE // 256))
    ctx.page_table.map_page(BASE >> 12, PTE(pfn, Perm.RW))


def supervisor_ctx(mmu):
    """A supervisor-mode context over one supervisor page."""
    table = PageTable()
    table.map_range(BASE, PAGE_SIZE, [mmu.physmem.alloc_frame()], Perm.RW,
                    user=False)
    return TranslationContext(page_table=table, user=False)


def key3_ctx(mmu):
    return make_ctx(mmu, pkey=3, pkru=make_pkru({0: "rw", 3: "rw"}))


#: Edits that must take effect through a hot TLB entry: case ->
#: (context, edit, fault on a read, fault on a write; None = the
#: access goes through).
HOT_ENTRY_EDITS = {
    "remap": (make_ctx, remap, None, None),
    "protect-read-only": (
        make_ctx,
        lambda mmu, ctx: ctx.page_table.protect_range(BASE, PAGE_SIZE, Perm.R),
        None, PageFault),
    "unmap": (make_ctx,
              lambda mmu, ctx: ctx.page_table.unmap_range(BASE, PAGE_SIZE),
              PageFault, PageFault),
    "not-present": (
        make_ctx,
        lambda mmu, ctx: ctx.page_table.set_present_range(
            BASE, PAGE_SIZE, False),
        PageFault, PageFault),
    "ept-unmap": (
        lambda mmu: guest_ctx(mmu)[0],
        lambda mmu, ctx: ctx.ept.unmap_page(
            ctx.page_table.lookup(BASE >> 12).pfn),
        PageFault, PageFault),
    "supervisor-entry-to-user": (
        supervisor_ctx, lambda mmu, ctx: setattr(ctx, "user", True),
        PageFault, PageFault),
    "pkru-access-disable": (
        key3_ctx, lambda mmu, ctx: setattr(ctx, "pkru", make_pkru({0: "rw"})),
        PkeyFault, PkeyFault),
    "pkru-write-disable": (
        key3_ctx,
        lambda mmu, ctx: setattr(ctx, "pkru", make_pkru({0: "rw", 3: "r"})),
        None, PkeyFault),
}

#: Where the helpers access (page offset, address), and the word they
#: write.
OFF = 16
ADDR = BASE + OFF
WORD = 0x0123456789ABCDEF

#: MMU data helper -> (access kind, call, check of a successful access
#: against the frame the page now maps).
HELPERS = {
    "read_word": ("r", lambda mmu, ctx: mmu.read_word(ctx, ADDR),
                  lambda frame, got: got == int.from_bytes(
                      frame[OFF:OFF + 8], "little", signed=True)),
    "write_word": ("w", lambda mmu, ctx: mmu.write_word(ctx, ADDR, WORD),
                   lambda frame, got: frame[OFF:OFF + 8] == WORD.to_bytes(
                       8, "little")),
    "read_byte": ("r", lambda mmu, ctx: mmu.read_byte(ctx, ADDR),
                  lambda frame, got: got == frame[OFF]),
    "write_byte": ("w", lambda mmu, ctx: mmu.write_byte(ctx, ADDR, 0xA5),
                   lambda frame, got: frame[OFF] == 0xA5),
    "read_frame": ("r", lambda mmu, ctx: mmu.read_frame(ctx, ADDR),
                   lambda frame, got: got is frame),
    "read": ("r", lambda mmu, ctx: mmu.read(ctx, ADDR, 8),
             lambda frame, got: got == frame[OFF:OFF + 8]),
    "write": ("w", lambda mmu, ctx: mmu.write(ctx, ADDR, b"written!"),
              lambda frame, got: frame[OFF:OFF + 8] == b"written!"),
}


class TestHelpersEnforceLikeAccess:
    """Every data helper enforces through a hot entry exactly as
    ``_access`` does: warm the entry through the helper, edit, access
    again — same fault class or the new mapping's data, and the same
    ``tlb_hits``/``tlb_misses`` deltas as ``_access`` itself."""

    @staticmethod
    def _after_edit(build, edit, access):
        mmu = MMU(PhysicalMemory(), SimClock())
        ctx = build(mmu)
        access(mmu, ctx)
        assert ctx.tlb
        edit(mmu, ctx)
        perf = mmu.perf
        hits, misses = perf.tlb_hits, perf.tlb_misses
        try:
            got = access(mmu, ctx)
        except (PageFault, PkeyFault) as fault:
            got = type(fault)
        return mmu, ctx, got, (perf.tlb_hits - hits, perf.tlb_misses - misses)

    @pytest.mark.parametrize("case", sorted(HOT_ENTRY_EDITS))
    @pytest.mark.parametrize("helper", sorted(HELPERS))
    def test_hot_entry_edit(self, helper, case):
        build, edit, read_fault, write_fault = HOT_ENTRY_EDITS[case]
        kind, call, check = HELPERS[helper]
        fault = read_fault if kind == "r" else write_fault
        *_, reference, deltas = self._after_edit(
            build, edit, lambda mmu, ctx: mmu._access(ctx, ADDR, kind))
        mmu, ctx, got, helper_deltas = self._after_edit(build, edit, call)
        assert helper_deltas == deltas
        if fault is not None:
            assert reference is fault and got is fault
            return
        frame = mmu.physmem.frame(ctx.page_table.lookup(BASE >> 12).pfn)
        assert check(frame, got)


ENCLOSED = """
package main

import "lib"

func main() {
    f := with "encl.main_1:RWX lib:RWX, io proc" func(x int) int {
        return lib.Id(x) + 1
    }
    sum := 0
    for i := 0; i < 25; i = i + 1 {
        sum = sum + f(i)
    }
    println(sum)
}
"""

LIB = """
package lib

func Id(x int) int { return x }
"""


class TestBackendsEndToEnd:
    """Switches and transfers run for real in the backends."""

    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_enclosed_program_correct_with_hot_tlb(self, backend):
        machine, result = run_golite(ENCLOSED, LIB, backend=backend)
        assert result.status == "exited", machine.fault
        assert machine.stdout == b"325\n"
        perf = machine.perf
        assert perf.tlb_hits > perf.tlb_misses  # the cache actually works

    @pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx", "lwc"])
    def test_no_backend_flushes_the_tlb(self, backend):
        """An MPK switch is a PKRU write and a VT-x/LWC switch a CR3
        write; neither flushes, because the TLB's tags already tell the
        tables apart."""
        machine, result = run_golite(ENCLOSED, LIB, backend=backend)
        assert result.status == "exited", machine.fault
        assert machine.stdout == b"325\n"
        if backend != "baseline":
            assert machine.clock.count("switches") > 0
        assert machine.perf.tlb_flushes == 0

    def test_vtx_transfer_visible_through_hot_entry(self):
        """A VT-x Transfer edits live guest tables (presence/rights
        bits); a hot TLB entry from before the transfer must not keep
        the old rights."""
        machine = _fig1_machine("vtx")
        base = machine.kernel.syscall(SYS_MMAP, (0, PAGE_SIZE, 3, 0),
                                      None, pkru=0)
        env = machine.litterbox.env(1)  # rcl: libfx RWX, secrets R
        ctx = TranslationContext(page_table=env.table,
                                 ept=machine.cpu.ctx.ept)
        machine.litterbox.transfer(base, PAGE_SIZE, "libfx")
        machine.mmu.write(ctx, base, b"hot")  # write entry now cached
        machine.litterbox.transfer(base, PAGE_SIZE, "secrets")
        with pytest.raises(PageFault):  # secrets is R in this view
            machine.mmu.write(ctx, base, b"no")
        assert machine.mmu.read(ctx, base, 3) == b"hot"
        machine.litterbox.transfer(base, PAGE_SIZE, "main")
        with pytest.raises(PageFault):  # main is invisible: non-present
            machine.mmu.read(ctx, base, 3)

    def test_mpk_pkey_mprotect_visible_through_hot_entry(self):
        """An MPK Transfer re-tags pages via pkey_mprotect; the cached
        PTE's key must not survive the edit (the generation bump forces
        a refill, the refilled key is checked against PKRU)."""
        machine = _fig1_machine("mpk")
        base = machine.kernel.syscall(SYS_MMAP, (0, PAGE_SIZE, 3, 0),
                                      None, pkru=0)
        env = machine.litterbox.env(1)  # rcl: libfx rw, secrets read-only
        ctx = TranslationContext(page_table=machine.host_table,
                                 pkru=env.pkru)
        machine.litterbox.transfer(base, PAGE_SIZE, "libfx")
        machine.mmu.write(ctx, base, b"hot")  # libfx key: allowed, cached
        machine.litterbox.transfer(base, PAGE_SIZE, "secrets")
        with pytest.raises(PkeyFault):
            machine.mmu.write(ctx, base, b"no")
        assert machine.mmu.read(ctx, base, 3) == b"hot"
