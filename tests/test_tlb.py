"""Software-TLB correctness: invalidation and PKRU semantics.

Each page table keeps the TLB of its own translations (see the module
docstrings of :mod:`repro.hw.mmu` and :mod:`repro.hw.pagetable`).
These tests pin down the security contract of that cache:

* any page-table edit — remap, unmap, protect, presence toggle — takes
  effect on the *next* access, even with a hot TLB entry: the edit
  drops the entries of the pages it changes, and only those;
* EPT edits invalidate guest translations the same way;
* a range edit is all or nothing;
* a denied translation is never cached;
* PKRU is not part of a cached entry: a ``WRPKRU`` revocation faults
  the very next data access through a hot entry, and a grant is
  honored without any flush;
* a CR3 write needs no flush: an entry cached under one table is
  never served under another, and hits again once its table is back;
  contexts and cores on one table share its entries;
* generated runs of edits and accesses through several contexts match
  an uncached walk at every access.

Plus end-to-end runs under every backend, where switches and transfers
run for real and nothing flushes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, PageFault, PkeyFault
from repro.hw import (
    MMU,
    PAGE_SIZE,
    PTE,
    PageTable,
    Perm,
    PhysicalMemory,
    SimClock,
    TranslationContext,
    VirtualMachine,
    make_pkru,
    pkru_allows_read,
    pkru_allows_write,
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
        assert ctx.page_table.tlb
        mmu.flush_tlb(ctx)
        assert not ctx.page_table.tlb
        assert mmu.perf.tlb_flushes == 1
        mmu.read(ctx, BASE, 8)
        assert mmu.perf.tlb_misses == 2


class TestTableSwitch:
    """A CR3 write installs another table and flushes nothing.  An
    entry cached under table A is never served under table B, whatever
    B maps at the page.  Each table keeps its own TLB, so once A is
    back both of its entries hit again with no new miss."""

    #: case -> B's outcome for a read and for a write
    CASES = {"remap": (b"B!", None),
             "read-only": (b"A!", PageFault),
             "not-mapped": (PageFault, PageFault)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_entry_stays_with_its_table(self, mmu, case):
        outcome = self.CASES[case]
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
        assert (perf.tlb_hits - hits, perf.tlb_misses - misses) == (2, 0)
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

    @pytest.mark.parametrize("edit, change", [
        ("protect_range", Perm.R), ("set_present_range", False),
        ("set_pkey_range", 3)])
    def test_a_failed_range_edit_changes_nothing(self, mmu, edit, change):
        """A range that runs onto an unmapped page raises before any
        edit, so the mapped page before it keeps its PTE, and its hot
        entry stays true to it."""
        ctx = make_ctx(mmu)
        mmu.write(ctx, BASE, b"ok")  # write entry now hot
        pte = ctx.page_table.lookup(BASE >> 12)
        with pytest.raises(ConfigError, match="unmapped"):
            getattr(ctx.page_table, edit)(BASE, 2 * PAGE_SIZE, change)
        assert ctx.page_table.lookup(BASE >> 12) == pte
        mmu.write(ctx, BASE, b"ok")

    def test_exec_tag_goes_stale(self, mmu):
        """The interpreter's per-page fetch tag is the exec entry that
        served the fetch; an edit of the page drops that entry, so the
        identity test forces the next fetch through check_exec."""
        ctx = make_ctx(mmu, perms=Perm.RX)
        tag = mmu.exec_tag(ctx, BASE)
        key = (BASE >> 12) * 4 + 2
        assert tag is ctx.page_table.tlb[key]
        ctx.page_table.protect_range(BASE, PAGE_SIZE, Perm.RW)
        assert ctx.page_table.tlb.get(key) is not tag


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


def hits_and_misses(mmu, access):
    """The ``tlb_hits`` and ``tlb_misses`` that ``access()`` adds."""
    perf = mmu.perf
    hits, misses = perf.tlb_hits, perf.tlb_misses
    access()
    return perf.tlb_hits - hits, perf.tlb_misses - misses


def vm_ctx(mmu):
    """A context over two RW pages reached through a VM's EPT."""
    vm = VirtualMachine(SimClock())
    ctx = make_ctx(mmu, pages=2, ept=vm.vmcs.ept)
    vm.map_frames([ctx.page_table.lookup(vpn).pfn
                   for vpn in ctx.page_table.mapped_vpns()])
    return ctx, vm


#: Edits of the second of two pages.
SECOND_PAGE_EDITS = {
    "remap": lambda mmu, table: table.map_page(
        (BASE >> 12) + 1, PTE(mmu.physmem.alloc_frame(), Perm.RW)),
    "unmap": lambda mmu, table: table.unmap_range(BASE + PAGE_SIZE,
                                                  PAGE_SIZE),
    "protect": lambda mmu, table: table.protect_range(
        BASE + PAGE_SIZE, PAGE_SIZE, Perm.R),
    "not-present": lambda mmu, table: table.set_present_range(
        BASE + PAGE_SIZE, PAGE_SIZE, False),
    "pkey": lambda mmu, table: table.set_pkey_range(
        BASE + PAGE_SIZE, PAGE_SIZE, 3),
}

#: Fresh mappings, which change no existing translation.
FRESH_MAPPINGS = {
    "map_range": lambda mmu, ctx, vm: ctx.page_table.map_range(
        BASE + 4 * PAGE_SIZE, PAGE_SIZE, [mmu.physmem.alloc_frame()],
        Perm.RW),
    "map_frames": lambda mmu, ctx, vm: vm.map_frames(
        [mmu.physmem.alloc_frame()]),
}


class TestPreciseInvalidation:
    """An edit drops only the entries of the pages it changes, so
    every other cached translation keeps hitting: another page's, one
    that a fresh mapping leaves alone, and one filled through another
    context or core on the same table."""

    @pytest.mark.parametrize("edit", sorted(SECOND_PAGE_EDITS))
    def test_an_edit_leaves_other_pages_hot(self, mmu, edit):
        ctx = make_ctx(mmu, pages=2)
        for page in (BASE, BASE + PAGE_SIZE):
            mmu.write(ctx, page, b"w")
            mmu.read(ctx, page, 1)
        SECOND_PAGE_EDITS[edit](mmu, ctx.page_table)
        assert hits_and_misses(mmu, lambda: mmu.write(ctx, BASE, b"w")) \
            == (1, 0)
        assert hits_and_misses(mmu, lambda: mmu.read(ctx, BASE, 1)) == (1, 0)

    @pytest.mark.parametrize("mapping", sorted(FRESH_MAPPINGS))
    def test_a_fresh_mapping_leaves_entries_hot(self, mmu, mapping):
        ctx, vm = vm_ctx(mmu)
        mmu.read(ctx, BASE, 1)
        FRESH_MAPPINGS[mapping](mmu, ctx, vm)
        assert hits_and_misses(mmu, lambda: mmu.read(ctx, BASE, 1)) == (1, 0)

    def test_contexts_on_one_table_share_its_entries(self, mmu):
        ctx, _ = vm_ctx(mmu)
        other = TranslationContext(page_table=ctx.page_table, ept=ctx.ept,
                                   pkru=make_pkru({0: "rw"}))
        mmu.write(ctx, BASE, b"w")
        assert hits_and_misses(mmu, lambda: mmu.write(other, BASE, b"w")) \
            == (1, 0)

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_cores_on_one_table_share_its_entries(self, backend):
        machine = Machine(build_image(),
                          MachineConfig(backend=backend, cores=2))
        first, second = (cpu.ctx for cpu in machine.cpus)
        assert first is not second and first.page_table is second.page_table
        data = machine.image.section_named("main.data").section.base
        machine.mmu.read(first, data, 8)
        assert hits_and_misses(
            machine.mmu, lambda: machine.mmu.read(second, data, 8)) == (1, 0)


class TestDeniedNeverCached:
    def test_perm_denied_leaves_no_entry(self, mmu):
        ctx = make_ctx(mmu, perms=Perm.R)
        with pytest.raises(PageFault):
            mmu.write(ctx, BASE, b"x")
        assert not ctx.page_table.tlb
        with pytest.raises(PageFault):
            mmu.check_exec(ctx, BASE)
        assert not ctx.page_table.tlb

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
        assert ctx.page_table.tlb

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


#: Pages of the generated runs (the last one starts unmapped), frames
#: behind them, and the rights a generated PTE gets.
WALK_PAGES = 3
WALK_FRAMES = 4
WALK_PERMS = [Perm.R, Perm.RW, Perm.RX, Perm.RWX]
#: The generated runs' contexts: (table, user mode, through the EPT).
WALK_CONTEXTS = [(0, True, False), (0, False, False), (0, True, True),
                 (1, True, True), (1, False, True)]

_page = st.integers(0, WALK_PAGES - 1)
_span = st.integers(1, 2)
_table = st.integers(0, 1)
_ctx = st.integers(0, len(WALK_CONTEXTS) - 1)
_frame = st.integers(0, WALK_FRAMES - 1)
_perms = st.sampled_from(WALK_PERMS)
_pkey = st.integers(0, 1)
_ACCESS = st.tuples(_ctx, _page, st.sampled_from("rwx"))
_EDIT = st.one_of(
    st.tuples(st.just("map"), _table, _page, _frame, _perms, st.booleans(),
              _pkey),
    st.tuples(st.just("map_range"), _table, _page, _span, _frame, _perms,
              _pkey),
    st.tuples(st.just("unmap"), _table, _page, _span),
    st.tuples(st.just("protect"), _table, _page, _span, _perms),
    st.tuples(st.just("present"), _table, _page, _span, st.booleans()),
    st.tuples(st.just("pkey"), _table, _page, _span, _pkey),
    st.tuples(st.just("revoke_all"), _table),
    st.tuples(st.just("restore_present"), _table),
    st.tuples(st.just("ept_map"), _frame, _frame),
    st.tuples(st.just("ept_unmap"), _frame),
    st.tuples(st.just("pkru"), _ctx, st.none() | st.integers(0, 0xF)),
    st.tuples(st.just("switch"), _ctx, _table, st.booleans()),
)
#: One step of a generated run: a few single accesses, one edit, then
#: a sweep that reads, writes and fetches every page through every
#: context, the contexts in the order given.
_STEP = st.tuples(st.lists(_ACCESS, max_size=3), _EDIT,
                  st.permutations(range(len(WALK_CONTEXTS))))


def uncached(mmu, ctx, vaddr, kind):
    """The reference outcome of one access: the page walk and then the
    PKRU test, with no TLB — a fault class or the frame reached."""
    try:
        pte, paddr = mmu._page_walk(ctx, vaddr, kind)
    except PageFault:
        return PageFault
    allows = {"r": pkru_allows_read, "w": pkru_allows_write}.get(kind)
    if allows is not None and ctx.user and ctx.pkru is not None \
            and not allows(ctx.pkru, pte.pkey):
        return PkeyFault
    return mmu.physmem.frame(paddr // PAGE_SIZE)


class TestAgainstTheWalk:
    """Random edits — map and remap, unmap, protect, presence, pkey,
    ``revoke_all`` and ``restore_present``, EPT map, remap and unmap,
    PKRU writes, table and EPT switches — interleaved with reads,
    writes and fetches through user and supervisor contexts, with and
    without the EPT, over two tables that share frames.  Every access
    through the TLB must match :func:`uncached`, and every fetch the
    interpreter's exec-entry test would let through must reach the
    frame the walk reaches."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(_STEP, min_size=1, max_size=12))
    def test_every_access_matches_the_walk(self, steps):
        mmu = MMU(PhysicalMemory(), SimClock())
        frames = [mmu.physmem.alloc_frame() for _ in range(WALK_FRAMES)]
        tables = [PageTable("a"), PageTable("b")]
        for table in tables:
            table.map_range(BASE, (WALK_PAGES - 1) * PAGE_SIZE,
                            frames[:WALK_PAGES - 1], Perm.RWX)
        # The second table's first page is supervisor-only.
        tables[1].map_page(BASE >> 12, PTE(frames[0], Perm.RWX, user=False))
        ept = PageTable("ept")
        for pfn in frames:
            ept.map_page(pfn, PTE(pfn, Perm.RWX))
        contexts = [TranslationContext(page_table=tables[t], user=user,
                                       ept=ept if guest else None)
                    for t, user, guest in WALK_CONTEXTS]
        vpns = range(BASE >> 12, (BASE >> 12) + WALK_PAGES + 1)
        fetch_entry = None   # the interpreter's exec entry

        def access(ctx, page, kind):
            nonlocal fetch_entry
            vaddr = BASE + page * PAGE_SIZE
            expected = uncached(mmu, ctx, vaddr, kind)
            if kind == "x" and fetch_entry is not None \
                    and fetch_entry[2] is ctx.ept \
                    and fetch_entry is ctx.page_table.tlb.get(
                        (vaddr >> 12) * 4 + 2):
                assert fetch_entry[1] is expected
            try:
                got = mmu._access(ctx, vaddr, kind)
            except (PageFault, PkeyFault) as fault:
                got = type(fault)
            assert got is expected
            if kind == "x" and got is not PageFault:
                fetch_entry = mmu.exec_tag(ctx, vaddr)

        for accesses, (op, *args), order in steps:
            for index, page, kind in accesses:
                access(contexts[index], page, kind)
            if op in ("ept_map", "ept_unmap", "pkru", "switch"):
                self._edit_context(op, args, ept, frames, contexts, tables)
            else:
                self._edit_table(op, tables[args[0]], args[1:], frames, vpns)
            for page in range(WALK_PAGES):
                for index in order:
                    for kind in "rwx":
                        access(contexts[index], page, kind)

    @staticmethod
    def _edit_table(op, table, args, frames, vpns):
        if op == "map":
            page, frame, perms, user, pkey = args
            table.map_page((BASE >> 12) + page,
                           PTE(frames[frame], perms, pkey, True, user))
        elif op == "map_range":
            page, span, frame, perms, pkey = args
            table.map_range(BASE + page * PAGE_SIZE, span * PAGE_SIZE,
                            [frames[(frame + k) % WALK_FRAMES]
                             for k in range(span)], perms, pkey)
        elif op == "unmap":
            page, span = args
            table.unmap_range(BASE + page * PAGE_SIZE, span * PAGE_SIZE)
        elif op == "revoke_all":
            table.revoke_all()
        elif op == "restore_present":
            table.restore_present(frozenset(vpns))
        else:
            page, span, change = args
            edit = {"protect": table.protect_range,
                    "present": table.set_present_range,
                    "pkey": table.set_pkey_range}[op]
            before = [table.lookup(vpn) for vpn in vpns]
            try:
                edit(BASE + page * PAGE_SIZE, span * PAGE_SIZE, change)
            except ConfigError:
                assert [table.lookup(vpn) for vpn in vpns] == before

    @staticmethod
    def _edit_context(op, args, ept, frames, contexts, tables):
        if op == "ept_map":
            ept.map_page(frames[args[0]], PTE(frames[args[1]], Perm.RWX))
        elif op == "ept_unmap":
            ept.unmap_page(frames[args[0]])
        elif op == "pkru":
            contexts[args[0]].pkru = args[1]
        else:
            ctx = contexts[args[0]]
            ctx.page_table = tables[args[1]]
            ctx.ept = ept if args[2] else None


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
        assert ctx.page_table.tlb
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
