"""Direct tests of the LitterBox API and backend behaviours (§4/§5.3)."""

import pytest

from repro.core.enclosure import LITTERBOX_SUPER, EnclosureSpec
from repro.core.litterbox import ProgramInfo
from repro.core.packages import DependenceGraph, PackageInfo
from repro.core.policy import Access, parse_policy
from repro.errors import CallSiteFault, ConfigError, PageFault, PolicyError
from repro.hw.mmu import TranslationContext
from repro.hw.pages import PAGE_SIZE, Perm, Section
from repro.isa.opcodes import Hook
from repro.machine import Machine, MachineConfig
from repro.os.syscalls import SYS_MMAP, SYS_MUNMAP

from tests.fig1 import build_image


def machine_for(backend):
    return Machine(build_image(), MachineConfig(backend=backend))


class TestInit:
    def test_double_init_rejected(self):
        machine = machine_for("mpk")
        with pytest.raises(ConfigError, match="twice"):
            machine.litterbox.init(machine.image)

    def test_environments_created(self):
        machine = machine_for("mpk")
        assert set(machine.litterbox.envs) == {0, 1}
        assert machine.litterbox.env(0).trusted
        assert machine.litterbox.env(1).name == "rcl"

    def test_unknown_env_rejected(self):
        machine = machine_for("mpk")
        with pytest.raises(ConfigError, match="unknown"):
            machine.litterbox.env(42)

    def test_clustering_computed(self):
        machine = machine_for("mpk")
        clustering = machine.litterbox.clustering
        # libfx and encl.rcl share full access in the only view.
        assert clustering.meta_of["libfx"] == clustering.meta_of["encl.rcl"]
        assert clustering.meta_of["secrets"] != clustering.meta_of["libfx"]

    def test_mpk_assigns_keys_and_tags_pages(self):
        machine = machine_for("mpk")
        backend = machine.backend
        key = backend.key_for_package("secrets")
        assert key > 0
        section = machine.image.section_named("secrets.data").section
        assert machine.host_table.lookup(section.base >> 12).pkey == key

    def test_vtx_builds_guest_tables(self):
        machine = machine_for("vtx")
        env = machine.litterbox.env(1)
        assert env.table is not None
        # main's data is absent from rcl's table.
        main_data = machine.image.section_named("main.data").section
        assert env.table.lookup(main_data.base >> 12) is None
        # secrets' data is mapped read-only (policy: secrets:R).
        sec = machine.image.section_named("secrets.data").section
        pte = env.table.lookup(sec.base >> 12)
        assert pte is not None and pte.perms == Perm.R

    def test_vtx_hides_text_of_non_executable_packages(self):
        machine = machine_for("vtx")
        env = machine.litterbox.env(1)
        # secrets is R: its functions (text) must be hidden (§5.2/§2.2).
        sec_text = machine.image.section_named("secrets.text").section
        assert env.table.lookup(sec_text.base >> 12) is None
        # libfx is RWX: its text is executable.
        fx_text = machine.image.section_named("libfx.text").section
        assert env.table.lookup(fx_text.base >> 12).perms == Perm.RX

    def test_super_never_user_accessible(self):
        machine = machine_for("vtx")
        env = machine.litterbox.env(1)
        for load in machine.image.sections_of(LITTERBOX_SUPER):
            assert env.table.lookup(load.section.base >> 12) is None
            host_pte = machine.host_table.lookup(load.section.base >> 12)
            assert host_pte is not None and not host_pte.user


def mmap_pages(machine, pages):
    return machine.kernel.syscall(SYS_MMAP, (0, pages * PAGE_SIZE, 3, 0),
                                  None, pkru=0)


def later_init(machine, *packages, enclosures=()):
    """A second Init, as the Python frontend makes at each import and
    at each enclosure's first call."""
    machine.litterbox.init(ProgramInfo(DependenceGraph(packages),
                                       list(enclosures)))


def entries(table):
    return {vpn: table.lookup(vpn) for vpn in table.mapped_vpns()}


@pytest.mark.parametrize("backend", ["vtx", "lwc"])
class TestIncrementalInit:
    """Init with partial information (§5.2) on the page-table backends:
    each call adds packages and enclosures and extends what exists."""

    def _extra(self, machine, enclosure_id=2, policy="none"):
        """A new package with one data page, and an enclosure over it."""
        base = mmap_pages(machine, 1)
        package = PackageInfo(
            "extra", sections=[Section("extra.data", base, PAGE_SIZE,
                                       Perm.RW)])
        spec = EnclosureSpec(id=enclosure_id, name="e2", owner="extra",
                             policy=parse_policy(policy), refs=("extra",))
        pseudo = PackageInfo(spec.pseudo_package, imports=("extra",))
        return base, (package, pseudo), spec

    def test_builds_only_the_new_environments_table(self, backend):
        machine = machine_for(backend)
        base, packages, spec = self._extra(machine)
        rcl = machine.litterbox.env(1)
        table, before = rcl.table, entries(rcl.table)
        # A translation cached from rcl's table, which nothing below
        # may drop.
        ctx = TranslationContext(page_table=table, ept=machine.cpu.ctx.ept)
        secrets = machine.image.section_named("secrets.data").section.base
        machine.mmu.read(ctx, secrets, 8)
        later_init(machine, *packages, enclosures=[spec])
        e2 = machine.litterbox.env(2)
        assert e2.table is not None and e2.table is not table
        assert e2.table.lookup(base >> 12).perms == Perm.RW
        # rcl's view did not grow: its table was left alone, and the
        # translation cached from it still hits.
        perf = machine.perf
        hits, misses = perf.tlb_hits, perf.tlb_misses
        machine.mmu.read(ctx, secrets, 8)
        assert (perf.tlb_hits - hits, perf.tlb_misses - misses) == (1, 0)
        assert rcl.table is table and entries(rcl.table) == before
        assert not rcl.table.lookup(base >> 12).present

    def test_a_grown_view_maps_the_new_package(self, backend):
        machine = machine_for(backend)
        rcl = machine.litterbox.env(1)
        table = rcl.table
        arena = mmap_pages(machine, 1)
        machine.litterbox.transfer(arena, PAGE_SIZE, "secrets")
        arena_pte = rcl.table.lookup(arena >> 12)
        base, (extra, _pseudo), _spec = self._extra(machine)
        # extra arrives with libfx's import of it: libfx is a natural
        # dependency of rcl, so extra becomes one too.
        later_init(machine, extra, PackageInfo("libfx", imports=("extra",)))
        assert rcl.view["extra"] is Access.RWX
        assert rcl.table is table
        pte = rcl.table.lookup(base >> 12)
        assert pte.present and pte.perms == Perm.RW
        # Only the gained package was mapped: secrets' arena was not
        # replayed.
        assert rcl.table.lookup(arena >> 12) is arena_pte

    def test_an_import_of_a_known_package_grows_no_view(self, backend):
        """§5.2 makes only *new* packages available: a package that was
        registered before never joins an existing view, although an
        import makes it a natural dependency."""
        machine = machine_for(backend)
        rcl = machine.litterbox.env(1)
        base, packages, spec = self._extra(machine)
        later_init(machine, *packages, enclosures=[spec])
        before = entries(rcl.table)
        later_init(machine, PackageInfo("libfx", imports=("extra",)))
        assert "extra" in machine.litterbox.graph.natural_dependencies(
            "libfx")
        assert "extra" not in rcl.view
        assert entries(rcl.table) == before
        assert not rcl.table.lookup(base >> 12).present

    def test_sections_for_a_known_package_rejected(self, backend):
        machine = machine_for(backend)
        base = mmap_pages(machine, 1)
        more = PackageInfo("libfx", sections=[Section(
            "libfx.more", base, PAGE_SIZE, Perm.RW)])
        with pytest.raises(ConfigError, match="already registered"):
            later_init(machine, more)
        assert machine.litterbox.graph.get("libfx").sections == [
            load.section for load in machine.image.sections_of("libfx")]

    def test_a_new_table_sees_earlier_transfers(self, backend):
        machine = machine_for(backend)
        arena = mmap_pages(machine, 2)
        machine.litterbox.transfer(arena, 2 * PAGE_SIZE, "secrets")
        _base, packages, spec = self._extra(machine, policy="secrets:R")
        later_init(machine, *packages, enclosures=[spec])
        pte = machine.litterbox.env(2).table.lookup(arena >> 12)
        assert pte.present and pte.perms == Perm.R

    def test_overlapping_section_rejected(self, backend):
        machine = machine_for(backend)
        main_data = machine.image.section_named("main.data").section
        clash = PackageInfo("clash", sections=[Section(
            "clash.data", main_data.base, PAGE_SIZE, Perm.RW)])
        with pytest.raises(ConfigError, match="overlap"):
            later_init(machine, clash)
        assert "clash" not in machine.litterbox.graph

    def test_duplicate_enclosure_id_rejected(self, backend):
        machine = machine_for(backend)
        _base, packages, spec = self._extra(machine, enclosure_id=1)
        with pytest.raises(ConfigError, match="duplicate enclosure id"):
            later_init(machine, *packages, enclosures=[spec])
        assert machine.litterbox.env(1).name == "rcl"
        assert "extra" not in machine.litterbox.graph

    def test_modifier_naming_unknown_package_rejected(self, backend):
        machine = machine_for(backend)
        _base, packages, spec = self._extra(machine, policy="ghost:R")
        with pytest.raises(PolicyError, match="unknown package 'ghost'"):
            later_init(machine, *packages, enclosures=[spec])
        assert set(machine.litterbox.envs) == {0, 1}


class TestCallSiteVerification:
    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_epilog_site_cannot_prolog(self, backend):
        machine = machine_for(backend)
        machine.run()
        goroutine = machine.scheduler.goroutines[0]
        goroutine.env = machine.litterbox.trusted_env
        epilog_site = next(addr for addr, hook in machine.image.verif.items()
                           if hook == int(Hook.EPILOG))
        with pytest.raises(CallSiteFault):
            machine.litterbox.prolog(machine.cpu, goroutine, 1, epilog_site)

    def test_epilog_without_prolog_faults(self):
        from repro.errors import Fault
        machine = machine_for("mpk")
        machine.run()
        goroutine = machine.scheduler.goroutines[0]
        goroutine.env_stack.clear()
        epilog_site = next(addr for addr, hook in machine.image.verif.items()
                           if hook == int(Hook.EPILOG))
        with pytest.raises(Fault, match="matching Prolog"):
            machine.litterbox.epilog(machine.cpu, goroutine, epilog_site)


class TestTransfer:
    def test_transfer_updates_rights_in_every_view(self):
        machine = machine_for("vtx")
        base = machine.kernel.syscall(SYS_MMAP, (0, 4 * PAGE_SIZE, 3, 0),
                                      None, pkru=0)
        machine.litterbox.transfer(base, 4 * PAGE_SIZE, "secrets")
        env = machine.litterbox.env(1)
        pte = env.table.lookup(base >> 12)
        assert pte.present and pte.perms == Perm.R  # secrets is R in rcl
        machine.litterbox.transfer(base, 4 * PAGE_SIZE, "libfx")
        pte = env.table.lookup(base >> 12)
        assert pte.present and pte.perms == Perm.RW  # libfx is RWX

    def test_transfer_to_invisible_package_unmaps(self):
        machine = machine_for("vtx")
        base = machine.kernel.syscall(SYS_MMAP, (0, 4 * PAGE_SIZE, 3, 0),
                                      None, pkru=0)
        machine.litterbox.transfer(base, 4 * PAGE_SIZE, "main")
        env = machine.litterbox.env(1)
        assert not env.table.lookup(base >> 12).present

    @pytest.mark.parametrize("backend", ["vtx", "lwc"])
    def test_munmap_unmaps_a_transferred_page_in_every_view(self, backend):
        machine = machine_for(backend)
        base = mmap_pages(machine, 1)
        machine.litterbox.transfer(base, PAGE_SIZE, "libfx")
        env = machine.litterbox.env(1)
        assert env.table.lookup(base >> 12).present
        assert machine.kernel.syscall(SYS_MUNMAP, (base, PAGE_SIZE), None,
                                      pkru=0) == 0
        assert env.table.lookup(base >> 12) is None
        assert machine.host_table.lookup(base >> 12) is None

    @pytest.mark.parametrize("backend", ["vtx", "lwc"])
    def test_munmap_drops_the_arena_record(self, backend):
        """A new table replays every arena record, so a Transfer of
        memory since unmapped must leave none behind for a later Init
        to replay."""
        machine = machine_for(backend)
        base = mmap_pages(machine, 1)
        machine.litterbox.transfer(base, PAGE_SIZE, "libfx")
        assert machine.kernel.syscall(SYS_MUNMAP, (base, PAGE_SIZE), None,
                                      pkru=0) == 0
        assert all(s.base != base
                   for s in machine.litterbox.arena_of("libfx"))
        spec = EnclosureSpec(id=2, name="e2", owner="libfx",
                             policy=parse_policy("none"), refs=("libfx",))
        later_init(machine, PackageInfo(spec.pseudo_package,
                                        imports=("libfx",)),
                   enclosures=[spec])
        e2 = machine.litterbox.env(2)
        assert e2.table is not None
        assert e2.table.lookup(base >> 12) is None

    def test_an_unmapped_range_splits_the_record_it_cuts(self):
        machine = machine_for("vtx")
        base = mmap_pages(machine, 4)
        machine.litterbox.transfer(base, 4 * PAGE_SIZE, "libfx")
        machine.litterbox.forget_arenas(base + PAGE_SIZE, PAGE_SIZE)
        assert [(s.name, s.base, s.size)
                for s in machine.litterbox.arena_of("libfx")] == [
            (f"libfx.arena+{base:#x}", base, PAGE_SIZE),
            (f"libfx.arena+{base + 2 * PAGE_SIZE:#x}",
             base + 2 * PAGE_SIZE, 2 * PAGE_SIZE)]

    @pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx", "lwc"])
    def test_munmap_drops_arena_ownership_on_every_backend(self, backend):
        machine = machine_for(backend)
        base = mmap_pages(machine, 1)
        machine.litterbox.transfer(base, PAGE_SIZE, "libfx")
        assert [s.name for s in machine.litterbox.arena_of("libfx")] == [
            f"libfx.arena+{base:#x}"]
        assert machine.kernel.syscall(SYS_MUNMAP, (base, PAGE_SIZE), None,
                                      pkru=0) == 0
        assert machine.litterbox.arena_of("libfx") == []

    @pytest.mark.parametrize("backend", ["baseline", "mpk", "vtx", "lwc"])
    def test_a_transfer_replaces_its_ranges_owner(self, backend):
        """As when the allocator recycles a package's spans and another
        package grabs them: only the newest Transfer owns the page."""
        machine = machine_for(backend)
        first, second = mmap_pages(machine, 1), mmap_pages(machine, 2)
        litterbox = machine.litterbox
        litterbox.transfer(first, PAGE_SIZE, "libfx")
        litterbox.transfer(second, 2 * PAGE_SIZE, "libfx")
        litterbox.transfer(second, PAGE_SIZE, "secrets")
        assert [(s.name, s.base, s.size)
                for s in litterbox.arena_of("libfx")] == [
            (f"libfx.arena+{first:#x}", first, PAGE_SIZE),
            (f"libfx.arena+{second + PAGE_SIZE:#x}", second + PAGE_SIZE,
             PAGE_SIZE)]
        assert [(s.name, s.base, s.size)
                for s in litterbox.arena_of("secrets")] == [
            (f"secrets.arena+{second:#x}", second, PAGE_SIZE)]

    def test_transfer_unknown_package_rejected(self):
        machine = machine_for("mpk")
        base = machine.kernel.syscall(SYS_MMAP, (0, PAGE_SIZE, 3, 0),
                                      None, pkru=0)
        with pytest.raises(ConfigError, match="unknown"):
            machine.litterbox.transfer(base, PAGE_SIZE, "ghost")

    def test_arena_records(self):
        machine = machine_for("mpk")
        base = machine.kernel.syscall(SYS_MMAP, (0, PAGE_SIZE, 3, 0),
                                      None, pkru=0)
        machine.litterbox.transfer(base, PAGE_SIZE, "secrets")
        arenas = machine.litterbox.arena_of("secrets")
        assert any(s.base == base for s in arenas)


class TestSplitStacks:
    """Split stacks isolate frames preceding the enclosure call (§5.1)."""

    def test_enclosure_gets_fresh_stack(self):
        machine = machine_for("mpk")
        machine.run()
        # After exit the goroutine's stacks were recycled into the
        # per-environment pools: one trusted, one for the enclosure.
        pools = machine.litterbox._stack_pools
        assert set(pools) == {0, 1}
        assert pools[0][0].base != pools[1][0].base

    def test_caller_stack_invisible_under_vtx(self):
        """The trusted stack's pages are absent from the enclosure's
        guest table, so caller frames are unreadable."""
        machine = machine_for("vtx")
        machine.run()
        trusted_stack = machine.litterbox._stack_pools[0][0]
        env = machine.litterbox.env(1)
        pte = env.table.lookup(trusted_stack.base >> 12)
        assert pte is None or not pte.present


class TestKernelCopyAsymmetry:
    """Documented fidelity point: a syscall's kernel copy walks the
    *current guest table* under VT-x (so exfiltrating unreadable memory
    through write() faults), but is not PKRU-checked under MPK — the
    same asymmetry the real mechanisms have."""

    def _image(self):
        from repro.isa.instr import Instr, SymRef
        from repro.isa.opcodes import Op
        from repro.os import syscalls as sc
        from tests import fig1
        # Enclosure body: write(1, &main.key, 8) — exfiltrate via stdout.
        body = [
            Instr(Op.ENTER, 2, 2),
            Instr(Op.PUSH, 1),
            Instr(Op.PUSH, SymRef("main.key")),
            Instr(Op.PUSH, 8),
            Instr(Op.PUSH, sc.SYS_WRITE),
            Instr(Op.SYSCALL, 3),
            Instr(Op.RET),
        ]
        fig1.BODIES["exfil_write"] = body
        return fig1.build_image(body="exfil_write",
                                policy="secrets:R, io")

    def test_vtx_blocks_kernel_copy(self):
        machine = Machine(self._image(), MachineConfig(backend="vtx"))
        result = machine.run()
        assert result.status == "faulted"
        assert isinstance(machine.fault, PageFault)
        assert b"\xe7\x03" not in machine.stdout  # 999 never leaked

    def test_mpk_kernel_copy_not_pkru_checked(self):
        machine = Machine(self._image(), MachineConfig(backend="mpk"))
        result = machine.run()
        # Faithful MPK behaviour: the write goes through (which is why
        # the paper's default policy disables syscalls entirely).
        assert result.status == "exited"
        assert (999).to_bytes(8, "little") in machine.stdout
