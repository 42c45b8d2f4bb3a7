"""The Pylite machine: a CPython-like runtime over simulated memory.

Implements the paper's §5.2 CPython fork at simulation level, on the
same LitterBox as the Go frontend:

* a **multi-segmented heap**: one allocator instance per module; its
  code is the module package's text, and each data arena it grows is a
  ``Transfer`` to the module;
* **dynamic registration**: each import is an ``Init`` call with
  partial information; LitterBox — not the compiler — computes
  transitive dependencies and full memory views;
* **delayed environment initialization**: an enclosure's first call is
  the ``Init`` that builds its page table, the cost §6.4 measures;
* **controlled trusted switches** for refcount/GC-metadata updates on
  objects mapped read-only (the conservative mode's ~18x), avoidable by
  mapping the data read-write (the optimized mode's ~1.4x).

Enclosure calls are ``Prolog``/``Epilog`` and system calls take the
backend's FilterSyscall.  The enforcing backend is LBVTX, as in §6.4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.backends import BaselineBackend
from repro.core.enclosure import EnclosureSpec
from repro.core.lb_vtx import VTXBackend
from repro.core.litterbox import LitterBox, ProgramInfo
from repro.core.packages import DependenceGraph, PackageInfo
from repro.core.policy import parse_policy
from repro.errors import PyliteError
from repro.hw.clock import COSTS, SimClock
from repro.hw.cpu import CPU
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.pages import PAGE_SIZE, Perm, Section
from repro.hw.pagetable import PageTable
from repro.hw.physmem import PhysicalMemory
from repro.isa.opcodes import Hook
from repro.os.kernel import Kernel
from repro.runtime.scheduler import Goroutine

ARENA_CHUNK = 16 * PAGE_SIZE
CODE_CHUNK = 4 * PAGE_SIZE


@dataclass
class PyModule:
    """Runtime state of one imported module."""

    name: str
    data_sections: list[Section] = field(default_factory=list)
    code_sections: list[Section] = field(default_factory=list)
    _cursor: int = 0
    _remaining: int = 0
    namespace: dict[str, object] = field(default_factory=dict)
    #: Whether the interpreter has started running its top level.
    imported: bool = False
    gc_head: int = 0
    allocations: int = 0


class PyMachine:
    """Memory, kernel, and LitterBox for Pylite programs.

    ``mode``:
      * ``python``       — stock CPython: the unenforced baseline;
      * ``conservative`` — LBVTX with trusted switches on every
                           refcount/GC write to read-only pages;
      * ``optimized``    — LBVTX, caller maps shared data RW so
                           refcount switches are unnecessary (§6.4).
    """

    def __init__(self, mode: str = "python"):
        if mode not in ("python", "conservative", "optimized"):
            raise PyliteError(f"unknown mode {mode!r}")
        self.mode = mode
        self.clock = SimClock()
        self.physmem = PhysicalMemory()
        self.mmu = MMU(self.physmem, self.clock)
        self.kernel = Kernel(self.physmem, self.mmu, self.clock)
        self.host_table = PageTable("py.host")
        self.kernel.host_table = self.host_table
        self.trusted_ctx = TranslationContext(page_table=self.host_table)
        self.backend = BaselineBackend() if mode == "python" \
            else VTXBackend()
        self.litterbox = LitterBox(self.backend, self.kernel, self.mmu,
                                   self.clock)
        self.litterbox.trusted_ctx = self.trusted_ctx
        self.cpu = CPU(mmu=self.mmu, clock=self.clock)
        self.cpu.ctx = TranslationContext(page_table=self.host_table)
        #: The interpreter's one thread: Prolog/Epilog keep its env stack.
        self.thread = Goroutine(id=0, env=self.litterbox.trusted_env,
                                entry=0)
        self.modules: dict[str, PyModule] = {}
        self._env_ids = itertools.count(1)
        self.syscall_ns = 0.0
        self.init_ns = 0.0
        # The first Init: the trusted builtins (interned singletons, in
        # every view), whose text holds the interpreter's two call gates.
        text = self._new_module("builtins").code_sections[0]
        self.prolog_gate, self.epilog_gate = text.base, text.base + 8
        self.litterbox.init(ProgramInfo(
            DependenceGraph([PackageInfo("builtins", sections=[text],
                                         trusted=True)]),
            verif={self.prolog_gate: int(Hook.PROLOG),
                   self.epilog_gate: int(Hook.EPILOG)}))
        self.backend.boot(self.cpu)

    # ------------------------------------------------------------- modules

    def register_module(self, name: str,
                        importer: str | None = None) -> PyModule:
        """One import as one partial ``Init`` (§5.2): module ``name``
        with its code if it is new, and ``importer``'s import of it."""
        packages = []
        module = self.modules.get(name)
        if module is None:
            module = self._new_module(name)
            packages.append(PackageInfo(
                name, sections=list(module.code_sections)))
        if importer is not None and \
                name not in self.litterbox.graph.get(importer).imports:
            packages.append(PackageInfo(importer, imports=(name,)))
        if packages:
            self.litterbox.init(ProgramInfo(DependenceGraph(packages)))
        return module

    def _new_module(self, name: str) -> PyModule:
        module = PyModule(name=name)
        self.modules[name] = module
        module.code_sections.append(
            self._mmap_section(f"py.{name}.text", CODE_CHUNK, Perm.RX))
        return module

    # ------------------------------------------------------------- memory

    def _mmap_section(self, label: str, size: int, perms: Perm) -> Section:
        base = self.kernel.syscall(9, (0, size, 3, 0), None, pkru=0)
        if base < 0:
            raise PyliteError("arena mmap failed")
        section = Section(label, base, size, perms)
        if perms != Perm.RW:
            # New memory is RW in the host table and, under LBVTX, in
            # the trusted guest table cloned from it.
            for table in (self.host_table, self.litterbox.trusted_env.table):
                if table is not None:
                    table.protect_range(base, size, perms)
        return section

    def _grow_data(self, module: PyModule) -> None:
        section = self._mmap_section(
            f"py.{module.name}.data{len(module.data_sections)}",
            ARENA_CHUNK, Perm.RW)
        module.data_sections.append(section)
        module._cursor = section.base
        module._remaining = section.size
        self.litterbox.transfer(section.base, section.size, module.name)

    def alloc(self, module_name: str, size: int) -> int:
        """Allocate from the module's own allocator instance (§5.2)."""
        module = self.modules[module_name]
        size = (size + 7) & ~7
        if size > module._remaining:
            if size > ARENA_CHUNK:
                raise PyliteError(f"object too large ({size} bytes)")
            self._grow_data(module)
            self.clock.charge(COSTS.ALLOC_SLOW)
        self.clock.charge(COSTS.PY_ALLOC)
        addr = module._cursor
        module._cursor += size
        module._remaining -= size
        module.allocations += 1
        return addr

    # ---------------------------------------------------------- enclosures

    def create_enclosure(self, module: str,
                         policy_text: str) -> EnclosureSpec:
        """Describe an enclosure over a function of ``module``; LitterBox
        learns of it at its first call."""
        env_id = next(self._env_ids)
        return EnclosureSpec(id=env_id, name=f"pyencl_{env_id}",
                             owner=module, policy=parse_policy(policy_text),
                             refs=(module,))

    def enter(self, spec: EnclosureSpec) -> None:
        """Prolog into the enclosure; its first call is the ``Init``
        that registers it, the delayed initialization of §6.4."""
        if spec.id not in self.litterbox.envs:
            before = self.clock.now_ns
            self.clock.charge(COSTS.PY_INIT_BASE)
            self.litterbox.init(ProgramInfo(
                DependenceGraph([PackageInfo(spec.pseudo_package,
                                             imports=spec.refs)]),
                enclosures=[spec]))
            self.init_ns += self.clock.now_ns - before
        self.litterbox.prolog(self.cpu, self.thread, spec.id,
                              self.prolog_gate)

    def leave(self) -> None:
        self.litterbox.epilog(self.cpu, self.thread, self.epilog_gate)

    def _writable(self, addr: int) -> bool:
        if not self.thread.env_stack:
            return True
        pte = self.cpu.ctx.page_table.lookup(addr >> 12)
        return pte is not None and pte.present and bool(pte.perms & Perm.W)

    def meta_write(self, addr: int, value: int) -> None:
        """Write object *metadata* (refcount / gc_next).

        On a page the current environment cannot write, the runtime
        "performs a controlled switch to a trusted environment, with
        full access to program resources" (§5.2) — two switches per
        update in the conservative prototype.
        """
        self.clock.charge(COSTS.PY_INCREF)
        if self._writable(addr):
            self.mmu.write_word(self.cpu.ctx, addr, value, charge=False)
            return
        self.clock.tick("refcount_switches")
        self.clock.tick("switches")   # each switch ticks, as Prolog's does
        self.backend.switch_to(self.cpu, self.litterbox.trusted_env)
        self.mmu.write_word(self.cpu.ctx, addr, value, charge=False)
        self.clock.tick("switches")
        self.backend.switch_to(self.cpu, self.thread.env)   # back

    def data_read(self, addr: int, size: int) -> bytes:
        return self.mmu.read(self.cpu.ctx, addr, size, charge=False)

    def data_write(self, addr: int, data: bytes) -> None:
        self.mmu.write(self.cpu.ctx, addr, data, charge=False)

    # -------------------------------------------------------------- syscalls

    def do_syscall(self, nr: int, args: tuple[int, ...]) -> int:
        """A system call from Pylite code, through the backend's
        FilterSyscall path (LBVTX: the guest OS filter, then a VM exit)."""
        before = self.clock.now_ns
        result = self.backend.syscall(self.cpu, nr, args)
        self.syscall_ns += self.clock.now_ns - before
        return result
