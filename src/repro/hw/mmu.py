"""Simulated MMU: translation plus permission / protection-key checks.

Every memory access made by simulated code — instruction fetches,
loads, stores, and the bulk accesses of runtime helpers acting on behalf
of simulated code — goes through :meth:`MMU.read` / :meth:`MMU.write` /
:meth:`MMU.check_exec` with the currently installed
:class:`TranslationContext`.  This is what makes LitterBox's enforcement
non-bypassable inside the simulation.

Software TLB
------------

Each :class:`PageTable` keeps the software TLB of its translations,
shared by every context and core that installs it: ``table.tlb`` maps
``vpn * 4 + kind`` to ``(pte, frame, ept)``, filled only after a walk
fully passes the present / user / permission checks — a denied
translation is never cached.  A hit needs the entry present, filled
under ``ctx.ept``, and privilege and PKRU allowing the access.  The
page table drops what each of its edits changes (see
:mod:`repro.hw.pagetable`), so a CR3 write (a VT-x/LWC switch) flushes
nothing; the ``CR3_WRITE`` charge holds the hardware flush's simulated
cost.

PKRU is deliberately **not** part of a cached entry: as on real MPK
hardware, protection keys are checked on every data access against the
*current* PKRU using the key stored in the cached PTE, so a ``WRPKRU``
takes effect on the very next access even with a hot TLB entry, and no
enforcement is weakened by caching.

That hit test is written out twice: in :meth:`MMU._access`, which every
checked access here goes through, and in ``repro.isa.jit._hit``, which
renders the same test into JIT traces.  An enforcement change to one
must land in the other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import PageFault, PkeyFault
from repro.hw.clock import COSTS, SimClock
from repro.hw.pages import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Perm
from repro.hw.pagetable import PTE, PageTable
from repro.hw.physmem import PhysicalMemory
from repro.perf import PerfStats

_WORD = struct.Struct("<q")
_UWORD = struct.Struct("<Q")
WORD_SIZE = 8

#: Largest page offset at which an aligned 8-byte word still fits.
_WORD_FIT = PAGE_SIZE - WORD_SIZE

#: TLB key kind codes (the key is ``vpn * 4 + kind``; int keys hash
#: faster than tuples on the hot path).
KIND_R, KIND_W, KIND_X = 0, 1, 2
_KIND_CODE = {"r": KIND_R, "w": KIND_W, "x": KIND_X}

#: Permission bit required for each access kind (module-level so
#: ``_page_walk`` doesn't rebuild the mapping per call).
_NEEDED_PERM = {"r": Perm.R, "w": Perm.W, "x": Perm.X}

#: PKRU bits that deny each access kind, per key: AD denies a read, AD
#: or WD a write, and keys never govern a fetch.
_PKRU_DENY = {"r": 0x1, "w": 0x3, "x": 0x0}


@dataclass
class TranslationContext:
    """The translation state the hardware sees for the running code.

    Attributes:
        page_table: the active table (CR3 in VT-x mode selects this).
        pkru: PKRU register value, or ``None`` when MPK is not in use.
        ept: optional second-level table (guest-physical -> host frame).
        user: whether the access executes in user mode.
    """

    page_table: PageTable
    pkru: int | None = None
    ept: PageTable | None = None
    user: bool = True


class MMU:
    """Performs checked virtual-memory accesses against a context."""

    def __init__(self, physmem: PhysicalMemory, clock: SimClock,
                 perf: PerfStats | None = None):
        self.physmem = physmem
        self.clock = clock
        self.perf = perf if perf is not None else PerfStats()
        #: Observer bus (repro.obs), wired by the machine.  Consulted
        #: only on fault paths — never on a successful access.
        self.obs = None
        #: FaultInjector consulted per checked access while it has a
        #: fault armed (it attaches and detaches itself); None otherwise,
        #: so the hot path pays one predictable branch.
        self.inject = None

    def _trace_violation(self, kind: str, vaddr: int,
                         detail: str, **extra) -> None:
        if self.obs is not None:
            self.obs.on_violation(kind, vaddr, detail, **extra)

    # -- translation ----------------------------------------------------

    def _page_walk(self, ctx: TranslationContext, vaddr: int,
                   kind: str) -> tuple[PTE, int]:
        """Full page-table (and EPT) walk; raises on any violation
        *except* protection keys, which are per-access (see module
        docstring) and checked by the callers.
        """
        pte = ctx.page_table.lookup(vaddr >> PAGE_SHIFT)
        if pte is None:
            self._trace_violation("page-fault", vaddr, "no translation",
                                  access=kind, table=ctx.page_table.name)
            raise PageFault("non-present",
                            f"no translation for {vaddr:#x} in {ctx.page_table.name}",
                            addr=vaddr)
        if not pte.present:
            self._trace_violation("page-fault", vaddr, "not present",
                                  access=kind, table=ctx.page_table.name)
            raise PageFault("non-present",
                            f"page {vaddr:#x} not present in {ctx.page_table.name}",
                            addr=vaddr)
        if ctx.user and not pte.user:
            self._trace_violation("page-fault", vaddr, "supervisor page",
                                  access=kind, table=ctx.page_table.name)
            raise PageFault(kind, f"user access to supervisor page {vaddr:#x}",
                            addr=vaddr)
        needed = _NEEDED_PERM[kind]
        if not pte.perms & needed:
            self._trace_violation("page-fault", vaddr, "permission denied",
                                  access=kind, perms=pte.perms.label())
            raise PageFault(
                kind,
                f"{kind}-access to {vaddr:#x} ({pte.perms.label()}) denied",
                addr=vaddr)
        paddr = pte.pfn * PAGE_SIZE + (vaddr & PAGE_MASK)
        if ctx.ept is not None:
            ept_pte = ctx.ept.lookup(paddr >> PAGE_SHIFT)
            if ept_pte is None:
                self._trace_violation("ept", vaddr, "EPT violation",
                                      access=kind, gpa=paddr)
                raise PageFault("non-present",
                                f"EPT violation for GPA {paddr:#x}", addr=vaddr)
            paddr = ept_pte.pfn * PAGE_SIZE + (paddr & PAGE_MASK)
        return pte, paddr

    def _deny_pkey(self, ctx: TranslationContext, pte: PTE, vaddr: int,
                   kind: str) -> None:
        """Report and raise a data access that PKRU denies."""
        what = "read" if kind == "r" else "write"
        self._trace_violation("pkey", vaddr, f"PKRU denied {what}",
                              pkey=pte.pkey, pkru=ctx.pkru)
        raise PkeyFault(
            f"{what} of {vaddr:#x} denied by PKRU for key {pte.pkey}",
            addr=vaddr, pkey=pte.pkey)

    def _fill(self, ctx: TranslationContext, vaddr: int,
              kind: str) -> tuple[PTE, bytearray]:
        """TLB miss path: walk, then cache the *approved* translation.

        The entry is created only after the walk passes every
        present/user/permission check, so the TLB never caches a denied
        translation.  Protection keys are intentionally checked after
        caching (and on every later hit) — the translation itself is
        legal to cache under MPK semantics.
        """
        self.perf.tlb_misses += 1
        pte, paddr = self._page_walk(ctx, vaddr, kind)
        frame = self.physmem.frame(paddr >> PAGE_SHIFT)
        table = ctx.page_table
        ept = ctx.ept
        if ept is not None:
            ept.guests.add(table)
        table.tlb[(vaddr >> PAGE_SHIFT) * 4 + _KIND_CODE[kind]] = (
            pte, frame, ept)
        return pte, frame

    def _access(self, ctx: TranslationContext, vaddr: int,
                kind: str) -> bytearray:
        """One checked access through the TLB; returns the page's frame.

        The MMU's only TLB-hit test: the installed table's TLB holds an
        entry for the page and kind, filled under ``ctx.ept``, whose
        privilege still matches, and the current PKRU allows the page's
        key (every data access, hit or miss).  The injector, when armed,
        gets the access first.  Never touches the clock; callers charge.
        """
        if self.inject is not None:
            self.inject.on_access(vaddr, kind)
        entry = ctx.page_table.tlb.get(
            (vaddr >> PAGE_SHIFT) * 4 + _KIND_CODE[kind])
        if entry is not None:
            pte, frame, ept = entry
            if ept is ctx.ept and (pte.user or not ctx.user):
                self.perf.tlb_hits += 1
            else:
                entry = None
        if entry is None:
            pte, frame = self._fill(ctx, vaddr, kind)
        pkru = ctx.pkru
        if pkru is not None and ctx.user and \
                (pkru >> (2 * pte.pkey)) & _PKRU_DENY[kind]:
            self._deny_pkey(ctx, pte, vaddr, kind)
        return frame

    def flush_tlb(self, ctx: TranslationContext) -> None:
        """Drop every cached translation of ``ctx``'s table.

        Nothing in the simulator calls it: each page-table edit already
        drops what it changes.  It stays, with ``tlb_flushes``, only
        because perfbench wraps it by name.
        """
        ctx.page_table.tlb.clear()
        self.perf.tlb_flushes += 1

    # -- checked accesses ------------------------------------------------

    def read(self, ctx: TranslationContext, vaddr: int, size: int,
             charge: bool = True) -> bytes:
        """Read ``size`` bytes, enforcing permissions.

        A single translation serves the whole access when it stays
        within one page (the common case); page-spanning accesses
        translate once per page.
        """
        if charge:
            self.clock.charge(COSTS.INSN_MEM + COSTS.MEM_BYTE * max(0, size - 8))
        if size <= 0:
            return b""
        offset = vaddr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            return bytes(self._access(ctx, vaddr, "r")[offset:offset + size])
        out = bytearray()
        remaining = size
        addr = vaddr
        while remaining > 0:
            offset = addr & PAGE_MASK
            frame = self._access(ctx, addr, "r")
            chunk = min(remaining, PAGE_SIZE - offset)
            out += frame[offset:offset + chunk]
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, ctx: TranslationContext, vaddr: int, data: bytes,
              charge: bool = True) -> None:
        if charge:
            self.clock.charge(
                COSTS.INSN_MEM + COSTS.MEM_BYTE * max(0, len(data) - 8))
        size = len(data)
        if size == 0:
            return
        offset = vaddr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            self._access(ctx, vaddr, "w")[offset:offset + size] = data
            return
        pos = 0
        remaining = size
        addr = vaddr
        while remaining > 0:
            offset = addr & PAGE_MASK
            frame = self._access(ctx, addr, "w")
            chunk = min(remaining, PAGE_SIZE - offset)
            frame[offset:offset + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk
            remaining -= chunk

    def check_exec(self, ctx: TranslationContext, vaddr: int) -> None:
        """Validate an instruction fetch from ``vaddr``."""
        self._access(ctx, vaddr, "x")

    def exec_tag(self, ctx: TranslationContext, vaddr: int) -> tuple | None:
        """Validate a fetch and return the interpreter's per-page exec
        tag: the TLB entry that served it.

        While that entry is still the installed table's exec entry for
        the fetched page (an identity test) and was filled under
        ``ctx.ept``, the interpreter's fetches from the page skip
        :meth:`check_exec`.  A supervisor page's entry gives ``None``,
        so each fetch from one is checked against the context's
        privilege.
        """
        self._access(ctx, vaddr, "x")
        entry = ctx.page_table.tlb[(vaddr >> PAGE_SHIFT) * 4 + KIND_X]
        return entry if entry[0].user else None

    # -- word-granular helpers (the ISA operates on 64-bit words) --------

    # The word/byte helpers add only their own charge and, for words,
    # the fit check and its ``word_fast``/``word_slow`` count: each takes
    # the frame from :meth:`_access`, so enforcement, faults and TLB
    # counters are exactly the shared path's.  A word that spans a page
    # goes through :meth:`read`/:meth:`write`, one access per page.

    def read_word(self, ctx: TranslationContext, vaddr: int,
                  charge: bool = True) -> int:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        offset = vaddr & PAGE_MASK
        if offset <= _WORD_FIT:
            self.perf.word_fast += 1
            return _WORD.unpack_from(self._access(ctx, vaddr, "r"), offset)[0]
        self.perf.word_slow += 1
        return _WORD.unpack(self.read(ctx, vaddr, WORD_SIZE, False))[0]

    def write_word(self, ctx: TranslationContext, vaddr: int, value: int,
                   charge: bool = True) -> None:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        offset = vaddr & PAGE_MASK
        if offset <= _WORD_FIT:
            self.perf.word_fast += 1
            _UWORD.pack_into(self._access(ctx, vaddr, "w"), offset,
                             value & 0xFFFFFFFFFFFFFFFF)
            return
        self.perf.word_slow += 1
        self.write(ctx, vaddr, _WORD.pack(_wrap64(value)), False)

    def read_frame(self, ctx: TranslationContext, vaddr: int) -> bytearray:
        """Checked, uncharged read access returning the backing frame
        (for single-page structure reads that unpack in place, e.g.
        slice descriptors)."""
        return self._access(ctx, vaddr, "r")

    def read_byte(self, ctx: TranslationContext, vaddr: int,
                  charge: bool = True) -> int:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        return self._access(ctx, vaddr, "r")[vaddr & PAGE_MASK]

    def write_byte(self, ctx: TranslationContext, vaddr: int, value: int,
                   charge: bool = True) -> None:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        self._access(ctx, vaddr, "w")[vaddr & PAGE_MASK] = value & 0xFF

    def memcpy(self, ctx: TranslationContext, dst: int, src: int,
               size: int) -> None:
        """Bulk copy with both sides permission-checked."""
        self.clock.charge(COSTS.MEM_BYTE * size)
        data = self.read(ctx, src, size, charge=False)
        self.write(ctx, dst, data, charge=False)


def _wrap64(value: int) -> int:
    """Wrap a Python int into signed 64-bit two's-complement range."""
    value &= (1 << 64) - 1
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def wrap64(value: int) -> int:
    return _wrap64(value)
