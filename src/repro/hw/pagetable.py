"""Simulated page tables, each with the software TLB of its translations.

A :class:`PageTable` maps virtual page numbers to :class:`PTE` entries.
PTEs carry access rights, a user/supervisor bit, a presence bit, and —
as on MPK-capable x86 — a 4-bit protection key.  Rights are stored as
a plain ``int`` of :class:`Perm` bits; ``Perm`` is the type of every
public argument, and the MMU turns an entry's bits back into one only
for fault text.

An entry is never edited in place: TLB entries and ``lookup()`` callers
keep the object they were given, so every edit maps a new one, built
by a direct constructor call.

Only this module edits a translation, so only it decides staleness: an
edit that changes existing translations drops exactly their TLB
entries, and a fresh mapping drops nothing (a denied translation is
never cached).  A TLB entry holds no privilege or EPT tag (see
:mod:`repro.hw.mmu`), so no other state has to be invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.pages import PAGE_SIZE, Perm, pages_spanned


@dataclass(slots=True)
class PTE:
    """A page-table entry; ``perms`` holds :class:`Perm` bits as an int.

    Not frozen, because a frozen dataclass costs about four times as
    much to build, but never edited in place (see the module
    docstring).  The constructor checks the key, so every entry that
    enters a table carries a legal one.
    """

    pfn: int
    perms: int
    pkey: int = 0
    present: bool = True
    user: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.pkey < 16:
            raise ConfigError(f"protection key {self.pkey} out of range [0,16)")


class PageTable:
    """A single-level simulated page table (vpn -> PTE) and its TLB.

    Real x86 tables are 4-level radix trees; a flat dict preserves the
    semantics (per-page translation + rights) that the reproduction needs
    while staying fast to look up.
    """

    _next_id = 0

    def __init__(self, name: str = ""):
        PageTable._next_id += 1
        self.id = PageTable._next_id
        self.name = name or f"pt{self.id}"
        self._entries: dict[int, PTE] = {}
        #: Software TLB: ``vpn * 4 + kind`` -> ``(pte, frame)``,
        #: filled by the MMU.  Cleared in place and never rebound, so a
        #: JIT trace may hoist its ``get``.
        self.tlb: dict[int, tuple] = {}
        #: Optional SMP shootdown hook ``fn(table)``, wired on
        #: multi-core machines to charge the cross-core IPI cost.  Fired
        #: by :meth:`_invalidate`: once per public edit (one IPI burst,
        #: as ``flush_tlb_mm_range``) that changed an *existing*
        #: translation, so, as on Linux, ``mmap`` costs no IPIs while
        #: ``munmap``/``mprotect`` do.
        self.shootdown = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def lookup(self, vpn: int) -> PTE | None:
        """Translate a virtual page number; ``None`` if unmapped."""
        return self._entries.get(vpn)

    def maps(self, base: int, size: int) -> bool:
        """Whether every page of ``[base, base+size)`` is mapped."""
        entries = self._entries
        return all(vpn in entries for vpn in pages_spanned(base, size))

    def _invalidate(self, vpns) -> None:
        """One edit changed the existing translations of ``vpns``: drop
        their entries of every kind from the TLB and fire the shootdown
        hook."""
        tlb = self.tlb
        for vpn in vpns:
            key = vpn * 4   # the kinds r, w, x are keys key .. key + 2
            tlb.pop(key, None)
            tlb.pop(key + 1, None)
            tlb.pop(key + 2, None)
        if self.shootdown is not None:
            self.shootdown(self)

    def map_page(self, vpn: int, pte: PTE) -> None:
        stale = vpn in self._entries
        self._entries[vpn] = pte
        if stale:
            self._invalidate((vpn,))

    def map_range(self, base: int, size: int, pfns: list[int], perms: Perm,
                  pkey: int = 0, user: bool = True, present: bool = True) -> None:
        """Map ``[base, base+size)`` onto consecutive entries of ``pfns``."""
        vpns = pages_spanned(base, size)
        if len(vpns) != len(pfns):
            raise ConfigError(
                f"map_range: {len(vpns)} pages but {len(pfns)} frames")
        entries = self._entries
        stale = [vpn for vpn in vpns if vpn in entries]
        perms = int(perms)
        for vpn, pfn in zip(vpns, pfns):
            entries[vpn] = PTE(pfn, perms, pkey, present, user)
        if stale:
            self._invalidate(stale)

    def unmap_page(self, vpn: int) -> None:
        if self._entries.pop(vpn, None) is not None:
            self._invalidate((vpn,))

    def unmap_range(self, base: int, size: int) -> None:
        entries = self._entries
        stale = [vpn for vpn in pages_spanned(base, size)
                 if entries.pop(vpn, None) is not None]
        if stale:
            self._invalidate(stale)

    def _update(self, vpns, perms: int | None = None,
                pkey: int | None = None, present: bool | None = None) -> int:
        """Map a new entry for each of the mapped ``vpns``, keeping every
        field not given, then drop their TLB entries once; returns how
        many (the caller charges simulated time per edited entry).  The
        constructor checks ``pkey``, so an illegal key raises at the
        first entry, before any is stored."""
        entries = self._entries
        for vpn in vpns:
            pte = entries[vpn]
            entries[vpn] = PTE(pte.pfn,
                               pte.perms if perms is None else perms,
                               pte.pkey if pkey is None else pkey,
                               pte.present if present is None else present,
                               pte.user)
        if vpns:
            self._invalidate(vpns)
        return len(vpns)

    def _update_range(self, base: int, size: int, **changes) -> int:
        """:meth:`_update` a range, all or nothing: a range that is not
        fully mapped raises before any edit."""
        if not self.maps(base, size):
            raise ConfigError(
                f"update of unmapped range {base:#x}+{size:#x}")
        return self._update(pages_spanned(base, size), **changes)

    def protect_range(self, base: int, size: int, perms: Perm) -> int:
        return self._update_range(base, size, perms=int(perms))

    def set_pkey_range(self, base: int, size: int, pkey: int) -> int:
        return self._update_range(base, size, pkey=pkey)

    def set_present_range(self, base: int, size: int, present: bool) -> int:
        return self._update_range(base, size, present=present)

    def revoke_all(self) -> int:
        """Clear the present bit of every mapping (quarantine hard-revoke
        of a per-environment table).  Returns the PTEs updated."""
        return self._update([vpn for vpn, pte in self._entries.items()
                             if pte.present], present=False)

    def present_vpns(self) -> frozenset[int]:
        """The vpns currently mapped present.  ``revoke_all`` destroys
        this information, so a revivable quarantine must snapshot it
        first (see ``Backend.unquarantine``)."""
        return frozenset(vpn for vpn, pte in self._entries.items()
                         if pte.present)

    def restore_present(self, vpns: frozenset[int]) -> int:
        """Re-set the present bit on every still-mapped vpn of a
        ``present_vpns`` snapshot (quarantine revival).  Returns the
        PTEs updated."""
        entries = self._entries
        return self._update([vpn for vpn in vpns if vpn in entries
                             and not entries[vpn].present], present=True)

    def mapped_vpns(self) -> list[int]:
        return sorted(self._entries)

    def translate_addr(self, vaddr: int) -> tuple[PTE | None, int]:
        """Return (pte, physical address) for ``vaddr``; pte may be None."""
        vpn, off = divmod(vaddr, PAGE_SIZE)
        pte = self._entries.get(vpn)
        if pte is None:
            return None, 0
        return pte, pte.pfn * PAGE_SIZE + off
