"""Simulated page tables, each with the software TLB of its translations.

A :class:`PageTable` maps virtual page numbers to :class:`PTE` entries.
PTEs carry access rights, a user/supervisor bit, a presence bit, and —
as on MPK-capable x86 — a 4-bit protection key.

Only this module edits a translation, so only it decides staleness: an
edit that changes existing translations drops exactly their TLB
entries, an EPT edit drops the TLBs filled through it, and a fresh
mapping drops nothing (a denied translation is never cached).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.hw.pages import PAGE_SIZE, Perm, pages_spanned


@dataclass(frozen=True)
class PTE:
    """A page-table entry."""

    pfn: int
    perms: Perm
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
    while staying fast to clone, which LitterBox's VT-x backend does once
    per execution environment.
    """

    _next_id = 0

    def __init__(self, name: str = ""):
        PageTable._next_id += 1
        self.id = PageTable._next_id
        self.name = name or f"pt{self.id}"
        self._entries: dict[int, PTE] = {}
        #: Software TLB: ``vpn * 4 + kind`` -> ``(pte, frame, ept)``,
        #: filled by the MMU.  Cleared in place and never rebound, so a
        #: JIT trace may hoist its ``get``.
        self.tlb: dict[int, tuple] = {}
        #: The tables whose TLB holds an entry filled through this one
        #: as their EPT; an edit of this table clears their TLBs.
        self.guests: set[PageTable] = set()
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
        their entries of every kind from the TLB, clear the TLB of each
        table filled through this one, and fire the shootdown hook."""
        tlb = self.tlb
        for vpn in vpns:
            key = vpn * 4   # the kinds r, w, x are keys key .. key + 2
            tlb.pop(key, None)
            tlb.pop(key + 1, None)
            tlb.pop(key + 2, None)
        for guest in self.guests:
            guest.tlb.clear()
        self.guests.clear()
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

    def _update(self, vpns, **changes) -> int:
        """Apply field changes to the mapped ``vpns``' PTEs; returns how
        many (the caller charges simulated time per updated entry)."""
        entries = self._entries
        for vpn in vpns:
            entries[vpn] = replace(entries[vpn], **changes)
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
        return self._update_range(base, size, perms=perms)

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

    def clone(self, name: str = "") -> "PageTable":
        """Copy this table's mappings (not its TLB); used to derive
        per-environment tables."""
        table = PageTable(name)
        table._entries = dict(self._entries)
        return table

    def mapped_vpns(self) -> list[int]:
        return sorted(self._entries)

    def translate_addr(self, vaddr: int) -> tuple[PTE | None, int]:
        """Return (pte, physical address) for ``vaddr``; pte may be None."""
        vpn, off = divmod(vaddr, PAGE_SIZE)
        pte = self._entries.get(vpn)
        if pte is None:
            return None, 0
        return pte, pte.pfn * PAGE_SIZE + off
