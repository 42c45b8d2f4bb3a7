"""Page-size constants, permission flags, and memory sections.

A *section* is the paper's §4.1 abstraction: a contiguous, page-aligned
virtual memory region characterized by its start address, size, and
default access rights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1


def page_align_down(addr: int) -> int:
    return addr & ~PAGE_MASK


def page_align_up(addr: int) -> int:
    return (addr + PAGE_MASK) & ~PAGE_MASK


def is_page_aligned(addr: int) -> bool:
    return (addr & PAGE_MASK) == 0


def vpn_of(addr: int) -> int:
    return addr >> PAGE_SHIFT


def pages_spanned(addr: int, size: int) -> range:
    """Virtual page numbers covered by ``[addr, addr+size)``."""
    if size <= 0:
        return range(0)
    return range(vpn_of(addr), vpn_of(addr + size - 1) + 1)


class Perm(enum.IntFlag):
    """Access rights, combinable like Unix permission bits."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X

    def label(self) -> str:
        text = "".join(
            flag if self & bit else "-"
            for flag, bit in (("r", Perm.R), ("w", Perm.W), ("x", Perm.X))
        )
        return text


@dataclass(frozen=True)
class Section:
    """A contiguous, page-aligned virtual memory region.

    Attributes:
        name: diagnostic label, e.g. ``"bild.text"``.
        base: start virtual address (page aligned).
        size: size in bytes (page aligned, > 0).
        perms: default access rights for the section.
    """

    name: str
    base: int
    size: int
    perms: Perm

    def __post_init__(self) -> None:
        if not is_page_aligned(self.base):
            raise ConfigError(f"section {self.name}: base {self.base:#x} not page-aligned")
        if self.size <= 0 or not is_page_aligned(self.size):
            raise ConfigError(f"section {self.name}: size {self.size:#x} not page-aligned")

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def num_pages(self) -> int:
        return self.size // PAGE_SIZE

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def overlaps(self, other: "Section") -> bool:
        return self.base < other.end and other.base < self.end

    def vpns(self) -> range:
        return range(vpn_of(self.base), vpn_of(self.end - 1) + 1)

    def describe(self) -> str:
        return f"{self.name} [{self.base:#x}-{self.end:#x}) {self.perms.label()}"


def check_disjoint(sections: list[Section]) -> None:
    """Validate that no two sections overlap (paper §2.3: packages cannot
    share memory pages).  Raises :class:`ConfigError` on violation."""
    ordered = sorted(sections, key=lambda s: s.base)
    for left, right in zip(ordered, ordered[1:]):
        if left.overlaps(right):
            raise ConfigError(
                f"sections overlap: {left.describe()} and {right.describe()}"
            )
