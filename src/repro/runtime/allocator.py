"""Go-style span allocator with per-package arenas (paper §5.1 Runtime).

"Go's dynamic memory allocator divides the heap into class-size
sections, called spans ... The enclosure-extension adds a level of
indirection by dynamically assigning spans to packages' arenas.  After
adding a span to a given arena, the runtime calls LitterBox's
Transfer."

Spans are 4 pages (the granularity of Table 1's transfer benchmark).
Freed spans return to a central free list and may be reused by *any*
package — each reuse triggers another Transfer, which is exactly the
cost the bild macrobenchmark exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.litterbox import LitterBox
from repro.errors import ConfigError
from repro.hw.clock import COSTS
from repro.hw.pages import PAGE_SIZE
from repro.os.syscalls import SYS_MMAP

SPAN_PAGES = 4
SPAN_SIZE = SPAN_PAGES * PAGE_SIZE

#: Size classes, Go-style; larger objects get dedicated page runs.
SIZE_CLASSES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def size_class_of(size: int) -> int | None:
    for cls in SIZE_CLASSES:
        if size <= cls:
            return cls
    return None


@dataclass
class Span:
    """A contiguous run of heap pages serving one size class."""

    base: int
    size: int
    size_class: int      # 0 for large-object spans
    owner: str = ""
    cursor: int = 0

    def remaining(self) -> int:
        return self.size - self.cursor

    def bump(self, amount: int) -> int:
        addr = self.base + self.cursor
        self.cursor += amount
        return addr


@dataclass
class Allocator:
    """The runtime allocator; one instance per machine."""

    litterbox: LitterBox
    #: pkg -> size class -> active span
    _active: dict[str, dict[int, Span]] = field(default_factory=dict)
    #: pkg -> dedicated large-object span runs (size class 0).  Tracked
    #: so recycle_package can reclaim a package's *whole* arena — a
    #: hoarder's dedicated runs must not outlive its eviction.
    _large: dict[str, list[Span]] = field(default_factory=dict)
    _free_spans: list[Span] = field(default_factory=list)
    spans_created: int = 0
    bytes_allocated: int = 0
    #: Optional per-enclosure quota table (machine-wired); ``None``
    #: keeps every span grab quota-free and bit-identical.
    quota: object | None = None
    #: Observer bus (repro.obs), machine-wired: recycle_package
    #: reports the bytes it reclaimed.
    obs: object | None = None

    def alloc(self, pkg: str, size: int) -> int:
        """Allocate ``size`` bytes inside ``pkg``'s arena."""
        if size <= 0:
            raise ConfigError(f"allocation of {size} bytes")
        size = (size + 7) & ~7  # word alignment
        self.bytes_allocated += size
        cls = size_class_of(size)
        clock = self.litterbox.clock
        if cls is None:
            # Large object: a dedicated span run, transferred directly.
            pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
            span = self._grab_span(pkg, pages, size_class=0)
            self._large.setdefault(pkg, []).append(span)
            clock.charge(COSTS.ALLOC_SLOW)
            return span.bump(size)
        arena = self._active.setdefault(pkg, {})
        span = arena.get(cls)
        if span is None or span.remaining() < cls:
            span = self._grab_span(pkg, SPAN_PAGES, cls)
            arena[cls] = span
            clock.charge(COSTS.ALLOC_SLOW)
        else:
            clock.charge(COSTS.ALLOC_FAST)
        return span.bump(cls)

    def _grab_span(self, pkg: str, pages: int, size_class: int) -> Span:
        """Take a span from the free list or mmap a fresh one, then
        Transfer it into ``pkg``'s arena."""
        if self.quota is not None:
            # Charged before the span is acquired, so an overrun leaves
            # the free list and the arena untouched (QuotaFault).
            self.quota.charge_span(pkg)
        span = None
        for index, candidate in enumerate(self._free_spans):
            if candidate.size == pages * PAGE_SIZE:
                span = self._free_spans.pop(index)
                break
        if span is None:
            base = self.litterbox.kernel.syscall(
                SYS_MMAP, (0, pages * PAGE_SIZE, 3, 0), None, pkru=0)
            if base < 0:
                raise ConfigError("heap mmap failed")
            span = Span(base, pages * PAGE_SIZE, size_class)
            self.spans_created += 1
        span.size_class = size_class
        span.cursor = 0
        span.owner = pkg
        self.litterbox.transfer(span.base, span.size, pkg)
        return span

    def recycle_package(self, pkg: str) -> int:
        """Release all of ``pkg``'s active spans to the central free list
        (they can be re-Transferred to any package later).  Returns the
        number of recycled spans."""
        arena = self._active.pop(pkg, None) or {}
        spans = list(arena.values()) + self._large.pop(pkg, [])
        if not spans:
            return 0
        count = 0
        reclaimed_bytes = 0
        for span in spans:
            span.owner = ""
            span.cursor = 0
            self._free_spans.append(span)
            count += 1
            reclaimed_bytes += span.size
        if self.quota is not None:
            self.quota.release_spans(pkg, count)
        if self.obs is not None:
            self.obs.on_reclaimed(pkg, reclaimed_bytes)
        return count

    def arena_spans(self, pkg: str) -> list[Span]:
        return (list(self._active.get(pkg, {}).values())
                + list(self._large.get(pkg, ())))
