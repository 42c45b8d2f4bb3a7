"""Simulated physical memory: a pool of 4 KiB frames."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.pages import PAGE_SIZE


class PhysicalMemory:
    """Frame-granular physical memory.

    Frames are allocated on demand; storage for a frame is a
    ``bytearray(PAGE_SIZE)``.  Physical addresses are
    ``frame_number * PAGE_SIZE + offset``.
    """

    def __init__(self, max_frames: int = 1 << 22):
        self._frames: dict[int, bytearray] = {}
        self._free: list[int] = []
        self._next_frame = 1  # frame 0 reserved (null)
        self._max_frames = max_frames

    def alloc_frame(self) -> int:
        """Allocate a zeroed frame, returning its frame number."""
        if self._free:
            pfn = self._free.pop()
        else:
            if self._next_frame >= self._max_frames:
                raise ConfigError("simulated physical memory exhausted")
            pfn = self._next_frame
            self._next_frame += 1
        self._frames[pfn] = bytearray(PAGE_SIZE)
        return pfn

    def frames_left(self) -> int:
        """How many more frames :meth:`alloc_frame` can hand out."""
        return len(self._free) + self._max_frames - self._next_frame

    def free_frame(self, pfn: int) -> None:
        if pfn not in self._frames:
            raise ConfigError(f"double free of frame {pfn}")
        del self._frames[pfn]
        self._free.append(pfn)

    def frame(self, pfn: int) -> bytearray:
        try:
            return self._frames[pfn]
        except KeyError:
            raise ConfigError(f"access to unallocated frame {pfn}") from None

    # Byte-level access by physical address.  These are *not* permission
    # checked: permission checks belong to the MMU, which resolves a
    # virtual access to (pfn, offset) pairs first.

    def read(self, paddr: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            pfn, off = divmod(paddr, PAGE_SIZE)
            chunk = min(size, PAGE_SIZE - off)
            out += self.frame(pfn)[off:off + chunk]
            paddr += chunk
            size -= chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        pos = 0
        remaining = len(data)
        while remaining > 0:
            pfn, off = divmod(paddr, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - off)
            self.frame(pfn)[off:off + chunk] = data[pos:pos + chunk]
            paddr += chunk
            pos += chunk
            remaining -= chunk
