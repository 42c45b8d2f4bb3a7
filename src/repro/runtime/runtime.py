"""Runtime services reachable from compiled code via RTCALL.

These model the parts of a Go-like runtime that are linked into every
binary: the allocator entry point (``mallocgc``), goroutine creation,
channels, and string/slice helpers.  Helpers act *on behalf of* the
calling code: every read or write of user-visible data goes through the
caller's translation context, so a string concatenation inside an
enclosure faults if either operand lies outside its memory view.
Only allocator/scheduler metadata is runtime-private (trusted), exactly
as in the paper's threat model.
"""

from __future__ import annotations

import enum
import struct

from repro.errors import Fault, WouldBlock
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.pages import PAGE_MASK, PAGE_SIZE
from repro.os.syscalls import SYS_WRITE
from repro.runtime.allocator import Allocator
from repro.runtime.channels import ChannelTable
from repro.runtime.scheduler import Scheduler


class RT(enum.IntEnum):
    """Runtime service numbers for the RTCALL instruction."""

    ALLOC = 1          # (pkg_id, size) -> addr
    GO = 2             # (fn_addr, argc, *args) -> 0
    CHAN_NEW = 3       # (capacity) -> handle
    CHAN_SEND = 4      # (handle, value) -> 0
    CHAN_RECV = 5      # (handle) -> value
    CHAN_CLOSE = 6     # (handle) -> 0
    CHAN_LEN = 7       # (handle) -> buffered count
    STR_CONCAT = 10    # (pkg_id, a, b) -> addr
    STR_EQ = 11        # (a, b) -> 0/1
    STR_CMP = 12       # (a, b) -> -1/0/1
    STR_SUB = 13       # (pkg_id, s, lo, hi) -> addr
    STR_AT = 14        # (s, i) -> byte
    STR_FROM_BYTES = 15  # (pkg_id, ptr, len) -> addr
    ITOA = 16          # (pkg_id, n) -> addr
    ATOI = 17          # (s) -> int
    PRINT = 18         # (s) -> bytes written (write syscall to stdout)
    SLICE_NEW = 20     # (pkg_id, elem_size, len, cap) -> desc addr
    SLICE_APPEND = 21  # (pkg_id, desc, elem_size, value) -> desc
    SLICE_AT = 22      # (desc, elem_size, i) -> value
    SLICE_PUT = 23     # (desc, elem_size, i, value) -> 0
    STR_FROM_SLICE = 24  # (pkg_id, desc) -> string addr
    SLICE_FROM_STR = 25  # (pkg_id, s) -> []byte desc addr
    SLICE_COPY = 26    # (dst_desc, src_desc, elem_size) -> copied count
    PANIC = 30         # (code) -> aborts
    METRICS = 31       # (pkg_id) -> string addr (metrics exposition)


# String layout: [len:i64][bytes].  Slice descriptor: [data,len,cap].
STR_HEADER = 8
SLICE_DESC = 24
_DESC = struct.Struct("<qqq")


def read_string(mmu: MMU, ctx: TranslationContext, addr: int) -> bytes:
    length = mmu.read_word(ctx, addr, charge=False)
    if length < 0 or length > (1 << 32):
        raise Fault("arith", f"corrupt string header at {addr:#x}")
    return mmu.read(ctx, addr + STR_HEADER, length, charge=False)


class Runtime:
    """Dispatch target for the RTCALL instruction."""

    def __init__(self, mmu: MMU, allocator: Allocator, scheduler: Scheduler,
                 channels: ChannelTable, pkg_names: list[str]):
        self.mmu = mmu
        self.clock = mmu.clock
        self.allocator = allocator
        self.scheduler = scheduler
        self.channels = channels
        self.pkg_names = pkg_names
        #: Wired by the machine when metrics are on: () -> exposition
        #: text.  ``None`` makes RT.METRICS return the empty string, so
        #: a metrics-built image still runs with metrics disabled.
        self.metrics_renderer = None
        #: Service-number-indexed dispatch table (None = unknown).
        self._handlers = [None] * (max(self._HANDLER_NAMES) + 1)
        for service, name in self._HANDLER_NAMES.items():
            self._handlers[service] = getattr(self, name)

    # -- helpers shared with the machine ----------------------------------

    def pkg_name(self, pkg_id: int) -> str:
        try:
            return self.pkg_names[pkg_id]
        except IndexError:
            raise Fault("exec", f"bad package id {pkg_id}") from None

    def new_string(self, ctx: TranslationContext, pkg: str,
                   data: bytes) -> int:
        addr = self.allocator.alloc(pkg, STR_HEADER + max(1, len(data)))
        self.mmu.write_word(ctx, addr, len(data), charge=False)
        if data:
            self.mmu.write(ctx, addr + STR_HEADER, data, charge=False)
        self.clock.charge(COSTS.MEM_BYTE * len(data))
        return addr

    # -- dispatch ----------------------------------------------------------
    # One bound method per service, indexed by service number.  The
    # table replaces the historical if-chain: RTCALL frequency in the
    # macro workloads made the ~20 comparisons ahead of the slice
    # services a measurable share of wall time.  Handlers are ordinary
    # methods so subclasses and tests can still override them; the
    # table binds per-instance in ``__init__``.

    def dispatch(self, cpu: CPU, service: int, args: tuple[int, ...]) -> int:
        handler = (self._handlers[service]
                   if 0 <= service < len(self._handlers) else None)
        if handler is None:
            raise Fault("exec", f"unknown runtime service {service}")
        return handler(cpu, args)

    def _rt_alloc(self, cpu: CPU, args) -> int:
        pkg_id, size = args
        return self.allocator.alloc(self.pkg_name(pkg_id), size)

    def _rt_go(self, cpu: CPU, args) -> int:
        fn_addr, argc = args[0], args[1]
        self.scheduler.spawn(fn_addr, tuple(args[2:2 + argc]))
        return 0

    def _rt_chan_new(self, cpu: CPU, args) -> int:
        return self.channels.new(args[0])

    def _rt_chan_send(self, cpu: CPU, args) -> int:
        self.channels.send(args[0], args[1])
        return 0

    def _rt_chan_recv(self, cpu: CPU, args) -> int:
        return self.channels.recv(args[0])

    def _rt_chan_close(self, cpu: CPU, args) -> int:
        self.channels.close(args[0])
        return 0

    def _rt_chan_len(self, cpu: CPU, args) -> int:
        return self.channels.pending(args[0])

    def _rt_str_concat(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        pkg_id, a, b = args
        data = read_string(mmu, ctx, a) + read_string(mmu, ctx, b)
        self.clock.charge(COSTS.MEM_BYTE * len(data))
        return self.new_string(ctx, self.pkg_name(pkg_id), data)

    def _rt_str_eq(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        a, b = args
        return 1 if read_string(mmu, ctx, a) == read_string(mmu, ctx, b) \
            else 0

    def _rt_str_cmp(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        left = read_string(mmu, ctx, args[0])
        right = read_string(mmu, ctx, args[1])
        return -1 if left < right else (1 if left > right else 0)

    def _rt_str_sub(self, cpu: CPU, args) -> int:
        ctx = cpu.ctx
        pkg_id, s, lo, hi = args
        data = read_string(self.mmu, ctx, s)
        if not 0 <= lo <= hi <= len(data):
            raise Fault("arith", f"substring bounds [{lo}:{hi}] "
                                 f"of {len(data)}-byte string")
        return self.new_string(ctx, self.pkg_name(pkg_id), data[lo:hi])

    def _rt_str_at(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        s, index = args
        length = mmu.read_word(ctx, s, charge=False)
        if not 0 <= index < length:
            raise Fault("arith", f"string index {index} out of "
                                 f"range [0,{length})")
        return mmu.read_byte(ctx, s + STR_HEADER + index)

    def _rt_str_from_bytes(self, cpu: CPU, args) -> int:
        ctx = cpu.ctx
        pkg_id, ptr, length = args
        data = self.mmu.read(ctx, ptr, length, charge=False)
        self.clock.charge(COSTS.MEM_BYTE * length)
        return self.new_string(ctx, self.pkg_name(pkg_id), data)

    def _rt_itoa(self, cpu: CPU, args) -> int:
        pkg_id, value = args
        return self.new_string(cpu.ctx, self.pkg_name(pkg_id),
                               str(value).encode())

    def _rt_metrics(self, cpu: CPU, args) -> int:
        renderer = self.metrics_renderer
        text = renderer() if renderer is not None else ""
        return self.new_string(cpu.ctx, self.pkg_name(args[0]),
                               text.encode())

    def _rt_atoi(self, cpu: CPU, args) -> int:
        data = read_string(self.mmu, cpu.ctx, args[0])
        try:
            return int(data.strip() or b"0")
        except ValueError:
            return 0

    def _rt_print(self, cpu: CPU, args) -> int:
        length = self.mmu.read_word(cpu.ctx, args[0], charge=False)
        return cpu.syscall_handler(
            cpu, SYS_WRITE, (1, args[0] + STR_HEADER, length))

    def _rt_slice_new(self, cpu: CPU, args) -> int:
        return self._slice_new(cpu.ctx, *args)

    def _rt_slice_append(self, cpu: CPU, args) -> int:
        return self._slice_append(cpu.ctx, *args)

    # The two slice hot paths each open-code the bounds check (same
    # fault text) — indexed element access is the most frequent
    # runtime service in the macro workloads.

    def _rt_slice_at(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        desc, elem_size, index = args
        data, length, _ = self._read_desc(ctx, desc)
        if not 0 <= index < length:
            raise Fault("arith",
                        f"slice index {index} out of range [0,{length})")
        addr = data + index * elem_size
        return (mmu.read_byte(ctx, addr) if elem_size == 1
                else mmu.read_word(ctx, addr))

    def _rt_slice_put(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        desc, elem_size, index, value = args
        data, length, _ = self._read_desc(ctx, desc)
        if not 0 <= index < length:
            raise Fault("arith",
                        f"slice index {index} out of range [0,{length})")
        addr = data + index * elem_size
        if elem_size == 1:
            mmu.write_byte(ctx, addr, value)
        else:
            mmu.write_word(ctx, addr, value)
        return 0

    def _rt_str_from_slice(self, cpu: CPU, args) -> int:
        ctx, mmu = cpu.ctx, self.mmu
        pkg_id, desc = args
        data, length, _ = self._read_desc(ctx, desc)
        blob = mmu.read(ctx, data, length, charge=False)
        self.clock.charge(COSTS.MEM_BYTE * length)
        return self.new_string(ctx, self.pkg_name(pkg_id), blob)

    def _rt_slice_from_str(self, cpu: CPU, args) -> int:
        ctx = cpu.ctx
        pkg_id, s = args
        blob = read_string(self.mmu, ctx, s)
        desc = self._slice_new(ctx, pkg_id, 1, len(blob), max(1, len(blob)))
        data, _, _ = self._read_desc(ctx, desc)
        if blob:
            self.mmu.write(ctx, data, blob, charge=False)
        self.clock.charge(COSTS.MEM_BYTE * len(blob))
        return desc

    def _rt_slice_copy(self, cpu: CPU, args) -> int:
        ctx = cpu.ctx
        dst_desc, src_desc, elem_size = args
        dst, dst_len, _ = self._read_desc(ctx, dst_desc)
        src, src_len, _ = self._read_desc(ctx, src_desc)
        count = min(dst_len, src_len)
        if count > 0:
            self.mmu.memcpy(ctx, dst, src, count * elem_size)
        return count

    def _rt_panic(self, cpu: CPU, args) -> int:
        raise Fault("exec", f"panic({args[0]})")

    _HANDLER_NAMES = {
        RT.ALLOC: "_rt_alloc", RT.GO: "_rt_go",
        RT.CHAN_NEW: "_rt_chan_new", RT.CHAN_SEND: "_rt_chan_send",
        RT.CHAN_RECV: "_rt_chan_recv", RT.CHAN_CLOSE: "_rt_chan_close",
        RT.CHAN_LEN: "_rt_chan_len", RT.STR_CONCAT: "_rt_str_concat",
        RT.STR_EQ: "_rt_str_eq", RT.STR_CMP: "_rt_str_cmp",
        RT.STR_SUB: "_rt_str_sub", RT.STR_AT: "_rt_str_at",
        RT.STR_FROM_BYTES: "_rt_str_from_bytes", RT.ITOA: "_rt_itoa",
        RT.ATOI: "_rt_atoi", RT.PRINT: "_rt_print",
        RT.SLICE_NEW: "_rt_slice_new", RT.SLICE_APPEND: "_rt_slice_append",
        RT.SLICE_AT: "_rt_slice_at", RT.SLICE_PUT: "_rt_slice_put",
        RT.STR_FROM_SLICE: "_rt_str_from_slice",
        RT.SLICE_FROM_STR: "_rt_slice_from_str",
        RT.SLICE_COPY: "_rt_slice_copy", RT.PANIC: "_rt_panic",
        RT.METRICS: "_rt_metrics",
    }

    # -- slices -------------------------------------------------------------

    def _slice_new(self, ctx, pkg_id: int, elem_size: int, length: int,
                   cap: int) -> int:
        if elem_size not in (1, 8):
            raise Fault("exec", f"unsupported element size {elem_size}")
        if length < 0 or cap < length:
            raise Fault("arith", f"make([]T, {length}, {cap})")
        pkg = self.pkg_name(pkg_id)
        cap = max(cap, 1)
        desc = self.allocator.alloc(pkg, SLICE_DESC)
        data = self.allocator.alloc(pkg, cap * elem_size)
        mmu = self.mmu
        mmu.write(ctx, data, bytes(cap * elem_size), charge=False)
        self.clock.charge(COSTS.MEM_BYTE * cap * elem_size)
        mmu.write(ctx, desc, struct.pack("<qqq", data, length, cap),
                  charge=False)
        return desc

    def _read_desc(self, ctx, desc: int) -> tuple[int, int, int]:
        # Single-page descriptors (the overwhelmingly common case — the
        # allocator 8-aligns the 24-byte block) unpack straight from
        # the frame, skipping ``mmu.read``'s bytes copy.  Same single
        # ``_access`` as the generic path, so checks, faults, and perf
        # counters are unchanged.
        offset = desc & PAGE_MASK
        if offset + SLICE_DESC <= PAGE_SIZE:
            return _DESC.unpack_from(self.mmu.read_frame(ctx, desc), offset)
        raw = self.mmu.read(ctx, desc, SLICE_DESC, charge=False)
        return _DESC.unpack(raw)

    def _slice_append(self, ctx, pkg_id: int, desc: int, elem_size: int,
                      value: int) -> int:
        mmu = self.mmu
        data, length, cap = self._read_desc(ctx, desc)
        if length == cap:
            new_cap = max(4, cap * 2)
            new_data = self.allocator.alloc(
                self.pkg_name(pkg_id), new_cap * elem_size)
            old = mmu.read(ctx, data, length * elem_size, charge=False)
            mmu.write(ctx, new_data, old, charge=False)
            mmu.write(ctx, new_data + len(old),
                      bytes((new_cap - length) * elem_size), charge=False)
            self.clock.charge(COSTS.MEM_BYTE * new_cap * elem_size)
            data, cap = new_data, new_cap
        addr = data + length * elem_size
        if elem_size == 1:
            mmu.write_byte(ctx, addr, value)
        else:
            mmu.write_word(ctx, addr, value)
        mmu.write(ctx, desc, struct.pack("<qqq", data, length + 1, cap),
                  charge=False)
        return desc
