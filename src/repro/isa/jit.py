"""Trace-JIT: compile hot golite regions to generated Python.

PR 4's superinstruction fusion still pays one Python-level dispatch per
(fused) instruction.  This module removes that cost for hot code.  At
load time every *leader* — a section start, a branch target, the
successor of a branch or of a non-simple op — gets a cold entry; once a
leader has been dispatched :data:`JIT_THRESHOLD` times, the compiler
builds its *forward region* and compiles it into one generated Python
function that :meth:`Interpreter.run_slice` calls instead of
dispatching.  A forward region is every dispatch group reachable from
the leader along forward edges inside its code page and function; an
edge back to the leader closes it into a loop, so a loop body with
``if``/``else`` arms, ``&&`` chains and ``break`` statements runs as
one trace that retires many passes per call.  Regions may also contain
runtime calls — CHAN_SEND/RECV as guarded calls, pure services inlined
as one dispatch, and SLICE_AT/SLICE_PUT with the stock handlers'
descriptor-read and element-access fast paths flattened directly into
the trace.

The contract is the same one every fast path in this repo has met:
**every simulated value is bit-identical with the JIT on or off.**  The
generated code performs the exact same sequence of individual float
adds to ``clock.now_ns`` (accumulation order is part of bit-identity;
the trace accumulates in a local ``now`` and stores back at every
point another component can observe the clock), the same MMU/TLB
checks with the same fallbacks, and the same perf counter increments
(batched where addition commutes).  Three mechanisms make that hold at
every observable point:

* **Region shape.**  Regions contain only simple ops (stack shuffling,
  locals, absolute loads/stores, ALU, member RTCALLs) and branches
  whose internal edges all point forward.  Nothing inside a region can
  switch environments or leave the code page, so the only early exits
  are faults and channel ``WouldBlock`` (whose stack-restore retry
  runs through the same ``_guarded`` helper the interpreter uses).
  Every group has one stack depth on every path into it, and a pass
  never starts unless the region's *longest* pass fits the remaining
  slice budget, so a trace never crosses a slice boundary.
* **Guards, not checks-per-op.**  Entry guards — run_slice refuses to
  enter a region when the remaining slice budget or operand-stack
  depth is insufficient, and the trace itself refuses (returns a
  negative code, nothing observable done; :data:`GUARDS` names each)
  when the frame's locals span a page, the fault injector is armed
  (its MMU hook is attached only then), the TLB can't prevalidate the
  locals page, or a slice-specialized trace meets a non-stock rtcall
  handler — plus a per-call prevalidation of the frame's locals page
  hoist the per-access work.  The frame slots the region names live in
  Python locals between one load of their span at entry and one
  write-back at the exit; every other access that can reach that page
  (an open-coded access to its frame, or a call that touches memory
  without handing the trace a frame) writes them back first and, after
  a write or a call, reloads them (see :class:`_Slots`).  The trace
  protocol is ``fn(interp, cpu, left) -> int``: a positive return is
  the architectural instructions retired; anything else means the
  interpreter executes the region instruction-by-instruction — a pure
  wall-clock *deopt*, never a semantic difference, because the
  interpreter is the reference.
* **Precise fault deopt.**  ``cpu.pc`` is synced before every
  instruction that can fault (memory ops, DIV/MOD, MEMCPY, RTCALL), so
  a fault observes the same pc and accumulated sim-ns as interpreted
  execution.  A trace keeps the operand stack in Python locals, so its
  ``except`` hook first selects on that pc and puts back the operands
  the interpreter would have left — those below the faulting
  instruction's own, which stay popped; a ``_guarded`` channel call
  gets nothing put back, because the trace wrote the whole stack back
  before the call and ``_guarded`` restored or consumed it.  The hook
  then flushes the clock and counter tallies, writes the stored frame
  slots back (the interpreter's STORELs before the fault reached
  memory), and re-raises after
  :meth:`Interpreter._jit_fault` replays the per-dispatch-group
  ``op_counts`` and slice accounting the interpreter would have
  recorded from the trace's per-block pass counts (a dispatch whose
  handler raises is *not* counted in ``slice_executed`` — fused pairs
  included — and the JIT reproduces exactly that).

Regions are built along *dispatch groups* (a fused pair is one group):
``op_counts`` batching credits the fused pseudo-op slots, and the
profiled variant drains the sampling profiler at group boundaries with
the group-start pc — both exactly what ``run_slice`` does with a
profiler attached.  A region and its trace depend only on the image's
code and on whether the interpreter has a profiler, which is fixed for
its life, so they are built once per linked image: the machine hands
its :class:`JitCompiler` the image's memo, and every machine built from
that image links the same function.

A trace encodes no policy.  Each call hoists the context, PKRU and the
installed table's TLB lookup, and every access passes :func:`_hit`, the
hit test of ``MMU._access``, so a CR3 write or a PKRU change made
between two calls (nothing inside a region makes one) reaches the next
call's first access, and a page-table edit has already dropped the
entries it changed.  A linked trace therefore stays linked
for the interpreter's life: quarantine, revival and environment switches
leave it alone.  Compiled function objects are also shared process-wide
through a cache keyed by everything :func:`gen_source` reads from a
region (:data:`_COMPILED`), so fresh images of the same program generate
and compile each trace once per process.
"""

from __future__ import annotations

import functools
import re
import struct

from repro.errors import Fault
from repro.hw.clock import COSTS
from repro.hw.mmu import _UWORD, _WORD, wrap64
from repro.hw.pages import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.isa.instr import Instr
from repro.isa.opcodes import (
    BINARY_ALU,
    FUSED_BASE,
    INSTR_SIZE,
    JIT_OP,
    Op,
)

#: Interpreted entries of a leader before its region is built.
JIT_THRESHOLD = 8
#: Minimum architectural instructions for a region to be worth a trace.
JIT_MIN_LEN = 4

#: Ops a region may contain besides branches (never WouldBlock, never
#: leave the page except through a branch or by falling off the end).
_SIMPLE = frozenset({
    Op.NOP, Op.PUSH, Op.DROP, Op.DUP, Op.SWAP,
    Op.LOADL, Op.STOREL, Op.ADDRL,
    Op.LOAD, Op.STORE, Op.LOAD1, Op.STORE1, Op.MEMCPY,
    Op.NEG, Op.NOT,
}) | frozenset(BINARY_ALU)

#: Branches: a region group's edges come from these.
_TERM = frozenset({Op.JMP, Op.JZ, Op.JNZ})

#: Runtime services a trace may call inline, by :class:`repro.runtime.
#: runtime.RT` value (numeric to avoid an isa -> runtime import cycle).
#: The bar for membership: the service must never map/unmap/retag pages
#: or switch environments — every hoisted translation (the installed
#: table and EPT, prevalidated locals frames, PKRU) must stay valid
#: across the call.
#: That excludes every allocating service (the span-grab slow path
#: issues SYS_MMAP and a LitterBox Transfer), GO/PRINT/METRICS (kernel
#: and scheduler machinery), and PANIC (pointless to trace).
#: CHAN_SEND/CHAN_RECV may raise WouldBlock, so traces call them
#: through the interpreter's ``_guarded`` exactly as ``_op_rtcall``
#: does; the rest dispatch directly.
_RT_GUARDED = frozenset({4, 5})                # CHAN_SEND, CHAN_RECV
_RT_PURE = frozenset({6, 7,                    # CHAN_CLOSE, CHAN_LEN
                      11, 12, 14, 17,          # STR_EQ/CMP/AT, ATOI
                      22, 23, 26})             # SLICE_AT/PUT/COPY
_RT_MEMBER = _RT_GUARDED | _RT_PURE

#: Slice element access dominates RTCALL traffic in every macro
#: workload (HTTP request parsing and bild's pixel loops are both
#: byte/word indexing through a slice descriptor), so traces open-code
#: these two against the hoisted TLB state instead of dispatching.
#: Valid only while ``cpu.rtcall_handler`` is the stock
#: ``Runtime.dispatch`` — checked once per trace entry.
_RT_SLICE_AT = 22
_RT_SLICE_PUT = 23

#: A trace's return code when it declines its entry -> the
#: ``jit_deopts`` reason ``run_slice`` records.
G_LOCALS_PAGE, G_INJECTOR, G_TLB, G_RTCALL = -1, -2, -3, -4
GUARDS = {G_LOCALS_PAGE: "guard:locals-page", G_INJECTOR: "guard:injector",
          G_TLB: "guard:tlb", G_RTCALL: "guard:rtcall"}

#: Lazily resolved ``Runtime.dispatch`` (late import: repro.runtime
#: pulls in repro.isa.interp via the scheduler).
_RT_DISPATCH = None


def _runtime_dispatch():
    global _RT_DISPATCH
    if _RT_DISPATCH is None:
        from repro.runtime.runtime import Runtime
        _RT_DISPATCH = Runtime.dispatch
    return _RT_DISPATCH

#: op -> (operands required on entry, net stack delta).
_STACK_EFFECT = {
    Op.NOP: (0, 0), Op.PUSH: (0, 1), Op.DROP: (1, -1), Op.DUP: (1, 1),
    Op.SWAP: (2, 0), Op.LOADL: (0, 1), Op.STOREL: (1, -1),
    Op.ADDRL: (0, 1), Op.LOAD: (1, 0), Op.STORE: (2, -2),
    Op.LOAD1: (1, 0), Op.STORE1: (2, -2), Op.MEMCPY: (3, -3),
    Op.NEG: (1, 0), Op.NOT: (1, 0),
    Op.JMP: (0, 0), Op.JZ: (1, -1), Op.JNZ: (1, -1),
}
for _op in BINARY_ALU:
    _STACK_EFFECT[_op] = (2, -1)


def _effect(ins: Instr) -> tuple[int, int]:
    """(operands required, net stack delta) for one instruction.
    RTCALL pops ``imm2`` args and pushes one result."""
    if ins.op == Op.RTCALL:
        return ins.imm2, 1 - ins.imm2
    return _STACK_EFFECT[ins.op]

#: (data, length) prefix of the 24-byte slice descriptor (runtime ABI).
_DESC2 = struct.Struct("<qq")

_M64 = 18446744073709551615          # (1 << 64) - 1
_S63 = 9223372036854775808           # 1 << 63
_W64 = 18446744073709551616          # 1 << 64

#: Wrapping binary ALU ops -> Python expression template over the
#: operand atoms ``{a}``/``{b}``.
_ALU_EXPR = {
    Op.ADD: "{a} + {b}", Op.SUB: "{a} - {b}", Op.MUL: "{a} * {b}",
    Op.AND: "{a} & {b}", Op.OR: "{a} | {b}", Op.XOR: "{a} ^ {b}",
    Op.SHL: "{a} << ({b} & 63)", Op.SHR: f"({{a}} & {_M64}) >> ({{b}} & 63)",
}
#: Comparison ops -> Python operator.
_CMP_EXPR = {Op.EQ: "==", Op.NE: "!=", Op.LT: "<",
             Op.LE: "<=", Op.GT: ">", Op.GE: ">="}

#: Ops that read or write the frame's prevalidated locals page.
_LOCALS = (Op.LOADL, Op.STOREL)


@functools.cache
def _span(count: int) -> struct.Struct:
    """The struct that moves ``count`` consecutive frame slots."""
    return struct.Struct(f"<{count}q")


def _slot(k: int) -> str:
    """The Python local that caches frame slot ``k``."""
    return f"l{k}" if k >= 0 else f"lm{-k}"


class _Slots:
    """The frame slots a region caches in Python locals ``l<k>``.

    On entry the trace loads the span from the lowest to the highest
    slot its LOADLs and STORELs name, with one ``u<N>`` unpack from the
    prevalidated frame ``sfr``; the write-back packs the span of the
    stored slots into ``sfw`` with one ``p<M>``, gap slots as loaded.
    Every other access to the frame must see the slots as the
    interpreter would: :meth:`read` and :meth:`write` wrap an
    open-coded access to the frame ``f`` in an ``f is sfr`` test, and
    :meth:`call` wraps a call that touches memory without handing the
    trace a frame.  A region without LOADL/STOREL emits none of it."""

    __slots__ = ("used", "count", "lo", "load", "store", "names")

    def __init__(self, instrs):
        #: ``used``: the region names a slot; ``lo``/``count``: the
        #: loaded span; ``load``/``store``: the statements that load it
        #: and write the stored span back (``None`` when there is
        #: none); ``names``: the struct methods they call, for the
        #: trace's globals.
        loads = {i.imm1 for i in instrs if i.op == Op.LOADL}
        stores = {i.imm1 for i in instrs if i.op == Op.STOREL}
        used = loads | stores
        self.used = bool(used)
        self.count = 0 if not used else max(used) - min(used) + 1
        self.lo = min(used, default=0)
        self.load = self.store = None
        self.names = {}
        if not used or self.count > PAGE_SIZE // 8:
            return
        wlo, whi = (min(stores), max(stores)) if stores else (0, -1)
        cached = [k if k in used or wlo <= k <= whi else None
                  for k in range(self.lo, self.lo + self.count)]
        targets = ", ".join("_" if k is None else _slot(k) for k in cached)
        head = f"u{self.count}(sfr, sb + {8 * self.lo})"
        self.load = (f"{targets} = {head}" if self.count > 1
                     else f"{targets} = {head}[0]")
        self.names[f"u{self.count}"] = _span(self.count).unpack_from
        if stores:
            m = whi - wlo + 1
            values = ", ".join(_slot(k) for k in range(wlo, whi + 1))
            self.store = f"p{m}(sfw, sb + {8 * wlo}, {values})"
            self.names[f"p{m}"] = _span(m).pack_into

    def read(self, emit, I: str) -> None:
        """Before an open-coded read of the frame ``f``: if it is the
        locals frame, write the stored slots back first."""
        if self.store:
            emit(f"{I}if f is sfr:")
            emit(f"{I}    {self.store}")

    def write(self, emit, I: str, stmt: str) -> None:
        """The open-coded write ``stmt`` to the frame ``f``; if it is
        the locals frame, write the stored slots back, write, and
        reload the span."""
        if not self.used:
            emit(f"{I}{stmt}")
            return
        emit(f"{I}if f is sfr:")
        if self.store:
            emit(f"{I}    {self.store}")
        emit(f"{I}    {stmt}")
        emit(f"{I}    {self.load}")
        emit(f"{I}else:")
        emit(f"{I}    {stmt}")

    def call(self, emit, I: str, lines: list[str]) -> None:
        """A call (``lines``) that may read or write memory the trace
        holds no frame for: the stored slots go back before it, and the
        span is reloaded after it, whether it returns or raises (so the
        fault hook's write-back cannot undo a partial write)."""
        if not self.used:
            for line in lines:
                emit(f"{I}{line}")
            return
        emit(f"{I}try:")
        if self.store:
            emit(f"{I}    {self.store}")
        for line in lines:
            emit(f"{I}    {line}")
        emit(f"{I}finally:")
        emit(f"{I}    {self.load}")


class Region:
    """A hot leader's forward region, ready for codegen.

    ``blocks`` holds the region's blocks in pc order, block 0 starting
    at ``entry``.  A block is a list of dispatch groups ``(op_counts
    slot, pc, architectural count)`` — a fused pair is one group of two
    — that every pass entering the block runs to its end.  ``ends[b]``
    lists the edges leaving block ``b``'s last group, a branch's taken
    edge first, as ``(target pc, block id)``: block 0 marks the back
    edge to ``entry``, -1 an exit.  ``code`` maps the pc of every
    instruction in the region to its :class:`Instr`.  ``length`` is the
    longest pass, in architectural instructions, from ``entry`` to an
    exit or back edge; ``min_depth`` is the operand-stack depth the
    region needs on entry so that no pop inside it can underflow.  The
    trace pops those ``min_depth`` operands into locals on entry and
    counts its stack slots upward from the lowest of them (see
    :class:`_Stack`)."""

    __slots__ = ("entry", "blocks", "ends", "code", "length", "min_depth")

    def __init__(self, entry: int, blocks: list, ends: list, code: dict,
                 length: int, min_depth: int):
        self.entry = entry
        self.blocks = blocks
        self.ends = ends
        self.code = code
        self.length = length
        self.min_depth = min_depth


class JitEntry:
    """Placed in the interpreter's code dict at a leader's pc.

    ``op`` is :data:`JIT_OP` so the slice loop recognizes it with one
    comparison; ``orig`` is the displaced Instr/FusedInstr, dispatched
    whenever the region cannot run compiled (cold, guard failure, or
    budget/depth deopt).  ``section`` is the ``(base, instrs)`` the
    leader was registered with, from which its region is built once it
    turns hot."""

    __slots__ = ("op", "orig", "pc", "section", "region", "length",
                 "min_depth", "count", "fn")

    def __init__(self, orig, pc: int, section: tuple[int, list[Instr]]):
        self.op = JIT_OP
        self.orig = orig
        self.pc = pc
        self.section = section
        self.region = None
        self.length = 0
        self.min_depth = 0
        self.count = 0
        self.fn = None


# -- region discovery ---------------------------------------------------------


def leaders(base: int, instrs: list[Instr]) -> list[int]:
    """The pcs, ascending, where control can enter a section other than
    by falling through a simple op: the section start, every
    in-section branch/call target, and every successor of a branch or
    non-simple op."""
    n = len(instrs)
    limit = base + n * INSTR_SIZE
    found = {0}
    for i, ins in enumerate(instrs):
        op = ins.op
        if op in _TERM or op == Op.CALL:
            target = ins.imm1
            if isinstance(target, int) and base <= target < limit \
                    and (target - base) % INSTR_SIZE == 0:
                found.add((target - base) // INSTR_SIZE)
            if op != Op.CALL:
                found.add(i + 1)
        elif op not in _SIMPLE:
            found.add(i + 1)
    return [base + i * INSTR_SIZE for i in sorted(found) if i < n]


def _group(base: int, instrs: list[Instr], code: dict, pc: int):
    """The dispatch group ``code[pc]`` runs, as ``(op_counts slot,
    instructions)``, or ``None`` when it may not join a region."""
    i = (pc - base) // INSTR_SIZE
    ins = instrs[i]
    if ins.op not in _SIMPLE and ins.op not in _TERM and not (
            ins.op == Op.RTCALL and ins.imm1 in _RT_MEMBER):
        return None
    obj = code[pc]
    if isinstance(obj, JitEntry):
        obj = obj.orig
    if obj.op >= FUSED_BASE:
        # A fused pair: its first element is simple and its second
        # simple or a branch (see FUSED_PAIRS).
        return obj.op, instrs[i:i + 2]
    return int(ins.op), instrs[i:i + 1]


def build_region(base: int, instrs: list[Instr], code: dict,
                 entry: int) -> Region | None:
    """Build the forward region of the leader at ``entry`` in the
    section ``(base, instrs)``, or ``None`` if its longest pass is
    shorter than :data:`JIT_MIN_LEN`.

    A group's edges are its fall-through, its JMP target, or both
    JZ/JNZ targets.  An edge is *internal* when it goes to a higher pc
    in the entry's page and in the section, to a group that may join a
    region, reached at the stack depth every earlier edge into it had;
    an edge to ``entry`` is the *back edge* when the pass's net stack
    delta is zero; every other edge is an *exit*.  Internal edges only
    point forward, so one pass in ascending pc order sees every
    group's predecessors first: it settles each group's stack depth,
    the region's entry depth, and its longest pass.  A group then
    joins its predecessor's block when it is that predecessor's only
    successor, reached by falling through, and nothing else enters it.
    Reads ``code`` without mutating it."""
    end = min(base + len(instrs) * INSTR_SIZE,
              ((entry >> PAGE_SHIFT) + 1) << PAGE_SHIFT)
    if _group(base, instrs, code, entry) is None:
        return None
    depth_at = {entry: 0}     # pc -> operand-stack depth on entry
    dist_at = {entry: 0}      # pc -> longest path to it, in instructions
    groups = {}               # pc -> (slot, instructions, edges)
    preds: dict[int, int] = {}
    need = length = 0
    for pc in range(entry, end, INSTR_SIZE):
        if pc not in depth_at:
            continue
        depth = depth_at[pc]
        slot, group = _group(base, instrs, code, pc)
        for ins in group:
            pops, delta = _effect(ins)
            need = max(need, pops - depth)
            depth += delta
        dist = dist_at[pc] + len(group)
        last = group[-1]
        nxt = pc + len(group) * INSTR_SIZE
        if last.op == Op.JMP:
            targets = (last.imm1,)
        elif last.op in _TERM:
            targets = (last.imm1, nxt)
        else:
            targets = (nxt,)
        edges = []
        for target in targets:
            if target == entry:
                stays = depth == 0
            else:
                stays = (pc < target < end
                         and (target - base) % INSTR_SIZE == 0
                         and depth_at.get(target, depth) == depth
                         and _group(base, instrs, code, target) is not None)
                if stays:
                    depth_at[target] = depth
                    dist_at[target] = max(dist, dist_at.get(target, 0))
                    preds[target] = preds.get(target, 0) + 1
            if not stays or target == entry:
                length = max(length, dist)
            edges.append((target, stays))
        groups[pc] = (slot, group, edges)
    if length < JIT_MIN_LEN:
        return None

    blocks: list[list[tuple[int, int, int]]] = []
    block_of: dict[int, int] = {}
    last_edges: list[list] = []
    falls: dict[int, int] = {}   # pc -> block falling into it alone
    for pc, (slot, group, edges) in groups.items():
        bid = falls.get(pc) if preds.get(pc) == 1 else None
        if bid is None:
            bid = len(blocks)
            blocks.append([])
            last_edges.append([])
        blocks[bid].append((slot, pc, len(group)))
        block_of[pc] = bid
        last_edges[bid] = edges
        if group[-1].op not in _TERM and edges[0][1]:
            falls[edges[0][0]] = bid
    ends = [tuple((target, block_of[target] if stays else -1)
                  for target, stays in edges) for edges in last_edges]
    code_map = {pc + k * INSTR_SIZE: ins
                for pc, (_slot, group, _edges) in groups.items()
                for k, ins in enumerate(group)}
    return Region(entry, blocks, ends, code_map, length, need)


# -- the compiler -------------------------------------------------------------


class JitCompiler:
    """Cold entries, warm-up counting, region building and linking.

    One per :class:`~repro.isa.interp.Interpreter` (when its ``jit``
    switch is on).  :meth:`register` installs a cold entry at every
    leader; a leader that reaches the threshold gets its region and
    trace from :attr:`memo`, building them on a miss, or is handed back
    to the interpreter when no region qualifies.  A linked trace is
    never unlinked: it checks its translation state on every call (see
    the module docstring).
    """

    def __init__(self, interp):
        self.interp = interp
        self.threshold = JIT_THRESHOLD
        #: leader pc -> JitEntry (every installed entry, hot or cold).
        self.entries: dict[int, JitEntry] = {}
        #: (leader pc, fusion, profiled) -> (Region or None, trace).  A
        #: machine replaces it with its image's memo, which every
        #: machine built from that image shares.
        self.memo: dict = {}

    def register(self, base: int, instrs: list[Instr]) -> None:
        """Install a cold entry at every leader of a just-registered
        section (called by ``register_code`` after fusion)."""
        code = self.interp.code
        section = (base, instrs)
        for pc in leaders(base, instrs):
            entry = JitEntry(code[pc], pc, section)
            self.entries[pc] = entry
            code[pc] = entry

    def warm(self, entry: JitEntry) -> None:
        """Count one interpreted execution of a cold leader; link its
        trace at the threshold."""
        entry.count += 1
        if entry.count >= self.threshold:
            self.compile_entry(entry)

    def compile_entry(self, entry: JitEntry) -> None:
        """Link a hot leader's trace, building its region and trace on
        a memo miss; a leader without a region worth a trace is handed
        back to the interpreter for good."""
        interp = self.interp
        profiled = interp.profiler is not None
        key = (entry.pc, interp.fusion, profiled)
        built = self.memo.get(key)
        if built is None:
            region = build_region(*entry.section, interp.code, entry.pc)
            fn = None if region is None else compile_region(region, profiled)
            built = self.memo[key] = (region, fn)
        region, fn = built
        if region is None:
            interp.code[entry.pc] = entry.orig
            del self.entries[entry.pc]
            return
        entry.region = region
        entry.length = region.length
        entry.min_depth = region.min_depth
        entry.fn = fn
        interp.perf.jit_traces_compiled += 1


# -- codegen ------------------------------------------------------------------

#: Process-global compiled-trace cache, keyed by everything
#: :func:`gen_source` reads: the region's entry, length, entry depth,
#: blocks, edges and code, and ``profiled``.  Equal keys generate
#: byte-identical source, so source generation and ``compile`` are paid
#: once per process even across fresh images of one program.  Traces
#: carry no per-machine state — everything reaches them through their
#: arguments — so the function objects are safely shareable.
_COMPILED: dict = {}
_COMPILED_MAX = 4096


def compile_region(region: Region, profiled: bool):
    """Generate and compile the region's Python function.

    The function has the signature ``fn(interp, cpu, left) -> int``:
    a positive return is the number of architectural instructions
    retired (pc, clock, stack, and counters all updated) — one or more
    passes, each from the entry to an exit or back through it, for as
    long as ``left`` (the remaining slice budget) holds the longest
    pass.  A negative return is the :data:`GUARDS` code of the entry
    guard that failed; nothing observable happened (the interpreter
    runs the region instead)."""
    key = (region.entry, region.length, region.min_depth,
           tuple(map(tuple, region.blocks)), tuple(region.ends),
           tuple(region.code.items()), profiled)
    fn = _COMPILED.get(key)
    if fn is not None:
        return fn
    source = gen_source(region, profiled)
    namespace = {
        "Fault": Fault,
        "unpack_from": _WORD.unpack_from,
        "pack_into": _UWORD.pack_into,
        "w64": wrap64,
        "desc2": _DESC2.unpack_from,
        "RTD": _runtime_dispatch(),
        **_Slots(region.code.values()).names,
    }
    code = compile(source, f"<jit:{region.entry:#x}>", "exec")
    exec(code, namespace)
    fn = namespace["_trace"]
    fn.__jit_source__ = source  # for tests / debugging
    if len(_COMPILED) >= _COMPILED_MAX:
        _COMPILED.clear()
    _COMPILED[key] = fn
    return fn


#: A stack slot whose local may hold an int outside the signed 64-bit
#: range: an operand taken from ``cpu.operands``, or a settled literal.
_WIDE = 1


def _immediate(atom: str) -> int | None:
    """The int a PUSH immediate's literal atom stands for, or ``None``
    for any other atom."""
    try:
        return int(atom.strip("()"))
    except ValueError:
        return None


class _Stack:
    """The operand stack at one point of a trace, as codegen sees it.

    Slot ``k`` — counted upward from the bottom of the region's
    ``min_depth`` entry operands — lives in the Python local ``s<k>``,
    except that a PUSH immediate or an ADDRL address stays a literal
    expression until an instruction consumes it.  Every other value is
    assigned to its own slot's local (DUP and SWAP copy, never alias),
    so once a block's leftover literals are settled into locals at its
    end, every path enters the next block with one layout: all
    locals.  Each local also records whether it may be :data:`_WIDE`,
    because a cached frame slot must hold what LOADL would read back."""

    __slots__ = ("slots",)

    def __init__(self, slots: list):
        #: Per slot: ``None`` (the value is in ``s<k>`` and signed
        #: 64-bit), :data:`_WIDE` (in ``s<k>``, any int) or a literal.
        self.slots = slots

    def __len__(self) -> int:
        return len(self.slots)

    def copy(self) -> _Stack:
        return _Stack(list(self.slots))

    def atom(self, k: int) -> str:
        literal = self.slots[k]
        return literal if isinstance(literal, str) else f"s{k}"

    def pop(self) -> str:
        atom = self.atom(len(self.slots) - 1)
        self.slots.pop()
        return atom

    def push(self, literal: str | int | None = None) -> str:
        """Push ``literal``, or (by default) a signed 64-bit computed
        value that the caller assigns to the returned local."""
        self.slots.append(literal)
        return f"s{len(self.slots) - 1}"

    def values(self) -> list[str]:
        return [self.atom(k) for k in range(len(self.slots))]

    def settle(self, emit, indent: str) -> None:
        """Move the literals into their slots' locals."""
        for k, literal in enumerate(self.slots):
            if isinstance(literal, str):
                emit(f"{indent}s{k} = {literal}")
                value = _immediate(literal)
                narrow = value is not None and -_S63 <= value < _S63
                self.slots[k] = None if narrow else _WIDE

    def pop_signed(self, emit, I: str) -> str:
        """Pop the top value as an atom wrapped to signed 64 bits, the
        value a STOREL then LOADL would return."""
        literal = self.slots[-1]
        atom = self.pop()
        if literal is None:
            return atom
        value = _immediate(atom) if isinstance(literal, str) else None
        if value is not None:
            return repr(wrap64(value))
        emit(f"{I}v = {atom} & {_M64}")
        return f"v - {_W64} if v >= {_S63} else v"


def _spill(values: list[str]) -> str | None:
    """The statement appending ``values`` (bottom first) to
    ``cpu.operands``, or ``None`` when there are none."""
    if not values:
        return None
    if len(values) == 1:
        return f"ops.append({values[0]})"
    return f"ops += ({', '.join(values)})"


def _fill(depth: int) -> list[str]:
    """Statements moving the top ``depth`` operands of ``cpu.operands``
    into ``s0`` .. ``s<depth - 1>``."""
    if depth == 0:
        return []
    if depth == 1:
        return ["s0 = ops.pop()"]
    names = ", ".join(f"s{k}" for k in range(depth))
    return [f"{names} = ops[-{depth}:]", f"del ops[-{depth}:]"]


def _operands(st: _Stack, count: int, pc: int, restore: dict) -> list[str]:
    """Pop a faultable instruction's ``count`` operands, bottom first,
    and record in ``restore[pc]`` the operands below them: what the
    interpreter leaves on the stack when that instruction faults."""
    args = [st.pop() for _ in range(count)][::-1]
    restore[pc] = st.values()
    return args


def gen_source(region: Region, profiled: bool) -> str:
    """Emit the region's Python source (see :func:`compile_region`).

    Blocks are emitted in pc order inside one ``while True:``, each
    under ``if bk == <id>:``: a forward edge sets ``bk``, the back edge
    checks the budget and resets it to 0, and an exit writes ``cpu.pc``
    and breaks.  Each block counts its passes in a local ``c<id>``; the
    epilogue turns the counts into the per-group tallies.

    The operand stack lives in locals (:class:`_Stack`): after the
    entry guards the trace moves its ``min_depth`` entry operands into
    ``s0`` and up, and it writes the live slots back to
    ``cpu.operands`` only where anything else can see the stack — at
    every exit (the back edge's budget break included), around each
    ``_guarded`` channel call (written back before, reloaded after),
    and in the fault hook, which selects on the synced ``cpu.pc`` and
    puts back the operands below the faulting instruction's own, as
    the interpreter leaves them.

    The frame slots the region's LOADLs and STORELs name live in
    locals too (:class:`_Slots`): one unpack of their span from the
    prevalidated locals frame after the entry guards, each LOADL a
    read of ``l<k>``, each STOREL an assignment of the value wrapped to
    signed 64 bits, and one pack of the stored span at the epilogue and
    in the fault hook.  A read whose frame ``f is sfr`` writes the
    stored slots back first; a write to it writes back, writes and
    reloads; and ``rword``/``wword``, ``mcpy``, ``dsp`` and ``gua``
    calls write back before and reload after.

    Simulated time accumulates in a local ``now`` (the same individual
    float adds in the same order, so the value is bit-identical) and is
    stored back to ``clock.now_ns`` at every point something else can
    observe it: before every call into the MMU (a helper may charge it,
    and a violation ``_access`` reports is stamped with it), before a
    runtime or profiler call, in the fault hook, and at the epilogue.
    """
    entry = region.entry
    length = region.length
    code = region.code
    instrs = list(code.values())

    uses_slice = any(i.op == Op.RTCALL
                     and i.imm1 in (_RT_SLICE_AT, _RT_SLICE_PUT)
                     for i in instrs)
    uses_pure_rt = any(i.op == Op.RTCALL and i.imm1 not in _RT_GUARDED
                       for i in instrs)

    # Cached frame slots: every LOADL/STOREL in the region touches the
    # frame's locals area; when the whole span lies on one page whose
    # r (and, if the region stores, w) TLB entries pass _hit and no
    # injector is armed, the span moves between that page and the
    # locals ``l<k>`` in one struct op each way, and each LOADL/STOREL
    # counts the word_fast/tlb_hits its read_word/write_word hit would.
    slots = _Slots(instrs)
    if slots.used and slots.load is None:
        # No page holds the span, so the locals-page guard always fails.
        return f"def _trace(interp, cpu, left):\n    return {G_LOCALS_PAGE}\n"

    # The entry guards, the loop and the exits are emitted first; the
    # prologue then hoists exactly the names they read (_HOISTS).
    lines: list[str] = []
    emit = lines.append
    # ``mmu.inject`` is set only while the injector has a fault armed.
    # Arming happens only in Prolog, an LBCALL, which regions exclude,
    # and disarming only in an access that then raises; so the value
    # read at entry (the guard below, the hoisted ``inj``) holds for the
    # whole trace.
    if slots.used:
        lo = 8 * slots.lo
        hi = lo + 8 * slots.count - 8
        emit(f"    if (fpb + {lo}) >> {PAGE_SHIFT} "
             f"!= (fpb + {hi + 7}) >> {PAGE_SHIFT}:")
        emit(f"        return {G_LOCALS_PAGE}")
        emit("    if mmu.inject is not None:")
        emit(f"        return {G_INJECTOR}")
        emit(f"    pg4 = ((fpb + {lo}) >> {PAGE_SHIFT}) * 4")
        _emit_preval(emit, "pg4", "sfr", write=False)
        if slots.store:
            _emit_preval(emit, "pg4 + 1", "sfw", write=True)
        emit(f"    sb = fpb - ((pg4 >> 2) << {PAGE_SHIFT})")
    if uses_pure_rt:
        # Unwired handler -> deopt; the interpreter raises the
        # canonical Fault("exec", "no runtime handler wired").
        emit("    dsp = cpu.rtcall_handler")
        emit("    if dsp is None:")
        emit(f"        return {G_RTCALL}")
        if uses_slice:
            # The open-coded SLICE_AT/PUT paths assume the stock
            # Runtime semantics; a custom handler deopts the region.
            emit("    if getattr(dsp, '__func__', None) is not RTD:")
            emit(f"        return {G_RTCALL}")
    for line in _fill(region.min_depth):
        emit(f"    {line}")
    if slots.used:
        emit(f"    {slots.load}")
    emit("    now = clock.now_ns")
    counts = [f"c{b}" for b in range(len(region.blocks))]
    emit(f"    n = bk = {' = '.join(counts)} = 0")
    emit("    try:")
    emit("        while True:")
    I = " " * 16
    # Block id -> its stack on entry, one _Stack state per slot: the
    # entry operands came from cpu.operands, so they may be wide.
    layout_of = {0: [_WIDE] * region.min_depth}
    restore: dict[int, list[str]] = {}  # faultable pc -> operands below it

    def drain(gpc: int, indent: str) -> None:
        # Retire-boundary drain with the *group-start* pc, exactly as
        # run_slice drains with the pre-dispatch pc.
        if profiled:
            emit(f"{indent}if prof.next_due <= now:")
            emit(f"{indent}    clock.now_ns = now")
            emit(f"{indent}    prof.drain_retire({gpc})")

    def leave(pc: int, indent: str, st: _Stack) -> None:
        # cpu.pc is written only on leaving: nothing observes it
        # mid-trace, and every faultable op syncs its own pc first.
        spill = _spill(st.values())
        if spill:
            emit(f"{indent}{spill}")
        emit(f"{indent}cpu.pc = {pc}")
        emit(f"{indent}break")

    def take(target: int, to: int, indent: str, st: _Stack) -> None:
        if to < 0:
            leave(target, indent, st)
            return
        st.settle(emit, indent)
        if to == 0:
            emit(f"{indent}if left - n < {length}:")
            leave(entry, indent + "    ", st)
            emit(f"{indent}bk = 0")
        else:
            seen = layout_of.setdefault(to, st.slots)
            layout_of[to] = [a if a == b else _WIDE
                             for a, b in zip(seen, st.slots)]
            emit(f"{indent}bk = {to}")

    for bid, (groups, ends) in enumerate(zip(region.blocks, region.ends)):
        st = _Stack(list(layout_of[bid]))
        emit(f"            if bk == {bid}:")
        emit(f"{I}c{bid} += 1")
        emit(f"{I}n += {sum(arch for _slot, _pc, arch in groups)}")
        for _slot, gpc, arch in groups:
            for pc in range(gpc, gpc + arch * INSTR_SIZE, INSTR_SIZE):
                if code[pc].op not in _TERM:
                    _emit_instr(emit, code[pc], pc, I, st, restore, slots)
            last = code[pc]
            if last.op not in _TERM:
                drain(gpc, I)
        # The block's last group ends in a branch (the semantic action —
        # charge, condition pop — then the drain, exactly as one
        # interpreted dispatch) or falls through.
        if last.op == Op.JMP:
            emit(f"{I}now += {COSTS.INSN_BRANCH!r}")
            drain(gpc, I)
            take(*ends[0], I, st)
        elif last.op in _TERM:
            taken = "== 0" if last.op == Op.JZ else "!= 0"
            emit(f"{I}now += {COSTS.INSN_BRANCH!r}")
            emit(f"{I}if {st.pop()} {taken}:")
            drain(gpc, I + "    ")
            take(*ends[0], I + "    ", st.copy())
            emit(f"{I}else:")
            drain(gpc, I + "    ")
            take(*ends[1], I + "    ", st)
        else:
            take(*ends[0], I, st)

    # Word and slice accesses count ``word_fast`` in ``wf``; they and
    # byte accesses probe the TLB through _hit and count ``tlb_hits``
    # in ``th``.
    read = _names(lines)
    uses_wf = "wf" in read
    uses_th = "th" in read
    body = len(lines)

    # Fault hook: the clock local is authoritative unless the raise
    # came from inside an MMU helper that charged after our last sync
    # (then clock is already ahead — charges only ever advance time).
    emit("    except BaseException as exc:")
    emit("        if now > clock.now_ns:")
    emit("            clock.now_ns = now")
    if uses_th:
        emit("        perf = interp.perf")
        if uses_wf:
            emit("        perf.word_fast += wf")
        emit("        perf.tlb_hits += th")
    # The stack the interpreter would have left: the operands below
    # the faulting instruction's own, which it had already popped.  A
    # guarded call has none put back: the trace wrote the stack back
    # before it, and _guarded restored (WouldBlock) or consumed it.
    spills: dict[str, list[int]] = {}
    for pc, values in restore.items():
        spill = _spill(values)
        if spill:
            spills.setdefault(spill, []).append(pc)
    if spills:
        emit("        pc = cpu.pc")
        for k, (spill, pcs) in enumerate(spills.items()):
            test = (f"pc == {pcs[0]}" if len(pcs) == 1
                    else f"pc in ({', '.join(map(str, pcs))})")
            emit(f"        {'elif' if k else 'if'} {test}:")
            emit(f"            {spill}")
    # The interpreter's STORELs before the fault reached the frame.
    if slots.store:
        emit(f"        {slots.store}")
    emit(f"        interp._jit_fault(cpu, {entry}, bk, "
         f"({', '.join(counts)},), exc)")
    emit("        raise")

    # Success epilogue: write the stored slots back, then batch the
    # counters the interpreter would have bumped one dispatch at a time
    # (integer adds commute): each block's pass count times its
    # per-pass tally.
    if slots.store:
        emit(f"    {slots.store}")
    emit("    clock.now_ns = now")
    emit("    perf = interp.perf")
    emit("    oc = perf.op_counts")
    per_slot: dict[int, dict[int, int]] = {}
    per_local: dict[int, int] = {}
    for bid, groups in enumerate(region.blocks):
        for slot, gpc, arch in groups:
            tally = per_slot.setdefault(slot, {})
            tally[bid] = tally.get(bid, 0) + 1
            for pc in range(gpc, gpc + arch * INSTR_SIZE, INSTR_SIZE):
                if code[pc].op in _LOCALS:
                    per_local[bid] = per_local.get(bid, 0) + 1

    def total(tally: dict[int, int]) -> str:
        return " + ".join(f"c{bid}" if k == 1 else f"{k} * c{bid}"
                          for bid, k in sorted(tally.items()))

    for slot in sorted(per_slot):
        emit(f"    oc[{slot}] += {total(per_slot[slot])}")
    for counter, tally, used in (("word_fast", "wf", uses_wf),
                                 ("tlb_hits", "th", uses_th)):
        terms = ([tally] if used else []) + \
            ([total(per_local)] if per_local else [])
        if terms:
            emit(f"    perf.{counter} += {' + '.join(terms)}")
    emit("    perf.jit_trace_executions += 1")
    emit("    perf.jit_insns += n")
    emit("    return n")

    read |= _names(lines[body:])
    hoists = []
    for name, value in reversed(_HOISTS):
        if name in read:
            read |= _HOIST_READS[name]
            hoists.append(f"    {name} = {value}")
    return "\n".join(["def _trace(interp, cpu, left):", *reversed(hoists),
                      *lines]) + "\n"


#: The trace prologue's hoisted locals, in emission order: a name is
#: hoisted only if the trace reads it, directly or through a later
#: hoist's value.
_HOISTS = (
    ("ops", "cpu.operands"), ("clock", "cpu.clock"), ("mmu", "interp.mmu"),
    ("ctx", "cpu.ctx"), ("fpb", "cpu.fp + 16"), ("pkru", "ctx.pkru"),
    ("tget", "ctx.page_table.tlb.get"),
    ("inj", "mmu.inject"), ("acc", "mmu._access"), ("th", "0"), ("wf", "0"),
    ("rword", "mmu.read_word"), ("wword", "mmu.write_word"),
    ("mcpy", "mmu.memcpy"), ("dor", "interp._do_rtcall"),
    ("gua", "interp._guarded"), ("prof", "interp.profiler"),
)

_NAME = re.compile(r"[A-Za-z_]\w*")


def _names(lines: list[str]) -> set[str]:
    """Every identifier the source ``lines`` mention."""
    return set(_NAME.findall("\n".join(lines)))


#: The names each hoist's value reads.
_HOIST_READS = {name: _names([value]) for name, value in _HOISTS}


def _hit(e: str, write: bool) -> str:
    """The TLB-hit test of ``MMU._access`` as a generated expression
    over the entry ``e`` (a value of the installed table's TLB, possibly
    None) and the trace's hoisted PKRU: the entry is present, and PKRU
    allows the page's key for a read (AD clear) or a write (AD and WD
    clear)."""
    deny = 3 if write else 1
    return (f"{e} is not None and (pkru is None "
            f"or not (pkru >> (2 * {e}[0].pkey)) & {deny})")


def _emit_preval(emit, key: str, frame_var: str, write: bool) -> None:
    """Entry guard binding ``frame_var`` to the locals page's frame
    when its TLB entry passes :func:`_hit`; any miss deopts to the
    interpreter, which owns the slow path."""
    emit(f"    e = tget({key})")
    emit(f"    if not ({_hit('e', write)}):")
    emit(f"        return {G_TLB}")
    emit(f"    {frame_var} = e[1]")


def _emit_instr(emit, ins: Instr, pc: int, I: str, st: _Stack,
                restore: dict, slots: _Slots) -> None:
    """Emit one architectural instruction at indent ``I`` (inside try),
    taking its operands from and leaving its result on ``st``.

    Simulated charges are individual float adds, in the interpreter's
    order, on the local ``now``; ``cpu.pc`` is synced before anything
    that can fault, and the operands the fault leaves are recorded in
    ``restore``, so the fault observes the interpreter's exact state;
    ``clock.now_ns`` is synced before every MMU or runtime call and
    re-read after one that charges it.  LOADL and STOREL read and
    assign the cached frame slots, and every other access that may
    reach the frame goes through ``slots``."""
    op = ins.op
    if op == Op.PUSH:
        emit(f"{I}now += {COSTS.INSN!r}")
        st.push(repr(ins.imm1) if ins.imm1 >= 0 else f"({ins.imm1!r})")
    elif op == Op.LOADL:
        emit(f"{I}now += {COSTS.INSN_MEM!r}")
        emit(f"{I}{st.push()} = {_slot(ins.imm1)}")
    elif op == Op.STOREL:
        emit(f"{I}now += {COSTS.INSN_MEM!r}")
        emit(f"{I}{_slot(ins.imm1)} = {st.pop_signed(emit, I)}")
    elif op == Op.ADDRL:
        emit(f"{I}now += {COSTS.INSN!r}")
        st.push(f"(fpb + {8 * ins.imm1})")
    elif op in (Op.LOAD, Op.LOAD1):
        emit(f"{I}cpu.pc = {pc}")
        addr, = _operands(st, 1, pc, restore)
        access = _emit_word_access if op == Op.LOAD else _emit_byte_access
        access(emit, I, slots, addr, dest=st.push())
    elif op in (Op.STORE, Op.STORE1):
        emit(f"{I}cpu.pc = {pc}")
        addr, value = _operands(st, 2, pc, restore)
        access = _emit_word_access if op == Op.STORE else _emit_byte_access
        access(emit, I, slots, addr, value=value)
    elif op == Op.MEMCPY:
        emit(f"{I}cpu.pc = {pc}")
        dst, src, count = _operands(st, 3, pc, restore)
        emit(f"{I}if {count} < 0:")
        emit(f"{I}    raise Fault('arith', 'negative MEMCPY length')")
        emit(f"{I}clock.now_ns = now")
        slots.call(emit, I, [f"mcpy(ctx, {dst}, {src}, {count})"])
        emit(f"{I}now = clock.now_ns")
    elif op == Op.DROP:
        emit(f"{I}now += {COSTS.INSN!r}")
        st.pop()
    elif op == Op.DUP:
        emit(f"{I}now += {COSTS.INSN!r}")
        k = len(st) - 1
        literal = st.slots[k]
        dest = st.push(literal)
        if not isinstance(literal, str):
            emit(f"{I}{dest} = s{k}")
    elif op == Op.SWAP:
        emit(f"{I}now += {COSTS.INSN!r}")
        k = len(st) - 2
        lo, hi = st.slots[k], st.slots[k + 1]
        lo_local, hi_local = (not isinstance(x, str) for x in (lo, hi))
        if lo_local and hi_local:
            emit(f"{I}s{k}, s{k + 1} = s{k + 1}, s{k}")
        elif lo_local:
            emit(f"{I}s{k + 1} = s{k}")
        elif hi_local:
            emit(f"{I}s{k} = s{k + 1}")
        st.slots[k], st.slots[k + 1] = hi, lo
    elif op == Op.NEG:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}v = (-{st.pop()}) & {_M64}")
        emit(f"{I}{st.push()} = v - {_W64} if v >= {_S63} else v")
    elif op == Op.NOT:
        emit(f"{I}now += {COSTS.INSN!r}")
        x = st.pop()
        emit(f"{I}{st.push()} = 1 if {x} == 0 else 0")
    elif op == Op.RTCALL:
        emit(f"{I}cpu.pc = {pc}")
        if ins.imm1 in _RT_GUARDED:
            # CHAN_SEND/RECV keep _guarded's WouldBlock stack restore
            # around the real _do_rtcall, exactly as _op_rtcall does,
            # so they see the whole stack in cpu.operands; the slots
            # refilled from it after the call may be wide.
            emit(f"{I}clock.now_ns = now")
            spill = _spill(st.values())
            st.slots[:] = [_WIDE] * (len(st) - ins.imm2 + 1)
            slots.call(emit, I, ([spill] if spill else []) + [
                f"gua(cpu, dor, {ins.imm1}, {ins.imm2})", *_fill(len(st))])
            emit(f"{I}now = clock.now_ns")
        elif ins.imm1 in (_RT_SLICE_AT, _RT_SLICE_PUT):
            _emit_slice_access(emit, ins, pc, I, st, restore, slots)
        else:
            # Pure services inline _do_rtcall's body: charge, popn,
            # dispatch, wrap-push — same effect order, one less frame.
            emit(f"{I}now += {COSTS.RTCALL!r}")
            args = _operands(st, ins.imm2, pc, restore)
            emit(f"{I}clock.now_ns = now")
            args = ", ".join(args) + ("," if len(args) == 1 else "")
            slots.call(emit, I, [
                f"{st.push()} = w64(dsp(cpu, {ins.imm1}, ({args})))"])
            emit(f"{I}now = clock.now_ns")
    elif op == Op.NOP:
        emit(f"{I}now += {COSTS.INSN!r}")
    elif op in _CMP_EXPR:
        emit(f"{I}now += {COSTS.INSN!r}")
        b = st.pop()
        a = st.pop()
        emit(f"{I}{st.push()} = 1 if {a} {_CMP_EXPR[op]} {b} else 0")
    elif op in (Op.DIV, Op.MOD):
        kind = "divide" if op == Op.DIV else "modulo"
        emit(f"{I}now += {COSTS.INSN!r}")
        a, b = _operands(st, 2, pc, restore)
        emit(f"{I}b = {b}")
        emit(f"{I}a = {a}")
        emit(f"{I}if b == 0:")
        emit(f"{I}    cpu.pc = {pc}")
        emit(f"{I}    raise Fault('arith', 'integer {kind} by zero')")
        emit(f"{I}q = a // b")
        emit(f"{I}if q < 0 and q * b != a:")
        emit(f"{I}    q += 1")
        if op == Op.DIV:
            emit(f"{I}v = q & {_M64}")
        else:
            emit(f"{I}v = (a - q * b) & {_M64}")
        emit(f"{I}{st.push()} = v - {_W64} if v >= {_S63} else v")
    elif op in _ALU_EXPR:
        emit(f"{I}now += {COSTS.INSN!r}")
        b = st.pop()
        a = st.pop()
        emit(f"{I}v = ({_ALU_EXPR[op].format(a=a, b=b)}) & {_M64}")
        emit(f"{I}{st.push()} = v - {_W64} if v >= {_S63} else v")
    else:  # pragma: no cover - regions admit only the ops above
        raise Fault("exec", f"JIT cannot compile op {op!r}")


def _emit_slice_access(emit, ins: Instr, pc: int, I: str, st: _Stack,
                       restore: dict, slots: _Slots) -> None:
    """Open-coded SLICE_AT / SLICE_PUT (the stock ``Runtime`` handlers
    flattened into the trace).  Effect order mirrors ``_do_rtcall`` +
    ``_rt_slice_at``/``_rt_slice_put`` exactly: charge RTCALL, pop the
    args, read the descriptor uncharged through :func:`_emit_frame`,
    bounds-check with the canonical fault text, then one charged
    element access, :func:`_emit_byte_access` for a one-byte element
    and :func:`_emit_word_access` for any other.  An element size the
    codegen holds as a literal gets only its own arm.  A descriptor
    that spans a page takes the generic dispatch call, which is the
    interpreter's own path."""
    put = ins.imm1 == _RT_SLICE_PUT
    emit(f"{I}now += {COSTS.RTCALL!r}")
    args = _operands(st, 4 if put else 3, pc, restore)
    desc, size, index = args[:3]
    value = args[3] if put else None
    # SLICE_PUT returns 0, which stays a literal on the stack.
    res = st.push("0") if put else st.push()
    dest = None if put else res
    J = I + "    "
    emit(f"{I}o2 = {desc} & {PAGE_MASK}")
    emit(f"{I}if o2 <= {PAGE_SIZE - 24}:")
    _emit_frame(emit, J, desc, write=False)
    slots.read(emit, J)
    emit(f"{J}da, ln = desc2(f, o2)")
    emit(f"{J}if not 0 <= {index} < ln:")
    emit(f"{J}    raise Fault('arith', f'slice index {{{index}}} "
         f"out of range [0,{{ln}})')")
    literal = _immediate(size)  # a PUSH immediate stays a literal atom
    if literal is None:
        emit(f"{J}if {size} == 1:")
        _emit_byte_access(emit, J + "    ", slots, f"da + {index}", value,
                          dest)
        emit(f"{J}else:")
        _emit_word_access(emit, J + "    ", slots, f"da + {index} * {size}",
                          value, dest)
    elif literal == 1:
        _emit_byte_access(emit, J, slots, f"da + {index}", value, dest)
    else:
        _emit_word_access(emit, J, slots, f"da + {index} * {literal}",
                          value, dest)
    emit(f"{I}else:")
    emit(f"{I}    clock.now_ns = now")
    call = f"dsp(cpu, {ins.imm1}, ({', '.join(args)}))"
    slots.call(emit, J, [call if put else f"{res} = w64({call})"])
    emit(f"{I}    now = clock.now_ns")


def _emit_frame(emit, I: str, addr: str, write: bool) -> None:
    """Bind ``f`` to the frame behind the address atom ``addr``, as
    ``MMU._access`` returns it: a :func:`_hit` with no injector armed
    counts one ``tlb_hits``; anything else calls ``_access`` itself,
    which owns every fault, trace and counter slow path.  ``_access``
    never charges, but a violation it reports is stamped with the
    clock, so the clock is synced before the call."""
    emit(f"{I}e = tget(({addr} >> {PAGE_SHIFT}) * 4{' + 1' if write else ''})")
    emit(f"{I}if inj is None and {_hit('e', write)}:")
    emit(f"{I}    th += 1")
    emit(f"{I}    f = e[1]")
    emit(f"{I}else:")
    emit(f"{I}    clock.now_ns = now")
    emit(f"{I}    f = acc(ctx, {addr}, {'w' if write else 'r'!r})")


def _emit_word_access(emit, I: str, slots: _Slots, addr: str,
                      value: str | None = None,
                      dest: str | None = None) -> None:
    """A charged word LOAD into the local ``dest``, or STORE of the atom
    ``value``, at the address expression ``addr``: read_word/write_word
    with the frame from :func:`_emit_frame` (same charge, fit check and
    ``word_fast`` count), and for a word that spans a page the uncharged
    helper, which counts ``word_slow``."""
    if not addr.isidentifier():
        emit(f"{I}a = {addr}")
        addr = "a"
    J = I + "    "
    emit(f"{I}now += {COSTS.INSN_MEM!r}")
    emit(f"{I}o = {addr} & {PAGE_MASK}")
    emit(f"{I}if o <= {PAGE_SIZE - 8}:")
    emit(f"{J}wf += 1")
    _emit_frame(emit, J, addr, write=dest is None)
    if dest is None:
        slots.write(emit, J, f"pack_into(f, o, {value} & {_M64})")
        emit(f"{I}else:")
        emit(f"{J}clock.now_ns = now")
        slots.call(emit, J, [f"wword(ctx, {addr}, {value}, False)"])
    else:
        slots.read(emit, J)
        emit(f"{J}{dest} = unpack_from(f, o)[0]")
        emit(f"{I}else:")
        emit(f"{J}clock.now_ns = now")
        slots.call(emit, J, [f"{dest} = rword(ctx, {addr}, False)"])


def _emit_byte_access(emit, I: str, slots: _Slots, addr: str,
                      value: str | None = None,
                      dest: str | None = None) -> None:
    """A charged byte LOAD1 into the local ``dest``, or STORE1 of the
    atom ``value``, at the address expression ``addr``: read_byte/
    write_byte with the frame from :func:`_emit_frame`."""
    if not addr.isidentifier():
        emit(f"{I}a = {addr}")
        addr = "a"
    emit(f"{I}now += {COSTS.INSN_MEM!r}")
    _emit_frame(emit, I, addr, write=dest is None)
    if dest is None:
        slots.write(emit, I, f"f[{addr} & {PAGE_MASK}] = {value} & 255")
    else:
        slots.read(emit, I)
        emit(f"{I}{dest} = f[{addr} & {PAGE_MASK}]")
