"""Trace-JIT: compile hot golite regions to generated Python.

PR 4's superinstruction fusion still pays one Python-level dispatch per
(fused) instruction.  This module removes that cost for hot code: at
load time it discovers *regions* — runs of simple opcodes inside one
code page, optionally ending in a branch — and, once a region has been
entered :data:`JIT_THRESHOLD` times, compiles it into one generated Python
function that executes the whole region in a single call from
:meth:`Interpreter.run_slice`.  A region whose terminator branches back
to its own entry with net stack delta zero compiles to a ``while``
*loop trace* that retires many iterations per call (with *side exits*
for conditional breaks out of the body); regions may also contain
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

* **Region grammar.**  Regions contain only simple ops (stack
  shuffling, locals, absolute loads/stores, ALU, member RTCALLs) plus
  at most one terminating branch.  Nothing inside a region can switch
  environments or leave the code page, so the only early exits are
  faults and channel ``WouldBlock`` (whose stack-restore retry runs
  through the same ``_guarded`` helper the interpreter uses).
* **Guards, not checks-per-op.**  Entry guards — run_slice refuses to
  enter a region when the remaining slice budget or operand-stack
  depth is insufficient, and the trace itself refuses (returns ``0``,
  nothing observable done) when the frame's locals span a page, the
  fault injector is armed (its MMU hook is attached only then), the
  TLB can't prevalidate the locals page, or a slice-specialized trace
  meets a non-stock rtcall handler — plus
  a per-call prevalidation of the frame's locals page hoist the
  per-access work.  The trace protocol is ``fn(interp, cpu, left) ->
  int``: ``0`` means an entry guard failed and the interpreter
  executes the region instruction-by-instruction — a pure wall-clock
  *deopt*, never a semantic difference, because the interpreter is the
  reference; any other return is the architectural instructions
  retired.
* **Precise fault deopt.**  ``cpu.pc`` is synced before every
  instruction that can fault (memory ops, DIV/MOD, MEMCPY, RTCALL), so
  a fault observes the same pc, operand stack, and accumulated sim-ns
  as interpreted execution; an ``except`` hook flushes the clock and
  counter tallies and re-raises after :meth:`Interpreter._jit_fault`
  replays the per-dispatch-group ``op_counts`` and slice accounting
  the interpreter would have recorded (a dispatch whose handler raises
  is *not* counted in ``slice_executed`` — fused pairs included — and
  the JIT reproduces exactly that, including complete loop iterations
  before the faulting pass).

Regions are discovered along *dispatch groups* (a fused pair is one
group): ``op_counts`` batching credits the fused pseudo-op slots, and
the profiled variant drains the sampling profiler at group boundaries
with the group-start pc — both exactly what ``run_slice`` does with a
profiler attached.  The per-machine entry cache is keyed ``(entry_pc,
generation)``; quarantine trips and policy edits bump the generation
via :meth:`JitCompiler.flush` so stale traces are never re-entered
(per-dispatch safety additionally rests on ``run_slice``'s
generation-checked exec tag, which the JIT does not bypass).  The
compiled function objects themselves are shared process-wide through a
source-keyed cache (:data:`_COMPILED`): machines built from the same
image generate identical source, so each trace is compiled once per
process, not once per machine.
"""

from __future__ import annotations

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

#: Interpreted entries of a region before it is compiled.
JIT_THRESHOLD = 8
#: Minimum architectural instructions for a region to be worth a trace.
JIT_MIN_LEN = 4
#: Cap so generated functions stay small enough for CPython to like.
JIT_MAX_LEN = 256

#: Ops a region may contain (straight-line, never WouldBlock, never
#: leave the page except by falling off the end).
_SIMPLE = frozenset({
    Op.NOP, Op.PUSH, Op.DROP, Op.DUP, Op.SWAP,
    Op.LOADL, Op.STOREL, Op.ADDRL,
    Op.LOAD, Op.STORE, Op.LOAD1, Op.STORE1, Op.MEMCPY,
    Op.NEG, Op.NOT,
}) | frozenset(BINARY_ALU)

#: Ops that may terminate a region (write pc and end it).
_TERM = frozenset({Op.JMP, Op.JZ, Op.JNZ})

#: Runtime services a trace may call inline, by :class:`repro.runtime.
#: runtime.RT` value (numeric to avoid an isa -> runtime import cycle).
#: The bar for membership: the service must never map/unmap/retag pages
#: or switch environments — every hoisted translation (TLB generations,
#: prevalidated locals frames, PKRU) must stay valid across the call.
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

#: Wrapping binary ALU ops -> Python expression over ``a``/``b``.
_ALU_EXPR = {
    Op.ADD: "a + b", Op.SUB: "a - b", Op.MUL: "a * b",
    Op.AND: "a & b", Op.OR: "a | b", Op.XOR: "a ^ b",
    Op.SHL: "a << (b & 63)", Op.SHR: f"(a & {_M64}) >> (b & 63)",
}
#: Comparison ops -> Python operator.
_CMP_EXPR = {Op.EQ: "==", Op.NE: "!=", Op.LT: "<",
             Op.LE: "<=", Op.GT: ">", Op.GE: ">="}


class Region:
    """One compileable region.

    ``groups`` mirrors the interpreter's dispatch grouping: one entry
    per code-dict dispatch, ``(op_counts slot, start index, arch
    count)``.  A fused pair is one group of arch count 2.

    ``loop`` marks a region whose terminator branches back to its own
    entry with a net stack delta of zero: such regions compile to a
    Python ``while`` loop retiring many iterations per call (the entry
    depth guard then holds for every iteration).  A loop body may
    contain conditional *side exits* — JZ/JNZ whose taken edge leaves
    the trace (``exits`` lists their instruction indices, in emission
    order); straight-line regions never do.
    """

    __slots__ = ("entry", "instrs", "groups", "length", "min_depth",
                 "loop", "exits")

    def __init__(self, entry: int, instrs: list[Instr],
                 groups: list[tuple[int, int, int]], loop: bool = False):
        self.entry = entry
        self.instrs = instrs
        self.groups = groups
        self.length = len(instrs)
        self.min_depth = _min_depth(instrs)
        self.loop = loop
        self.exits = [i for i, ins in enumerate(instrs[:-1])
                      if ins.op in (Op.JZ, Op.JNZ)] if loop else []

    def exit_tables(self) -> list[tuple[int, tuple, int]]:
        """Per side exit, the accounting constants for a pass that left
        through it: (architectural instructions retired, ((op_counts
        slot, bump), ...) for the retired dispatch groups, prevalidated
        locals among them).  Indexed by the exit's order in the body —
        the ``px`` the generated code selects."""
        tables = []
        for idx in self.exits:
            slot_counts: dict[int, int] = {}
            arch = 0
            end = 0
            for slot, start, garch in self.groups:
                if start > idx:
                    break
                slot_counts[slot] = slot_counts.get(slot, 0) + 1
                arch += garch
                end = start + garch
            n_local = sum(1 for ins in self.instrs[:end]
                          if ins.op in (Op.LOADL, Op.STOREL))
            tables.append((arch, tuple(sorted(slot_counts.items())),
                           n_local))
        return tables


class JitEntry:
    """Placed in the interpreter's code dict at a region's entry pc.

    ``op`` is :data:`JIT_OP` so the slice loop recognizes it with one
    comparison; ``orig`` is the displaced Instr/FusedInstr, dispatched
    whenever the region cannot run compiled (cold, guard failure, or
    budget/depth deopt)."""

    __slots__ = ("op", "orig", "region", "length", "min_depth",
                 "count", "fn")

    def __init__(self, orig, region: Region):
        self.op = JIT_OP
        self.orig = orig
        self.region = region
        self.length = region.length
        self.min_depth = region.min_depth
        self.count = 0
        self.fn = None


def _min_depth(instrs: list[Instr]) -> int:
    """Operand-stack depth the region needs on entry so that no pop can
    underflow inside generated code (which uses bare ``list.pop``)."""
    depth = 0
    required = 0
    for ins in instrs:
        need, delta = _effect(ins)
        if need - depth > required:
            required = need - depth
        depth += delta
    return required


# -- region discovery ---------------------------------------------------------


def discover_regions(base: int, instrs: list[Instr],
                     code: dict) -> list[Region]:
    """Find compileable regions in a freshly registered section.

    Leaders are the section start, every in-section branch/call target,
    and every successor of a non-straight-line op; a region runs from a
    leader along the code dict's actual dispatch groups (so fusion
    decisions are honored) until a terminator, a non-simple op, a page
    boundary, or :data:`JIT_MAX_LEN`.  Called before any
    :class:`JitEntry` is installed, so ``code`` holds only
    Instr/FusedInstr objects here.
    """
    n = len(instrs)
    limit = base + n * INSTR_SIZE
    leaders = {0}
    for i, ins in enumerate(instrs):
        op = ins.op
        if op in _TERM or op == Op.CALL:
            target = ins.imm1
            if isinstance(target, int) and base <= target < limit \
                    and (target - base) % INSTR_SIZE == 0:
                leaders.add((target - base) // INSTR_SIZE)
            if op != Op.CALL:
                leaders.add(i + 1)
        elif op not in _SIMPLE:
            leaders.add(i + 1)
    regions = []
    for start in sorted(leaders):
        if start >= n:
            continue
        region = _walk_region(base, instrs, code, start)
        if region is not None:
            regions.append(region)
    return regions


def _walk_region(base: int, instrs: list[Instr], code: dict,
                 start: int) -> Region | None:
    """Walk forward from a leader, preferring a *loop* region.

    The first pass walks past conditional branches (candidate side
    exits) looking for a branch back to the entry; if it finds one and
    the body's net stack delta is zero, the region compiles as a loop.
    Otherwise the straight-line grammar applies: the region ends at the
    first branch (inclusive), non-simple op, page boundary, or length
    cap."""
    entry = base + start * INSTR_SIZE
    groups, end, back = _walk(base, instrs, code, start, seek_loop=True)
    if back and end - start >= JIT_MIN_LEN and \
            sum(_effect(ins)[1] for ins in instrs[start:end]) == 0:
        return Region(entry, instrs[start:end], groups, loop=True)
    groups, end, _back = _walk(base, instrs, code, start, seek_loop=False)
    if end - start < JIT_MIN_LEN:
        return None
    return Region(entry, instrs[start:end], groups)


def _walk(base: int, instrs: list[Instr], code: dict, start: int,
          seek_loop: bool) -> tuple[list, int, bool]:
    """One forward walk along dispatch groups.  Returns (groups, end
    index, found-back-edge).  With ``seek_loop`` a JZ/JNZ that does not
    target the entry is a side exit and the walk continues; without it
    any branch terminates the region."""
    n = len(instrs)
    entry = base + start * INSTR_SIZE
    page0 = entry >> PAGE_SHIFT
    groups: list[tuple[int, int, int]] = []
    i = start
    back = False
    while i < n and (i - start) < JIT_MAX_LEN:
        pc = base + i * INSTR_SIZE
        if pc >> PAGE_SHIFT != page0:
            break
        op = instrs[i].op
        if op in _TERM:
            groups.append((int(op), i - start, 1))
            i += 1
            if op == Op.JMP or instrs[i - 1].imm1 == entry:
                back = instrs[i - 1].imm1 == entry
                break
            if not seek_loop:
                break
            continue
        if op == Op.RTCALL and instrs[i].imm1 in _RT_MEMBER:
            groups.append((int(op), i - start, 1))
            i += 1
            continue
        if op not in _SIMPLE:
            break
        obj = code.get(pc)
        if obj is not None and obj.op >= FUSED_BASE and i + 1 < n:
            # A fused pair is one dispatch group; its second element is
            # always simple or a branch (see FUSED_PAIRS).
            second = instrs[i + 1]
            groups.append((obj.op, i - start, 2))
            i += 2
            if second.op in _TERM:
                if second.op == Op.JMP or second.imm1 == entry:
                    back = second.imm1 == entry
                    break
                if not seek_loop:
                    break
        else:
            groups.append((int(op), i - start, 1))
            i += 1
    return groups, i, back


# -- the compiler -------------------------------------------------------------


class JitCompiler:
    """Region discovery, warm-up counting, codegen, and the code cache.

    One per :class:`~repro.isa.interp.Interpreter` (when its ``jit``
    switch is on).  The cache key is ``(entry pc, generation)``; a
    :meth:`flush` — wired to quarantine trips and available to any
    policy-edit site — bumps the generation, so traces compiled before
    an enforcement change can never be re-entered.
    """

    def __init__(self, interp):
        self.interp = interp
        self.threshold = JIT_THRESHOLD
        #: entry pc -> JitEntry (all installed entries, hot or cold).
        self.entries: dict[int, JitEntry] = {}
        #: (entry pc, generation) -> compiled function.
        self.cache: dict[tuple[int, int], object] = {}
        self.gen = 0

    def register(self, base: int, instrs: list[Instr]) -> None:
        """Discover regions in a just-registered section and install
        their entries (called by ``register_code`` after fusion)."""
        code = self.interp.code
        for region in discover_regions(base, instrs, code):
            orig = code[region.entry]
            if isinstance(orig, JitEntry):  # re-registration
                orig = orig.orig
            entry = JitEntry(orig, region)
            self.entries[region.entry] = entry
            code[region.entry] = entry

    def warm(self, entry: JitEntry) -> None:
        """Count one interpreted execution of a cold region; compile at
        the threshold."""
        entry.count += 1
        if entry.count >= self.threshold:
            self.compile_entry(entry)

    def compile_entry(self, entry: JitEntry) -> None:
        key = (entry.region.entry, self.gen)
        fn = self.cache.get(key)
        if fn is None:
            profiled = self.interp.profiler is not None
            fn = compile_region(entry.region, profiled)
            self.cache[key] = fn
            self.interp.perf.jit_traces_compiled += 1
        entry.fn = fn

    def flush(self) -> None:
        """Invalidate every compiled trace (quarantine / policy edit).

        Entries stay installed but cold; re-warming recompiles under
        the new generation."""
        self.gen += 1
        self.cache.clear()
        for entry in self.entries.values():
            entry.fn = None
            entry.count = 0
        self.interp.perf.jit_flushes += 1


# -- codegen ------------------------------------------------------------------

#: Process-global compiled-trace cache, keyed by generated source.
#: Machines built from the same image discover identical regions and
#: generate byte-identical source, so the expensive ``compile`` step is
#: paid once per process instead of once per machine.  Traces carry no
#: per-machine state — everything reaches them through their arguments
#: — so the function objects are safely shareable.  (Per-machine
#: invalidation still works: ``JitCompiler.flush`` drops the machine's
#: *entry* cache; re-warming just re-links the shared function.)
_COMPILED: dict = {}
_COMPILED_MAX = 4096


def compile_region(region: Region, profiled: bool):
    """Generate and compile the region's Python function.

    The function has the signature ``fn(interp, cpu, left) -> int``:
    the return value is the number of architectural instructions
    retired (pc, clock, stack, and counters all updated) — one region
    length for a straight-line trace, any multiple of it for a loop
    trace, which keeps iterating while ``left`` (the remaining slice
    budget) allows a full pass.  ``0`` means an entry guard failed and
    nothing observable happened (the interpreter runs the region
    instead)."""
    source = gen_source(region, profiled)
    fn = _COMPILED.get(source)
    if fn is not None:
        return fn
    namespace = {
        "Fault": Fault,
        "unpack_from": _WORD.unpack_from,
        "pack_into": _UWORD.pack_into,
        "w64": wrap64,
        "desc2": _DESC2.unpack_from,
        "RTD": _runtime_dispatch(),
        # Identical source implies identical pcs and hence identical
        # exit tables, so caching the closed-over _EXITS is sound.
        "_EXITS": tuple(region.exit_tables()),
    }
    code = compile(source, f"<jit:{region.entry:#x}>", "exec")
    exec(code, namespace)
    fn = namespace["_trace"]
    fn.__jit_source__ = source  # for tests / debugging
    if len(_COMPILED) >= _COMPILED_MAX:
        _COMPILED.clear()
    _COMPILED[source] = fn
    return fn


def gen_source(region: Region, profiled: bool) -> str:
    """Emit the region's Python source (see :func:`compile_region`).

    Simulated time accumulates in a local ``now`` (the same individual
    float adds in the same order, so the value is bit-identical) and is
    stored back to ``clock.now_ns`` at every point something else can
    observe it: before any MMU helper that charges the clock itself,
    before a profiler drain, in the fault hook, and at the epilogue.
    """
    instrs = region.instrs
    entry = region.entry
    loop = region.loop
    length = region.length

    uses_locals = any(i.op in (Op.LOADL, Op.STOREL) for i in instrs)
    local_reads = any(i.op == Op.LOADL for i in instrs)
    local_writes = any(i.op == Op.STOREL for i in instrs)
    uses_frame = uses_locals or any(i.op == Op.ADDRL for i in instrs)
    uses_word = any(i.op in (Op.LOAD, Op.STORE) for i in instrs)
    uses_byte_r = any(i.op == Op.LOAD1 for i in instrs)
    uses_byte_w = any(i.op == Op.STORE1 for i in instrs)
    uses_memcpy = any(i.op == Op.MEMCPY for i in instrs)
    uses_slice_r = any(i.op == Op.RTCALL and i.imm1 == _RT_SLICE_AT
                       for i in instrs)
    uses_slice_w = any(i.op == Op.RTCALL and i.imm1 == _RT_SLICE_PUT
                       for i in instrs)
    uses_slice = uses_slice_r or uses_slice_w
    uses_ctx = uses_locals or uses_word or uses_byte_r or uses_byte_w \
        or uses_memcpy or uses_slice
    uses_hoists = uses_locals or uses_word or uses_slice
    uses_guarded = any(i.op == Op.RTCALL and i.imm1 in _RT_GUARDED
                       for i in instrs)
    uses_pure_rt = any(i.op == Op.RTCALL and i.imm1 not in _RT_GUARDED
                       for i in instrs)
    uses_wfth = uses_word or uses_slice
    uses_pop = any((i.op == Op.RTCALL and
                    i.imm1 in (_RT_SLICE_AT, _RT_SLICE_PUT)) or
                   (i.op != Op.RTCALL and
                    (_STACK_EFFECT[i.op][0] > 0 or i.op == Op.DUP))
                   for i in instrs)
    uses_push = any(i.op not in (Op.NOP, Op.JMP, Op.JZ, Op.JNZ,
                                 Op.STOREL, Op.STORE, Op.STORE1,
                                 Op.MEMCPY, Op.DROP)
                    for i in instrs)

    # Prevalidated locals: every LOADL/STOREL in the region touches the
    # frame's locals area; when the whole accessed span lies on one
    # page whose r/w TLB entries validate (incl. PKRU) and no injector
    # is armed, each access is one struct op — the exact fast path
    # read_word/write_word would take, so word_fast/tlb_hits advance by
    # the same constants.
    local_offs = [8 * i.imm1 for i in instrs
                  if i.op in (Op.LOADL, Op.STOREL)]
    n_local = len(local_offs)

    lines = ["def _trace(interp, cpu, left):"]
    emit = lines.append
    emit("    ops = cpu.operands")
    emit("    clock = cpu.clock")
    if uses_ctx:
        emit("    mmu = interp.mmu")
        emit("    ctx = cpu.ctx")
    if uses_frame:
        emit("    fpb = cpu.fp + 16")
    if uses_hoists:
        emit("    table = ctx.page_table")
        emit("    tgen = table.gen")
        emit("    ept = ctx.ept")
        emit("    egen = 0 if ept is None else ept.gen")
        emit("    user = ctx.user")
        emit("    pkru = ctx.pkru")
        emit("    tget = ctx.tlb.get")
    # ``mmu.inject`` is set only while the injector has a fault armed.
    # Arming happens only in Prolog, an LBCALL, which the region grammar
    # excludes, and disarming only in an access that then raises; so the
    # value read at entry (the guard below, the hoisted ``inj``) holds
    # for the whole trace.
    if uses_locals:
        lo = min(local_offs)
        hi = max(local_offs)
        emit(f"    if (fpb + {lo}) >> {PAGE_SHIFT} "
             f"!= (fpb + {hi + 7}) >> {PAGE_SHIFT} "
             "or mmu.inject is not None:")
        emit("        return 0")
        emit(f"    pg4 = ((fpb + {lo}) >> {PAGE_SHIFT}) * 4")
        if local_reads:
            _emit_preval(emit, "pg4", "sfr", read=True)
        if local_writes:
            _emit_preval(emit, "pg4 + 1", "sfw", read=False)
        emit(f"    sb = fpb - ((pg4 >> 2) << {PAGE_SHIFT})")
    if uses_wfth:
        emit("    inj = mmu.inject")
        emit("    acc = mmu._access")
        emit("    wf = 0")
        emit("    th = 0")
    if uses_word or uses_slice_r:
        emit("    rword = mmu.read_word")
    if uses_word or uses_slice_w:
        emit("    wword = mmu.write_word")
    if uses_byte_r:
        emit("    rbyte = mmu.read_byte")
    if uses_byte_w:
        emit("    wbyte = mmu.write_byte")
    if uses_memcpy:
        emit("    mcpy = mmu.memcpy")
    if uses_guarded:
        emit("    dor = interp._do_rtcall")
        emit("    gua = interp._guarded")
    if uses_pure_rt:
        # Unwired handler -> deopt; the interpreter raises the
        # canonical Fault("exec", "no runtime handler wired").
        emit("    dsp = cpu.rtcall_handler")
        emit("    if dsp is None:")
        emit("        return 0")
        if uses_slice:
            # The open-coded SLICE_AT/PUT paths assume the stock
            # Runtime semantics; a custom handler deopts the region.
            emit("    if getattr(dsp, '__func__', None) is not RTD:")
            emit("        return 0")
    if profiled:
        emit("    prof = interp.profiler")
    if uses_push:
        emit("    push = ops.append")
    if uses_pop:
        emit("    pop = ops.pop")
    emit("    now = clock.now_ns")
    if loop:
        emit("    n = 0")
        if region.exits:
            emit("    px = -1")
    emit("    try:")
    ind = "            " if loop else "        "
    if loop:
        emit("        while True:")

    group_bounds = {start + arch for _slot, start, arch in region.groups}
    group_pcs = {start: entry + start * INSTR_SIZE
                 for _slot, start, arch in region.groups}

    def drain(idx: int, indent: str) -> None:
        # Retire-boundary drain with the *group-start* pc, exactly as
        # run_slice drains with the pre-dispatch pc.
        gstart = max(s for s in group_pcs if s <= idx)
        emit(f"{indent}if prof.next_due <= now:")
        emit(f"{indent}    clock.now_ns = now")
        emit(f"{indent}    prof.drain_retire({group_pcs[gstart]})")

    body = instrs[:-1] if loop else instrs
    for idx, ins in enumerate(body):
        if loop and ins.op in (Op.JZ, Op.JNZ):
            # Side exit: the taken edge leaves the trace (px selects
            # this exit's accounting in the epilogue); the fall-through
            # stays on trace.  The drain runs on both paths — the
            # interpreter drains after the dispatch either way.
            taken = "== 0" if ins.op == Op.JZ else "!= 0"
            j = region.exits.index(idx)
            emit(f"{ind}now += {COSTS.INSN_BRANCH!r}")
            emit(f"{ind}if pop() {taken}:")
            emit(f"{ind}    cpu.pc = {ins.imm1}")
            emit(f"{ind}    px = {j}")
            if profiled:
                drain(idx, ind + "    ")
            emit(f"{ind}    break")
            if profiled:
                drain(idx, ind)
            continue
        _emit_instr(emit, ins, entry + idx * INSTR_SIZE, ind)
        if profiled and (idx + 1) in group_bounds:
            drain(idx, ind)

    if loop:
        # Terminator: the taken side is the back edge.  The semantic
        # action (charge, condition pop, pc on exit) happens first, the
        # drain after it, exactly as one interpreted dispatch; cpu.pc is
        # written only on exit — nothing observes it mid-loop, and every
        # faultable op syncs its own pc first.
        term = instrs[-1]
        tidx = length - 1
        tpc = entry + tidx * INSTR_SIZE
        emit(f"{ind}now += {COSTS.INSN_BRANCH!r}")
        if term.op == Op.JMP:
            emit(f"{ind}n += {length}")
            if profiled:
                drain(tidx, ind)
            emit(f"{ind}if left - n < {length}:")
            emit(f"{ind}    cpu.pc = {entry}")
            emit(f"{ind}    break")
        else:
            taken = "== 0" if term.op == Op.JZ else "!= 0"
            emit(f"{ind}if pop() {taken}:")
            emit(f"{ind}    n += {length}")
            if profiled:
                drain(tidx, ind + "    ")
            emit(f"{ind}    if left - n < {length}:")
            emit(f"{ind}        cpu.pc = {entry}")
            emit(f"{ind}        break")
            emit(f"{ind}else:")
            emit(f"{ind}    cpu.pc = {tpc + INSTR_SIZE}")
            emit(f"{ind}    n += {length}")
            if profiled:
                drain(tidx, ind + "    ")
            emit(f"{ind}    break")
    elif instrs[-1].op not in _TERM:
        emit(f"{ind}cpu.pc = {entry + length * INSTR_SIZE}")

    # Fault hook: the clock local is authoritative unless the raise
    # came from inside an MMU helper that charged after our last sync
    # (then clock is already ahead — charges only ever advance time).
    emit("    except BaseException:")
    emit("        if now > clock.now_ns:")
    emit("            clock.now_ns = now")
    if uses_wfth:
        emit("        perf = interp.perf")
        emit("        perf.word_fast += wf")
        emit("        perf.tlb_hits += th")
    emit(f"        interp._jit_fault(cpu, {entry}, "
         f"{'n' if loop else 0})")
    emit("        raise")

    # Success epilogue: batch the counters the interpreter would have
    # bumped one dispatch at a time (integer adds commute).
    emit("    clock.now_ns = now")
    emit("    perf = interp.perf")
    emit("    oc = perf.op_counts")
    slot_counts: dict[int, int] = {}
    for slot, _start, _arch in region.groups:
        slot_counts[slot] = slot_counts.get(slot, 0) + 1
    if loop:
        emit(f"    it = n // {length}")
        for slot in sorted(slot_counts):
            mult = "it" if slot_counts[slot] == 1 \
                else f"{slot_counts[slot]} * it"
            emit(f"    oc[{slot}] += {mult}")
        if region.exits:
            # A pass that left through side exit px retired that exit's
            # prefix: its arch count, dispatch groups, and prevalidated
            # locals come from the per-exit constant table.
            if n_local:
                emit("    xl = 0")
            emit("    if px >= 0:")
            emit("        xa, xs" + (", xl" if n_local else ", _xl") +
                 " = _EXITS[px]")
            emit("        n += xa")
            emit("        for s2, c2 in xs:")
            emit("            oc[s2] += c2")
        xl = " + xl" if (region.exits and n_local) else ""
        if uses_wfth and n_local:
            emit(f"    perf.word_fast += wf + {n_local} * it{xl}")
            emit(f"    perf.tlb_hits += th + {n_local} * it{xl}")
        elif uses_wfth:
            emit("    perf.word_fast += wf")
            emit("    perf.tlb_hits += th")
        elif n_local:
            emit(f"    perf.word_fast += {n_local} * it{xl}")
            emit(f"    perf.tlb_hits += {n_local} * it{xl}")
        emit("    perf.jit_trace_executions += 1")
        emit("    perf.jit_insns += n")
        emit("    return n")
    else:
        for slot in sorted(slot_counts):
            emit(f"    oc[{slot}] += {slot_counts[slot]}")
        if uses_wfth and n_local:
            emit(f"    perf.word_fast += wf + {n_local}")
            emit(f"    perf.tlb_hits += th + {n_local}")
        elif uses_wfth:
            emit("    perf.word_fast += wf")
            emit("    perf.tlb_hits += th")
        elif n_local:
            emit(f"    perf.word_fast += {n_local}")
            emit(f"    perf.tlb_hits += {n_local}")
        emit("    perf.jit_trace_executions += 1")
        emit(f"    perf.jit_insns += {length}")
        emit(f"    return {length}")
    return "\n".join(lines) + "\n"


def _emit_preval(emit, key: str, frame_var: str, read: bool) -> None:
    """Entry guard validating one locals-page TLB entry, mirroring the
    hit conditions of read_word/write_word (including per-access PKRU);
    any mismatch deopts to the interpreter, which owns the slow path."""
    emit(f"    e = tget({key})")
    emit("    if e is None or e[2] is not table or e[3] != tgen \\")
    emit("            or e[4] is not ept \\")
    emit("            or (ept is not None and e[5] != egen):")
    emit("        return False")
    emit("    p = e[0]")
    emit("    if not p.user and user:")
    emit("        return False")
    if read:
        emit("    if pkru is not None and user "
             "and (pkru >> (2 * p.pkey)) & 1:")
    else:
        emit("    if pkru is not None and user "
             "and (pkru >> (2 * p.pkey)) & 3 != 0:")
    emit("        return False")
    emit(f"    {frame_var} = e[1]")


def _emit_instr(emit, ins: Instr, pc: int, I: str) -> None:
    """Emit one architectural instruction at indent ``I`` (inside try).

    Simulated charges are individual float adds, in the interpreter's
    order, on the local ``now``; ``cpu.pc`` is synced before anything
    that can fault so the fault observes the interpreter's exact state,
    and ``clock.now_ns`` is synced around MMU helpers that charge the
    clock themselves (re-read after, since they advanced it)."""
    op = ins.op
    if op == Op.PUSH:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}push({ins.imm1!r})")
    elif op == Op.LOADL:
        emit(f"{I}now += {COSTS.INSN_MEM!r}")
        emit(f"{I}push(unpack_from(sfr, sb + {8 * ins.imm1})[0])")
    elif op == Op.STOREL:
        emit(f"{I}now += {COSTS.INSN_MEM!r}")
        emit(f"{I}pack_into(sfw, sb + {8 * ins.imm1}, pop() & {_M64})")
    elif op == Op.ADDRL:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}push(fpb + {8 * ins.imm1})")
    elif op == Op.LOAD:
        emit(f"{I}cpu.pc = {pc}")
        emit(f"{I}now += {COSTS.INSN_MEM!r}")
        emit(f"{I}a = pop()")
        _emit_word_access(emit, read=True, I=I)
    elif op == Op.STORE:
        emit(f"{I}cpu.pc = {pc}")
        emit(f"{I}now += {COSTS.INSN_MEM!r}")
        emit(f"{I}v = pop()")
        emit(f"{I}a = pop()")
        _emit_word_access(emit, read=False, I=I)
    elif op == Op.LOAD1:
        emit(f"{I}cpu.pc = {pc}")
        emit(f"{I}clock.now_ns = now")
        emit(f"{I}push(rbyte(ctx, pop()))")
        emit(f"{I}now = clock.now_ns")
    elif op == Op.STORE1:
        emit(f"{I}cpu.pc = {pc}")
        emit(f"{I}v = pop()")
        emit(f"{I}a = pop()")
        emit(f"{I}clock.now_ns = now")
        emit(f"{I}wbyte(ctx, a, v)")
        emit(f"{I}now = clock.now_ns")
    elif op == Op.MEMCPY:
        emit(f"{I}cpu.pc = {pc}")
        emit(f"{I}n2 = pop()")
        emit(f"{I}s = pop()")
        emit(f"{I}d = pop()")
        emit(f"{I}if n2 < 0:")
        emit(f"{I}    raise Fault('arith', 'negative MEMCPY length')")
        emit(f"{I}clock.now_ns = now")
        emit(f"{I}mcpy(ctx, d, s, n2)")
        emit(f"{I}now = clock.now_ns")
    elif op == Op.DROP:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}pop()")
    elif op == Op.DUP:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}push(ops[-1])")
    elif op == Op.SWAP:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}b = pop()")
        emit(f"{I}a = pop()")
        emit(f"{I}push(b)")
        emit(f"{I}push(a)")
    elif op == Op.NEG:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}v = (-pop()) & {_M64}")
        emit(f"{I}push(v - {_W64} if v >= {_S63} else v)")
    elif op == Op.NOT:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}push(1 if pop() == 0 else 0)")
    elif op == Op.RTCALL:
        emit(f"{I}cpu.pc = {pc}")
        if ins.imm1 in _RT_GUARDED:
            # CHAN_SEND/RECV keep _guarded's WouldBlock stack restore
            # around the real _do_rtcall, exactly as _op_rtcall does.
            emit(f"{I}clock.now_ns = now")
            emit(f"{I}gua(cpu, dor, {ins.imm1}, {ins.imm2})")
        elif ins.imm1 in (_RT_SLICE_AT, _RT_SLICE_PUT):
            _emit_slice_access(emit, ins, I)
        else:
            # Pure services inline _do_rtcall's body: charge, popn,
            # dispatch, wrap-push — same effect order, one less frame.
            emit(f"{I}now += {COSTS.RTCALL!r}")
            if ins.imm2:
                emit(f"{I}a = tuple(ops[-{ins.imm2}:])")
                emit(f"{I}del ops[-{ins.imm2}:]")
            else:
                emit(f"{I}a = ()")
            emit(f"{I}clock.now_ns = now")
            emit(f"{I}push(w64(dsp(cpu, {ins.imm1}, a)))")
        emit(f"{I}now = clock.now_ns")
    elif op == Op.NOP:
        emit(f"{I}now += {COSTS.INSN!r}")
    elif op in _CMP_EXPR:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}b = pop()")
        emit(f"{I}a = pop()")
        emit(f"{I}push(1 if a {_CMP_EXPR[op]} b else 0)")
    elif op in (Op.DIV, Op.MOD):
        kind = "divide" if op == Op.DIV else "modulo"
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}b = pop()")
        emit(f"{I}a = pop()")
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
        emit(f"{I}push(v - {_W64} if v >= {_S63} else v)")
    elif op in _ALU_EXPR:
        emit(f"{I}now += {COSTS.INSN!r}")
        emit(f"{I}b = pop()")
        emit(f"{I}a = pop()")
        emit(f"{I}v = ({_ALU_EXPR[op]}) & {_M64}")
        emit(f"{I}push(v - {_W64} if v >= {_S63} else v)")
    elif op == Op.JMP:
        emit(f"{I}now += {COSTS.INSN_BRANCH!r}")
        emit(f"{I}cpu.pc = {ins.imm1}")
    elif op == Op.JZ:
        emit(f"{I}now += {COSTS.INSN_BRANCH!r}")
        emit(f"{I}cpu.pc = {ins.imm1} if pop() == 0 "
             f"else {pc + INSTR_SIZE}")
    elif op == Op.JNZ:
        emit(f"{I}now += {COSTS.INSN_BRANCH!r}")
        emit(f"{I}cpu.pc = {pc + INSTR_SIZE} if pop() == 0 "
             f"else {ins.imm1}")
    else:  # pragma: no cover - discovery admits only the ops above
        raise Fault("exec", f"JIT cannot compile op {op!r}")


def _emit_slice_access(emit, ins: Instr, I: str) -> None:
    """Open-coded SLICE_AT / SLICE_PUT (the stock ``Runtime`` handlers
    flattened into the trace).  Effect order mirrors ``_do_rtcall`` +
    ``_rt_slice_at``/``_rt_slice_put`` exactly: charge RTCALL, pop the
    args, read the descriptor uncharged through the TLB (hit -> one
    ``tlb_hits``; anything else -> ``_access``), bounds-check with the
    canonical fault text, then one charged element access with the
    word/byte helpers' own fast paths inlined (identical counters:
    ``word_fast``/``tlb_hits`` on the word path, ``tlb_hits`` on the
    byte path, ``_access`` fallback, ``word_slow`` via the real helper
    for a page-spanning word).  Injector armed or a page-spanning
    descriptor falls back to the generic dispatch call, which is the
    interpreter's own path."""
    put = ins.imm1 == _RT_SLICE_PUT
    emit(f"{I}now += {COSTS.RTCALL!r}")
    if put:
        emit(f"{I}v2 = pop()")
    emit(f"{I}i2 = pop()")
    emit(f"{I}e2 = pop()")
    emit(f"{I}d2 = pop()")
    emit(f"{I}o2 = d2 & {PAGE_MASK}")
    emit(f"{I}if inj is None and o2 <= {PAGE_SIZE - 24}:")
    emit(f"{I}    t2 = tget((d2 >> {PAGE_SHIFT}) * 4)")
    emit(f"{I}    if t2 is not None and t2[2] is table and t2[3] == tgen "
         f"and t2[4] is ept and (ept is None or t2[5] == egen) "
         f"and (t2[0].user or not user) and (pkru is None or not user "
         f"or not (pkru >> (2 * t2[0].pkey)) & 1):")
    emit(f"{I}        th += 1")
    emit(f"{I}        f2 = t2[1]")
    emit(f"{I}    else:")
    emit(f"{I}        f2 = acc(ctx, d2, 'r')[1]")
    emit(f"{I}    da, ln = desc2(f2, o2)")
    emit(f"{I}    if not 0 <= i2 < ln:")
    emit(f"{I}        raise Fault('arith', f'slice index {{i2}} "
         f"out of range [0,{{ln}})')")
    emit(f"{I}    now += {COSTS.INSN_MEM!r}")
    key = "(a2 >> 12) * 4" if not put else "(a2 >> 12) * 4 + 1"
    pkey_ok = ("not (pkru >> (2 * p2.pkey)) & 1" if not put
               else "(pkru >> (2 * p2.pkey)) & 3 == 0")
    probe = (f"t2 is not None and t2[2] is table and t2[3] == tgen "
             f"and t2[4] is ept and (ept is None or t2[5] == egen) "
             f"and ((p2 := t2[0]).user or not user) "
             f"and (pkru is None or not user or {pkey_ok})")
    kind = "'w'" if put else "'r'"
    emit(f"{I}    if e2 == 1:")
    emit(f"{I}        a2 = da + i2")
    emit(f"{I}        t2 = tget({key})")
    emit(f"{I}        if {probe}:")
    emit(f"{I}            th += 1")
    if put:
        emit(f"{I}            t2[1][a2 & {PAGE_MASK}] = v2 & 255")
        emit(f"{I}        else:")
        emit(f"{I}            acc(ctx, a2, 'w')[1][a2 & {PAGE_MASK}]"
             f" = v2 & 255")
    else:
        emit(f"{I}            push(t2[1][a2 & {PAGE_MASK}])")
        emit(f"{I}        else:")
        emit(f"{I}            push(acc(ctx, a2, 'r')[1][a2 & {PAGE_MASK}])")
    emit(f"{I}        clock.now_ns = now")
    emit(f"{I}    else:")
    emit(f"{I}        a2 = da + i2 * e2")
    emit(f"{I}        o2 = a2 & {PAGE_MASK}")
    emit(f"{I}        if o2 <= {PAGE_SIZE - 8}:")
    emit(f"{I}            wf += 1")
    emit(f"{I}            t2 = tget({key})")
    emit(f"{I}            if {probe}:")
    emit(f"{I}                th += 1")
    if put:
        emit(f"{I}                pack_into(t2[1], o2, v2 & {_M64})")
        emit(f"{I}            else:")
        emit(f"{I}                pack_into(acc(ctx, a2, {kind})[1], o2, "
             f"v2 & {_M64})")
    else:
        emit(f"{I}                push(unpack_from(t2[1], o2)[0])")
        emit(f"{I}            else:")
        emit(f"{I}                push(unpack_from(acc(ctx, a2, {kind})[1], "
             f"o2)[0])")
    emit(f"{I}            clock.now_ns = now")
    emit(f"{I}        else:")
    emit(f"{I}            clock.now_ns = now")
    if put:
        emit(f"{I}            wword(ctx, a2, v2, False)")
    else:
        emit(f"{I}            push(rword(ctx, a2, False))")
    if put:
        emit(f"{I}    push(0)")
    emit(f"{I}else:")
    emit(f"{I}    clock.now_ns = now")
    args = "(d2, e2, i2, v2)" if put else "(d2, e2, i2)"
    emit(f"{I}    push(w64(dsp(cpu, {ins.imm1}, {args})))")


def _emit_word_access(emit, read: bool, I: str) -> None:
    """Inline the read_word/write_word fast path for a dynamic address
    ``a`` (value ``v`` for stores): same fit check, same TLB-hit
    validation and per-access PKRU test, same ``_access`` fallback that
    owns every fault/trace/counter slow path (it never touches the
    clock, so no sync is needed — the fault hook covers a raise), same
    page-spanning fallback into the real helper (already charged)."""
    kind = "'r'" if read else "'w'"
    key = "(a >> 12) * 4" if read else "(a >> 12) * 4 + 1"
    pkey_ok = ("not (pkru >> (2 * p.pkey)) & 1" if read
               else "(pkru >> (2 * p.pkey)) & 3 == 0")
    emit(f"{I}o = a & {(1 << PAGE_SHIFT) - 1}")
    emit(f"{I}if o <= {(1 << PAGE_SHIFT) - 8}:")
    emit(f"{I}    wf += 1")
    emit(f"{I}    e = tget({key})")
    emit(f"{I}    if (inj is None and e is not None and e[2] is table")
    emit(f"{I}            and e[3] == tgen and e[4] is ept")
    emit(f"{I}            and (ept is None or e[5] == egen)")
    emit(f"{I}            and ((p := e[0]).user or not user)")
    emit(f"{I}            and (pkru is None or not user")
    emit(f"{I}                 or {pkey_ok})):")
    emit(f"{I}        th += 1")
    if read:
        emit(f"{I}        push(unpack_from(e[1], o)[0])")
        emit(f"{I}    else:")
        emit(f"{I}        push(unpack_from(acc(ctx, a, {kind})[1], o)[0])")
        emit(f"{I}else:")
        emit(f"{I}    push(rword(ctx, a, False))")
    else:
        emit(f"{I}        pack_into(e[1], o, v & {_M64})")
        emit(f"{I}    else:")
        emit(f"{I}        pack_into(acc(ctx, a, {kind})[1], o, v & {_M64})")
        emit(f"{I}else:")
        emit(f"{I}    wword(ctx, a, v, False)")
