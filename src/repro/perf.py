"""Interpreter performance counters (wall-clock observability).

:class:`PerfStats` counts what the *simulator's* hot path does — TLB
hits/misses/flushes, fetch fast-path behaviour, per-opcode dispatch
frequencies, superinstruction fusion and the trace JIT.  These are
observability counters for the interpreter itself; they are deliberately
disjoint from :class:`~repro.hw.clock.SimClock`, whose simulated-nanosecond
accounting is part of the reproduction's cost model and must not change
when the interpreter gets faster.

One instance is shared per :class:`~repro.machine.Machine` by the MMU
(translation counters) and the interpreter (fetch/dispatch/fusion/JIT
counters), and surfaced via ``machine.perf``, ``repro run --stats``, and
the per-layer counters of ``perfbench/bench.py``.
"""

from __future__ import annotations


def _dispatch_slots() -> int:
    # Late import: perf is imported by repro.hw.mmu, and repro.isa
    # imports repro.hw — a module-level import here would cycle
    # hw -> perf -> isa -> hw.  By first counter reset, repro.isa.opcodes
    # is importable and gives the exact bound (real opcodes plus the
    # fused pseudo-opcodes) instead of a padded guess.
    from repro.isa.opcodes import DISPATCH_SLOTS
    return DISPATCH_SLOTS


def _op_name(code: int) -> str:
    from repro.isa.opcodes import FUSED_BASE, FUSED_NAMES, Op
    if code < FUSED_BASE:
        return Op(code).name
    return FUSED_NAMES[code - FUSED_BASE]


class PerfStats:
    """Counters for the simulated CPU's fast paths.

    Attributes are plain ints (and one list) so the hot loops can
    increment them without function-call overhead.
    """

    __slots__ = ("tlb_hits", "tlb_misses", "tlb_flushes",
                 "fetch_slow", "word_fast", "word_slow", "op_counts",
                 "jit_traces_compiled", "jit_trace_executions",
                 "jit_insns", "jit_deopts", "jit_flushes",
                 "runs")

    #: Always zero, and read-only: the transition and verdict memos
    #: these counted are gone, but ``perfbench/bench.py::perf_counters``
    #: still reads all four.
    trans_hits = trans_misses = verdict_hits = verdict_misses = 0

    def __init__(self) -> None:
        #: How many ``Machine.run()`` drives this instance has counted;
        #: survives :meth:`reset` so reports can say which run they are.
        self.runs = 0
        self.reset()

    def begin_run(self) -> None:
        """Reset all counters at the start of a ``Machine.run()`` so the
        numbers describe that run only, not the process lifetime."""
        self.runs += 1
        self.reset()

    def reset(self) -> None:
        #: Data/exec translations served from a context's software TLB.
        self.tlb_hits = 0
        #: Translations that required a full page-table (and EPT) walk.
        self.tlb_misses = 0
        #: Explicit whole-context flushes (CR3 writes, env switches).
        self.tlb_flushes = 0
        #: Instruction fetches that missed the per-page exec cache and
        #: went through ``check_exec`` (fast fetches = instructions
        #: executed minus this).
        self.fetch_slow = 0
        #: Aligned single-page word accesses that took the direct
        #: frame route vs. the generic page-by-page loop.
        self.word_fast = 0
        self.word_slow = 0
        #: Traces linked to a hot leader this run (re-linking after a
        #: flush counts again; re-entering a linked trace does not).
        self.jit_traces_compiled = 0
        #: Completed executions of compiled traces.
        self.jit_trace_executions = 0
        #: Architectural instructions retired *inside* compiled traces
        #: (complete groups only on a faulting execution).
        self.jit_insns = 0
        #: Deopt reason -> count: "budget" (slice too short), "depth"
        #: (operand stack shallower than the region needs),
        #: "guard:<cause>" (the trace declined its entry; see
        #: ``repro.isa.jit.GUARDS``), "fault" (trace raised a fault),
        #: "block" (a channel op in the trace would block).
        self.jit_deopts = {}
        #: Whole-cache invalidations (quarantine trips, policy edits).
        self.jit_flushes = 0
        #: Executed-instruction counts indexed by opcode value; slots at
        #: and above ``FUSED_BASE`` count fused-pair executions, one per
        #: fusion kind.  JIT traces batch into the same slots (the
        #: fused pseudo-op for a fused group), so op_counts are
        #: bit-identical with the JIT on or off.
        self.op_counts = [0] * _dispatch_slots()

    # -- derived -----------------------------------------------------------

    @property
    def instructions(self) -> int:
        """Architectural instructions executed (a fused pair counts 2)."""
        from repro.isa.opcodes import FUSED_BASE
        counts = self.op_counts
        return sum(counts) + sum(counts[FUSED_BASE:])

    @property
    def fused_instructions(self) -> int:
        """Instructions retired through fused handlers (2 per pair)."""
        from repro.isa.opcodes import FUSED_BASE
        return 2 * sum(self.op_counts[FUSED_BASE:])

    @property
    def tlb_hit_rate(self) -> float:
        total = self.tlb_hits + self.tlb_misses
        return self.tlb_hits / total if total else 0.0

    @property
    def word_hit_rate(self) -> float:
        """Share of word accesses that took the direct frame route."""
        total = self.word_fast + self.word_slow
        return self.word_fast / total if total else 0.0

    def expanded_ops(self) -> dict[str, int]:
        """Per-opcode counts with fused (and therefore JIT-batched)
        executions credited to their *constituent* opcodes as well as
        the pseudo-op, so op-frequency analysis — hot-region detection,
        ``repro report`` — agrees with an unfused run.  A fused
        ``PUSH+ADD`` execution contributes 1 to ``PUSH``, 1 to ``ADD``,
        and 1 to the ``PUSH+ADD`` row."""
        from repro.isa.opcodes import FUSED_BASE, FUSED_NAMES, FUSED_PAIRS, Op
        counts = self.op_counts
        out: dict[str, int] = {}
        for code in range(FUSED_BASE):
            if counts[code]:
                out[Op(code).name] = counts[code]
        for i, (op1, op2) in enumerate(FUSED_PAIRS):
            count = counts[FUSED_BASE + i]
            if count:
                name1, name2 = Op(op1).name, Op(op2).name
                out[name1] = out.get(name1, 0) + count
                out[name2] = out.get(name2, 0) + count
                out[FUSED_NAMES[i]] = count
        return out

    def top_ops(self, n: int = 10) -> list[tuple[str, int]]:
        pairs = list(self.expanded_ops().items())
        pairs.sort(key=lambda item: item[1], reverse=True)
        return pairs[:n]

    # -- reporting ---------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready counters (``stats.json`` in an artifact bundle)."""
        return {
            "runs": self.runs,
            "tlb_hits": self.tlb_hits,
            "tlb_misses": self.tlb_misses,
            "tlb_flushes": self.tlb_flushes,
            "tlb_hit_rate": round(self.tlb_hit_rate, 4),
            "fetch_slow": self.fetch_slow,
            "word_fast": self.word_fast,
            "word_slow": self.word_slow,
            "word_hit_rate": round(self.word_hit_rate, 4),
            "fused_instructions": self.fused_instructions,
            "instructions": self.instructions,
            "jit_traces_compiled": self.jit_traces_compiled,
            "jit_trace_executions": self.jit_trace_executions,
            "jit_insns": self.jit_insns,
            "jit_deopts": dict(sorted(self.jit_deopts.items())),
            "jit_flushes": self.jit_flushes,
            "ops": self.expanded_ops(),
        }

    def describe(self, top: int = 8) -> list[str]:
        """Human-readable counter lines for ``--stats`` output."""
        insns = self.instructions
        share = (self.jit_insns / insns) if insns else 0.0
        deopts = ", ".join(f"{reason}:{count}" for reason, count
                           in sorted(self.jit_deopts.items())) or "none"
        jit = (f"jit: {self.jit_traces_compiled} traces compiled, "
               f"{self.jit_trace_executions} executions covering "
               f"{self.jit_insns} instructions ({100 * share:.1f}%), "
               f"deopts {deopts}")
        if self.jit_flushes:
            jit += f", {self.jit_flushes} cache flushes"
        lines = [
            f"tlb: {self.tlb_hits} hits / {self.tlb_misses} misses "
            f"({100 * self.tlb_hit_rate:.1f}% hit rate), "
            f"{self.tlb_flushes} flushes "
            f"(context switches + CR3 writes)",
            f"fetch: {insns - self.fetch_slow} fast / "
            f"{self.fetch_slow} checked of {insns} instructions",
            f"word access: {self.word_fast} fast / {self.word_slow} generic "
            f"({100 * self.word_hit_rate:.1f}% fast)",
            f"fused: {self.fused_instructions} of {insns} instructions "
            f"retired through superinstructions",
            jit,
        ]
        if insns:
            hot = ", ".join(f"{name}:{count}"
                            for name, count in self.top_ops(top))
            lines.append(f"hot opcodes: {hot}")
        return lines
