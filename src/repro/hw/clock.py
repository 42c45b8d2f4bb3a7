"""Simulated-time cost model.

All simulated-nanosecond constants for the whole reproduction live here,
in one place.  They were calibrated *once* against the paper's Table 1
microbenchmarks (see :mod:`repro.workloads.micro`); every other
experiment (Table 2, Figure 5, Section 6.4) derives its timing from these
same constants, so the shapes those experiments exhibit emerge from the
mechanism rather than from per-experiment tuning.

The structural facts the model encodes match the hardware the paper
measures on:

* a PKRU write is ~20 ns and needs no kernel involvement,
* a host system call round trip costs a few hundred ns,
* a VM EXIT/RESUME round trip costs a few microseconds,
* updating page-table entries costs tens of ns per page, while
  re-tagging protection keys requires a ``pkey_mprotect`` system call.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Costs:
    """Simulated cost constants, in nanoseconds."""

    # CPU core.
    INSN: float = 0.9              # simple ALU / stack instruction
    INSN_MEM: float = 1.4          # load/store, incl. TLB-hit translation
    INSN_CALL: float = 3.0         # call/ret, incl. frame link
    INSN_BRANCH: float = 1.1       # taken or not

    # MPK.
    WRPKRU: float = 18.0           # write PKRU (serializing)
    RDPKRU: float = 0.8
    VERIF_MPK: float = 1.5         # call-site check via pre-scanned table

    # Privilege transitions.
    HOST_SYSCALL: float = 330.0    # host user->kernel->user round trip
    GUEST_SYSCALL: float = 96.0    # non-root user -> guest kernel round trip
    CR3_WRITE: float = 182.0       # page-table root switch incl. TLB flush
    VERIF_VTX: float = 58.0        # super's call-site validation
    VTX_SWITCH_MISC: float = 102.0 # guest handler bookkeeping per switch
    VMEXIT_ROUNDTRIP: float = 3590.0  # VM EXIT + VM RESUME

    # Page-table maintenance.
    PTE_UPDATE: float = 11.5       # toggle presence / rights on one PTE
    PKEY_SET_PAGE: float = 152.0   # pkey_mprotect work per page
    EPT_UPDATE: float = 14.0

    # Cross-core TLB maintenance (SMP machines only; a single-core
    # machine never charges these).  A page-table or PKRU revocation
    # that other cores may have cached must interrupt each remote core
    # and wait for its acknowledgement — Linux's
    # ``flush_tlb_mm_range``/``smp_call_function_many`` path.
    IPI: float = 980.0             # send one IPI + wait for the ack
    TLB_SHOOTDOWN: float = 640.0   # remote handler: flush + resync

    # Kernel services.
    SECCOMP_FIXED: float = 118.0   # seccomp entry/exit machinery per syscall
    SECCOMP_BPF_INSN: float = 1.5  # per BPF instruction evaluated
    SYSCALL_SERVICE_MIN: float = 35.0  # cheapest service (getuid)
    MMAP_PER_PAGE: float = 55.0
    FS_BYTE: float = 0.035         # fs read/write per byte
    NET_BYTE: float = 0.045        # socket tx/rx per byte
    NET_SETUP: float = 420.0       # connection establishment
    POLL_FD: float = 6.0           # poll readiness scan, per watched fd

    # Bulk memory (MEMCPY instruction, string helpers).
    MEM_BYTE: float = 0.12

    # Runtime services.
    RTCALL: float = 4.0            # dispatch into the language runtime
    ALLOC_FAST: float = 9.0        # bump allocation within a cached span
    ALLOC_SLOW: float = 60.0       # refill path, excl. Transfer/mmap costs
    SCHED_SWITCH: float = 45.0     # scheduler picking the next goroutine

    # Pylite (CPython-like) interpreter.
    PY_BYTECODE: float = 14.0      # one interpreter "step"
    PY_INCREF: float = 1.0
    PY_ALLOC: float = 28.0
    PY_IMPORT: float = 21000.0     # parse + compile one module
    PY_INIT_BASE: float = 175000.0 # delayed env init: view computation + KVM


#: The cost table used throughout the simulation.
COSTS = Costs()


@dataclass
class SimClock:
    """Monotonic simulated clock.

    Components call :meth:`charge` with a cost expressed in simulated
    nanoseconds.  The clock also keeps named counters so experiments can
    report *why* time was spent (e.g. number of switches, VM exits).
    """

    now_ns: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def charge(self, ns: float) -> None:
        """Advance simulated time by ``ns`` nanoseconds."""
        self.now_ns += ns

    def tick(self, counter: str, ns: float = 0.0) -> None:
        """Increment a named event counter, optionally charging time."""
        self.counters[counter] = self.counters.get(counter, 0) + 1
        if ns:
            self.now_ns += ns

    def count(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    def reset(self) -> None:
        self.now_ns = 0.0
        self.counters.clear()

    def snapshot(self) -> "ClockSnapshot":
        return ClockSnapshot(self.now_ns, dict(self.counters))


@dataclass(frozen=True)
class ClockSnapshot:
    """A point-in-time copy of the clock, for interval measurements."""

    now_ns: float
    counters: dict[str, int]

    def delta(self, clock: SimClock, counter: str) -> int:
        return clock.count(counter) - self.counters.get(counter, 0)
