"""Host-time accounting for the benchmark, measured from outside ``src/``.

Everything here works by replacing a public function or method of the
simulator with a timing wrapper, so nothing in ``src/`` has to know it
is being measured.  Two kinds of wrapper exist:

* :class:`Probes` are on in every benchmark process.  They capture the
  machines and load generators a repetition builds (for the digest and
  the instruction count), time each arrival the load generators drive
  (``host_req_*``), and mark the boundaries of the segments that
  ``wall_s`` is summed from.  They cost a few clock reads per request.
  Every :data:`CHUNK_EVERY` marks they also time a
  :class:`Calibration` chunk, which measures the host's own speed.
* :class:`LayerClock` is on only in the traced process.  It wraps each
  layer's entry points (the ``LAYERS`` table), keeps a stack of open
  frames, and charges every frame its elapsed time minus the time of
  the frames opened inside it: that is the layer's *self* time.  The
  time no wrapper covers lands on the root frame, ``host.other``.

Both must be installed before the first machine is built: the machine
binds ``Runtime.dispatch`` into each CPU when it is constructed.
"""

from __future__ import annotations

import importlib
import resource
import time

ROOT = "host.other"

#: layer -> (module, class, method names).  Each entry is the public
#: boundary into that layer; inline TLB hits and the probes open-coded
#: in JIT traces stay with their caller.  ``isa.jit`` is wrapped where
#: traces are made (see :meth:`LayerClock.install`).
LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "runtime.scheduler": [("repro.runtime.scheduler", "Scheduler", ("run",))],
    "isa.interp": [("repro.isa.interp", "Interpreter", ("run_slice",))],
    "hw.mmu": [("repro.hw.mmu", "MMU", (
        "exec_tag", "read", "write", "read_word", "write_word",
        "read_frame", "read_byte", "write_byte", "memcpy", "flush_tlb"))],
    "os.kernel": [
        ("repro.core.backends", "BaselineBackend", ("syscall",)),
        ("repro.core.lb_mpk", "MPKBackend", ("syscall",)),
        ("repro.core.lb_vtx", "VTXBackend", ("syscall",)),
        ("repro.core.lb_lwc", "LWCBackend", ("syscall",)),
    ],
    "os.seccomp": [("repro.os.seccomp", "BpfProgram", ("run",))],
    "os.net": [
        ("repro.os.net", "Network", ("connect",)),
        ("repro.os.net", "Endpoint", ("send", "recv", "close")),
    ],
    "core.litterbox": [("repro.core.litterbox", "LitterBox",
                        ("prolog", "epilog", "execute"))],
    "runtime.runtime": [("repro.runtime.runtime", "Runtime", ("dispatch",))],
    "metrics": [
        ("repro.metrics", "Counter", ("inc",)),
        ("repro.metrics", "Gauge", ("set",)),
        ("repro.metrics", "Histogram", ("observe",)),
    ],
    "workloads.loadgen": [
        ("repro.workloads.loadgen", "OpenLoopLoadGen",
         ("_pump_slot", "_drain_slot")),
        ("repro.workloads.tenants", "TenantLoadGen", ("_pump_slot",)),
    ],
}

#: Every layer the traced table reports, ``host.other`` last.
LAYER_NAMES = (*LAYERS, "isa.jit", ROOT)

#: Marks between two calibration chunks: about every 0.2 s, which
#: spends 3% of a run on them.
CHUNK_EVERY = 160
#: About a calibration chunk's cost inside a run, on the host the
#: committed baseline was taken on (a 2-vCPU Intel Xeon VM, Python
#: 3.11.7).  The benchmark reports host times scaled to this speed.
REFERENCE_CHUNK_NS = 6_000_000
#: Pages of the two page tables a calibration chunk walks: 2 MB, about
#: one core's own cache, and 32 MB, more than the cache the host's cores
#: share.  A host slowed by its neighbours slows the simulator more than
#: a loop in cache, and these two track it best of the chunks tried.
CALIBRATION_PAGES = (512, 8192)
#: Random accesses per table and chunk (about 4 ms in all, alone).
CALIBRATION_STEPS = 6000
#: Bytes read before each chunk, untimed.
EVICT_BYTES = 4 << 20


def resident_mb() -> float:
    """This process's resident set now, in MB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class Calibration:
    """A fixed piece of pure-Python work whose host time measures the
    host's own speed.  It never touches the simulator, so a change to
    ``src/`` cannot move it.  It is a software page walk in the style of
    the simulator's MMU: random addresses, a TLB dict filled on a miss,
    a byte read and a byte written in a 4 KB ``bytearray`` page."""

    def __init__(self) -> None:
        before = resident_mb()
        self._tables = [{vpn: bytearray(4096) for vpn in range(pages)}
                        for pages in CALIBRATION_PAGES]
        # Twice a core's own cache (2 MB), in bytes 0-254 only, so that
        # ``find(255)`` reads all of it.
        self._evict = bytes(range(255)) * (EVICT_BYTES // 255)
        #: The tables' share of the resident set, left out of
        #: ``peak_rss_mb``.
        self.footprint_mb = resident_mb() - before

    def evict(self) -> None:
        """Read :data:`EVICT_BYTES`, which empties the core's own cache:
        the chunk then starts from the same state whatever ran before
        it, and the simulator's footprint cannot change its cost."""
        self._evict.find(255)

    def chunk(self) -> None:
        for pages in self._tables:
            mask = len(pages) * 4096 - 1
            tlb: dict[int, bytearray] = {}
            total = 0
            addr = 12345
            for _ in range(CALIBRATION_STEPS):
                addr = (addr * 1103515245 + 12345) & mask
                vpn = addr >> 12
                page = tlb.get(vpn)
                if page is None:
                    page = pages[vpn]
                    tlb[vpn] = page
                total += page[addr & 4095]
                page[(addr + 1) & 4095] = total & 255


class LayerClock:
    """Self time and boundary crossings per layer, from a frame stack.

    A call into a layer from the same layer (``MMU.memcpy`` calling
    ``MMU.read``, a backend calling its base class) runs unwrapped, so
    ``calls`` counts entries *into* a layer from another one.
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        #: Host seconds spent generating and compiling JIT traces.  They
        #: run inside ``isa.interp`` (warm-up happens in the slice loop)
        #: and stay in its self time; this is an overlay, not a layer.
        self.compile_s = 0.0
        self._stack = [ROOT]
        self._child = [0.0]

    def reset(self) -> None:
        """Forget everything recorded so far.  The wrappers hold the
        dicts and the stack, so they are cleared in place."""
        if len(self._stack) != 1:
            raise RuntimeError("LayerClock.reset inside an open frame")
        for layer in LAYER_NAMES:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        self.compile_s = 0.0
        self._child[0] = 0.0

    def _wrap(self, layer: str, fn):
        stack = self._stack
        child = self._child
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            stack.append(layer)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - child.pop()
                child[-1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` and the JIT."""
        for layer, sites in LAYERS.items():
            for module, cls, names in sites:
                owner = getattr(importlib.import_module(module), cls)
                for name in names:
                    setattr(owner, name,
                            self._wrap(layer, getattr(owner, name)))
        from repro.isa import jit
        compile_region = jit.compile_region
        wrap = self._wrap
        clock = time.perf_counter

        def timed_compile(region, profiled):
            t0 = clock()
            fn = compile_region(region, profiled)
            self.compile_s += clock() - t0
            return wrap("isa.jit", fn)

        jit.compile_region = timed_compile

    def measure(self, fn):
        """Run ``fn()`` as the root frame; return ``(result, wall_s)``.

        The root's self time (what no wrapper covered) is ``host.other``,
        so the layers' self times add up to the measured wall."""
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.self_s[ROOT] += wall - self._child[0]
        self.calls[ROOT] += 1
        return result, wall

    def table(self, wall_s: float) -> dict[str, dict]:
        """``{layer: {self_s, share, calls}}`` against ``wall_s``."""
        return {layer: {"self_s": self.self_s[layer],
                        "share": self.self_s[layer] / wall_s,
                        "calls": self.calls[layer]}
                for layer in LAYER_NAMES}


class Probes:
    """What every benchmark process records about a repetition.

    ``machines``: each machine booted, in boot order (``Machine.run`` is
    the boot drive).  ``levels``: each ``(load generator, LoadResult)``
    an open-loop run produced.  ``req_ns``: host nanoseconds of each
    arrival drive, i.e. each outermost ``OpenLoopLoadGen._resume`` (the
    tenants override calls the base one).  ``closed_ns``: host
    nanoseconds of each closed-loop ``HttpDriver.request``, per server
    port.  ``req_sim_ns``: simulated latency of each closed-loop
    request, per backend.  ``marks``: :meth:`clock` at the start and the
    end of each boot drive, arrival drive and closed-loop request.  The
    simulation is deterministic, so every repetition of a seed makes the
    same marks in the same order, and the time between two marks is the
    same work in each repetition.

    With ``calibrate``, every :data:`CHUNK_EVERY`-th mark since the last
    :meth:`take`, the first included, also runs a calibration chunk and
    appends its host time to ``chunk_ns``.  So the chunks, too, come at
    the same places in every repetition.  A chunk runs between two
    segments and :meth:`clock` leaves its time out, so no segment or
    arrival includes it.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self._data = self._fresh()
        self._depth = 0
        self.calibration = Calibration() if calibrate else None
        self._paused = 0
        self._count = 0

    @staticmethod
    def _fresh() -> dict:
        return {"machines": [], "levels": [], "req_ns": [], "closed_ns": {},
                "req_sim_ns": {}, "marks": [], "chunk_ns": []}

    def take(self) -> dict:
        """Return what was recorded since the last call and start over."""
        taken, self._data = self._data, self._fresh()
        self._count = 0
        return taken

    def clock(self) -> int:
        """``perf_counter_ns`` less the time spent in calibration chunks."""
        return time.perf_counter_ns() - self._paused

    def _mark(self) -> int:
        """:meth:`clock` now, then a calibration chunk if one is due."""
        now = time.perf_counter_ns() - self._paused
        if self.calibration and self._count % CHUNK_EVERY == 0:
            start = time.perf_counter_ns()
            self.calibration.evict()
            t0 = time.perf_counter_ns()
            self.calibration.chunk()
            t1 = time.perf_counter_ns()
            self._data["chunk_ns"].append(t1 - t0)
            self._paused += t1 - start
        self._count += 1
        return now

    def install(self) -> None:
        from repro.machine import Machine
        from repro.workloads.httpserver import HttpDriver
        from repro.workloads.loadgen import OpenLoopLoadGen
        from repro.workloads.tenants import TenantLoadGen

        probes = self
        clock = self._mark
        boot = Machine.run

        def run(machine, *args, **kwargs):
            probes._data["machines"].append(machine)
            probes._data["marks"].append(clock())
            try:
                return boot(machine, *args, **kwargs)
            finally:
                probes._data["marks"].append(clock())

        Machine.run = run
        level_run = OpenLoopLoadGen.run

        def run_level(gen):
            result = level_run(gen)
            probes._data["levels"].append((gen, result))
            return result

        OpenLoopLoadGen.run = run_level

        def timed(fn):
            def resume(gen):
                if probes._depth:
                    return fn(gen)
                probes._depth = 1
                t0 = clock()
                try:
                    return fn(gen)
                finally:
                    t1 = clock()
                    probes._data["req_ns"].append(t1 - t0)
                    probes._data["marks"] += (t0, t1)
                    probes._depth = 0
            return resume

        OpenLoopLoadGen._resume = timed(OpenLoopLoadGen._resume)
        TenantLoadGen._resume = timed(TenantLoadGen._resume)
        request = HttpDriver.request

        def closed_loop_request(driver, *args, **kwargs):
            start = driver.machine.clock.now_ns
            t0 = clock()
            response = request(driver, *args, **kwargs)
            t1 = clock()
            probes._data["closed_ns"].setdefault(driver.port, []).append(
                t1 - t0)
            probes._data["marks"] += (t0, t1)
            probes._data["req_sim_ns"].setdefault(
                driver.machine.config.backend, []).append(
                driver.machine.clock.now_ns - start)
            return response

        HttpDriver.request = closed_loop_request
