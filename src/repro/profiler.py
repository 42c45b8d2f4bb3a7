"""Deterministic sim-time sampling profiler with enclosure attribution.

Answers the question the tracer's per-category totals cannot: *which
package, inside which enclosure, did the simulated cycles go to?*  The
profiler samples every ``period_ns`` of **simulated** time — not wall
time — so its output is a pure function of the program and seed:
running the same workload twice yields byte-identical folded stacks.

Sampling model
--------------
A sample point is due whenever the sim clock crosses the next multiple
of the period.  Points are *materialized* (attributed and counted) at
the next drain site:

* **instruction retire** — the interpreter's slice loop drains after
  each retired instruction, attributing pending points to
  ``(current env, package owning pc)``.  The package is resolved
  through an interval map over the image's text sections.
* **kernel exit** — no instructions retire while the host kernel runs
  (time advances via ``clock.charge``), so the kernel drains on syscall
  return with an ``in-kernel`` frame; the pc still addresses the
  SYSCALL instruction, so the *calling* package is attributed too.
* **env switch** — Prolog/Epilog/Execute/unwind drain before switching
  so boundary time lands in the env that was running.
* **finish** — the machine drains any tail at end of run.

Kernel-exit and env-switch drains are observer-bus events
(:mod:`repro.obs`); the retire drain reads ``interp.profiler`` directly.

Each drain uses ``while next_due <= now: count; next_due += period`` —
integer-free float stepping that is deterministic across runs and
independent of *when* drains happen (only the attribution of a point
depends on the nearest drain site, which is itself deterministic).

Like the tracer and metrics registry, the profiler charges no simulated
cost: sim-ns is bit-identical with profiling on or off.  With no
profiler attached, the slice loop pays one ``is not None`` test per
interpreted dispatch.

Output: collapsed-stack ("folded") text consumable by standard
flamegraph tooling — ``backend;env:E;pkg:P[;kernel:sys] count`` — plus
a ``top``-style table and a per-env share summary (used to cross-check
the Table 2 bild shape: ≥70 % of samples inside the enclosure).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs import Observer
from repro.os.syscalls import syscall_name

#: Default sampling period: 1 µs of simulated time.  Table 2 macro runs
#: span hundreds of µs to ms, giving hundreds-to-thousands of samples.
DEFAULT_PERIOD_NS = 1000.0

TRUSTED_ENV = "trusted"


class Profiler(Observer):
    """Sim-time sampling profiler (see module docstring)."""

    def __init__(self, clock, period_ns: float = DEFAULT_PERIOD_NS,
                 backend: str = "baseline") -> None:
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns}")
        self.clock = clock
        self.period_ns = float(period_ns)
        self.backend = backend
        self.env = TRUSTED_ENV
        #: (env, pkg, kernel-symbol-or-"") -> sample count.
        self.samples: dict[tuple[str, str, str], int] = {}
        #: Next sim timestamp at which a sample point is due.  The
        #: interpreter's slice loop reads this directly.
        self.next_due = float(period_ns)
        #: Wired by the machine: returns the CPU's current pc, so
        #: kernel-side drains can attribute the calling package.
        self.pc_provider = None
        self._bases: list[int] = []
        self._ranges: list[tuple[int, int, str]] = []
        self._last_range: tuple[int, int, str] = (-1, -1, "?")
        self._last_pkg = "?"

    # -- image / attribution ----------------------------------------------------

    def load_image(self, image) -> None:
        """Build the pc -> owning-package interval map from the image's
        text sections."""
        ranges = []
        for load in image.sections:
            if load.kind != "text":
                continue
            section = load.section
            ranges.append((section.base, section.base + section.size,
                           load.owner))
        ranges.sort()
        self._ranges = ranges
        self._bases = [base for base, _end, _owner in ranges]

    def pkg_of(self, pc: int) -> str:
        base, end, owner = self._last_range
        if base <= pc < end:
            return owner
        i = bisect_right(self._bases, pc) - 1
        if i >= 0:
            candidate = self._ranges[i]
            if pc < candidate[1]:
                self._last_range = candidate
                return candidate[2]
        return "?"

    # -- drain sites -------------------------------------------------------------

    def _drain(self, pkg: str, ksym: str) -> None:
        now = self.clock.now_ns
        due = self.next_due
        if due > now:
            return
        period = self.period_ns
        count = int((now - due) // period) + 1
        self.next_due = due + count * period
        key = (self.env, pkg, ksym)
        self.samples[key] = self.samples.get(key, 0) + count

    def drain_retire(self, pc: int) -> None:
        """Called by the interpreter's slice loop after a retired
        instruction once the clock has crossed ``next_due``."""
        pkg = self.pkg_of(pc)
        self._last_pkg = pkg
        self._drain(pkg, "")

    def drain_kernel(self, nr: int) -> None:
        """Called by the kernel on syscall return: pending points are
        host-kernel time on behalf of the calling package."""
        if self.next_due > self.clock.now_ns:
            return
        provider = self.pc_provider
        pkg = self.pkg_of(provider()) if provider is not None else "?"
        self._drain(pkg, syscall_name(nr))

    def set_env(self, name: str) -> None:
        """Drain pending points into the env that accrued them, then
        switch attribution (Prolog, Epilog, Execute, unwind-on-fault)."""
        if self.next_due <= self.clock.now_ns:
            self._drain(self._last_pkg, "")
        self.env = name

    def on_prolog(self, current, target):
        self.set_env(target.name)

    def on_epilog_end(self, goroutine, left=None):
        self.set_env(goroutine.env.name)

    on_execute_end = on_epilog_end

    on_unwind = set_env

    def on_syscall_end(self, nr, ret):
        self.drain_kernel(nr)

    def finish(self) -> None:
        """Drain the tail at end of run."""
        if self.next_due <= self.clock.now_ns:
            self._drain(self._last_pkg, "")

    # -- output ------------------------------------------------------------------

    def _frames(self, key: tuple[str, str, str]) -> str:
        env, pkg, ksym = key
        stack = f"{self.backend};env:{env};pkg:{pkg}"
        if ksym:
            stack += f";kernel:{ksym}"
        return stack

    def folded(self) -> str:
        """Collapsed-stack output, one ``frames count`` line per stack,
        sorted for byte-identical rendering."""
        lines = sorted(
            f"{self._frames(key)} {count}"
            for key, count in self.samples.items())
        return "\n".join(lines) + ("\n" if lines else "")

    def total_samples(self) -> int:
        return sum(self.samples.values())

    def summary(self) -> dict:
        """Per-env and per-package sample shares (sorted, JSON-ready).

        ``in_enclosure_share`` is the fraction of samples attributed to
        any non-trusted env — the number the Table 2 bild cross-check
        asserts is ≥ 0.7.
        """
        total = self.total_samples()
        envs: dict[str, int] = {}
        pkgs: dict[str, int] = {}
        kernel = 0
        for (env, pkg, ksym), count in self.samples.items():
            envs[env] = envs.get(env, 0) + count
            pkgs[pkg] = pkgs.get(pkg, 0) + count
            if ksym:
                kernel += count
        enclosed = sum(n for env, n in envs.items() if env != TRUSTED_ENV)
        share = (enclosed / total) if total else 0.0
        return {
            "backend": self.backend,
            "period_ns": self.period_ns,
            "total_samples": total,
            "in_enclosure_share": share,
            "kernel_samples": kernel,
            "envs": {env: envs[env] for env in sorted(envs)},
            "pkgs": {pkg: pkgs[pkg] for pkg in sorted(pkgs)},
        }


# -- report helpers (`repro report`) ------------------------------------------

def parse_folded(text: str) -> dict[str, int]:
    """Parse collapsed-stack text into {stack: count}."""
    stacks: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        stack, _, count_text = line.rpartition(" ")
        if not stack or not count_text.isdigit():
            raise ValueError(f"line {lineno}: malformed folded line {line!r}")
        stacks[stack] = stacks.get(stack, 0) + int(count_text)
    return stacks


def top_table(stacks: dict[str, int], n: int = 12) -> str:
    """A perf-top-style table: heaviest stacks first, with shares."""
    total = sum(stacks.values())
    if not total:
        return "(no samples)"
    rows = sorted(stacks.items(), key=lambda item: (-item[1], item[0]))[:n]
    width = max(len(stack) for stack, _count in rows)
    lines = [f"{'samples':>8}  {'share':>6}  stack",
             f"{'-' * 8}  {'-' * 6}  {'-' * width}"]
    for stack, count in rows:
        lines.append(f"{count:>8}  {count / total:>6.1%}  {stack}")
    lines.append(f"{total:>8}  100.0%  (total)")
    return "\n".join(lines)
