"""Structured tracing of LitterBox enforcement events.

The paper's evaluation (§6, Tables 1–2) is about *where* enclosure
overhead goes — switches vs. transfers vs. syscall filtering vs. VM
exits.  This module makes that observable instead of asserted: the
:class:`Tracer` subscribes to the observer bus (:mod:`repro.obs`) and
records every enforcement point (``Prolog``/``Epilog`` switches,
``FilterSyscall`` decisions, ``Transfer`` operations, ``Execute``
scheduler hand-offs, VM exits, MPK/page-fault violations) as a
:class:`TraceEvent` carrying a simulated-nanosecond timestamp and
enclosure/package attribution.

Attribution model
-----------------

The tracer keeps an *environment timeline*: ``set_env`` marks the
simulated instant at which the CPU entered an execution environment,
and the gross simulated time of each environment is the sum of its
timeline intervals.  Enforcement operations are *spans*
(:meth:`Tracer.begin` / :meth:`Tracer.end`); only the **outermost**
span of a nesting accumulates into the per-environment category totals,
so e.g. the ``pkey_mprotect`` host system call inside an MPK Transfer
is visible as a nested event but never double-counted.  An
environment's *compute* time is its gross time minus its accumulated
enforcement time.

A switch interval belongs to the environment being **entered** for
Prolog (the enclosure pays its own entry) and to the environment being
**exited** for Epilog, so an enclosure's gross time runs from Prolog
start to Epilog end — exactly the window Table 1's call benchmark
measures.

Costs: with nothing attached every emission site reduces to one
``is None`` test; no simulated time is ever charged by the tracer
itself, so simulated-ns outputs are bit-identical either way.

Exports
-------

* :meth:`Tracer.summary` — per-environment sim-time breakdown
  (switch/syscall/transfer/compute shares) for benchmarks to *measure*
  the Table 1/2 shape claims;
* :meth:`Tracer.describe` — the ``--trace`` text report;
* :meth:`Tracer.chrome_trace` — Chrome trace-event JSON (one thread
  lane per environment; loadable in Perfetto / ``chrome://tracing``);
* :func:`chrome_document`, :func:`write_chrome_json` and
  :func:`load_chrome_json` — the Chrome trace-event envelope, writer and
  loader, shared with :mod:`repro.spans`;
* :func:`validate_chrome_trace` — the strict schema check used by the
  tests and the CI trace smoke step.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.hw.clock import SimClock
from repro.obs import Observer
from repro.os.syscalls import syscall_name

#: Categories an event may carry; also the category axis of the
#: per-environment breakdown (``violation`` events are zero-duration).
#: ``shootdown`` only appears on multi-core machines: cross-core
#: TLB-shootdown IPI bursts charged by page-table/PKRU revocations.
CATEGORIES = ("switch", "syscall", "transfer", "filter", "vm_exit",
              "violation", "contain", "quota", "shootdown")

#: Chrome trace-event phases the exporter emits.
_PHASES = ("X", "i", "M")


class TraceFormatError(ValueError):
    """A trace document failed the strict Chrome trace-event check."""


@dataclass
class TraceEvent:
    """One enforcement event, in simulated time.

    ``ts``/``dur`` are simulated nanoseconds (the Chrome exporter
    converts to microseconds, the unit that format requires).
    """

    name: str                 # e.g. "prolog:rcl", "sys:write", "filter:deny"
    cat: str                  # one of CATEGORIES
    ph: str                   # "X" complete span | "i" instant
    ts: float                 # sim ns at event start
    dur: float = 0.0          # sim ns, complete events only
    env: str = ""             # execution-environment attribution
    pkg: str = ""             # package attribution, where meaningful
    args: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The event family: the name up to the first ``:``."""
        return self.name.split(":", 1)[0]


class Tracer(Observer):
    """Collects enforcement events against one machine's ``SimClock``."""

    def __init__(self, clock: SimClock, initial_env: str = "trusted"):
        self.clock = clock
        self.events: list[TraceEvent] = []
        #: Open spans, innermost last: hooks close their spans in
        #: ``finally`` blocks, so spans nest strictly.
        self._open: list[TraceEvent] = []
        self._initial_env = initial_env
        self._env = initial_env
        self._env_since = clock.now_ns
        self._gross: dict[str, float] = {}
        self._cat_ns: dict[tuple[str, str], float] = {}
        #: The core currently executing, stamped onto every event's args
        #: while set.  ``None`` on a single-core machine — events there
        #: carry no ``core`` key, keeping historical traces bit-identical.
        self.core: int | None = None

    # -- environment timeline ------------------------------------------------

    def set_env(self, name: str, at: float | None = None) -> None:
        """Mark that the CPU entered environment ``name``.

        ``at`` back-dates the boundary (Prolog attributes its own span
        to the environment being entered).
        """
        now = self.clock.now_ns if at is None else at
        elapsed = now - self._env_since
        if elapsed > 0:
            self._gross[self._env] = self._gross.get(self._env, 0.0) + elapsed
        self._env = name
        self._env_since = now

    # -- spans ---------------------------------------------------------------

    def begin(self, cat: str, name: str, env: str | None = None,
              pkg: str = "", **args) -> TraceEvent:
        """Open an enforcement span at the current simulated instant."""
        if self.core is not None:
            args.setdefault("core", self.core)
        span = TraceEvent(name, cat, "X", self.clock.now_ns, 0.0,
                          self._env if env is None else env, pkg, args)
        self._open.append(span)
        return span

    def end(self) -> TraceEvent:
        """Close the innermost open span, record it, and accumulate its
        duration into the per-environment category totals iff it is
        outermost."""
        span = self._open.pop()
        span.dur = self.clock.now_ns - span.ts
        if not self._open:
            key = (span.env, span.cat)
            self._cat_ns[key] = self._cat_ns.get(key, 0.0) + span.dur
        self.events.append(span)
        return span

    # -- point events --------------------------------------------------------

    def instant(self, cat: str, name: str, env: str | None = None,
                pkg: str = "", **args) -> TraceEvent:
        """Record a zero-duration event (filter verdicts, violations)."""
        if self.core is not None:
            args.setdefault("core", self.core)
        event = TraceEvent(name, cat, "i", self.clock.now_ns, 0.0,
                           self._env if env is None else env, pkg, args)
        self.events.append(event)
        return event

    def complete(self, cat: str, name: str, t0: float, dur: float,
                 env: str | None = None, pkg: str = "", **args) -> TraceEvent:
        """Record a span whose extent is already known (VM exits: the
        EXIT+RESUME round trip is charged as one block)."""
        if self.core is not None:
            args.setdefault("core", self.core)
        use_env = self._env if env is None else env
        if not self._open:
            key = (use_env, cat)
            self._cat_ns[key] = self._cat_ns.get(key, 0.0) + dur
        event = TraceEvent(name, cat, "X", t0, dur, use_env, pkg, args)
        self.events.append(event)
        return event

    # -- observer events (repro.obs) -------------------------------------------

    def _end(self, *facts) -> None:
        self.end()

    on_prolog_end = on_transfer_end = _end

    def on_prolog_begin(self, call_site, backend):
        self.begin("switch", "prolog", call_site=call_site, backend=backend)

    def on_prolog(self, current, target):
        # The enclosure pays its own entry: attribute the switch span —
        # and the timeline from its start — to the target.
        span = self._open[-1]
        span.name = f"prolog:{target.name}"
        span.env = target.name
        span.args["from"] = current.name
        self.set_env(target.name, at=span.ts)

    def on_epilog_begin(self, env, call_site, backend):
        # The exit switch still belongs to the enclosure being left.
        self.begin("switch", f"epilog:{env}", env=env, call_site=call_site,
                   backend=backend)

    def on_epilog_end(self, goroutine, left):
        if left is not None:
            self._open[-1].args["to"] = goroutine.env.name
        self.end()
        self.set_env(goroutine.env.name)

    def on_execute_begin(self, goroutine, core):
        if core is not None:
            self.core = core
        env = goroutine.env.name
        self.begin("switch", f"execute:{env}", env=env,
                   goroutine=goroutine.id)

    def on_execute_end(self, goroutine):
        self.set_env(goroutine.env.name, at=self._open[-1].ts)
        self.end()

    def on_retag(self, env):
        self.instant("transfer", f"retag:{env}", env=env, mechanism="libmpk")

    def on_verdict(self, mechanism, verdict, nr, env=None, **detail):
        name = verdict if verdict in ("allow", "inject") else "deny"
        if verdict != "inject":
            detail["verdict"] = verdict
        self.instant("filter", f"filter:{name}", env=env,
                     mechanism=mechanism, nr=nr, **detail)

    def on_syscall_begin(self, nr, pkru):
        self.begin("syscall", f"sys:{syscall_name(nr)}", nr=nr, pkru=pkru)

    def on_guest_syscall_begin(self, nr):
        self.begin("syscall", f"guest-sys:{syscall_name(nr)}", nr=nr)

    def on_syscall_end(self, nr, ret):
        if ret is not None:
            self._open[-1].args["ret"] = ret
        self.end()

    on_guest_syscall_end = on_syscall_end

    def on_transfer_begin(self, pkg, base, size, backend):
        self.begin("transfer", f"transfer:{pkg}", pkg=pkg, base=base,
                   size=size, backend=backend)

    def on_vm_exit(self, reason, t0, cost, exits):
        self.complete("vm_exit", f"vm_exit:{reason}", t0, cost,
                      total_exits=exits)

    def on_shootdown(self, name, t0, cost, ipis):
        self.complete("shootdown", name, t0, cost, ipis=ipis)

    def on_violation(self, kind, vaddr, detail, **extra):
        self.instant("violation", f"violation:{kind}", vaddr=vaddr,
                     detail=detail, **extra)

    def on_contain_begin(self, goroutine, env, fault):
        self.begin("contain", f"contain:{env}", env=env,
                   goroutine=goroutine.id, fault=fault.kind)

    def on_contained(self, goroutine, env, fault, unwound, reclaimed):
        self._open[-1].args.update(detail=fault.detail, unwound=unwound,
                                   reclaimed_fds=reclaimed)
        self.end()

    def on_quarantine(self, env, fault, faults):
        self.instant("contain", "contain:quarantine", env=env,
                     fault=str(fault), fault_kind=fault.kind, faults=faults)

    def on_revive(self, env):
        self.instant("contain", "contain:revive", env=env)

    def on_restart(self, env, goroutine):
        self.instant("contain", "contain:restart", env=env,
                     goroutine=goroutine.id, generation=goroutine.restarts)

    def on_quota_exceeded(self, env, resource, limit, used):
        self.instant("quota", f"quota:{resource}", env=env,
                     resource=resource, limit=limit, used=used)

    def on_abort(self, fault):
        self.instant("violation", "violation:abort", fault=str(fault),
                     fault_kind=getattr(fault, "kind", ""))

    # -- queries -------------------------------------------------------------

    def select(self, kind: str | None = None, cat: str | None = None,
               env: str | None = None) -> list[TraceEvent]:
        """Events filtered by family (name prefix), category, and env."""
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if cat is not None and event.cat != cat:
                continue
            if env is not None and event.env != env:
                continue
            out.append(event)
        return out

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-environment sim-time breakdown.

        Returns ``{env: {"total_ns", "switch_ns", "syscall_ns",
        "transfer_ns", "contain_ns", "compute_ns", "counts": {...}}}``
        where ``syscall_ns`` folds in VM-exit time accumulated at top
        level, ``contain_ns`` is time spent unwinding/reclaiming after
        contained faults, and ``compute_ns`` is gross minus all
        enforcement categories.
        """
        now = self.clock.now_ns
        gross = dict(self._gross)
        gross[self._env] = gross.get(self._env, 0.0) + (now - self._env_since)

        counts: dict[tuple[str, str], int] = {}
        for event in self.events:
            key = (event.env, event.kind)
            counts[key] = counts.get(key, 0) + 1

        envs = set(gross)
        envs.update(env for env, _ in self._cat_ns)
        envs.update(env for env, _ in counts)

        out: dict[str, dict] = {}
        for env in sorted(envs):
            cats = {cat: self._cat_ns.get((env, cat), 0.0)
                    for cat in CATEGORIES}
            enforcement = sum(cats.values())
            total = gross.get(env, 0.0)
            env_counts = {kind: n for (e, kind), n in counts.items()
                          if e == env}
            out[env] = {
                "total_ns": total,
                "switch_ns": cats["switch"],
                "syscall_ns": cats["syscall"] + cats["vm_exit"],
                "transfer_ns": cats["transfer"],
                "contain_ns": cats["contain"],
                "compute_ns": max(0.0, total - enforcement),
                "counts": env_counts,
            }
            if cats["shootdown"]:
                # SMP only: zero on a single-core machine, where the
                # key is omitted so historical summaries are unchanged.
                out[env]["shootdown_ns"] = cats["shootdown"]
        return out

    def describe(self) -> list[str]:
        """Human-readable per-environment breakdown for ``--trace``."""

        def pct(part: float, whole: float) -> str:
            return f"{100.0 * part / whole:.1f}%" if whole else "0.0%"

        lines = [f"trace: {len(self.events)} enforcement events, "
                 f"{self.clock.now_ns / 1e6:.3f} ms simulated"]
        for env, row in self.summary().items():
            counts = row["counts"]
            total = row["total_ns"]
            denied = sum(1 for e in self.select(cat="filter", env=env)
                         if e.name == "filter:deny")
            lines.append(
                f"  {env}: total {total / 1e6:.3f} ms | "
                f"switch {pct(row['switch_ns'], total)} "
                f"(n={counts.get('prolog', 0) + counts.get('epilog', 0)}) "
                f"syscall {pct(row['syscall_ns'], total)} "
                f"(denied={denied}) "
                f"transfer {pct(row['transfer_ns'], total)} "
                f"(n={counts.get('transfer', 0)}) "
                f"vm-exits={counts.get('vm_exit', 0)} "
                f"violations={counts.get('violation', 0)} "
                f"contained={counts.get('contain', 0)} "
                f"compute {pct(row['compute_ns'], total)}")
        return lines

    # -- Chrome trace-event export -------------------------------------------

    def chrome_trace(self) -> dict:
        """Render the event list in Chrome trace-event JSON format.

        One process (the machine), one thread lane per execution
        environment, timestamps in microseconds as the format requires.
        Loadable in Perfetto / ``chrome://tracing``.
        """
        tids: dict[str, int] = {}

        def tid_of(env: str) -> int:
            if env not in tids:
                tids[env] = len(tids)
            return tids[env]

        tid_of(self._initial_env)  # lane 0 is always the starting env
        trace_events: list[dict] = []
        for event in self.events:
            record = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": event.ts / 1000.0,
                "pid": 1,
                "tid": tid_of(event.env or "?"),
                "args": dict(event.args),
            }
            if event.pkg:
                record["args"]["pkg"] = event.pkg
            if event.ph == "X":
                record["dur"] = event.dur / 1000.0
            elif event.ph == "i":
                record["s"] = "t"
            trace_events.append(record)
        metadata = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                     "args": {"name": "repro machine (simulated ns)"}}]
        for env, tid in sorted(tids.items(), key=lambda item: item[1]):
            metadata.append({"name": "thread_name", "ph": "M", "pid": 1,
                             "tid": tid, "args": {"name": f"env:{env}"}})
        return chrome_document(metadata + trace_events, "repro",
                               sim_total_ns=self.clock.now_ns)

    def write_chrome_trace(self, path: str | pathlib.Path) -> int:
        """Serialize :meth:`chrome_trace` to ``path``; returns the
        number of trace events written (metadata included)."""
        return write_chrome_json(path, self.chrome_trace())


def chrome_document(events: list[dict], tool: str, **other) -> dict:
    """The JSON Object Format envelope of a simulated-ns trace."""
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": {"tool": tool, "clock": "simulated-ns", **other}}


def write_chrome_json(path: str | pathlib.Path, document: dict) -> int:
    """Write a Chrome trace-event document byte-deterministically;
    returns the number of trace events written (metadata included)."""
    pathlib.Path(path).write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n")
    return len(document["traceEvents"])


def load_chrome_json(source) -> object:
    """``source`` as a parsed document: a path is read and parsed
    (:class:`TraceFormatError` if it is not JSON), anything else is
    returned as given."""
    if not isinstance(source, (str, pathlib.Path)):
        return source
    try:
        return json.loads(pathlib.Path(source).read_text())
    except json.JSONDecodeError as err:
        raise TraceFormatError(f"not JSON: {err}") from None


def validate_chrome_trace(source) -> int:
    """Strictly validate a Chrome trace-event document.

    ``source`` may be a dict (already parsed) or a path.  Raises
    :class:`TraceFormatError` on the first problem; returns the number
    of events on success.  Checks the JSON Object Format envelope and,
    per event, the phase-specific required fields — the invariants
    Perfetto's importer relies on.
    """
    document = load_chrome_json(source)
    if not isinstance(document, dict):
        raise TraceFormatError("top level must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TraceFormatError("traceEvents must be a non-empty array")
    if document.get("displayTimeUnit") not in ("ms", "ns"):
        raise TraceFormatError("displayTimeUnit must be 'ms' or 'ns'")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TraceFormatError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise TraceFormatError(f"{where}: bad phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise TraceFormatError(f"{where}: missing {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise TraceFormatError(f"{where}: name must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int):
                raise TraceFormatError(f"{where}: {key} must be an int")
        if "args" in event and not isinstance(event["args"], dict):
            raise TraceFormatError(f"{where}: args must be an object")
        if ph == "M":
            continue
        if not isinstance(event.get("cat"), str):
            raise TraceFormatError(f"{where}: missing category")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TraceFormatError(f"{where}: ts must be a number >= 0")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceFormatError(f"{where}: dur must be a number >= 0")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise TraceFormatError(f"{where}: instant scope must be t/p/g")
    return len(events)
