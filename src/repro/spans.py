"""Request-scoped distributed tracing across goroutines, channels, net.

PR 2's tracer answers "where does enforcement time go" machine-wide;
this module answers "what happened to *this request*".  A
:class:`TraceContext` (W3C ``traceparent``-compatible 128-bit trace id
plus a 64-bit span id) is minted at the load-generator client for each
scheduled arrival — deterministically from the seed and arrival index,
never from a wall clock — and follows the request end to end:

* **wire** — the client stamps the context onto the connection when the
  request bytes are sent; the server's first ``read`` of those bytes
  adopts it onto the handling goroutine.  The *simulated* byte stream
  is never mutated (the guest charges per byte, and guest images are
  covered by committed sim-ns baselines), so the header rides a
  zero-cost shadow FIFO keyed by the receiving endpoint while the
  canonical ``traceparent`` string is still round-tripped through its
  real W3C encoding at each end;
* **goroutines** — ``go f()`` inherits the spawner's context
  (:meth:`Scheduler.spawn`);
* **channels** — a send enqueues the sender's context beside the value
  and the receive hands it to a context-less receiver
  (:class:`ChannelTable`), so worker pools join the request's trace;
* **enclosures** — Prolog/Epilog open and close per-enclosure
  sub-spans, and syscall-filter verdicts and Transfers attach as span
  annotations with ``core`` attribution.

The :class:`SpanRecorder` subscribes to the observer bus
(:mod:`repro.obs`); the load generator calls its client-lifecycle
methods directly.  It is a pure observer: it never advances the
:class:`SimClock`, and with spans disabled every emission site is a
single ``is None`` test — simulated ns, traces, metrics, and
response bytes are bit-identical with spans on or off (the PR 5
bit-identity suite enforces this).

Production mechanisms
---------------------

* **Tail-based sampling** (:meth:`SpanRecorder.sampled_records`) —
  every trace that faulted, was shed, refused, reset, or exceeded the
  SLO latency threshold is kept; of the healthy remainder an *exact*
  ``floor(sample * n)`` fraction survives, chosen by a deterministic
  hash of the trace id (lowest hashes win), so a sampled export is a
  pure function of the seed.
* **Histogram exemplars** — the load generator attaches the trace id
  to each latency observation (``Histogram.observe(exemplar=...)``);
  a slow bucket in the exposition links to a concrete trace.
* **Flight recorder** — a bounded per-core ring of the last N
  span/enforcement events; when a fault is contained the faulting
  core's ring is snapshotted with the victim's trace id and shipped in
  ``containment_report()["flight_recorder"]`` — every quarantine
  carries its own black-box recording.

Export is Chrome trace-event JSON (:func:`span_trace` /
:func:`write_span_trace`), one process lane per load level and one
thread lane per kept trace, validated strictly by
:func:`validate_span_trace` on top of ``trace.validate_chrome_trace``.
"""

from __future__ import annotations

from collections import deque

from repro.obs import Observer
from repro.os.syscalls import CATEGORY_OF
from repro.trace import (
    TraceFormatError,
    chrome_document,
    load_chrome_json,
    validate_chrome_trace,
    write_chrome_json,
)

_MASK64 = (1 << 64) - 1

#: Trace flags that make a trace unconditionally survive tail sampling.
ANOMALY_FLAGS = ("faulted", "failed", "refused", "reset", "shed", "slo")

#: Flight-recorder ring depth: last-N events kept per core.
RING_DEPTH = 32

_HEX32 = frozenset("0123456789abcdef")


def _mix64(x: int) -> int:
    """splitmix64 finalizer: cheap, deterministic, well-distributed."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class TraceContext:
    """A W3C trace-context identity: 128-bit trace id, 64-bit span id.

    Derived deterministically from ``(seed, arrival index)`` — the
    simulation has no wall clock and no randomness source of its own,
    and determinism is what makes the CI run-twice gates possible.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    @classmethod
    def derive(cls, seed: int, index: int) -> "TraceContext":
        hi = _mix64((seed & _MASK64) ^ _mix64(index))
        lo = _mix64(hi ^ index)
        trace_id = ((hi << 64) | lo) or 1  # all-zero is invalid in W3C
        span_id = _mix64(lo) or 1
        return cls(trace_id, span_id)

    @property
    def hex(self) -> str:
        return f"{self.trace_id:032x}"

    def to_traceparent(self) -> str:
        """``version-traceid-parentid-flags`` per the W3C spec; the
        sampled flag is always 01 (sampling here is tail-based)."""
        return f"00-{self.trace_id:032x}-{self.span_id:016x}-01"

    @classmethod
    def parse_traceparent(cls, text: str) -> "TraceContext | None":
        parts = text.split("-")
        if len(parts) != 4 or parts[0] != "00":
            return None
        tid, sid = parts[1], parts[2]
        if len(tid) != 32 or len(sid) != 16:
            return None
        if not (set(tid) <= _HEX32 and set(sid) <= _HEX32):
            return None
        trace_id = int(tid, 16)
        if trace_id == 0:
            return None
        return cls(trace_id, int(sid, 16))

    def __repr__(self) -> str:
        return f"TraceContext({self.to_traceparent()})"


def sample_hash(trace_id: int) -> int:
    """The deterministic rank used for tail sampling's healthy keep
    set: a 64-bit mix of both trace-id halves."""
    return _mix64((trace_id & _MASK64) ^ (trace_id >> 64))


class _TraceRecord:
    """Everything recorded about one request's trace."""

    __slots__ = ("trace_id", "index", "start", "end", "sent", "status",
                 "outcome", "completed", "spans", "annotations", "cores",
                 "flags", "handler")

    def __init__(self, trace_id: int, index: int, start: float):
        self.trace_id = trace_id
        self.index = index
        self.start = start      # scheduled arrival (sim ns)
        self.end = None         # completion (sim ns)
        self.sent = None        # first byte on the wire (sim ns)
        self.status = None      # HTTP status, when completed
        self.outcome = None     # ok|failed|shed|refused|reset
        self.completed = False
        self.spans = []         # closed sub-spans: dicts
        self.annotations = []   # (ts, name, detail dict)
        self.cores = set()      # every core that ran a slice for it
        self.flags = set()      # subset of ANOMALY_FLAGS
        self.handler = None     # open server.handle span, if any


class SpanRecorder(Observer):
    """Collects request-scoped spans against one machine's SimClock.

    Subscribed to the observer bus by :class:`~repro.machine.Machine`
    once it is assembled: ``scheduler`` gives the current goroutine and
    core.  No handler ever touches the clock.
    """

    def __init__(self, clock, scheduler, seed: int = 0, sample: float = 1.0,
                 slo_ns: float = 1_000_000.0):
        self.clock = clock
        self.scheduler = scheduler
        self.seed = seed
        self.sample = sample
        self.slo_ns = slo_ns
        self.ring = RING_DEPTH
        #: Set by the host-side load generator around its ``send`` so
        #: the wire hook attributes the bytes to the *new* request, not
        #: to whatever guest goroutine happens to be current (the pump
        #: runs synchronously inside the server's response write).
        self.outgoing_ctx = None
        self.traces: dict[int, _TraceRecord] = {}
        self._wire: dict[int, deque] = {}   # id(rx endpoint) -> FIFO
        self._chan: dict[int, deque] = {}   # channel handle -> ctx FIFO
        self._encl: dict[int, list] = {}    # id(goroutine) -> open spans
        self.rings = [deque(maxlen=RING_DEPTH) for _ in scheduler.cores]
        self.fault_dumps: list[dict] = []

    # -- context helpers -----------------------------------------------------

    def _current_goroutine(self):
        return self.scheduler.current

    def _current_ctx(self):
        cur = self._current_goroutine()
        return cur.trace_ctx if cur is not None else None

    def _core(self) -> int:
        return self.scheduler.current_core.id  # cores[0] when idle

    def _ring_event(self, core: int, kind: str, trace_id: int | None,
                    detail: str) -> None:
        if core >= len(self.rings):
            core = 0
        self.rings[core].append({
            "ts": self.clock.now_ns,
            "kind": kind,
            "trace_id": f"{trace_id:032x}" if trace_id else None,
            "detail": detail,
        })

    # -- client lifecycle ----------------------------------------------------

    def client_arrival(self, index: int, due_at: float) -> TraceContext:
        """Mint the context for scheduled arrival ``index``; the root
        ``request`` span opens at the scheduled instant (open-loop
        latency is measured from the arrival, not the send)."""
        ctx = TraceContext.derive(self.seed, index)
        self.traces[ctx.trace_id] = _TraceRecord(ctx.trace_id, index,
                                                 due_at)
        return ctx

    def complete_request(self, ctx: TraceContext, status: int,
                         outcome: str) -> None:
        """Close the root span: the response arrived (or the request
        was shed/failed/reset) at the current simulated instant."""
        record = self.traces.get(ctx.trace_id)
        if record is None:
            return
        now = self.clock.now_ns
        handler = record.handler
        if handler is not None:
            handler["end"] = now
            record.spans.append(handler)
            record.handler = None
        record.end = now
        record.status = status
        record.outcome = outcome
        record.completed = True
        if outcome in ("failed", "shed", "reset"):
            record.flags.add(outcome)
        if outcome == "failed":
            # A 500 is the kernel's reclaim notice for a contained
            # fault: count it with the faulted traces for sampling.
            record.flags.add("faulted")
        if now - record.start > self.slo_ns:
            record.flags.add("slo")

    def mark_refused(self, ctx: TraceContext) -> None:
        """The connect was refused: the request never left the client."""
        record = self.traces.get(ctx.trace_id)
        if record is None:
            return
        record.end = self.clock.now_ns
        record.outcome = "refused"
        record.completed = True
        record.flags.add("refused")

    # -- wire propagation (net.py) -------------------------------------------

    def on_wire_send(self, endpoint) -> None:
        """Bytes left an endpoint: stamp the sender's context onto the
        receiving end's shadow FIFO.  Responses to host-side service
        endpoints (the load generator's recorders) are skipped — their
        trace closes at ``complete_request``, not by re-propagation."""
        ctx = self.outgoing_ctx
        if ctx is None:
            ctx = self._current_ctx()
        if ctx is None:
            return
        peer = endpoint.peer
        if id(peer) in endpoint.conn.network._service_endpoints:
            return
        fifo = self._wire.get(id(peer))
        if fifo is None:
            fifo = self._wire[id(peer)] = deque()
        now = self.clock.now_ns
        fifo.append((ctx.to_traceparent(), now))
        record = self.traces.get(ctx.trace_id)
        if record is not None and record.sent is None:
            record.sent = now
            record.spans.append({"name": "client.wait", "start":
                                 record.start, "end": now, "core": None})

    def forget_endpoint(self, endpoint) -> None:
        """Drop any undelivered wire contexts for ``endpoint``.  Called
        when a connection is torn down: ``id()`` values are recycled, so
        a stale FIFO could otherwise mis-attribute a future connection's
        first request."""
        self._wire.pop(id(endpoint), None)

    def on_sock_read(self, endpoint) -> None:
        """The server read request bytes: adopt the wire context onto
        the current goroutine, close the ``server.queue`` span (send →
        read) and open the ``server.handle`` span."""
        fifo = self._wire.get(id(endpoint))
        if not fifo:
            return
        traceparent, sent_ns = fifo.popleft()
        ctx = TraceContext.parse_traceparent(traceparent)
        if ctx is None:
            return
        goroutine = self._current_goroutine()
        if goroutine is not None:
            goroutine.trace_ctx = ctx
        record = self.traces.get(ctx.trace_id)
        if record is None:
            return
        now = self.clock.now_ns
        core = self._core()
        record.cores.add(core)
        record.spans.append({"name": "server.queue", "start": sent_ns,
                             "end": now, "core": core})
        record.handler = {"name": "server.handle", "start": now,
                          "end": None, "core": core}
        self._ring_event(core, "adopt", ctx.trace_id, "server.read")

    # -- runtime propagation (scheduler + channels) --------------------------

    def on_spawn(self, parent, child) -> None:
        """``go f()`` inherits the spawner's context."""
        if parent is not None and parent.trace_ctx is not None:
            child.trace_ctx = parent.trace_ctx

    def on_execute_end(self, goroutine) -> None:
        """A scheduler slice starts for ``goroutine``: if it is traced,
        core-set attribution plus a flight-recorder breadcrumb."""
        ctx = goroutine.trace_ctx
        if ctx is None:
            return
        core = self._core()
        record = self.traces.get(ctx.trace_id)
        if record is not None:
            record.cores.add(core)
        self._ring_event(core, "slice", ctx.trace_id, "run")

    def on_chan_send(self, handle: int) -> None:
        """A value was buffered: enqueue the sender's context beside it
        (``None`` too — the FIFOs must stay in lockstep)."""
        fifo = self._chan.get(handle)
        if fifo is None:
            fifo = self._chan[handle] = deque()
        fifo.append(self._current_ctx())

    def on_chan_recv(self, handle: int) -> None:
        """A value was taken: hand its sender's context to a receiver
        that has none (a receiver already tracing its own request keeps
        its id — satellite cross-core test relies on this)."""
        fifo = self._chan.get(handle)
        if not fifo:
            return
        ctx = fifo.popleft()
        if ctx is None:
            return
        goroutine = self._current_goroutine()
        if goroutine is None:
            return
        if goroutine.trace_ctx is None:
            goroutine.trace_ctx = ctx
        record = self.traces.get(goroutine.trace_ctx.trace_id)
        if record is not None:
            record.cores.add(self._core())

    # -- enforcement attribution (litterbox + kernel) ------------------------

    def on_prolog_end(self, goroutine, entered) -> None:
        """Open the ``enclosure:<env>`` sub-span once the switch is paid."""
        ctx = goroutine.trace_ctx
        if ctx is None or entered is None:
            return
        core = self._core()
        span = {"name": f"enclosure:{entered.name}",
                "start": self.clock.now_ns, "end": None, "core": core}
        self._encl.setdefault(id(goroutine), []).append((ctx, span))
        self._ring_event(core, "prolog", ctx.trace_id, entered.name)

    def on_epilog_end(self, goroutine, left) -> None:
        stack = self._encl.get(id(goroutine))
        if not stack or left is None:
            return
        ctx, span = stack.pop()
        span["end"] = self.clock.now_ns
        record = self.traces.get(ctx.trace_id)
        if record is not None:
            record.spans.append(span)
        self._ring_event(self._core(), "epilog", ctx.trace_id, left.name)

    def on_verdict(self, mechanism, verdict, nr, env=None, **detail) -> None:
        """Cardinality rule: only *abnormal* verdicts (deny / kill /
        inject) become span annotations — an allow per syscall would
        dominate every export — but all verdicts feed the per-core
        flight-recorder ring."""
        if verdict == "errno":
            verdict = "deny"
        category = CATEGORY_OF.get(nr, "other")
        ctx = self._current_ctx()
        core = self._core()
        if ctx is not None and verdict != "allow":
            record = self.traces.get(ctx.trace_id)
            if record is not None:
                record.annotations.append(
                    (self.clock.now_ns, f"filter:{verdict}",
                     {"category": category, "mechanism": mechanism,
                      "core": core}))
        self._ring_event(core, f"filter:{verdict}",
                         ctx.trace_id if ctx is not None else None,
                         category)

    def on_transfer_end(self, pkg: str, size: int, moved: bool) -> None:
        if not moved:
            return
        ctx = self._current_ctx()
        core = self._core()
        if ctx is not None:
            record = self.traces.get(ctx.trace_id)
            if record is not None:
                record.annotations.append(
                    (self.clock.now_ns, "transfer",
                     {"pkg": pkg, "bytes": size, "core": core}))
        self._ring_event(core, "transfer",
                         ctx.trace_id if ctx is not None else None, pkg)

    # -- fault flight recorder -----------------------------------------------

    def on_contained(self, goroutine, env, fault, unwound,
                     reclaimed) -> None:
        """A fault was contained: mark the victim's trace, close its
        dangling enclosure sub-spans, and snapshot the faulting core's
        ring — the black box that ships with the quarantine."""
        kind, core = fault.kind, goroutine.core
        ctx = goroutine.trace_ctx
        now = self.clock.now_ns
        stack = self._encl.pop(id(goroutine), None)
        if stack:
            for span_ctx, span in stack:
                span["end"] = now
                span["name"] += " [unwound]"
                record = self.traces.get(span_ctx.trace_id)
                if record is not None:
                    record.spans.append(span)
        trace_id = None
        if ctx is not None:
            trace_id = ctx.trace_id
            record = self.traces.get(trace_id)
            if record is not None:
                record.flags.add("faulted")
                record.annotations.append(
                    (now, "fault", {"kind": kind, "core": core}))
        self._ring_event(core, "fault", trace_id, kind)
        if core >= len(self.rings):
            core = 0
        self.fault_dumps.append({
            "ts": now,
            "core": core,
            "kind": kind,
            "trace_id": f"{trace_id:032x}" if trace_id else None,
            "events": [dict(event) for event in self.rings[core]],
        })

    def flight_recorder(self) -> dict:
        """The containment-report payload: ring size plus one snapshot
        per contained fault, in containment order."""
        return {"ring": self.ring, "dumps": list(self.fault_dumps)}

    # -- tail-based sampling -------------------------------------------------

    def sampled_records(self) -> tuple[list[_TraceRecord], dict]:
        """Apply the tail-sampling policy; returns (kept records sorted
        by arrival index, summary counters).

        Every anomalous trace (faulted / failed / shed / refused /
        reset / SLO-exceeded) is kept.  Of the healthy completed rest,
        exactly ``floor(sample * n)`` survive — those with the lowest
        ``sample_hash`` — so the kept fraction matches the configured
        rate exactly and deterministically.  Incomplete traces (still
        queued at shutdown) are dropped but counted.
        """
        flagged, healthy, incomplete = [], [], 0
        for record in self.traces.values():
            if not record.completed:
                incomplete += 1
            elif record.flags:
                flagged.append(record)
            else:
                healthy.append(record)
        n_keep = int(self.sample * len(healthy))
        healthy.sort(key=lambda r: (sample_hash(r.trace_id), r.index))
        kept = flagged + healthy[:n_keep]
        kept.sort(key=lambda r: r.index)
        summary = {
            "total": len(self.traces),
            "flagged": len(flagged),
            "healthy": len(healthy),
            "healthy_kept": n_keep,
            "incomplete": incomplete,
            "sample": self.sample,
        }
        return kept, summary


# -- Chrome trace-event export -------------------------------------------------

def span_trace(recorders: list[tuple[str, SpanRecorder]]) -> dict:
    """Render one or more recorders as a Chrome trace-event document.

    One process lane per recorder (a load level, a study leg), one
    thread lane per kept trace; the root ``request`` span carries the
    outcome, flags, and core set, sub-spans carry per-phase extents,
    annotations render as instants.  Timestamps are simulated ns
    converted to the µs the format requires.
    """
    events: list[dict] = []
    metadata: list[dict] = []
    samplings: dict[str, dict] = {}
    for pid0, (label, recorder) in enumerate(recorders):
        pid = pid0 + 1
        kept, summary = recorder.sampled_records()
        samplings[label] = summary
        metadata.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": f"level:{label}"}})
        for tid0, record in enumerate(kept):
            tid = tid0 + 1
            hexid = f"{record.trace_id:032x}"
            metadata.append({"name": "thread_name", "ph": "M",
                             "pid": pid, "tid": tid,
                             "args": {"name": f"trace:{hexid[:16]}"}})
            end = record.end if record.end is not None else record.start
            events.append({
                "name": "request", "cat": "request", "ph": "X",
                "ts": record.start / 1000.0,
                "dur": (end - record.start) / 1000.0,
                "pid": pid, "tid": tid,
                "args": {
                    "trace_id": hexid,
                    "index": record.index,
                    "outcome": record.outcome or "incomplete",
                    "status": record.status,
                    "cores": sorted(record.cores),
                    "flags": sorted(record.flags),
                },
            })
            for span in record.spans:
                args = {"trace_id": hexid}
                if span.get("core") is not None:
                    args["core"] = span["core"]
                events.append({
                    "name": span["name"], "cat": "span", "ph": "X",
                    "ts": span["start"] / 1000.0,
                    "dur": (span["end"] - span["start"]) / 1000.0,
                    "pid": pid, "tid": tid, "args": args,
                })
            for ts, name, detail in record.annotations:
                args = {"trace_id": hexid}
                args.update(detail)
                events.append({
                    "name": name, "cat": "annotation", "ph": "i",
                    "ts": ts / 1000.0, "s": "t",
                    "pid": pid, "tid": tid, "args": args,
                })
    return chrome_document(metadata + events, "repro-spans",
                           sampling=samplings)


def write_span_trace(path, recorders: list[tuple[str, SpanRecorder]]) -> int:
    """Serialize :func:`span_trace` to ``path``; returns the number of
    trace events written (metadata included)."""
    return write_chrome_json(path, span_trace(recorders))


def validate_span_trace(source) -> int:
    """Strict schema check for span exports.

    First the generic Chrome trace-event envelope/phase invariants
    (:func:`trace.validate_chrome_trace`), then the span-specific
    contract: every non-metadata event carries a 32-hex ``trace_id``
    arg; ``request`` roots carry an integer ``index``, a string
    ``outcome``, and sorted ``cores``/``flags`` lists; the document
    declares its sampling summary.  Returns the event count.
    """
    document = load_chrome_json(source)
    count = validate_chrome_trace(document)
    sampling = document.get("otherData", {}).get("sampling")
    if not isinstance(sampling, dict):
        raise TraceFormatError("otherData.sampling must be an object")
    for label, summary in sampling.items():
        for key in ("total", "flagged", "healthy", "healthy_kept",
                    "incomplete", "sample"):
            if key not in summary:
                raise TraceFormatError(
                    f"sampling[{label!r}]: missing {key!r}")
    for index, event in enumerate(document["traceEvents"]):
        if event["ph"] == "M":
            continue
        where = f"traceEvents[{index}]"
        args = event.get("args")
        if not isinstance(args, dict):
            raise TraceFormatError(f"{where}: span events need args")
        trace_id = args.get("trace_id")
        if (not isinstance(trace_id, str) or len(trace_id) != 32
                or not set(trace_id) <= _HEX32):
            raise TraceFormatError(
                f"{where}: args.trace_id must be 32 lowercase hex chars")
        if event["name"] == "request":
            if not isinstance(args.get("index"), int):
                raise TraceFormatError(f"{where}: request needs int index")
            if not isinstance(args.get("outcome"), str):
                raise TraceFormatError(
                    f"{where}: request needs str outcome")
            for key in ("cores", "flags"):
                value = args.get(key)
                if not isinstance(value, list) or value != sorted(value):
                    raise TraceFormatError(
                        f"{where}: request {key} must be a sorted list")
    return count
