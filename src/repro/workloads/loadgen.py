"""Open-loop load generation against the async HTTP server.

The Table 2 drivers are *closed-loop*: the next request starts only when
the previous one finishes, so offered load can never exceed capacity
and tail latency never shows queueing.  This module is the open-loop
counterpart: request arrival times are drawn **in advance** from a
seeded arrival process (Poisson or bursty) on the simulated clock, and
a request's latency is measured from its *scheduled arrival* to the
last byte of its response — client-side queueing behind a busy
connection counts, which is what makes the p99/p999 curves blow up past
saturation instead of plateauing.

Mechanics:

* a pool of ``pool`` keep-alive connections; arrivals are assigned
  round-robin to slots and FIFO-queue behind a busy slot;
* response completion is detected *synchronously at delivery time* by
  registering a recorder on each client endpoint (the same
  ``Network._service_endpoints`` hook the simulated Postgres uses), so
  completion timestamps are exact sim-ns, not resume-loop granularity;
* between arrivals the driver advances the SimClock directly (the
  machine is idle — this is the load generator's think time);
* outcomes are classified: ``ok`` (200), ``shed`` (server 503),
  ``refused`` (kernel accept-queue refusal at connect), ``reset``
  (connection died mid-request);
* latencies are observed into the machine's ``http_request_latency_ns``
  histogram (workload="loadgen") and quantiles are read back from it.

Everything is deterministic for a fixed seed: arrivals are
pre-generated, the simulation is single-threaded, and no wall-clock
value is consulted anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ConfigError
from repro.machine import MachineConfig
from repro.os.net import LOCALHOST
from repro.workloads import asynchttp

WORKLOAD_LABEL = "loadgen"

REQUEST_KEEPALIVE = (b"GET /index.html HTTP/1.1\r\n"
                     b"Host: bench.local\r\n"
                     b"User-Agent: openloop/1.0 (enclosure-bench)\r\n"
                     b"Accept: text/html\r\n\r\n")


# -- arrival processes --------------------------------------------------------

def _check_rate(rate_rps: float) -> None:
    if not 0.0 < rate_rps < float("inf"):
        raise ConfigError(
            f"offered load must be a positive req/s rate, got {rate_rps}")


def poisson_arrivals(rate_rps: float, count: int, seed: int) -> list[float]:
    """``count`` arrival times (sim-ns) with exponential inter-arrivals."""
    _check_rate(rate_rps)
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate_rps) * 1e9
        out.append(t)
    return out


def bursty_arrivals(rate_rps: float, count: int, seed: int,
                    cycle_ns: float = 20e6, duty: float = 0.25) -> list[float]:
    """On/off-modulated Poisson: the same average ``rate_rps``, but all
    arrivals land in the first ``duty`` fraction of each ``cycle_ns``
    window at ``rate/duty`` intensity — production-shaped bursts."""
    _check_rate(rate_rps)
    rng = random.Random(seed)
    burst_rate = rate_rps / duty
    window = cycle_ns * duty
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(burst_rate) * 1e9
        while (t % cycle_ns) >= window:
            # Jump to the start of the next burst window.
            t = (t // cycle_ns + 1.0) * cycle_ns
        out.append(t)
    return out


ARRIVAL_PROCESSES = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
}


# -- connection slots ---------------------------------------------------------

class _Arrival(NamedTuple):
    """One scheduled request, queued on a slot until it is sent."""

    due: float              # scheduled arrival (sim ns)
    ctx: object             # trace context, ``None`` when spans are off
    request: bytes          # the request bytes to send
    tenant: str | None      # the tenant it is for (tenant study only)


class _Slot:
    """One keep-alive connection plus its client-side FIFO of arrivals."""

    __slots__ = ("conn", "queue", "inflight", "rxbuf", "port")

    def __init__(self, port: int = asynchttp.PORT) -> None:
        self.conn = None
        self.queue: list[_Arrival] = []
        self.inflight: _Arrival | None = None
        self.rxbuf = bytearray()
        self.port = port


class _Recorder:
    """Delivery-time observer on a slot's client endpoint.

    ``Network._delivered`` invokes ``on_data`` synchronously when the
    server writes, so response completion is stamped at the exact sim-ns
    the last byte arrives."""

    def __init__(self, gen: "OpenLoopLoadGen", slot: _Slot) -> None:
        self.gen = gen
        self.slot = slot

    def on_connect(self, endpoint) -> None:  # pragma: no cover - unused
        pass

    def on_data(self, endpoint) -> None:
        data = endpoint.recv(1 << 20)
        if not isinstance(data, bytes):
            return
        if data:
            self.slot.rxbuf.extend(data)
            self.gen._drain_slot(self.slot)
        else:
            # EOF: the server closed this connection (shed responses
            # close; resets mid-request land here too).
            self.gen._slot_eof(self.slot)


#: SLO used for the capacity verdict when the caller doesn't override.
DEFAULT_SLO_MS = 1.0


@dataclass
class LoadResult:
    """One offered-load level's outcome."""

    backend: str
    process: str
    offered_rps: float
    requests: int
    policy: str = "abort"
    ok: int = 0
    shed: int = 0
    refused: int = 0
    reset: int = 0
    #: Enclosure faults contained by the server while absorbing this
    #: level (nonzero only under a containing fault policy).
    contained: int = 0
    #: Simulated cores the serving machine ran with.
    cores: int = 1
    duration_ns: float = 0.0
    goodput_rps: float = 0.0
    p50_ns: float = 0.0
    p99_ns: float = 0.0
    p999_ns: float = 0.0
    latencies_ns: list[float] = field(default_factory=list)
    #: The serving machine's span recorder (``None`` unless the level
    #: ran with spans); not serialized — the CLI exports it separately.
    spans: object = field(default=None, repr=False)
    #: The serving machine's metrics registry, for exemplar-annotated
    #: expositions; not serialized.
    registry: object = field(default=None, repr=False)

    def slo_met(self, slo_ms: float = DEFAULT_SLO_MS) -> bool:
        """The table's "p99<SLO" verdict — the single source of truth,
        so the JSON report and the markdown table can never disagree."""
        return bool(self.ok and self.p99_ns <= slo_ms * 1e6)

    def to_dict(self, slo_ms: float = DEFAULT_SLO_MS) -> dict:
        return {
            "backend": self.backend,
            "policy": self.policy,
            "process": self.process,
            "offered_rps": round(self.offered_rps, 1),
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "refused": self.refused,
            "reset": self.reset,
            "contained": self.contained,
            "cores": self.cores,
            "duration_ms": round(self.duration_ns / 1e6, 3),
            "goodput_rps": round(self.goodput_rps, 1),
            "p50_us": round(self.p50_ns / 1e3, 1),
            "p99_us": round(self.p99_ns / 1e3, 1),
            "p999_us": round(self.p999_ns / 1e3, 1),
            "slo_ms": slo_ms,
            "p99_slo_met": self.slo_met(slo_ms),
        }


class OpenLoopLoadGen:
    """Drives one machine through one pre-generated arrival schedule."""

    def __init__(self, machine, arrivals: list[float], pool: int,
                 port: int = asynchttp.PORT,
                 ports: list[int] | None = None):
        self.machine = machine
        self.net = machine.kernel.net
        self.clock = machine.clock
        self.arrivals = arrivals
        #: One listener port per server worker; slots are assigned
        #: round-robin so a multi-worker (SMP) server sees its offered
        #: load spread across every readiness loop.
        self.ports = list(ports) if ports else [port]
        self.port = self.ports[0]
        self.slots = [_Slot(self.ports[i % len(self.ports)])
                      for i in range(max(1, pool))]
        self.ok = 0
        self.shed = 0
        self.refused = 0
        self.reset = 0
        self.latencies: list[float] = []

    # -- response accounting (runs synchronously at delivery) ----------------

    def _complete(self, slot: _Slot, status: int, server_closes: bool) -> None:
        arrival = slot.inflight
        slot.inflight = None
        latency = self.clock.now_ns - arrival.due
        ctx = arrival.ctx
        if status == 200:
            self.ok += 1
            outcome = "ok"
            self.latencies.append(latency)
            metrics = self.machine.metrics
            if metrics is not None:
                metrics.request_latency.observe(
                    latency,
                    exemplar=ctx.hex if ctx is not None else None,
                    workload=WORKLOAD_LABEL)
        elif status == 503:
            self.shed += 1
            outcome = "shed"
        elif status == 500:
            # The kernel's reclaim notice: the handling enclosure
            # faulted and was contained mid-request.
            self.reset += 1
            outcome = "failed"
        else:
            self.reset += 1
            outcome = "reset"
        self._account(arrival, outcome, latency)
        spans = self.machine.spans
        if spans is not None and ctx is not None:
            spans.complete_request(ctx, status, outcome)
        if server_closes:
            self._drop_conn(slot)
        self._pump_slot(slot)

    def _drain_slot(self, slot: _Slot) -> None:
        """Parse complete responses out of the slot's receive buffer."""
        while slot.inflight is not None:
            buf = slot.rxbuf
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = bytes(buf[:head_end])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            total = head_end + 4 + length
            if len(buf) < total:
                return
            status = int(head.split(b" ", 2)[1])
            closes = b"connection: close" in head.lower()
            del buf[:total]
            self._complete(slot, status, server_closes=closes)

    def _slot_eof(self, slot: _Slot) -> None:
        if slot.inflight is not None:
            # Died mid-request with no complete response buffered.
            self._complete(slot, -1, server_closes=True)
        else:
            self._drop_conn(slot)
            self._pump_slot(slot)

    def _drop_conn(self, slot: _Slot) -> None:
        if slot.conn is not None:
            self.net._service_endpoints.pop(id(slot.conn.client), None)
            spans = self.machine.spans
            if spans is not None:
                # Endpoint ids are recycled; forget undelivered wire
                # contexts so they can't leak onto a future connection.
                spans.forget_endpoint(slot.conn.client)
                spans.forget_endpoint(slot.conn.client.peer)
            if not slot.conn.client.closed:
                slot.conn.client.close()
            slot.conn = None
        slot.rxbuf.clear()

    # -- request dispatch ----------------------------------------------------

    def _arrival(self, index: int, due_at: float, ctx) -> _Arrival:
        """The queue entry of scheduled arrival ``index``."""
        return _Arrival(due_at, ctx, REQUEST_KEEPALIVE, None)

    def _account(self, arrival: _Arrival, outcome: str,
                 latency: float) -> None:
        """Per-arrival accounting beyond the totals (tenant study)."""

    def _pump_slot(self, slot: _Slot) -> None:
        """Start the next queued request, reconnecting as needed."""
        spans = self.machine.spans
        while slot.inflight is None and slot.queue:
            if slot.conn is None:
                conn = self.net.connect(LOCALHOST, slot.port)
                if isinstance(conn, int):
                    # Kernel accept queue full: instant refusal.
                    arrival = slot.queue.pop(0)
                    if spans is not None and arrival.ctx is not None:
                        spans.mark_refused(arrival.ctx)
                    self.refused += 1
                    self._account(arrival, "refused", 0.0)
                    continue
                slot.conn = conn
                self.net._service_endpoints[id(conn.client)] = \
                    _Recorder(self, slot)
            slot.inflight = arrival = slot.queue.pop(0)
            if spans is not None:
                # The pump often runs synchronously inside the server's
                # response write, where ``scheduler.current`` is still
                # the server goroutine: pin the outgoing context so the
                # wire hook attributes these bytes to the new request.
                spans.outgoing_ctx = arrival.ctx
                sent = slot.conn.client.send(arrival.request)
                spans.outgoing_ctx = None
            else:
                sent = slot.conn.client.send(arrival.request)
            if sent < 0:
                # Connection died between responses: retry on a new one.
                slot.inflight = None
                slot.queue.insert(0, arrival)
                self._drop_conn(slot)

    def _resume(self) -> None:
        if self.machine.resume().status == "faulted":
            raise AssertionError(
                f"server faulted under load: {self.machine.fault}")

    def run(self) -> LoadResult:
        arrivals = self.arrivals
        total = len(arrivals)
        start_ns = self.clock.now_ns
        offset = start_ns  # schedule is relative to the run start
        smp = getattr(self.machine.scheduler, "smp", False)
        for next_idx, arrival in enumerate(arrivals):
            due_at = offset + arrival
            if smp:
                # SMP: the client lives outside the cores.  Each core
                # keeps its own virtual time, so the dispatch instant is
                # the scheduled arrival itself — a core that is still
                # busy past ``due_at`` picks the wakeup up at its own
                # vtime, while an idle core serves it at ``due_at``.
                # That is what lets capacity scale: the global clock is
                # no longer a serial bottleneck.
                self.clock.now_ns = due_at
            elif self.clock.now_ns < due_at:
                # Open-loop think time: jump the clock to the scheduled
                # arrival.  (When the server has already burned past it,
                # the request is dispatched late but its latency is
                # still measured from ``due_at`` — queueing counts.)
                self.clock.charge(due_at - self.clock.now_ns)
            slot = self.slots[next_idx % len(self.slots)]
            spans = self.machine.spans
            ctx = (spans.client_arrival(next_idx, due_at)
                   if spans is not None else None)
            slot.queue.append(self._arrival(next_idx, due_at, ctx))
            self._pump_slot(slot)
            self._resume()
        # Drain: every arrival dispatched; let in-flight work finish.
        progress = -1
        while (done := self.ok + self.shed + self.refused + self.reset) \
                < total and done != progress:
            progress = done
            self._resume()
        duration = self.clock.now_ns - start_ns
        result = LoadResult(
            backend=self.machine.config.backend, process="",
            offered_rps=0.0, requests=total,
            ok=self.ok, shed=self.shed, refused=self.refused,
            reset=self.reset, duration_ns=duration)
        result.latencies_ns = sorted(self.latencies)
        if duration > 0:
            result.goodput_rps = self.ok / (duration * 1e-9)
        metrics = self.machine.metrics
        hist = (metrics.request_latency if metrics is not None else None)
        if hist is not None and hist.child_count(workload=WORKLOAD_LABEL):
            result.p50_ns = hist.quantile(0.50, workload=WORKLOAD_LABEL)
            result.p99_ns = hist.quantile(0.99, workload=WORKLOAD_LABEL)
            result.p999_ns = hist.quantile(0.999, workload=WORKLOAD_LABEL)
        elif result.latencies_ns:
            lats = result.latencies_ns
            result.p50_ns = lats[int(0.50 * (len(lats) - 1))]
            result.p99_ns = lats[int(0.99 * (len(lats) - 1))]
            result.p999_ns = lats[int(0.999 * (len(lats) - 1))]
        return result


# -- sweeps -------------------------------------------------------------------

DEFAULT_OFFERED = (5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0)


def run_level(backend: str, offered_rps: float, requests: int, seed: int,
              process: str = "poisson", pool: int = 8,
              maxconns: int = asynchttp.DEFAULT_MAXCONNS,
              backlog: int = asynchttp.DEFAULT_BACKLOG,
              fault_policy: str = "abort",
              config: MachineConfig | None = None,
              cores: int = 1, spans: bool = False,
              span_sample: float = 1.0,
              inject: str | None = None) -> LoadResult:
    """One offered-load level on a fresh machine.

    ``cores > 1`` boots an SMP machine with one server worker (its own
    listener on ``PORT + i``) per core and spreads the connection pool
    across the workers' ports.  ``spans`` arms the request-span
    recorder (trace ids derive from ``seed``); ``inject`` forwards a
    fault-injection spec so the flight recorder has faults to dump."""
    arrivals = ARRIVAL_PROCESSES[process](offered_rps, requests, seed)
    workers = max(1, cores)
    if config is None:
        config = MachineConfig(backend=backend, metrics=True,
                               fault_policy=fault_policy, cores=cores,
                               inject=inject, spans=spans,
                               span_seed=seed, span_sample=span_sample)
    machine = asynchttp.run_async_server(
        backend, config=config, maxconns=maxconns, backlog=backlog,
        workers=workers)
    ports = [asynchttp.PORT + i for i in range(workers)]
    gen = OpenLoopLoadGen(machine, arrivals, max(pool, workers), ports=ports)
    result = gen.run()
    result.process = process
    result.offered_rps = offered_rps
    result.policy = fault_policy
    result.contained = len(machine.containment_report()["contained"])
    result.cores = machine.config.cores
    result.spans = machine.spans
    result.registry = machine.metrics_registry
    return result


def run_sweep(backend: str, offered: tuple[float, ...] = DEFAULT_OFFERED,
              requests: int = 400, seed: int = 1, **kwargs) -> list[LoadResult]:
    """Sweep offered load to saturation on one backend."""
    return [run_level(backend, rps, requests, seed, **kwargs)
            for rps in offered]


def capacity_at_slo(results: list[LoadResult], slo_ns: float) -> float:
    """Highest goodput among levels whose p99 met the SLO."""
    best = 0.0
    for r in results:
        if r.ok and r.p99_ns <= slo_ns:
            best = max(best, r.goodput_rps)
    return best


def format_table(results: list[LoadResult],
                 slo_ms: float = DEFAULT_SLO_MS) -> str:
    """Markdown goodput-vs-offered-load table.

    Every cell (verdict included) comes from ``to_dict`` so the table
    and the JSON report agree field-for-field by construction."""
    lines = [
        "| backend | policy | process | offered rps | ok | shed | refused "
        "| reset | contained | goodput rps | p50 µs | p99 µs | p999 µs "
        "| p99<SLO |",
        "|" + "---|" * 14,
    ]
    for r in results:
        d = r.to_dict(slo_ms)
        met = "yes" if d["p99_slo_met"] else "no"
        lines.append(
            f"| {r.backend} | {r.policy} "
            f"| {r.process} | {d['offered_rps']:.0f} | {r.ok} | {r.shed} "
            f"| {r.refused} | {r.reset} | {r.contained} "
            f"| {d['goodput_rps']:.0f} "
            f"| {d['p50_us']:.1f} | {d['p99_us']:.1f} | {d['p999_us']:.1f} "
            f"| {met} |")
    return "\n".join(lines)
