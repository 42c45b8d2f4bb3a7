"""Multi-tenant tool platform: many tenant enclosures behind one server.

The paper's threat model is one application embedding a few untrusted
libraries.  This workload stretches the same six-call machinery to a
*platform*: ~100 tenant "tools" (small golite packages), each wrapped
in its own ``with "none"`` enclosure, served by an async HTTP front end
and driven by the open-loop generator.  The questions it answers are
operational rather than mechanistic:

* **Containment under load** — a tenant that faults (injected), burns
  CPU (slice-quota overrun), or hoards memory (span-quota overrun) is
  killed per-request, quarantined by the existing circuit breaker, and
  eventually evicted — while the *other* tenants' tail latency stays
  bounded at the same offered load.
* **Quotas** — per-enclosure resource budgets (:mod:`repro.quota`)
  enforced at the layers that already meter the resource: scheduler
  slices for CPU, allocator spans for memory, kernel fds for
  descriptors.
* **Lifecycle** — a :class:`TenantManager` drives each tenant through
  draft -> approved -> live -> quarantined -> evicted, with supervised
  revival (``revive_limit``) through :meth:`LitterBox.revive` and
  approval reset on code change.

Serving architecture: ``tenantsrv`` is a poll-based accept loop that
hands each readable connection to a **fresh goroutine** whose first
action is the read (transferring fd ownership, so a tenant fault
reclaims exactly that request's connection with a 500).  Responses
always close: a connection never re-enters the poll set, which keeps
the single-poller wake protocol deadlock-free (watchers are registered
only for fds present in the set when the poller parks).

Nothing here touches ``asynchttp``/``httpserver``: their images are
covered by committed sim-ns baselines and stay bit-identical.
"""

from __future__ import annotations

from repro.errors import ConfigError, require_at_least
from repro.golite import compile_program
from repro.image.linker import link
from repro.machine import Machine, MachineConfig
from repro.workloads.httpserver import ERROR_RESPONSE
from repro.workloads.loadgen import (
    ARRIVAL_PROCESSES,
    OpenLoopLoadGen,
    _Arrival,
)

PORT = 8083
DEFAULT_MAXCONNS = 64
DEFAULT_BACKLOG = 64
#: Default per-enclosure budgets for the study: every tenant enclosure
#: (``*``) gets a CPU budget of 250k slice-charged instructions — CPU
#: metering is slice-granular (a spin is charged only when it burns a
#: whole 200k-instruction scheduler slice), so a pure spin is killed at
#: its second slice, bounding the CPU any one tenant can steal to
#: ~400µs sim per activation — and 24 allocator spans (a hoarder
#: grabbing dedicated large-object spans trips mid-request).  Trusted
#: code is structurally exempt.
DEFAULT_QUOTAS = "*:steps=250000,spans=24"

PROFILES = ("healthy", "faulty", "cpuhog", "memhog")

TENANTSRV_SOURCE = """
package tenantsrv

const sysRead = 0
const sysWrite = 1
const sysClose = 3
const sysSocket = 41
const sysAccept = 43
const sysBind = 49
const sysListen = 50
const sysPoll = 1007
const sysFcntl = 1072
const nonblock = 2048

var served int
var shed int
var fds []int
var nfds int
var maxfds int

// ParsePath extracts the request path from "GET <path> HTTP/1.1".
func ParsePath(buf []byte, n int) string {
    start := 0
    for start < n && buf[start] != ' ' {
        start++
    }
    start++
    end := start
    for end < n && buf[end] != ' ' {
        end++
    }
    out := make([]byte, end-start)
    for i := start; i < end; i++ {
        out[i-start] = buf[i]
    }
    return string(out)
}

func writeShed(conn int) {
    resp := "HTTP/1.1 503 Service Unavailable\\r\\nRetry-After: 1\\r\\n" +
        "Content-Length: 0\\r\\nConnection: close\\r\\n\\r\\n"
    syscall(sysWrite, conn, strptr(resp), len(resp))
    syscall(sysClose, conn)
    shed = shed + 1
}

// handleOne owns one request end-to-end.  The read is the goroutine's
// first action, so fd ownership moves here before the tenant handler
// runs: a fault that kills this goroutine reclaims exactly this
// connection (the kernel pushes its reclaim notice to the client).
func handleOne(conn int, handler func(string) string) {
    buf := make([]byte, 4096)
    n := syscall(sysRead, conn, dataptr(buf), 4096)
    if n <= 0 {
        syscall(sysClose, conn)
        return
    }
    path := ParsePath(buf, n)
    body := handler(path)
    header := "HTTP/1.1 200 OK\\r\\nContent-Length: " + itoa(len(body)) +
        "\\r\\nContent-Type: text/html\\r\\nConnection: close\\r\\n\\r\\n"
    syscall(sysWrite, conn, strptr(header), len(header))
    syscall(sysWrite, conn, strptr(body), len(body))
    syscall(sysClose, conn)
    served = served + 1
}

// Serve polls the listener plus connections awaiting their first
// bytes.  A readable connection leaves the poll set for good and is
// handed to its own goroutine; responses close, so the parked poller
// never needs to be woken by an fd it was not watching.
func Serve(port int, maxconns int, backlog int,
           handler func(string) string) {
    lfd := syscall(sysSocket, 2, 1, 0)
    syscall(sysBind, lfd, port)
    syscall(sysListen, lfd, backlog)
    syscall(sysFcntl, lfd, nonblock)
    maxfds = maxconns + 1
    fds = make([]int, maxfds)
    fds[0] = lfd
    nfds = 1
    for {
        ready := syscall(sysPoll, dataptr(fds), nfds)
        if ready < 0 {
            continue
        }
        if ready == 0 {
            for {
                conn := syscall(sysAccept, lfd)
                if conn < 0 {
                    break
                }
                syscall(sysFcntl, conn, nonblock)
                if nfds >= maxfds {
                    writeShed(conn)
                } else {
                    fds[nfds] = conn
                    nfds++
                }
            }
            continue
        }
        conn := fds[ready]
        nfds--
        fds[ready] = fds[nfds]
        go handleOne(conn, handler)
    }
}
"""

#: Per-profile enclosure bodies.  ``faulty`` compiles identically to
#: ``healthy`` — its faults come from the injector, not its code.
#: None of them dereference ``p``: the path string's bytes live in the
#: *caller's* arena, which a ``with "none"`` view cannot read (the
#: Table 2 HTTP handler ignores its argument for the same reason).
_PROFILE_BODY = {
    "healthy": """\
        return "<html><body>{name}: tool output page</body></html>"
""",
    "faulty": """\
        return "<html><body>{name}: tool output page</body></html>"
""",
    # A pure spin never parks, so it burns whole scheduler slices
    # inside the enclosure until the step quota kills it.
    "cpuhog": """\
        n := 0
        for i := 0; i < 150000; i++ {{
            n = n + i
        }}
        return "<html><body>{name} cpu " + itoa(n) + "</body></html>"
""",
    # Every 8 KB buffer exceeds the largest size class, so each one
    # takes a dedicated allocator span charged to this enclosure.
    "memhog": """\
        keep := make([]byte, 8192)
        i := 0
        for i < 64 {{
            chunk := make([]byte, 8192)
            chunk[0] = 1
            keep = chunk
            i++
        }}
        return "<html><body>{name} mem " + itoa(len(keep)) + "</body></html>"
""",
}


def tenant_name(index: int) -> str:
    return f"t{index:03d}"


def tenant_source(name: str, profile: str) -> str:
    """One tenant package: ``Handle`` wraps the tool in an enclosure."""
    if profile not in PROFILES:
        raise ValueError(f"unknown tenant profile {profile!r}")
    body = _PROFILE_BODY[profile].format(name=name)
    return (f"package {name}\n\n"
            f"func Handle(path string) string {{\n"
            f'    h := with "none" func(p string) string {{\n'
            f"{body}"
            f"    }}\n"
            f"    return h(path)\n"
            f"}}\n")


def main_source(names: list[str], port: int = PORT,
                maxconns: int = DEFAULT_MAXCONNS,
                backlog: int = DEFAULT_BACKLOG) -> str:
    """The platform's trusted entry point: parse ``/tNNN`` and route."""
    imports = "\n".join(f'    "{name}"' for name in ["tenantsrv"] + names)
    chain = "\n".join(
        f"    if tid == {i} {{\n"
        f"        return {name}.Handle(path)\n"
        f"    }}"
        for i, name in enumerate(names))
    return f"""
package main

import (
{imports}
)

func parseTid(path string) int {{
    b := bytes(path)
    if len(b) < 3 {{
        return 1000000
    }}
    n := 0
    i := 2
    for i < len(b) {{
        c := b[i]
        if c < '0' {{
            break
        }}
        if c > '9' {{
            break
        }}
        n = n*10 + c - '0'
        i++
    }}
    return n
}}

func route(path string) string {{
    tid := parseTid(path)
{chain}
    return "<html><body>no such tenant</body></html>"
}}

func main() {{
    handler := func(path string) string {{
        return route(path)
    }}
    tenantsrv.Serve({port}, {maxconns}, {backlog}, handler)
}}
"""


def assign_profiles(count: int, faulty_frac: float = 0.10,
                    cpuhog_frac: float = 0.05,
                    memhog_frac: float = 0.05) -> dict[str, str]:
    """Deterministic tenant -> profile map: the misbehaving tenants are
    spread evenly through the id space (no seams at round numbers)."""
    if count < 1:
        raise ConfigError(f"tenants must be >= 1, got {count}")
    n_faulty = round(count * faulty_frac)
    n_cpu = round(count * cpuhog_frac)
    n_mem = round(count * memhog_frac)
    if min(n_faulty, n_cpu, n_mem) < 0 or n_faulty + n_cpu + n_mem > count:
        raise ConfigError(f"cannot place {n_faulty} faulty, {n_cpu} cpuhog "
                          f"and {n_mem} memhog tenants among {count}")
    profiles = {tenant_name(i): "healthy" for i in range(count)}
    taken: set[int] = set()

    def spread(n: int, label: str, offset: int) -> None:
        placed = 0
        i = offset
        while placed < n and len(taken) < count:
            idx = i % count
            if idx not in taken:
                taken.add(idx)
                profiles[tenant_name(idx)] = label
                placed += 1
            i += max(1, count // max(1, n))
        # Fill any remainder linearly.
        i = 0
        while placed < n:
            if i not in taken:
                taken.add(i)
                profiles[tenant_name(i)] = label
                placed += 1
            i += 1

    spread(n_faulty, "faulty", 3)
    spread(n_cpu, "cpuhog", 6)
    spread(n_mem, "memhog", 1)
    return profiles


def build_tenant_image(profiles: dict[str, str], port: int = PORT,
                       maxconns: int = DEFAULT_MAXCONNS,
                       backlog: int = DEFAULT_BACKLOG):
    """Compile and link the platform image for one tenant roster.

    Not memoized: rosters differ per study leg and images are large;
    callers that need reuse hold on to the returned image themselves.
    """
    names = sorted(profiles)
    sources = [TENANTSRV_SOURCE]
    sources += [tenant_source(name, profiles[name]) for name in names]
    sources.append(main_source(names, port, maxconns, backlog))
    objects = compile_program(sources)
    return link(objects, entry="main.$start")


def tenant_env_name(name: str) -> str:
    """The enclosure environment a tenant's ``with`` closure creates:
    first (and only) enclosure declared in package ``name``."""
    return f"{name}_1"


def inject_spec_for(profiles: dict[str, str], every: int = 1) -> str:
    """A ``pkey`` clause per faulty tenant: arm at Prolog, fire on the
    next data access inside that tenant's enclosure."""
    clauses = [f"pkey@{tenant_env_name(name)}:every={every}"
               for name in sorted(profiles) if profiles[name] == "faulty"]
    return ";".join(clauses)


# -- lifecycle ----------------------------------------------------------------

TENANT_STATES = ("draft", "approved", "live", "quarantined", "evicted")


class Tenant:
    """Lifecycle record for one tenant tool."""

    __slots__ = ("name", "profile", "env_name", "env_id", "pkg", "state",
                 "revivals", "code_hash")

    def __init__(self, name: str, profile: str, env_name: str,
                 env_id: int | None, code_hash: str = ""):
        self.name = name
        self.profile = profile
        self.env_name = env_name
        self.env_id = env_id
        self.pkg = f"encl.{env_name}"
        self.state = "draft"
        self.revivals = 0
        self.code_hash = code_hash


class TenantManager:
    """Drives tenants through draft -> approved -> live ->
    quarantined -> evicted, on top of the quarantine circuit breaker.

    ``poll()`` is the supervision tick: it scans the quarantine
    registry for live tenants that tripped the breaker, revives each up
    to ``revive_limit`` times (:meth:`LitterBox.revive` + a CPU-budget
    reset, mirroring the scheduler's ``restart_limit`` idiom for
    goroutines), and evicts the rest — eviction keeps the hardware
    quarantine in place permanently and recycles the tenant's allocator
    spans back to the free list (releasing its span quota and firing
    ``allocator_reclaimed_bytes_total``).
    """

    def __init__(self, machine: Machine, profiles: dict[str, str],
                 revive_limit: int = 1):
        self.machine = machine
        self.revive_limit = revive_limit
        envs_by_name = {env.name: env
                        for env in machine.litterbox.envs.values()}
        self.tenants: dict[str, Tenant] = {}
        self._by_env_id: dict[int, Tenant] = {}
        for name in sorted(profiles):
            env_name = tenant_env_name(name)
            env = envs_by_name.get(env_name)
            tenant = Tenant(name, profiles[name], env_name,
                            env.id if env is not None else None,
                            code_hash=profiles[name])
            self.tenants[name] = tenant
            if env is not None:
                self._by_env_id[env.id] = tenant
            self._note_state(tenant, "draft")

    # -- state bookkeeping ---------------------------------------------------

    def _note_state(self, tenant: Tenant, state: str,
                    previous: str | None = None) -> None:
        tenant.state = state
        metrics = self.machine.metrics
        if metrics is not None:
            if previous is not None:
                metrics.tenant_state.set(0, tenant=tenant.name,
                                         state=previous)
            metrics.tenant_state.set(1, tenant=tenant.name, state=state)

    def _transition(self, tenant: Tenant, state: str) -> None:
        self._note_state(tenant, state, previous=tenant.state)

    # -- admission -----------------------------------------------------------

    def approve(self, name: str) -> None:
        tenant = self.tenants[name]
        if tenant.state != "draft":
            raise ValueError(
                f"tenant {name!r} is {tenant.state}, not draft")
        self._transition(tenant, "approved")

    def activate(self, name: str) -> None:
        tenant = self.tenants[name]
        if tenant.state != "approved":
            raise ValueError(
                f"tenant {name!r} is {tenant.state}, not approved")
        self._transition(tenant, "live")

    def launch_all(self) -> None:
        """Approve and activate every drafted tenant (study setup)."""
        for name, tenant in self.tenants.items():
            if tenant.state == "draft":
                self.approve(name)
                self.activate(name)

    def update_code(self, name: str, code_hash: str) -> None:
        """A code push resets approval: the new tool must be re-vetted
        before it serves traffic again."""
        tenant = self.tenants[name]
        if code_hash == tenant.code_hash:
            return
        tenant.code_hash = code_hash
        if tenant.state == "evicted":
            raise ValueError(f"tenant {name!r} is evicted")
        self._transition(tenant, "draft")

    # -- supervision ---------------------------------------------------------

    def poll(self) -> list[tuple[str, str]]:
        """One supervision tick; returns ``(tenant, action)`` pairs."""
        lb = self.machine.litterbox
        if not lb.quarantined:
            return []
        actions: list[tuple[str, str]] = []
        for env_id in sorted(lb.quarantined):
            tenant = self._by_env_id.get(env_id)
            if tenant is None or tenant.state in ("quarantined", "evicted"):
                continue
            self._transition(tenant, "quarantined")
            if tenant.revivals < self.revive_limit:
                tenant.revivals += 1
                lb.revive(env_id)
                if self.machine.quota is not None:
                    # A revived tenant gets a fresh CPU budget; its
                    # span charges persist (the memory is still held).
                    self.machine.quota.reset(tenant.env_name)
                self._transition(tenant, "live")
                actions.append((tenant.name, "revived"))
            else:
                self.evict(tenant.name)
                actions.append((tenant.name, "evicted"))
        return actions

    def evict(self, name: str) -> int:
        """Terminal: the quarantine stays, the memory comes back."""
        tenant = self.tenants[name]
        self._transition(tenant, "evicted")
        return self.machine.allocator.recycle_package(tenant.pkg)

    def states(self) -> dict[str, str]:
        return {name: t.state for name, t in sorted(self.tenants.items())}


# -- load generation ----------------------------------------------------------

class TenantLoadGen(OpenLoopLoadGen):
    """Open-loop generator that spreads arrivals round-robin over the
    tenant roster and accounts outcomes per tenant.

    Inherits the base slot machinery and pump: arrival ``i`` is for
    tenant ``i % len(tenants)``, whose name rides in the arrival's queue
    entry next to its request bytes.  A 500 — the kernel's reclaim
    notice for a request whose handler goroutine was killed — is a
    *contained tenant fault*, counted as ``failed``.
    """

    def __init__(self, machine: Machine, arrivals: list[float], pool: int,
                 tenant_names: list[str], manager: TenantManager | None = None,
                 port: int = PORT):
        super().__init__(machine, arrivals, pool, port=port)
        self.manager = manager
        self.failed = 0
        self.tenant_names = list(tenant_names)
        self.per_tenant: dict[str, dict] = {
            name: {"ok": 0, "failed": 0, "shed": 0, "refused": 0,
                   "reset": 0, "latencies": []}
            for name in tenant_names}

    def _arrival(self, index: int, due_at: float, ctx) -> _Arrival:
        name = self.tenant_names[index % len(self.tenant_names)]
        request = (f"GET /t{int(name[1:]):03d} HTTP/1.1\r\n"
                   f"Host: tenants.local\r\n"
                   f"User-Agent: openloop/1.0 (tenant-study)\r\n\r\n")
        return _Arrival(due_at, ctx, request.encode(), name)

    def _account(self, arrival: _Arrival, outcome: str,
                 latency: float) -> None:
        record = self.per_tenant[arrival.tenant]
        record[outcome] += 1
        if outcome == "ok":
            record["latencies"].append(latency)
            metrics = self.machine.metrics
            if metrics is not None:
                metrics.tenant_latency.observe(latency, tenant=arrival.tenant)
        elif outcome == "failed":
            self.failed += 1

    def _resume(self) -> None:
        super()._resume()
        if self.manager is not None:
            # Supervision runs between scheduler drives, never inside
            # one: revival edits the page tables and PKRU values that a
            # running JIT trace hoisted at its entry, which must not
            # happen under a goroutine's feet mid-slice.
            self.manager.poll()


def _quantile(sorted_ns: list[float], q: float) -> float:
    if not sorted_ns:
        return 0.0
    return sorted_ns[int(q * (len(sorted_ns) - 1))]


# -- the study ----------------------------------------------------------------

def _healthy_latency_summary(gen: TenantLoadGen,
                             healthy: list[str]) -> dict:
    lats = sorted(lat for name in healthy
                  for lat in gen.per_tenant[name]["latencies"])
    return {
        "requests": len(lats),
        "p50_us": round(_quantile(lats, 0.50) / 1e3, 1),
        "p99_us": round(_quantile(lats, 0.99) / 1e3, 1),
        "p999_us": round(_quantile(lats, 0.999) / 1e3, 1),
    }


def _run_leg(backend: str, profiles: dict[str, str], arrivals: list[float],
             pool: int, inject: str | None, quotas: str | None,
             revive_limit: int, maxconns: int, backlog: int,
             virtualize_keys: bool, cores: int = 1,
             spans: bool = False, span_seed: int = 0,
             span_sample: float = 1.0) -> tuple[Machine, TenantLoadGen,
                                                TenantManager]:
    # One listener is enough on SMP: tenantsrv hands each request to a
    # fresh ``go handleOne`` goroutine, which work stealing spreads
    # across the cores.
    image = build_tenant_image(profiles, PORT, maxconns, backlog)
    config = MachineConfig(
        backend=backend, metrics=True, fault_policy="quarantine",
        quarantine_threshold=1, quotas=quotas, inject=inject,
        virtualize_keys=virtualize_keys, cores=cores,
        spans=spans, span_seed=span_seed, span_sample=span_sample)
    machine = Machine(image, config)
    machine.kernel.reclaim_notice = ERROR_RESPONSE
    result = machine.run()
    if result.status == "faulted":
        raise AssertionError(f"tenant server faulted: {machine.fault}")
    manager = TenantManager(machine, profiles, revive_limit=revive_limit)
    manager.launch_all()
    gen = TenantLoadGen(machine, arrivals, pool, sorted(profiles),
                        manager=manager)
    gen.run()
    return machine, gen, manager


def run_tenants_study(*args, **kwargs) -> dict:
    """The report of :func:`tenants_study`."""
    return tenants_study(*args, **kwargs)[0]


def tenants_study(backend: str, tenants: int = 100,
                  requests: int = 4000, offered_rps: float = 10_000.0,
                  seed: int = 1, process: str = "poisson",
                  pool: int = 8, quotas: str = DEFAULT_QUOTAS,
                  revive_limit: int = 1,
                  faulty_frac: float = 0.10,
                  cpuhog_frac: float = 0.02,
                  memhog_frac: float = 0.03,
                  maxconns: int = DEFAULT_MAXCONNS,
                  backlog: int = DEFAULT_BACKLOG,
                  profiles: dict[str, str] | None = None,
                  cores: int = 1, spans: bool = False,
                  span_sample: float = 1.0,
                  ) -> tuple[dict, list[tuple[str, Machine]]]:
    """Containment-under-load: a no-injection all-healthy baseline leg,
    then the mixed-roster leg with injected faults and quotas, at the
    same offered load.  Returns a deterministic report (the CI smoke
    runs it twice and diffs the bundles byte-for-byte) and the legs'
    ``(label, machine)`` pairs, ``baseline`` then ``study``.

    ``spans`` arms the request-span recorder on both legs (the report
    itself never changes shape).
    """
    require_at_least(0, requests=requests, revive_limit=revive_limit)
    require_at_least(1, pool=pool)
    if profiles is None:
        profiles = assign_profiles(tenants, faulty_frac, cpuhog_frac,
                                   memhog_frac)
    names = sorted(profiles)
    healthy = [n for n in names if profiles[n] == "healthy"]
    misbehaving = {n: p for n, p in profiles.items() if p != "healthy"}
    arrivals = ARRIVAL_PROCESSES[process](offered_rps, requests, seed)
    # >15 meta-packages exhaust MPK's hardware keys; the platform needs
    # libmpk-style virtualization exactly like the paper's ablation.
    virtualize = backend == "mpk" and len(profiles) > 12

    baseline_profiles = {name: "healthy" for name in names}
    base_machine, base_gen, _ = _run_leg(
        backend, baseline_profiles, arrivals, pool, inject=None,
        quotas=quotas, revive_limit=revive_limit, maxconns=maxconns,
        backlog=backlog, virtualize_keys=virtualize, cores=cores,
        spans=spans, span_seed=seed, span_sample=span_sample)
    baseline = _healthy_latency_summary(base_gen, healthy)
    baseline.update(ok=base_gen.ok, failed=base_gen.failed,
                    shed=base_gen.shed, refused=base_gen.refused,
                    reset=base_gen.reset)

    machine, gen, manager = _run_leg(
        backend, profiles, arrivals, pool,
        inject=inject_spec_for(profiles) or None,
        quotas=quotas, revive_limit=revive_limit, maxconns=maxconns,
        backlog=backlog, virtualize_keys=virtualize, cores=cores,
        spans=spans, span_seed=seed, span_sample=span_sample)
    study = _healthy_latency_summary(gen, healthy)
    study.update(ok=gen.ok, failed=gen.failed, shed=gen.shed,
                 refused=gen.refused, reset=gen.reset)

    states = manager.states()
    contained_states = ("quarantined", "evicted")
    report = machine.containment_report()
    gates = {
        "all_misbehaving_contained": all(
            states[name] in contained_states for name in misbehaving),
        "no_healthy_tenant_killed": all(
            states[name] == "live" and gen.per_tenant[name]["failed"] == 0
            for name in healthy),
        "healthy_p99_within_2x": (
            baseline["p99_us"] > 0
            and study["p99_us"] <= 2.0 * baseline["p99_us"]),
    }
    return {
        "backend": backend,
        "tenants": len(names),
        "requests": requests,
        "offered_rps": round(offered_rps, 1),
        "process": process,
        "seed": seed,
        "cores": cores,
        "quotas": quotas,
        "revive_limit": revive_limit,
        "profiles": {name: profiles[name] for name in names
                     if profiles[name] != "healthy"},
        "baseline": baseline,
        "study": study,
        "p99_ratio": (round(study["p99_us"] / baseline["p99_us"], 3)
                      if baseline["p99_us"] else 0.0),
        "tenant_states": {name: states[name] for name in names
                          if states[name] != "live"},
        "per_tenant_failed": {
            name: gen.per_tenant[name]["failed"] for name in names
            if gen.per_tenant[name]["failed"]},
        "quarantined": sorted(report["quarantined"]),
        "quota": report.get("quota", {}),
        "injected": (report.get("injector", {}).get("total_fired", 0)
                     if "injector" in report else 0),
        "gates": gates,
    }, [("baseline", base_machine), ("study", machine)]


def format_report(report: dict) -> str:
    """Markdown summary of one study report."""
    base, study = report["baseline"], report["study"]
    lines = [
        f"## tenants study — {report['backend']} "
        f"({report['tenants']} tenants, {report['requests']} requests "
        f"@ {report['offered_rps']:.0f} rps)",
        "",
        "| leg | ok | failed | shed | reset | healthy p50 µs "
        "| healthy p99 µs |",
        "|---|---|---|---|---|---|---|",
        f"| baseline | {base['ok']} | {base['failed']} | {base['shed']} "
        f"| {base['reset']} | {base['p50_us']:.1f} | {base['p99_us']:.1f} |",
        f"| study | {study['ok']} | {study['failed']} | {study['shed']} "
        f"| {study['reset']} | {study['p50_us']:.1f} "
        f"| {study['p99_us']:.1f} |",
        "",
        f"- healthy p99 ratio (study/baseline): {report['p99_ratio']}",
        f"- injected faults fired: {report['injected']}",
        f"- tenant states: " + ", ".join(
            f"{name}={state}"
            for name, state in sorted(report["tenant_states"].items())),
        f"- gates: " + ", ".join(
            f"{name}={'pass' if ok else 'FAIL'}"
            for name, ok in sorted(report["gates"].items())),
    ]
    return "\n".join(lines)
