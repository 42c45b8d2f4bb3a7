"""The benchmark's four workloads, each a user-facing path of the simulator.

A workload runs one *repetition* (``rep``), then turns what the
repetition built into a summary (``summarize``): the simulated outputs
that go into the digest, the simulated requests attempted and failed,
the simulated latency and goodput, and any correctness error.  The seed
is the only input; it draws the arrival schedule (or, for the closed
loop of ``paper-tables``, the order of the cells).

``boot`` builds and parks the workload's first machine; it is what one
``setup_s`` sample times, in a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Callable

from repro.machine import MachineConfig
from repro.workloads import loadgen, tenants
from repro.workloads.bild import run_bild
from repro.workloads.fasthttp import run_fasthttp_server
from repro.workloads.httpserver import PORT as HTTP_PORT
from repro.workloads.httpserver import run_http_server

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Backends whose simulated latency and goodput are reported.
SIM_BACKENDS = ("mpk", "vtx")


@dataclass(frozen=True)
class Workload:
    rep: Callable[[int, bool], object]
    summarize: Callable[[object, dict, bool], dict]
    boot: Callable[[], object]


def digest(doc) -> str:
    """SHA-256 of the canonical JSON of ``doc`` (floats at full
    precision, so one changed simulated nanosecond changes it)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _machine_records(machines) -> list:
    """Simulated time, clock counters and retired instructions of each
    machine, as a sorted multiset.  ``op_counts`` stays out on purpose:
    its keys follow the fusion pass, not the model."""
    return sorted(([m.clock.now_ns, sorted(m.clock.counters.items()),
                    m.perf.instructions] for m in machines),
                  key=json.dumps)


def quantile(sorted_values: list, q: float) -> float:
    """The value at rank floor(q * (n - 1)), as the tenants study ranks."""
    return sorted_values[int(q * (len(sorted_values) - 1))]


def _sim_metrics(per_backend: dict[str, tuple[float, float]]) -> dict:
    """``{backend: (p99_ns, goodput_rps)}`` -> named ``sim.*`` values."""
    out = {}
    for backend in SIM_BACKENDS:
        p99_ns, goodput = per_backend[backend]
        out[f"sim.{backend}.p99_us"] = p99_ns / 1e3
        out[f"sim.{backend}.goodput_rps"] = goodput
    return out


# -- paper-tables --------------------------------------------------------------
# Closed loop: every Table 1 micro cell and every Table 2 cell, on the
# three configurations the paper measures, observers off.

PAPER_BACKENDS = ("baseline", "mpk", "vtx")
TABLE2_REQUESTS = 15


def _paper_cells(quick: bool) -> list[tuple[str, Callable[[], float]]]:
    from benchmarks.test_table1_micro import (
        measure_call,
        measure_syscall,
        measure_transfer,
    )
    size = (8, 8, 1) if quick else (32, 32, 2)
    requests = 3 if quick else TABLE2_REQUESTS
    cells = []
    for op, measure in (("call", measure_call),
                        ("transfer", measure_transfer),
                        ("syscall", measure_syscall)):
        for backend in PAPER_BACKENDS:
            cells.append((f"table1/{op}/{backend}",
                          lambda m=measure, b=backend: m(b)))
    for backend in PAPER_BACKENDS:
        config = MachineConfig(backend=backend)
        cells += [
            (f"table2/bild/{backend}",
             lambda b=backend, c=config: run_bild(
                 b, *size, config=c).clock.now_ns),
            (f"table2/HTTP/{backend}",
             lambda b=backend, c=config: run_http_server(
                 b, config=c).throughput(requests)),
            (f"table2/FastHTTP/{backend}",
             lambda b=backend, c=config: run_fasthttp_server(
                 b, config=c).throughput(requests)),
        ]
    return cells


def paper_tables_rep(seed: int, quick: bool) -> dict[str, float]:
    cells = _paper_cells(quick)
    order = random.Random(seed).sample(cells, len(cells))
    return {key: run() for key, run in order}


def _pr6_errors(cells: dict[str, float]) -> list[str]:
    """Every cell must equal the committed ``BENCH_interp.json`` ``pr6``
    entry, at the one decimal that entry keeps."""
    pr6 = json.loads((ROOT / "BENCH_interp.json").read_text())["pr6"]
    keys = {"table1": "sim_ns_per_op", "bild": "sim_ns",
            "HTTP": "sim_req_per_s", "FastHTTP": "sim_req_per_s"}
    errors = []
    for key, value in cells.items():
        table, name, backend = key.split("/")
        row = pr6[table][f"{name}/{backend}"]
        expected = row[keys["table1" if table == "table1" else name]]
        if round(value, 1) != expected:
            errors.append(f"{key}: {round(value, 1)} != pr6 {expected}")
    return errors


def paper_tables_summary(cells: dict[str, float], recorded: dict,
                         quick: bool) -> dict:
    sim = {}
    for backend in SIM_BACKENDS:
        lats = sorted(recorded["req_sim_ns"][backend])
        sim[backend] = (quantile(lats, 0.99), len(lats) / (sum(lats) * 1e-9))
    requests = sum(len(v) for v in recorded["req_sim_ns"].values())
    # Quick mode shrinks only the Table 2 cells.
    checked = {key: value for key, value in cells.items()
               if not quick or key.startswith("table1/")}
    return {
        "doc": {"cells": cells,
                "machines": _machine_records(recorded["machines"])},
        "attempted": len(cells) + requests,
        "req_ns": recorded["closed_ns"][HTTP_PORT],
        "failed": 0,
        "sim": _sim_metrics(sim),
        "errors": _pr6_errors(checked),
    }


def paper_tables_boot():
    return run_http_server("baseline").machine


# -- loadtest ------------------------------------------------------------------
# Open loop: ``repro loadtest``'s defaults (Poisson arrivals, 8 keep-alive
# connections, metrics on, abort policy), one level per backend, each
# just under its p99 < 1 ms capacity on that many simulated cores.

LOADTEST_LEVELS = {
    1: (("mpk", 40_000.0), ("vtx", 20_000.0)),
    4: (("mpk", 140_000.0), ("vtx", 90_000.0)),
}
LOADTEST_REQUESTS = 1000


def loadtest_rep(cores: int):
    def rep(seed: int, quick: bool) -> list:
        requests = 40 if quick else LOADTEST_REQUESTS
        return [loadgen.run_level(backend, rps, requests, seed, cores=cores)
                for backend, rps in LOADTEST_LEVELS[cores]]
    return rep


def loadtest_summary(results: list, recorded: dict, quick: bool) -> dict:
    levels = []
    errors = []
    for (gen, _), result in zip(recorded["levels"], results):
        answered = result.ok + result.shed + result.refused + result.reset
        if answered != result.requests:
            errors.append(f"{result.backend}: {result.requests - answered} "
                          f"requests lost")
        levels.append({
            "backend": result.backend, "ok": result.ok, "shed": result.shed,
            "refused": result.refused, "reset": result.reset,
            "duration_ns": result.duration_ns, "p50_ns": result.p50_ns,
            "p99_ns": result.p99_ns, "p999_ns": result.p999_ns,
            "latencies_ns": gen.latencies})
    return {
        "doc": {"levels": levels,
                "machines": _machine_records(recorded["machines"])},
        "attempted": sum(r.requests for r in results),
        "req_ns": recorded["req_ns"],
        "failed": sum(r.requests - r.ok for r in results),
        "sim": _sim_metrics({r.backend: (r.p99_ns, r.goodput_rps)
                             for r in results}),
        "errors": errors,
    }


def loadtest_boot(cores: int):
    def boot():
        backend, rps = LOADTEST_LEVELS[cores][0]
        return loadgen.run_level(backend, rps, 0, 1, cores=cores)
    return boot


# -- tenants -------------------------------------------------------------------
# ``repro tenants``' CI roster: 30 tenants (3 faulty, 1 CPU hog, 1
# memory hog under the default quotas) at 10k rps; each backend runs an
# all-healthy baseline leg, then the study leg.

TENANTS = 30
TENANT_REQUESTS = 600
TENANT_RATE = 10_000.0


def tenants_rep(seed: int, quick: bool) -> list[dict]:
    count = 10 if quick else TENANTS
    requests = 60 if quick else TENANT_REQUESTS
    return [tenants.run_tenants_study(backend, tenants=count,
                                      requests=requests,
                                      offered_rps=TENANT_RATE, seed=seed)
            for backend in SIM_BACKENDS]


def tenants_summary(reports: list[dict], recorded: dict,
                    quick: bool) -> dict:
    """A misbehaving tenant's 500 is its fault being contained, which
    the study exists to show: it is checked through the digest and the
    gates, and is not a failed request.  Every other request must get a
    200."""
    legs = []
    failed = attempted = 0
    sim = {}
    errors = []
    pairs = iter(recorded["levels"])
    for report in reports:
        misbehaving = set(report["profiles"])
        for leg in ("baseline", "study"):
            gen, result = next(pairs)
            attempted += result.requests
            for name, record in gen.per_tenant.items():
                if leg == "study" and name in misbehaving:
                    continue
                failed += (record["failed"] + record["shed"]
                           + record["refused"] + record["reset"])
            legs.append({name: record
                         for name, record in sorted(gen.per_tenant.items())})
        # ``result`` is the study leg's now.
        healthy_ok = report["study"]["requests"]
        sim[report["backend"]] = (report["study"]["p99_us"] * 1e3,
                                  healthy_ok / (result.duration_ns * 1e-9))
        gates = report["gates"]
        for gate in ("all_misbehaving_contained", "no_healthy_tenant_killed"):
            if not gates[gate]:
                errors.append(f"{report['backend']}: gate {gate} failed")
    return {
        "doc": {"reports": reports, "legs": legs,
                "machines": _machine_records(recorded["machines"])},
        "attempted": attempted,
        "req_ns": recorded["req_ns"],
        "failed": failed,
        "sim": _sim_metrics(sim),
        "errors": errors,
    }


def tenants_boot():
    """The baseline leg's machine, booted and parked with no arrivals."""
    profiles = {tenants.tenant_name(i): "healthy" for i in range(TENANTS)}
    machine, _, _ = tenants._run_leg(
        "mpk", profiles, [], pool=8, inject=None,
        quotas=tenants.DEFAULT_QUOTAS, revive_limit=1,
        maxconns=tenants.DEFAULT_MAXCONNS, backlog=tenants.DEFAULT_BACKLOG,
        virtualize_keys=True)
    return machine


WORKLOADS = {
    "paper-tables": Workload(paper_tables_rep, paper_tables_summary,
                             paper_tables_boot),
    "loadtest-1c": Workload(loadtest_rep(1), loadtest_summary,
                            loadtest_boot(1)),
    "loadtest-4c": Workload(loadtest_rep(4), loadtest_summary,
                            loadtest_boot(4)),
    "tenants-30": Workload(tenants_rep, tenants_summary, tenants_boot),
}
