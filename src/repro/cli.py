"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE... [--backend B] [--stats]`` — compile the Golite source
  files (one package per file) and run them under the chosen backend;
* ``layout FILE...`` — print the linked executable's Figure-4 layout;
* ``views FILE...`` — print every enclosure's computed memory view;
* ``py FILE... [--mode M]`` — run Pylite modules (the last file is the
  main module; others are importable by their stem names);
* ``micro`` — print the Table 1 microbenchmark row for this build;
* ``report FILE...`` — validate/summarize ``--metrics`` expositions and
  ``--profile`` folded stacks.

``run`` and ``macro`` share the observability flags: ``--metrics``,
``--profile``/``--profile-period``, ``--stats-json``,
``--trace-summary``, and ``--jit-stats`` (all off by default; none
charges simulated time), plus ``--no-jit`` to force pure
interpretation (simulated values are bit-identical either way).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import SimError
from repro.golite import build_program
from repro.machine import Machine, MachineConfig


def _read_sources(paths: list[str]) -> list[str]:
    return [pathlib.Path(p).read_text() for p in paths]


def _write_text(dest: str, text: str) -> None:
    """Write ``text`` to a path, or to stdout when ``dest`` is ``-``."""
    if dest == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(dest).write_text(text)


def _emit_observability(machine: Machine, args: argparse.Namespace) -> None:
    """Shared ``--metrics/--profile/--trace-summary/--stats-json``
    output for the run and macro commands."""
    import json

    if getattr(args, "metrics", None) is not None:
        _write_text(args.metrics, machine.metrics_registry.render_text())
        if args.metrics != "-":
            print(f"-- wrote metrics exposition to {args.metrics}",
                  file=sys.stderr)
    if getattr(args, "profile", None) is not None:
        profiler = machine.profiler
        count = profiler.write_folded(args.profile)
        print(f"-- wrote {count} samples to {args.profile} "
              f"(period {profiler.period_ns:g} sim-ns)", file=sys.stderr)
        for line in profiler.top_table().splitlines():
            print(f"--   {line}", file=sys.stderr)
    if getattr(args, "trace_summary", None) is not None:
        pathlib.Path(args.trace_summary).write_text(
            json.dumps(machine.tracer.summary(), indent=1, sort_keys=True))
        print(f"-- wrote trace summary to {args.trace_summary}",
              file=sys.stderr)
    if getattr(args, "stats_json", None) is not None:
        clock = machine.clock
        snapshot = {
            "sim_ns": clock.now_ns,
            "counters": {name: clock.count(name)
                         for name in ("switches", "transfers",
                                      "syscalls", "vm_exits")},
            "perf": machine.perf.snapshot(),
        }
        _write_text(args.stats_json,
                    json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        if args.stats_json != "-":
            print(f"-- wrote perf counters to {args.stats_json}",
                  file=sys.stderr)
    if getattr(args, "jit_stats", False):
        print(f"-- {machine.perf.describe_jit()}", file=sys.stderr)


def _print_stats(machine: Machine) -> None:
    clock = machine.clock
    print(f"-- simulated time: {clock.now_ns / 1e6:.3f} ms",
          file=sys.stderr)
    for counter in ("switches", "transfers", "syscalls", "vm_exits"):
        print(f"--   {counter}: {clock.count(counter)}", file=sys.stderr)
    print("-- interpreter perf counters (wall-clock observability):",
          file=sys.stderr)
    for line in machine.perf.describe():
        print(f"--   {line}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    image = build_program(_read_sources(args.files))
    machine = Machine(image, MachineConfig(
        backend=args.backend,
        trace=args.trace is not None or args.trace_summary is not None,
        metrics=args.metrics is not None,
        profile=args.profile is not None,
        profile_period_ns=args.profile_period,
        fault_policy=args.fault_policy,
        inject=args.inject,
        inject_seed=args.seed,
        quarantine_threshold=args.quarantine_threshold,
        jit=not args.no_jit))
    result = machine.run()
    sys.stdout.write(machine.stdout.decode("utf-8", "replace"))
    if result.status == "faulted":
        print(machine.fault_trace(), file=sys.stderr)
    elif result.status == "killed":
        print(f"repro: main goroutine killed by contained fault: "
              f"{machine.fault}", file=sys.stderr)
    if args.fault_policy != "abort" or args.inject:
        report = machine.containment_report()
        contained = report["contained"]
        print(f"-- containment: policy={report['fault_policy']} "
              f"contained={len(contained)} "
              f"quarantined={sorted(report['quarantined'])}",
              file=sys.stderr)
        for entry in contained:
            print(f"--   contained {entry['kind']}: {entry['detail']} "
                  f"[{entry['origin']}]", file=sys.stderr)
    if args.trace is not None:
        count = machine.tracer.write_chrome_trace(args.trace)
        for line in machine.tracer.describe():
            print(f"-- {line}", file=sys.stderr)
        print(f"-- wrote {count} trace events to {args.trace}",
              file=sys.stderr)
    _emit_observability(machine, args)
    if args.stats:
        _print_stats(machine)
    return 0 if result.status in ("exited", "halted", "idle") else 1


def cmd_layout(args: argparse.Namespace) -> int:
    image = build_program(_read_sources(args.files))
    print(image.describe_layout())
    return 0


def cmd_views(args: argparse.Namespace) -> int:
    image = build_program(_read_sources(args.files))
    machine = Machine(image, MachineConfig(backend="mpk"))
    for env in machine.litterbox.envs.values():
        print(env.describe())
    print(f"meta-packages: {len(machine.litterbox.clustering)}")
    return 0


def cmd_py(args: argparse.Namespace) -> int:
    from repro.pylite import Interpreter, PyMachine
    machine = PyMachine(args.mode)
    interp = Interpreter(machine)
    *modules, main = args.files
    for path in modules:
        interp.add_source(pathlib.Path(path).stem,
                          pathlib.Path(path).read_text())
    try:
        interp.run_main(pathlib.Path(main).read_text())
    except SimError as err:
        print(f"pylite: aborted: {err}", file=sys.stderr)
        return 1
    finally:
        sys.stdout.write(machine.kernel.stdout.decode("utf-8", "replace"))
    if args.stats:
        print(f"-- simulated time: {machine.clock.now_ns / 1e6:.3f} ms "
              f"switches={machine.clock.count('switches')}",
              file=sys.stderr)
    return 0


def cmd_macro(args: argparse.Namespace) -> int:
    """Drive the HTTP macro workload, optionally under fault injection.

    Used by CI as the containment smoke test: with a fixed seed and a
    quarantine policy the server must absorb every injected enclosure
    violation (answering poisoned requests with a 500) while clean
    responses stay identical.
    """
    import json

    from repro.workloads.httpserver import run_http_server

    config = MachineConfig(backend=args.backend,
                           trace=args.trace_summary is not None,
                           metrics=args.metrics is not None,
                           profile=args.profile is not None,
                           profile_period_ns=args.profile_period,
                           fault_policy=args.fault_policy,
                           inject=args.inject,
                           inject_seed=args.seed,
                           quarantine_threshold=args.quarantine_threshold,
                           jit=not args.no_jit)
    driver = run_http_server(args.backend, config=config,
                             metrics=args.metrics is not None)
    machine = driver.machine
    ok = errors = other = 0
    reference: bytes | None = None
    diverged = False
    for _ in range(args.requests):
        response = driver.request()
        if response.startswith(b"HTTP/1.1 200"):
            ok += 1
            if reference is None:
                reference = response
            elif response != reference:
                diverged = True
        elif response.startswith(b"HTTP/1.1 500"):
            errors += 1
        else:
            other += 1
    if args.metrics is not None:
        # End-to-end check: the simulated server itself must answer
        # GET /metrics with a valid exposition (the scrape is not
        # recorded, so the latency histogram count stays == --requests).
        from repro.metrics import MetricsFormatError, validate_exposition
        scraped = driver.scrape_metrics()
        if not scraped.startswith(b"HTTP/1.1 200"):
            print(f"repro: in-sim /metrics scrape failed: {scraped[:64]!r}",
                  file=sys.stderr)
            return 1
        body = scraped.split(b"\r\n\r\n", 1)[1].decode("utf-8", "replace")
        try:
            samples = validate_exposition(body)
        except MetricsFormatError as err:
            print(f"repro: in-sim /metrics exposition invalid: {err}",
                  file=sys.stderr)
            return 1
        print(f"-- in-sim /metrics scrape: {samples} valid samples",
              file=sys.stderr)
    report = machine.containment_report()
    contained = len(report["contained"])
    summary = {
        "backend": args.backend,
        "requests": args.requests,
        "ok": ok,
        "errors": errors,
        "other": other,
        "diverged": diverged,
        "sim_ns": machine.clock.now_ns,
        **report,
    }
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(summary, indent=2, default=str))
    print(f"-- macro[{args.backend}]: {ok} ok, {errors} errors, "
          f"{contained} contained faults "
          f"(policy={config.fault_policy})", file=sys.stderr)
    _emit_observability(machine, args)
    if args.stats:
        _print_stats(machine)
    if diverged:
        print("repro: clean responses diverged under injection",
              file=sys.stderr)
        return 1
    if other:
        print(f"repro: {other} responses were neither 200 nor 500",
              file=sys.stderr)
        return 1
    if args.expect_contained and contained < args.expect_contained:
        print(f"repro: expected >= {args.expect_contained} contained "
              f"faults, saw {contained}", file=sys.stderr)
        return 1
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Open-loop saturation sweep against the async (epoll-style) server.

    For each backend (and fault policy, with ``--containment both``),
    sweeps offered load over ``--offered`` and prints a
    goodput-vs-offered-load capacity table with p50/p99/p999 tail
    latency; deterministic for a fixed ``--seed``.
    """
    import json

    from repro.workloads import loadgen

    offered = tuple(float(x) for x in args.offered.split(","))
    policies = {"on": ["quarantine"], "off": ["abort"],
                "both": ["abort", "quarantine"]}[args.containment]
    spans_on = args.spans is not None or args.flight is not None
    results = []
    for backend in args.backends.split(","):
        for policy in policies:
            sweep = loadgen.run_sweep(
                backend, offered=offered, requests=args.requests,
                seed=args.seed, process=args.process, pool=args.pool,
                maxconns=args.maxconns, backlog=args.backlog,
                fault_policy=policy, cores=args.cores,
                spans=spans_on, span_sample=args.span_sample,
                inject=args.inject)
            results.extend(sweep)
            slo_ns = args.slo_ms * 1e6
            capacity = loadgen.capacity_at_slo(sweep, slo_ns)
            print(f"-- loadtest[{backend}/{policy}]: capacity at "
                  f"p99<{args.slo_ms:g}ms = {capacity:.0f} req/s "
                  f"(cores={args.cores})",
                  file=sys.stderr)
    table = loadgen.format_table(results, slo_ms=args.slo_ms)
    if args.table:
        pathlib.Path(args.table).write_text(table + "\n")
        print(f"-- wrote capacity table to {args.table}", file=sys.stderr)
    else:
        print(table)
    if args.report:
        # Same slo_ms as the table, so the JSON and markdown verdicts
        # agree field-for-field.
        doc = [r.to_dict(args.slo_ms) for r in results]
        pathlib.Path(args.report).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"-- wrote loadtest report to {args.report}", file=sys.stderr)
    recorders = [(f"{r.backend}/{r.policy}/{r.offered_rps:g}", r.spans)
                 for r in results if r.spans is not None]
    if args.spans is not None and recorders:
        from repro.spans import write_span_trace
        count = write_span_trace(args.spans, recorders)
        print(f"-- wrote {count} span events to {args.spans}",
              file=sys.stderr)
    if args.flight is not None and recorders:
        flight = {label: rec.flight_recorder()
                  for label, rec in recorders}
        pathlib.Path(args.flight).write_text(
            json.dumps(flight, indent=1, sort_keys=True) + "\n")
        print(f"-- wrote flight-recorder dumps to {args.flight}",
              file=sys.stderr)
    if args.exemplars is not None:
        registry = next((r.registry for r in reversed(results)
                         if r.registry is not None), None)
        if registry is not None:
            _write_text(args.exemplars,
                        registry.render_text(exemplars=True))
            if args.exemplars != "-":
                print(f"-- wrote exemplar exposition to {args.exemplars}",
                      file=sys.stderr)
    # Sanity gate for CI: every request must be accounted for, and at
    # least one level per backend must reach the server's saturation
    # regime (goodput below offered) so the curve actually bends.
    for r in results:
        if r.ok + r.shed + r.refused + r.reset != r.requests:
            print(f"repro: loadtest lost requests at "
                  f"{r.backend}/{r.offered_rps}", file=sys.stderr)
            return 1
    return 0


def cmd_tenants(args: argparse.Namespace) -> int:
    """Multi-tenant containment-under-load study.

    Runs ~100 tenant tools, each in its own enclosure, behind the async
    HTTP server: a no-injection all-healthy baseline leg, then the
    mixed roster (injected faults + CPU/memory hogs under per-enclosure
    quotas) at the same offered load.  Prints the markdown report per
    backend; with ``--check-gates`` the exit status enforces the
    containment gates (all misbehaving tenants quarantined/evicted, no
    healthy tenant harmed, healthy p99 within 2x of baseline).
    """
    import json

    from repro.workloads import tenants as tenants_mod

    results = []
    recorders = []
    status = 0
    for backend in args.backends.split(","):
        spans_out = [] if args.spans is not None else None
        report = tenants_mod.run_tenants_study(
            backend, tenants=args.tenants, requests=args.requests,
            offered_rps=args.rate, seed=args.seed, process=args.process,
            pool=args.pool,
            quotas=(args.quotas if args.quotas is not None
                    else tenants_mod.DEFAULT_QUOTAS),
            revive_limit=args.revive_limit,
            faulty_frac=args.faulty_frac,
            cpuhog_frac=args.cpuhog_frac,
            memhog_frac=args.memhog_frac,
            cores=args.cores,
            spans=args.spans is not None,
            span_sample=args.span_sample,
            spans_out=spans_out)
        if spans_out:
            recorders.extend((f"{backend}/{label}", recorder)
                             for label, recorder in spans_out)
        results.append(report)
        print(tenants_mod.format_report(report))
        print()
        gates = report["gates"]
        verdict = "pass" if all(gates.values()) else "FAIL"
        print(f"-- tenants[{backend}]: p99 ratio {report['p99_ratio']}, "
              f"{len(report['tenant_states'])} tenants contained, "
              f"gates {verdict}", file=sys.stderr)
        if args.check_gates and not all(gates.values()):
            for name, ok in sorted(gates.items()):
                if not ok:
                    print(f"repro: tenants gate failed on {backend}: "
                          f"{name}", file=sys.stderr)
            status = 1
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"-- wrote tenants report to {args.report}", file=sys.stderr)
    if args.spans is not None and recorders:
        from repro.spans import write_span_trace
        count = write_span_trace(args.spans, recorders)
        print(f"-- wrote {count} span events to {args.spans}",
              file=sys.stderr)
    return status


def cmd_report(args: argparse.Namespace) -> int:
    """Summarize observability artifacts: Prometheus expositions are
    validated and totalled; folded profiles get a perf-top table."""
    from repro import profiler as prof
    from repro.metrics import MetricsFormatError, validate_exposition

    status = 0
    for path in args.files:
        text = pathlib.Path(path).read_text()
        print(f"== {path}")
        stripped = text.lstrip()
        if stripped.startswith("#"):
            try:
                samples = validate_exposition(text)
            except MetricsFormatError as err:
                print(f"repro: invalid exposition: {err}", file=sys.stderr)
                status = 1
                continue
            families = sorted(
                (line.split()[2], line.split()[3])
                for line in text.splitlines()
                if line.startswith("# TYPE "))
            print(f"valid exposition: {samples} samples, "
                  f"{len(families)} families")
            for name, typename in families:
                print(f"  {name} ({typename})")
        else:
            try:
                stacks = prof.parse_folded(text)
            except ValueError as err:
                print(f"repro: invalid folded profile: {err}",
                      file=sys.stderr)
                status = 1
                continue
            print(prof.top_table(stacks, n=args.top))
    return status


def cmd_micro(args: argparse.Namespace) -> int:
    from benchmarks.test_table1_micro import (
        BACKENDS,
        PAPER,
        measure_call,
        measure_syscall,
        measure_transfer,
    )
    print(f"{'':<10}{'Baseline':>10}{'LBMPK':>10}{'LBVTX':>10}   paper")
    for name, measure in (("call", measure_call),
                          ("transfer", measure_transfer),
                          ("syscall", measure_syscall)):
        row = f"{name:<10}"
        for backend in BACKENDS:
            row += f"{measure(backend):>10.0f}"
        paper = PAPER[name]
        row += f"   {paper['baseline']}/{paper['mpk']}/{paper['vtx']}"
        print(row)
    return 0


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", metavar="OUT|-", default=None,
                        help="enable the metrics registry and write the "
                             "Prometheus text exposition (- for stdout)")
    parser.add_argument("--profile", metavar="OUT.folded", default=None,
                        help="enable the sim-time sampling profiler and "
                             "write collapsed stacks (top table on stderr)")
    parser.add_argument("--profile-period", type=float, default=1000.0,
                        metavar="NS",
                        help="profiler sampling period in simulated ns "
                             "(default: 1000)")
    parser.add_argument("--stats-json", metavar="OUT|-", default=None,
                        help="write sim time, clock counters, and the "
                             "interpreter perf snapshot as JSON")
    parser.add_argument("--trace-summary", metavar="OUT.json", default=None,
                        help="enable the tracer and write its per-env "
                             "summary as JSON")
    parser.add_argument("--no-jit", action="store_true",
                        help="disable the tracing JIT (pure "
                             "interpretation; simulated values are "
                             "bit-identical either way)")
    parser.add_argument("--jit-stats", action="store_true",
                        help="print the JIT summary (traces compiled, "
                             "coverage, deopts) on stderr")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Enclosure/LitterBox (ASPLOS'21) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and run Golite sources")
    p_run.add_argument("files", nargs="+")
    p_run.add_argument("--backend", default="mpk",
                       choices=["baseline", "mpk", "vtx", "lwc"])
    p_run.add_argument("--stats", action="store_true")
    p_run.add_argument("--trace", metavar="OUT.json", default=None,
                       help="enable the enforcement-event tracer and "
                            "write a Chrome trace-event JSON file")
    p_run.add_argument("--fault-policy", default="abort",
                       choices=["abort", "kill-goroutine", "quarantine"],
                       help="what a fault inside an enclosure does")
    p_run.add_argument("--inject", metavar="SPEC", default=None,
                       help="deterministic fault-injection spec, e.g. "
                            "'eagain@main_1:every=3;pkey@main_1'")
    p_run.add_argument("--seed", type=int, default=0,
                       help="fault-injector RNG seed")
    p_run.add_argument("--quarantine-threshold", type=int, default=1,
                       help="contained faults before quarantine trips")
    _add_observability_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_macro = sub.add_parser(
        "macro", help="drive the HTTP macro workload (CI containment "
                      "smoke under --inject)")
    p_macro.add_argument("--backend", default="mpk",
                         choices=["baseline", "mpk", "vtx", "lwc"])
    p_macro.add_argument("--requests", type=int, default=20)
    p_macro.add_argument("--fault-policy", default="abort",
                         choices=["abort", "kill-goroutine", "quarantine"])
    p_macro.add_argument("--inject", metavar="SPEC", default=None)
    p_macro.add_argument("--seed", type=int, default=0)
    p_macro.add_argument("--quarantine-threshold", type=int, default=1)
    p_macro.add_argument("--expect-contained", type=int, default=0,
                         help="fail unless at least this many faults "
                              "were contained")
    p_macro.add_argument("--report", metavar="OUT.json", default=None,
                         help="write the containment report as JSON")
    p_macro.add_argument("--stats", action="store_true")
    _add_observability_args(p_macro)
    p_macro.set_defaults(func=cmd_macro)

    p_loadtest = sub.add_parser(
        "loadtest", help="open-loop saturation sweep against the async "
                         "HTTP server (goodput + tail latency)")
    p_loadtest.add_argument("--backends", default="mpk,vtx,lwc",
                            help="comma-separated backends to sweep")
    p_loadtest.add_argument("--offered",
                            default="5000,10000,20000,40000,80000",
                            help="comma-separated offered loads (req/s)")
    p_loadtest.add_argument("--requests", type=int, default=300,
                            help="requests per offered-load level")
    p_loadtest.add_argument("--process", default="poisson",
                            choices=["poisson", "bursty"],
                            help="arrival process")
    p_loadtest.add_argument("--seed", type=int, default=1,
                            help="arrival-process seed (runs are "
                                 "deterministic for a fixed seed)")
    p_loadtest.add_argument("--pool", type=int, default=8,
                            help="keep-alive client connections")
    p_loadtest.add_argument("--maxconns", type=int, default=64,
                            help="server poll-set bound (503s beyond it)")
    p_loadtest.add_argument("--backlog", type=int, default=64,
                            help="kernel accept-queue bound")
    p_loadtest.add_argument("--slo-ms", type=float, default=1.0,
                            help="p99 SLO for the capacity figure (ms)")
    p_loadtest.add_argument("--cores", type=int, default=1,
                            help="simulated cores (one server worker "
                                 "and listener port per core)")
    p_loadtest.add_argument("--containment", default="off",
                            choices=["on", "off", "both"],
                            help="fault policy under load: on=quarantine, "
                                 "off=abort")
    p_loadtest.add_argument("--table", metavar="OUT.md", default=None,
                            help="write the markdown capacity table")
    p_loadtest.add_argument("--report", metavar="OUT.json", default=None,
                            help="write per-level results as JSON")
    p_loadtest.add_argument("--spans", metavar="OUT.json", default=None,
                            help="enable request-scoped tracing and write "
                                 "the span export (Chrome trace-event "
                                 "JSON, one lane per level)")
    p_loadtest.add_argument("--span-sample", type=float, default=1.0,
                            metavar="FRAC",
                            help="tail-sampling keep fraction for healthy "
                                 "traces (anomalous traces always kept)")
    p_loadtest.add_argument("--inject", metavar="SPEC", default=None,
                            help="fault-injection spec for the serving "
                                 "machine (see 'run --inject')")
    p_loadtest.add_argument("--flight", metavar="OUT.json", default=None,
                            help="enable spans and write the per-level "
                                 "flight-recorder dumps (black boxes of "
                                 "contained faults)")
    p_loadtest.add_argument("--exemplars", metavar="OUT|-", default=None,
                            help="write the last level's exposition with "
                                 "trace-id exemplars on latency buckets")
    p_loadtest.set_defaults(func=cmd_loadtest)

    p_tenants = sub.add_parser(
        "tenants", help="multi-tenant containment-under-load study "
                        "(per-enclosure quotas + tenant lifecycle)")
    p_tenants.add_argument("--backends", default="mpk",
                           help="comma-separated backends to study")
    p_tenants.add_argument("--tenants", type=int, default=100,
                           help="tenant tools, one enclosure each")
    p_tenants.add_argument("--requests", type=int, default=4000,
                           help="requests per leg")
    p_tenants.add_argument("--rate", type=float, default=10_000.0,
                           help="offered load (req/s)")
    p_tenants.add_argument("--process", default="poisson",
                           choices=["poisson", "bursty"],
                           help="arrival process")
    p_tenants.add_argument("--seed", type=int, default=1,
                           help="arrival-process seed (deterministic)")
    p_tenants.add_argument("--pool", type=int, default=8,
                           help="load-generator connection slots")
    p_tenants.add_argument("--quotas",
                           default=None,
                           help="per-enclosure quota spec (default: the "
                                "study's '*:steps=250000,spans=24')")
    p_tenants.add_argument("--revive-limit", type=int, default=1,
                           help="supervised revivals before eviction")
    p_tenants.add_argument("--faulty-frac", type=float, default=0.10,
                           help="fraction of tenants with injected faults")
    p_tenants.add_argument("--cpuhog-frac", type=float, default=0.02,
                           help="fraction of tenants spinning the CPU")
    p_tenants.add_argument("--memhog-frac", type=float, default=0.03,
                           help="fraction of tenants hoarding memory")
    p_tenants.add_argument("--cores", type=int, default=1,
                           help="simulated cores for the platform machine")
    p_tenants.add_argument("--check-gates", action="store_true",
                           help="exit nonzero unless every containment "
                                "gate passes")
    p_tenants.add_argument("--report", metavar="OUT.json", default=None,
                           help="write the study reports as JSON")
    p_tenants.add_argument("--spans", metavar="OUT.json", default=None,
                           help="enable request-scoped tracing on both "
                                "legs and write the span export")
    p_tenants.add_argument("--span-sample", type=float, default=1.0,
                           metavar="FRAC",
                           help="tail-sampling keep fraction for healthy "
                                "traces")
    p_tenants.set_defaults(func=cmd_tenants)

    p_report = sub.add_parser(
        "report", help="summarize --metrics/--profile artifacts")
    p_report.add_argument("files", nargs="+",
                          help="Prometheus exposition or folded-stack files")
    p_report.add_argument("--top", type=int, default=12,
                          help="stacks to show for folded profiles")
    p_report.set_defaults(func=cmd_report)

    p_layout = sub.add_parser("layout", help="print the Fig.4 layout")
    p_layout.add_argument("files", nargs="+")
    p_layout.set_defaults(func=cmd_layout)

    p_views = sub.add_parser("views", help="print enclosure memory views")
    p_views.add_argument("files", nargs="+")
    p_views.set_defaults(func=cmd_views)

    p_py = sub.add_parser("py", help="run Pylite modules")
    p_py.add_argument("files", nargs="+")
    p_py.add_argument("--mode", default="conservative",
                      choices=["python", "conservative", "optimized"])
    p_py.add_argument("--stats", action="store_true")
    p_py.set_defaults(func=cmd_py)

    p_micro = sub.add_parser("micro", help="Table 1 microbenchmarks")
    p_micro.set_defaults(func=cmd_micro)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimError, OSError) as err:
        # An unreadable input or unwritable output is a user error: a
        # named message, never a traceback.
        print(f"repro: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
