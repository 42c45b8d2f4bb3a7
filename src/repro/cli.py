"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE... [--backend B] [--stats]`` — compile the Golite source
  files (one package per file) and run them under the chosen backend;
* ``layout FILE...`` — print the linked executable's Figure-4 layout;
* ``views FILE...`` — print every enclosure's computed memory view;
* ``py FILE... [--mode M]`` — run Pylite modules (the last file is the
  main module; others are importable by their stem names);
* ``macro``, ``loadtest``, ``tenants`` — drive the HTTP workloads
  (containment smoke, open-loop capacity sweep, multi-tenant study);
* ``micro`` — print the Table 1 microbenchmark row for this build;
* ``report DIR`` — check and summarize an artifact bundle.

``run``, ``macro``, ``loadtest`` and ``tenants`` take ``--artifacts
DIR``: it turns on the observers the command can attach and writes all
they and the command produce to DIR (:mod:`repro.artifacts`); no
observer charges simulated time.  ``run`` and ``macro`` also take
``--no-jit`` (pure interpretation; simulated values are bit-identical).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import artifacts
from repro.errors import ConfigError, SimError, require_at_least
from repro.golite import build_program
from repro.machine import Machine, MachineConfig


def _read_sources(paths: list[str]) -> list[str]:
    """Read UTF-8 source files; any other bytes are a ConfigError."""
    sources = []
    for path in paths:
        try:
            sources.append(pathlib.Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at "
                              f"byte {err.start})") from None
    return sources


def _write_artifacts(dest: str, machines: list, **outputs) -> None:
    artifacts.write(dest, machines, **outputs)
    print(f"-- wrote artifacts to {dest}", file=sys.stderr)


def _print_stats(machine: Machine) -> None:
    stats = artifacts.stats(machine)
    print(f"-- simulated time: {stats['sim_ns'] / 1e6:.3f} ms",
          file=sys.stderr)
    for counter, value in stats["counters"].items():
        print(f"--   {counter}: {value}", file=sys.stderr)
    print("-- interpreter perf counters (wall-clock observability):",
          file=sys.stderr)
    for line in machine.perf.describe():
        print(f"--   {line}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    image = build_program(_read_sources(args.files))
    observed = args.artifacts is not None
    machine = Machine(image, MachineConfig(
        backend=args.backend,
        trace=observed, metrics=observed, profile=observed,
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
    if observed:
        _write_artifacts(args.artifacts, [(args.backend, machine)])
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
    *modules, main = _read_sources(args.files)
    machine = PyMachine(args.mode)
    interp = Interpreter(machine)
    for path, source in zip(args.files, modules):
        interp.add_source(pathlib.Path(path).stem, source)
    try:
        interp.run_main(main)
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
    from repro.workloads.httpserver import run_http_server

    require_at_least(0, requests=args.requests)
    observed = args.artifacts is not None
    config = MachineConfig(backend=args.backend,
                           trace=observed, metrics=observed,
                           profile=observed,
                           fault_policy=args.fault_policy,
                           inject=args.inject,
                           inject_seed=args.seed,
                           quarantine_threshold=args.quarantine_threshold,
                           jit=not args.no_jit)
    driver = run_http_server(args.backend, config=config, metrics=observed)
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
    if observed:
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
    print(f"-- macro[{args.backend}]: {ok} ok, {errors} errors, "
          f"{contained} contained faults "
          f"(policy={config.fault_policy})", file=sys.stderr)
    if observed:
        _write_artifacts(args.artifacts, [(args.backend, machine)],
                         report=summary)
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
    from repro.workloads import loadgen

    try:
        offered = tuple(float(x) for x in args.offered.split(","))
    except ValueError:
        raise ConfigError(f"--offered takes comma-separated req/s rates, "
                          f"got {args.offered!r}") from None
    policies = {"on": ["quarantine"], "off": ["abort"],
                "both": ["abort", "quarantine"]}[args.containment]
    results = []
    for backend in args.backends.split(","):
        for policy in policies:
            sweep = loadgen.run_sweep(
                backend, offered=offered, requests=args.requests,
                seed=args.seed, process=args.process, pool=args.pool,
                maxconns=args.maxconns, backlog=args.backlog,
                fault_policy=policy, cores=args.cores,
                spans=args.artifacts is not None,
                span_sample=args.span_sample, inject=args.inject,
                slo_ms=args.slo_ms)
            results.extend(sweep)
            capacity = loadgen.capacity_at_slo(sweep, args.slo_ms * 1e6)
            print(f"-- loadtest[{backend}/{policy}]: capacity at "
                  f"p99<{args.slo_ms:g}ms = {capacity:.0f} req/s "
                  f"(cores={args.cores})",
                  file=sys.stderr)
    table = loadgen.format_table(results, slo_ms=args.slo_ms)
    print(table)
    if args.artifacts is not None:
        # Same slo_ms as the table, so the JSON and markdown verdicts
        # agree field-for-field.
        _write_artifacts(
            args.artifacts,
            [(f"{r.backend}/{r.policy}/{r.offered_rps:g}", r.machine)
             for r in results],
            report=[r.to_dict(args.slo_ms) for r in results], table=table)
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
    from repro.workloads import tenants as tenants_mod

    results = []
    machines = []
    status = 0
    for backend in args.backends.split(","):
        report, legs = tenants_mod.tenants_study(
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
            spans=args.artifacts is not None,
            span_sample=args.span_sample)
        machines.extend((f"{backend}/{leg}", machine)
                        for leg, machine in legs)
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
    if args.artifacts is not None:
        _write_artifacts(args.artifacts, machines, report=results)
    return status


def cmd_report(args: argparse.Namespace) -> int:
    """Check every artifact of a bundle with its validator and print
    its summary; exit 1 if any fails, naming it."""
    status = 0
    for path, lines, error in artifacts.read(args.dir, top=args.top):
        if error is not None:
            print(f"repro: {path}: {error}", file=sys.stderr)
            status = 1
            continue
        print(f"== {path}")
        for line in lines:
            print(line)
    return status


def cmd_micro(args: argparse.Namespace) -> int:
    from repro.workloads.micro import (
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


def _add_artifacts_arg(parser: argparse.ArgumentParser,
                       observers: str) -> None:
    parser.add_argument("--artifacts", metavar="DIR", default=None,
                        help=f"turn on {observers} and write every "
                             f"output to DIR ('repro report DIR' "
                             f"checks it)")


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    _add_artifacts_arg(parser, "the tracer, metrics and the profiler")
    parser.add_argument("--no-jit", action="store_true",
                        help="disable the tracing JIT (pure "
                             "interpretation; simulated values are "
                             "bit-identical either way)")


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
                            help="p99 SLO for the capacity figure (ms); "
                                 "request spans slower than it are "
                                 "flagged")
    p_loadtest.add_argument("--cores", type=int, default=1,
                            help="simulated cores (one server worker "
                                 "and listener port per core)")
    p_loadtest.add_argument("--containment", default="off",
                            choices=["on", "off", "both"],
                            help="fault policy under load: on=quarantine, "
                                 "off=abort")
    _add_artifacts_arg(p_loadtest, "request spans")
    p_loadtest.add_argument("--span-sample", type=float, default=1.0,
                            metavar="FRAC",
                            help="tail-sampling keep fraction for healthy "
                                 "traces (anomalous traces always kept)")
    p_loadtest.add_argument("--inject", metavar="SPEC", default=None,
                            help="fault-injection spec for the serving "
                                 "machine (see 'run --inject')")
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
    _add_artifacts_arg(p_tenants, "request spans on both legs")
    p_tenants.add_argument("--span-sample", type=float, default=1.0,
                           metavar="FRAC",
                           help="tail-sampling keep fraction for healthy "
                                "traces")
    p_tenants.set_defaults(func=cmd_tenants)

    p_report = sub.add_parser(
        "report", help="check and summarize an --artifacts bundle")
    p_report.add_argument("dir", metavar="DIR",
                          help="the bundle's directory")
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
