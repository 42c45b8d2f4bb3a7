"""One benchmark for every user-facing path of the simulator.

Measures host wall-clock time end to end on four workloads (see
``workloads.py`` and ``README.md``), checks the simulated outputs, and
in a traced process splits the time by layer (``layers.py``).  Run from
the repository root; no ``PYTHONPATH`` is needed::

    python3 perfbench/bench.py --workload loadtest-1c --seed 1 \\
        --seconds 28 --trace 0          # one workload, one JSON line
    python3 perfbench/bench.py run      # every workload, traced too
    python3 perfbench/bench.py compare BASE.json HEAD.json

A workload run repeats the workload untraced for ``--seconds`` (at
least three repetitions) and, spread over the same time, boots the
workload's first machine in fresh processes for ``setup_s``.  It
reports each segment of the work at its fastest over the repetitions
(see ``_end_to_end``) and the median set-up time.  ``--trace 1`` also
traces one warm repetition in a fresh process and reports the layer
metrics instead.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
nonzero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

from compare import iqr

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
#: The committed run of seed ``baseline["seed"]``: medians, IQRs,
#: digests and the traced layer table (written by ``run --out``).
BASELINE_FILE = HERE / "baseline.json"
DEFAULT_OUT = HERE / "out" / "results.json"

#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 5
#: Repetitions measured even when ``--seconds`` is too short for them.
MIN_REPS = 3


def _use_sources() -> None:
    """Import the simulator from this checkout, never from elsewhere."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench.py: no simulator sources in {ROOT}/src")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def _child(args: list[str]) -> dict:
    """Run this script in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(pathlib.Path(__file__)),
                           *args], stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- child processes ------------------------------------------------------------

def child_setup(name: str) -> None:
    """One ``setup_s`` sample: import the simulator and boot the
    workload's first machine until it parks, ready for load."""
    start = time.perf_counter()
    _use_sources()
    from workloads import WORKLOADS
    WORKLOADS[name].boot()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def perf_counters(machines) -> dict:
    """The per-layer counters, summed over a repetition's machines from
    their public ``PerfStats`` and ``Scheduler``."""
    fields = ("instructions", "jit_insns", "jit_trace_executions",
              "jit_traces_compiled", "fetch_slow", "tlb_hits", "tlb_misses",
              "tlb_flushes", "trans_hits", "trans_misses", "verdict_hits",
              "verdict_misses")
    total = dict.fromkeys((*fields, "deopts", "steals"), 0)
    for machine in machines:
        perf = machine.perf
        for key in fields:
            total[key] += getattr(perf, key)
        total["deopts"] += sum(perf.jit_deopts.values())
        total["steals"] += machine.scheduler.steals

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "isa.jit.coverage": ratio(total["jit_insns"], total["instructions"]),
        "isa.jit.insns_per_entry": ratio(total["jit_insns"],
                                         total["jit_trace_executions"]),
        "isa.jit.entries": total["jit_trace_executions"],
        "isa.jit.compiled": total["jit_traces_compiled"],
        "isa.jit.deopts": total["deopts"],
        "isa.interp.insns": total["instructions"] - total["jit_insns"],
        "isa.interp.fetch_slow": total["fetch_slow"],
        "hw.mmu.tlb_hit_rate": ratio(total["tlb_hits"],
                                     total["tlb_hits"] + total["tlb_misses"]),
        "hw.mmu.tlb_misses": total["tlb_misses"],
        "hw.mmu.tlb_flushes": total["tlb_flushes"],
        "core.litterbox.trans_hit_rate": ratio(
            total["trans_hits"], total["trans_hits"] + total["trans_misses"]),
        "os.kernel.verdict_hit_rate": ratio(
            total["verdict_hits"],
            total["verdict_hits"] + total["verdict_misses"]),
        "runtime.scheduler.steals": total["steals"],
    }


def child_traced(name: str, seed: int, quick: bool) -> None:
    """One traced repetition in this fresh process.  The wrappers go in
    before anything is built, so every machine is seen from its boot.
    A first, discarded repetition fills the process-wide JIT and image
    caches, so the traced one is warm like most untraced ones."""
    _use_sources()
    from layers import LayerClock, Probes
    clock = LayerClock()
    clock.install()
    probes = Probes(calibrate=False)
    probes.install()
    from workloads import WORKLOADS, digest
    workload = WORKLOADS[name]
    workload.rep(seed, quick)
    probes.take()
    gc.collect()
    clock.reset()
    result, wall = clock.measure(lambda: workload.rep(seed, quick))
    recorded = probes.take()
    summary = workload.summarize(result, recorded, quick)
    print(json.dumps({
        "wall_s": wall,
        "layers": clock.table(wall),
        "compile_s": clock.compile_s,
        "counters": perf_counters(recorded["machines"]),
        "digest": digest(summary["doc"]),
    }))


# -- one workload ---------------------------------------------------------------

def _repetitions(name: str, seed: int, seconds: float,
                 quick: bool) -> tuple[list, list[float], float]:
    """Untraced repetitions until the next one would overrun
    ``seconds`` (and at least ``MIN_REPS``; one in quick mode); the
    ``setup_s`` samples, taken between repetitions and spread evenly
    over the same ``seconds``; and the peak RSS in MB, less the
    calibration tables."""
    from layers import Probes
    from workloads import WORKLOADS, digest
    workload = WORKLOADS[name]
    probes = Probes()
    probes.install()
    setup_samples = 1 if quick else SETUP_SAMPLES
    setup: list[float] = []

    def take_setup(until: float) -> None:
        while (len(setup) < setup_samples
               and time.perf_counter() - start >= until * len(setup)):
            setup.append(_child(["_setup", name])["setup_s"])

    reps = []
    start = time.perf_counter()
    while True:
        take_setup(seconds / setup_samples)
        t0 = probes.clock()
        result = workload.rep(seed, quick)
        t1 = probes.clock()
        recorded = probes.take()
        marks = [t0, *recorded["marks"], t1]
        summary = workload.summarize(result, recorded, quick)
        reps.append({
            "wall_s": (t1 - t0) / 1e9,
            "segments": [b - a for a, b in zip(marks, marks[1:])],
            "chunk_ns": recorded["chunk_ns"],
            "insns": sum(m.perf.instructions for m in recorded["machines"]),
            "digest": digest(summary.pop("doc")),
            **summary,
        })
        # The machines hold reference cycles.  Collect them here, untimed,
        # so the next repetition neither pays for this one's garbage nor
        # raises the peak RSS by holding both at once.
        del result, recorded, summary
        gc.collect()
        if quick:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    take_setup(0.0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return reps, setup, rss - probes.calibration.footprint_mb


def _floor(series: list[list[int]]) -> list[int]:
    """Element by element, the least of the repetitions' values."""
    return [min(values) for values in zip(*series)]


def host_scale(reps: list) -> float:
    """``REFERENCE_CHUNK_NS`` over the calibration chunk's cost in this
    run, each chunk taken at its fastest like a segment."""
    from layers import REFERENCE_CHUNK_NS
    chunks = _floor([r["chunk_ns"] for r in reps])
    return REFERENCE_CHUNK_NS * len(chunks) / sum(chunks)


def _end_to_end(reps: list, setup: list[float], rss: float) -> dict:
    """``{metric: (value, samples)}``.

    The host's speed is not steady.  It drops by up to half for seconds
    at a time, and its best speed drifts by 10% or more over minutes.
    Two measures take those out:

    * Every repetition of a seed does the same work between the same
      marks, so each *segment* between two marks is timed once per
      repetition, and the fastest of those times is its cost.
      ``wall_s`` is the sum of the segments' costs and ``host_req_*``
      the percentiles of the arrivals' costs: the workload at the
      host's best speed in this run, whichever repetitions a slow
      stretch happened to hit.  The first repetition also compiles the
      process's JIT traces and images; being slower, it never sets the
      cost of a warm segment.
    * The calibration chunks, run at the same marks in every
      repetition and taken at their fastest the same way, measure that
      best speed.  Every host time is multiplied by :func:`host_scale`,
      i.e. reported at the reference host's speed.

    ``samples`` are each repetition's raw, unscaled values, a record of
    how loud the host was.  ``setup_s`` is the median of its samples,
    scaled alike.
    """
    from workloads import quantile
    scale = host_scale(reps)
    wall = sum(_floor([r["segments"] for r in reps])) / 1e9 * scale
    req = sorted(_floor([r["req_ns"] for r in reps]))
    steady = reps[1:] or reps

    def percentiles(q: float) -> list[float]:
        return [quantile(sorted(r["req_ns"]), q) / 1e3 for r in steady]

    return {
        "setup_s": (statistics.median(setup) * scale, setup),
        "wall_s": (wall, [r["wall_s"] for r in reps]),
        "sim_minsn_per_s": (reps[0]["insns"] / wall / 1e6,
                            [r["insns"] / r["wall_s"] / 1e6 for r in reps]),
        "host_req_p50_us": (quantile(req, 0.50) / 1e3 * scale,
                            percentiles(0.50)),
        "host_req_p99_us": (quantile(req, 0.99) / 1e3 * scale,
                            percentiles(0.99)),
        "peak_rss_mb": (rss, [rss]),
    }


def _check(name: str, seed: int, quick: bool, reps: list,
           traced: dict | None) -> list[str]:
    errors = [e for r in reps for e in r["errors"]]
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        errors.append(f"repetitions disagree: {len(digests)} digests")
    for key in ("segments", "req_ns", "chunk_ns"):
        if len({len(r[key]) for r in reps}) != 1:
            errors.append(f"repetitions disagree on the number of {key}")
    found = reps[0]["digest"]
    if traced is not None and traced["digest"] != found:
        errors.append(f"traced digest {traced['digest'][:12]} != "
                      f"untraced {found[:12]}")
    if not quick and BASELINE_FILE.exists():
        baseline = json.loads(BASELINE_FILE.read_text())
        expected = baseline["workloads"].get(name, {}).get("digest")
        if seed == baseline["seed"] and expected and expected != found:
            errors.append(f"digest {found[:12]} != committed "
                          f"{expected[:12]} for seed {seed}")
    return errors


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            out: pathlib.Path | None) -> int:
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    _use_sources()
    reps, setup, rss = _repetitions(name, seed, seconds, quick)
    e2e = _end_to_end(reps, setup, rss)
    traced = None
    if trace:
        traced = _child(["_traced", name, str(seed)]
                        + (["--quick"] if quick else []))
    errors = _check(name, seed, quick, reps, traced)

    per_layer = {}
    if traced is not None:
        for layer, row in traced["layers"].items():
            per_layer[f"{layer}.self_s"] = row["self_s"]
            per_layer[f"{layer}.share"] = row["share"]
            if f"{layer}.calls" in units:
                per_layer[f"{layer}.calls"] = row["calls"]
        per_layer["isa.jit.compile_s"] = traced["compile_s"]
        per_layer.update(traced["counters"])
        per_layer["trace_overhead"] = (
            traced["wall_s"] / statistics.median(e2e["wall_s"][1]) - 1)
        per_layer.update(reps[0]["sim"])
        reported = {key: (per_layer[key], None) for key in
                    (m["name"] for m in spec["per_layer"])}
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    per_rep = min(len(r["req_ns"]) for r in reps)
    print(f"== {name} seed={seed} reps={len(reps)} "
          f"host_req samples per repetition={per_rep} "
          f"calibration chunks per repetition={len(reps[0]['chunk_ns'])} "
          f"host scale={host_scale(reps):.4f}")
    for metric, (value, samples) in reported.items():
        spread = "" if samples is None else \
            f"  ({len(samples)} raw samples, IQR {iqr(samples):.6g})"
        print(f"  {metric} = {value:.6g} {units[metric]}{spread}")
    for error in errors:
        print(f"  FAIL: {error}")
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, (value, _) in reported.items()},
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": name, "seed": seed, "quick": quick,
            "reps": len(reps), "errors": errors,
            "digest": reps[0]["digest"], "host_scale": host_scale(reps),
            "chunk_ns": [r["chunk_ns"] for r in reps],
            "attempted": result["attempted"], "failed": result["failed"],
            "end_to_end": {metric: {"value": value, "samples": samples}
                           for metric, (value, samples) in e2e.items()},
            "sim": reps[0]["sim"],
            "per_layer": per_layer,
            "traced_digest": traced and traced["digest"],
            "traced_wall_s": traced and traced["wall_s"],
        }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


# -- every workload -------------------------------------------------------------

def run_all(seconds: float, seed: int, quick: bool, out: pathlib.Path,
            names: list[str]) -> int:
    """Each workload in its own fresh process, traced; merge the
    per-workload results into ``out``."""
    status = 0
    merged = {"seed": seed, "seconds": seconds, "quick": quick,
              "python": sys.version.split()[0], "workloads": {}}
    out.parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        part = out.with_name(f"{out.stem}.{name}.tmp")
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__)),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1", "--out", str(part)]
            + (["--quick"] if quick else []))
        status |= proc.returncode
        if not part.exists():
            print(f"FAIL: {name} produced no result")
            continue
        merged["workloads"][name] = json.loads(part.read_text())
        part.unlink()
    out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command == "_setup":
        child_setup(argv[1])
        return 0
    if command == "_traced":
        child_traced(argv[1], int(argv[2]), "--quick" in argv[3:])
        return 0
    if command == "compare":
        from compare import compare
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("base")
        parser.add_argument("head")
        args = parser.parse_args(argv[1:])
        return compare(spec, pathlib.Path(args.base), pathlib.Path(args.head))
    if command == "run":
        parser = argparse.ArgumentParser(prog="bench.py run")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--quick", action="store_true",
                            help="tiny sizes, one repetition")
        parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
        args = parser.parse_args(argv[1:])
        return run_all(spec["run_seconds"], args.seed, args.quick, args.out,
                       names)
    parser = argparse.ArgumentParser(
        prog="bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repetition")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="also write the detailed result here")
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.quick, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
