"""Run artifacts: one directory holding everything a command observed.

``repro run|macro|loadtest|tenants --artifacts DIR`` turns on the
observers the command can attach and hands its machines to
:func:`write`; ``repro report DIR`` checks and summarizes the bundle
with :func:`read`.  The layout::

    DIR/report.json         the command's result (macro, loadtest, tenants)
    DIR/table.md            the capacity table (loadtest)
    DIR/spans.json          request spans, one lane per machine
    DIR/LABEL/              one per machine: the backend (run, macro), a
                            level (loadtest: mpk/abort/40000) or a leg
                            (tenants: mpk/study)
        trace.json          enforcement events, Chrome trace-event JSON
        trace-summary.json  the tracer's per-environment breakdown
        metrics.prom        Prometheus exposition, exemplars included
        profile.folded      the profiler's collapsed stacks
        flight.json         the span recorder's flight-recorder dumps
        containment.json    the containment report
        stats.json          sim-ns, clock counters, interpreter perf counters

A machine's directory holds a file only for the observers it ran with.
Every file is a function of the program, the configuration and the
seed, so the same command writes the same bundle byte for byte.
``tests/test_observer_golden.py`` pins every observer file.
"""

from __future__ import annotations

import json
import pathlib

from repro import profiler as prof
from repro.errors import ConfigError
from repro.metrics import validate_exposition
from repro.spans import span_trace, validate_span_trace
from repro.trace import (
    describe_trace,
    load_chrome_json,
    validate_chrome_trace,
    write_chrome_json,
)


def write_json(path: pathlib.Path, value) -> None:
    """The one JSON style of a bundle: sorted keys, one-space indent."""
    path.write_text(json.dumps(value, indent=1, sort_keys=True, default=str))


def stats(machine) -> dict:
    """Simulated time, clock counters and interpreter perf counters."""
    clock = machine.clock
    return {"sim_ns": clock.now_ns,
            "counters": {name: clock.count(name) for name in
                         ("switches", "transfers", "syscalls", "vm_exits")},
            "perf": machine.perf.as_dict()}


def write(dest, machines: list[tuple[str, object]], report=None,
          table: str | None = None) -> None:
    """Write the bundle of ``(label, machine)`` pairs to ``dest``, with
    the command's ``report`` (JSON-ready) and capacity ``table``."""
    dest = pathlib.Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    if report is not None:
        write_json(dest / "report.json", report)
    if table is not None:
        (dest / "table.md").write_text(table + "\n")
    recorders = [(label, machine.spans) for label, machine in machines
                 if machine.spans is not None]
    if recorders:
        write_chrome_json(dest / "spans.json", span_trace(recorders))
    for label, machine in machines:
        out = dest / label
        out.mkdir(parents=True, exist_ok=True)
        if machine.tracer is not None:
            write_chrome_json(out / "trace.json",
                              machine.tracer.chrome_trace())
            write_json(out / "trace-summary.json", machine.tracer.summary())
        if machine.metrics_registry is not None:
            (out / "metrics.prom").write_text(
                machine.metrics_registry.render_text(exemplars=True))
        if machine.profiler is not None:
            (out / "profile.folded").write_text(machine.profiler.folded())
        if machine.spans is not None:
            write_json(out / "flight.json", machine.spans.flight_recorder())
        write_json(out / "containment.json", machine.containment_report())
        write_json(out / "stats.json", stats(machine))


# -- reading ------------------------------------------------------------------

def _trace(path: pathlib.Path, top: int) -> list[str]:
    document = load_chrome_json(path)
    validate_chrome_trace(document)
    summary = json.loads(path.with_name("trace-summary.json").read_text())
    if not isinstance(summary, dict) or not all(
            isinstance(row, dict) and isinstance(row.get("counts"), dict)
            for row in summary.values()):
        raise ValueError("trace-summary.json: not an object of "
                         "per-environment rows, each with a counts object")
    return describe_trace(document, summary)


def _spans(path: pathlib.Path, top: int) -> list[str]:
    return [f"valid span export: {validate_span_trace(path)} events"]


def _metrics(path: pathlib.Path, top: int) -> list[str]:
    text = path.read_text()
    samples = validate_exposition(text)
    families = sorted(line.split()[2:4] for line in text.splitlines()
                      if line.startswith("# TYPE "))
    return [f"valid exposition: {samples} samples, "
            f"{len(families)} families",
            *(f"  {name} ({typename})" for name, typename in families)]


def _profile(path: pathlib.Path, top: int) -> list[str]:
    return prof.top_table(prof.parse_folded(path.read_text()),
                          n=top).splitlines()


def _json(path: pathlib.Path, top: int) -> list[str]:
    json.loads(path.read_text())
    return ["valid JSON"]


def _table(path: pathlib.Path, top: int) -> list[str]:
    return path.read_text().splitlines()


#: Artifact file name -> its check, which returns the file's summary
#: and raises on a file that fails.
CHECKS = {
    "trace.json": _trace,
    "spans.json": _spans,
    "metrics.prom": _metrics,
    "profile.folded": _profile,
    "table.md": _table,
    **{name: _json for name in ("report.json", "trace-summary.json",
                                "flight.json", "containment.json",
                                "stats.json")},
}


def read(root, top: int = 12) -> list[tuple[str, list[str], str | None]]:
    """Check every artifact under ``root``, in path order: ``(path
    relative to root, summary lines, None)`` for a file that passes its
    check, ``(path, [], error)`` for one that fails, so one bad file
    does not hide the others.  ``OSError`` if ``root`` cannot be
    listed; :class:`ConfigError` if it holds no artifact.
    """
    root = pathlib.Path(root)
    next(root.iterdir(), None)  # the OSError of a missing or unreadable DIR
    checked = []
    for path in sorted(root.rglob("*")):
        check = CHECKS.get(path.name)
        if check is None or not path.is_file():
            continue
        name = path.relative_to(root).as_posix()
        # The bundle is outside input: a malformed file is reported by
        # name, never as a traceback.
        try:
            checked.append((name, check(path, top), None))
        except (OSError, ValueError) as err:
            checked.append((name, [], str(err)))
        except (LookupError, TypeError) as err:
            checked.append((name, [], f"unexpected structure: {err!r}"))
    if not checked:
        raise ConfigError(f"{root}: no artifacts")
    return checked
