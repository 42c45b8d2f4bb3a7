"""Request-scoped tracing: propagation, sampling, exemplars, flight
recorder, and the observer bit-identity contract.

The tentpole invariants under test:

* trace identities are a pure function of ``(seed, arrival index)`` and
  round-trip through the W3C ``traceparent`` encoding;
* with spans enabled, simulated ns / outcome counts / latencies are
  bit-identical to a spans-off run, on every backend, JIT on or off,
  uniprocessor and SMP;
* tail sampling keeps *every* anomalous trace and an *exact*
  ``floor(sample * n)`` fraction of the healthy rest;
* the span export is deterministic (run-twice byte-identical) and
  passes its strict schema validator;
* a contained fault ships a flight-recorder snapshot carrying the
  victim's trace id and the faulting core's last-N events, while a
  clean run's containment report is byte-identical to a spans-off run.
"""

from __future__ import annotations

import json

import pytest

from repro.machine import Machine, MachineConfig
from repro.metrics import (
    Histogram,
    MetricsFormatError,
    MetricsRegistry,
    validate_exposition,
)
from repro.spans import (
    TraceContext,
    sample_hash,
    span_trace,
    validate_span_trace,
)
from repro.trace import write_chrome_json
from repro.workloads import asynchttp, loadgen

from tests.fig1 import build_image


# -- identity derivation and wire encoding ------------------------------------

class TestTraceContext:
    def test_derivation_is_deterministic_and_distinct(self):
        a1 = TraceContext.derive(7, 0)
        a2 = TraceContext.derive(7, 0)
        b = TraceContext.derive(7, 1)
        c = TraceContext.derive(8, 0)
        assert (a1.trace_id, a1.span_id) == (a2.trace_id, a2.span_id)
        assert len({a1.trace_id, b.trace_id, c.trace_id}) == 3

    def test_traceparent_round_trip(self):
        ctx = TraceContext.derive(42, 13)
        text = ctx.to_traceparent()
        version, tid, sid, flags = text.split("-")
        assert (version, flags) == ("00", "01")
        assert len(tid) == 32 and len(sid) == 16
        back = TraceContext.parse_traceparent(text)
        assert back is not None
        assert (back.trace_id, back.span_id) == (ctx.trace_id, ctx.span_id)

    @pytest.mark.parametrize("bad", [
        "",
        "00-abc-def-01",
        "01-" + "0" * 31 + "1-" + "0" * 16 + "-01",      # bad version
        "00-" + "0" * 32 + "-" + "0" * 16 + "-01",       # all-zero trace id
        "00-" + "g" * 32 + "-" + "0" * 16 + "-01",       # non-hex
        "00-" + "0" * 31 + "1-" + "0" * 15 + "-01",      # short span id
        "00-" + "0" * 31 + "1-" + "0" * 16 + "-01",      # all-zero parent id
        "00-" + "0" * 31 + "1-" + "0" * 15 + "1-zz",     # non-hex flags
    ])
    def test_parse_rejects_malformed(self, bad):
        assert TraceContext.parse_traceparent(bad) is None

    def test_never_mints_invalid_all_zero_ids(self):
        ctx = TraceContext.derive(0, 0)
        assert ctx.trace_id != 0 and ctx.span_id != 0


# -- end-to-end propagation ---------------------------------------------------

def _level(**kwargs):
    defaults = dict(offered_rps=10_000.0, requests=50, seed=5)
    defaults.update(kwargs)
    return loadgen.run_level("mpk", defaults.pop("offered_rps"),
                             defaults.pop("requests"),
                             defaults.pop("seed"), **defaults)


class TestPropagation:
    def test_request_span_tree_is_complete(self):
        result = _level(spans=True)
        assert result.ok == result.requests
        kept, summary = result.machine.spans.sampled_records()
        assert summary["total"] == result.requests
        assert len(kept) == result.requests
        for record in kept:
            names = [span["name"] for span in record.spans]
            # Client wait, server queueing, the enclosure sub-span and
            # the handler span must all be present, in that order of
            # opening.
            assert names[0] == "client.wait"
            assert "server.queue" in names
            assert "server.handle" in names
            assert any(name.startswith("enclosure:") for name in names)
            assert record.outcome == "ok"
            assert record.completed and record.end >= record.start
            assert record.cores  # adopted by a server goroutine

    def test_trace_ids_match_seed_derivation(self):
        result = _level(spans=True, seed=9)
        kept, _ = result.machine.spans.sampled_records()
        for record in kept:
            expected = TraceContext.derive(9, record.index)
            assert record.trace_id == expected.trace_id


class TestBitIdentity:
    """Spans are a pure observer: enabling them changes no simulated
    value anywhere the request path runs."""

    @staticmethod
    def _snapshot(backend, **kwargs):
        result = loadgen.run_level(backend, 20_000.0, 40, seed=3, **kwargs)
        return (result.duration_ns, result.ok, result.shed,
                result.refused, result.reset,
                tuple(result.latencies_ns))

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    @pytest.mark.parametrize("cores", [1, 4])
    def test_sim_identical_with_spans_enabled(self, backend, cores):
        assert self._snapshot(backend, cores=cores) == \
            self._snapshot(backend, cores=cores, spans=True)

    def test_sim_identical_without_jit(self):
        config_off = MachineConfig(backend="mpk", metrics=True, jit=False)
        config_on = MachineConfig(backend="mpk", metrics=True, jit=False,
                                  spans=True, span_seed=3)
        assert self._snapshot("mpk", config=config_off) == \
            self._snapshot("mpk", config=config_on)


# -- tail-based sampling ------------------------------------------------------

class TestTailSampling:
    def test_healthy_fraction_is_exact(self):
        result = _level(spans=True, span_sample=0.25)
        kept, summary = result.machine.spans.sampled_records()
        assert summary["flagged"] == 0
        assert summary["healthy"] == result.requests
        assert summary["healthy_kept"] == int(0.25 * result.requests)
        assert len(kept) == summary["healthy_kept"]

    def test_lowest_hashes_win_deterministically(self):
        result = _level(spans=True, span_sample=0.2)
        kept, _ = result.machine.spans.sampled_records()
        all_records = list(result.machine.spans.traces.values())
        ranked = sorted(all_records,
                        key=lambda r: (sample_hash(r.trace_id), r.index))
        expected = sorted(ranked[:int(0.2 * len(all_records))],
                          key=lambda r: r.index)
        assert [r.trace_id for r in kept] == \
            [r.trace_id for r in expected]

    def test_every_anomalous_trace_survives_zero_sampling(self):
        """With sample=0.0 the healthy keep set is empty, yet every
        flagged trace still exports — the whole point of tail-based
        sampling."""
        result = _level(spans=True, span_sample=0.0,
                        fault_policy="quarantine",
                        inject="pkey@main_1:every=10")
        recorder = result.machine.spans
        kept, summary = recorder.sampled_records()
        assert summary["healthy_kept"] == 0
        flagged = [r for r in recorder.traces.values()
                   if r.completed and r.flags]
        assert len(kept) == len(flagged) == summary["flagged"]
        assert any("faulted" in r.flags for r in kept)

    def test_level_slo_sets_the_span_slo(self):
        """A loadtest level's SLO is the recorder's: past saturation
        the default 1 ms flags traces, a 1 s SLO flags none."""
        flags = {}
        for slo_ms in (loadgen.DEFAULT_SLO_MS, 1000.0):
            result = _level(spans=True, offered_rps=60_000.0,
                            requests=120, seed=7, slo_ms=slo_ms)
            flags[slo_ms] = [record.flags for record
                             in result.machine.spans.traces.values()]
        assert any("slo" in f for f in flags[loadgen.DEFAULT_SLO_MS])
        assert not any("slo" in f for f in flags[1000.0])

    def test_slo_breach_is_flagged(self):
        config = MachineConfig(backend="mpk", metrics=True, spans=True,
                               span_seed=5, span_slo_ns=1.0)
        result = _level(config=config)
        kept, summary = result.machine.spans.sampled_records()
        # A 1ns SLO: every completed request exceeds it.
        assert summary["flagged"] == summary["total"]
        assert all("slo" in r.flags for r in kept)


# -- export: determinism + schema ---------------------------------------------

class TestExport:
    def test_export_validates_and_is_deterministic(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            result = _level(spans=True, span_sample=0.5, cores=4,
                            requests=60)
            path = tmp_path / f"spans-{run}.json"
            write_chrome_json(
                path, span_trace([("mpk/20k", result.machine.spans)]))
            validate_span_trace(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_validator_rejects_missing_trace_id(self, tmp_path):
        result = _level(spans=True, requests=10)
        path = tmp_path / "spans.json"
        write_chrome_json(path, span_trace([("lvl", result.machine.spans)]))
        document = json.loads(path.read_text())
        for event in document["traceEvents"]:
            if event["ph"] != "M":
                del event["args"]["trace_id"]
                break
        from repro.trace import TraceFormatError
        with pytest.raises(TraceFormatError):
            validate_span_trace(document)

    def test_validator_rejects_non_json_file(self, tmp_path):
        from repro.trace import TraceFormatError
        path = tmp_path / "spans.json"
        path.write_text('{"traceEvents": [')
        with pytest.raises(TraceFormatError, match="not JSON"):
            validate_span_trace(path)

    def test_multi_level_export_one_lane_each(self, tmp_path):
        r1 = _level(spans=True, requests=10)
        r2 = _level(spans=True, requests=10, seed=6)
        path = tmp_path / "spans.json"
        write_chrome_json(path, span_trace([("one", r1.machine.spans),
                                            ("two", r2.machine.spans)]))
        document = json.loads(path.read_text())
        names = {event["args"]["name"]
                 for event in document["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "process_name"}
        assert names == {"level:one", "level:two"}
        assert set(document["otherData"]["sampling"]) == {"one", "two"}


# -- flight recorder ----------------------------------------------------------

def _run_gen(spans: bool, inject: str | None = None):
    config = MachineConfig(backend="mpk", metrics=True,
                           fault_policy="quarantine", inject=inject,
                           spans=spans, span_seed=5)
    machine = asynchttp.run_async_server("mpk", config=config)
    arrivals = loadgen.poisson_arrivals(10_000.0, 50, 5)
    gen = loadgen.OpenLoopLoadGen(machine, arrivals, 4)
    gen.run()
    return machine, gen


class TestFilterVerdicts:
    """Every backend's FilterSyscall reports to the span recorder the
    way the host kernel's seccomp path does: a denial annotates the
    current request's trace, and every verdict leaves a breadcrumb in
    the flight recorder."""

    MECHANISM = {"mpk": "seccomp-bpf", "vtx": "guest-os",
                 "lwc": "lwc-kernel"}

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_denial_annotates_the_request_trace(self, backend):
        machine = Machine(build_image(body="syscall",
                                      policy="secrets:R, none"),
                          MachineConfig(backend=backend, spans=True))
        recorder = machine.spans
        ctx = recorder.client_arrival(0, 0.0)
        # Stand in for the wire: the main goroutine serves one request.
        recorder.on_spawn = \
            lambda parent, child: setattr(child, "trace_ctx", ctx)
        assert machine.run().status == "faulted"
        (annotation,) = [a for a in recorder.traces[ctx.trace_id].annotations
                         if a[1].startswith("filter:")]
        assert annotation[1] == "filter:kill"
        assert annotation[2]["mechanism"] == self.MECHANISM[backend]
        assert "filter:kill" in [e["kind"] for e in recorder.rings[0]]

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_verdicts_reach_the_flight_recorder_under_load(self, backend):
        result = loadgen.run_level(backend, 10_000.0, 30, 7, spans=True)
        kinds = [e["kind"] for ring in result.machine.spans.rings
                 for e in ring]
        assert any(kind.startswith("filter:") for kind in kinds)


class TestFlightRecorder:
    def test_contained_fault_ships_black_box(self):
        machine, _ = _run_gen(spans=True, inject="pkey@main_1:every=10")
        report = machine.containment_report()
        assert report["contained"], "injection produced no contained fault"
        flight = report["flight_recorder"]
        assert flight["ring"] == machine.spans.ring
        assert len(flight["dumps"]) == len(report["contained"])
        dump = flight["dumps"][0]
        # The snapshot names the victim trace and ends at the fault.
        assert dump["trace_id"] is not None
        faulted = machine.spans.traces[int(dump["trace_id"], 16)]
        assert "faulted" in faulted.flags
        assert 0 < len(dump["events"]) <= machine.spans.ring
        assert dump["events"][-1]["kind"] == "fault"
        assert dump["events"][-1]["trace_id"] == dump["trace_id"]

    def test_clean_run_report_identical_to_spans_off(self):
        machine_off, _ = _run_gen(spans=False)
        machine_on, _ = _run_gen(spans=True)
        off = json.dumps(machine_off.containment_report(),
                         sort_keys=True, default=str)
        on = json.dumps(machine_on.containment_report(),
                        sort_keys=True, default=str)
        assert off == on
        assert "flight_recorder" not in machine_on.containment_report()


# -- histogram exemplars + quantile (satellites) ------------------------------

class TestHistogramExemplars:
    def test_exemplars_render_only_when_asked(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ns", "latency", ("workload",))
        hist.observe(250.0, exemplar="ab" * 16, workload="w")
        hist.observe(9000.0, workload="w")
        plain = registry.render_text()
        assert "# {trace_id=" not in plain
        rich = registry.render_text(exemplars=True)
        lines = [line for line in rich.splitlines()
                 if "# {trace_id=" in line]
        assert len(lines) == 1
        assert '# {trace_id="abababababababababababababababab"} 250' \
            in lines[0]
        # Both renderings are valid expositions with the same samples.
        assert validate_exposition(plain) == validate_exposition(rich)

    def test_default_rendering_unchanged_by_exemplar_capture(self):
        with_ex = MetricsRegistry()
        without = MetricsRegistry()
        for registry, exemplar in ((with_ex, "cd" * 16), (without, None)):
            hist = registry.histogram("lat_ns", "latency")
            hist.observe(100.0, exemplar=exemplar)
        assert with_ex.render_text() == without.render_text()

    def test_validator_rejects_exemplar_on_counter(self):
        text = ("# HELP c total\n"
                "# TYPE c counter\n"
                'c 3 # {trace_id="ab"} 1\n')
        with pytest.raises(MetricsFormatError):
            validate_exposition(text)

    def test_loadgen_attaches_trace_exemplars(self):
        result = _level(spans=True, requests=20)
        text = result.machine.metrics_registry.render_text(exemplars=True)
        exemplar_lines = [line for line in text.splitlines()
                          if "# {trace_id=" in line]
        assert exemplar_lines
        validate_exposition(text)
        # Every exemplar names a real minted trace.
        kept_ids = {f"{r.trace_id:032x}"
                    for r in result.machine.spans.traces.values()}
        for line in exemplar_lines:
            trace_id = line.split('trace_id="')[1].split('"')[0]
            assert trace_id in kept_ids


class TestQuantileEmpty:
    def test_empty_child_is_zero_not_nan(self):
        hist = Histogram("h", "help", ("workload",))
        value = hist.quantile(0.99, workload="nothing")
        assert value == 0.0
        assert value == value  # not NaN

    def test_observed_child_still_interpolates(self):
        hist = Histogram("h", "help")
        for v in (100.0, 200.0, 300.0):
            hist.observe(v)
        assert hist.quantile(0.99) > 0.0


# -- loadtest report parity (satellite) ---------------------------------------

class TestReportParity:
    def test_json_and_table_verdicts_agree(self):
        results = [
            _level(requests=30),
            _level(requests=30, offered_rps=80_000.0),
        ]
        slo_ms = 0.5
        table = loadgen.format_table(results, slo_ms=slo_ms)
        rows = [line for line in table.splitlines()[2:] if line]
        assert len(rows) == len(results)
        for row, result in zip(rows, results):
            doc = result.to_dict(slo_ms)
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            verdict = cells[-1]
            assert verdict == ("yes" if doc["p99_slo_met"] else "no")
            # Field-for-field: the table's numeric cells are rendered
            # from the same dict the JSON report serializes.
            assert cells[0] == doc["backend"]
            assert int(cells[4]) == doc["ok"]
            assert float(cells[9]) == round(doc["goodput_rps"], 0)
            assert doc["slo_ms"] == slo_ms

    def test_verdict_fields_present_in_json(self):
        doc = _level(requests=20).to_dict()
        assert "p99_slo_met" in doc and "slo_ms" in doc
        assert isinstance(doc["p99_slo_met"], bool)


# -- tenants integration ------------------------------------------------------

class TestTenantSpans:
    def test_study_exports_both_legs_and_report_is_unchanged(self):
        from repro.workloads import tenants as tenants_mod

        kwargs = dict(tenants=6, requests=60, offered_rps=8_000.0,
                      seed=2, faulty_frac=0.2, cpuhog_frac=0.0,
                      memhog_frac=0.0)
        plain = tenants_mod.run_tenants_study("mpk", **kwargs)
        traced, legs = tenants_mod.tenants_study("mpk", spans=True, **kwargs)
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(traced, sort_keys=True)
        assert [label for label, _ in legs] == ["baseline", "study"]
        study_recorder = dict(legs)["study"].spans
        kept, _ = study_recorder.sampled_records()
        assert any("faulted" in record.flags for record in kept)
