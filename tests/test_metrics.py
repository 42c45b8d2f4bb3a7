"""Metrics registry: exposition format, enforcement hooks, determinism.

The contract under test (INTERNALS.md §12): every enforcement point
increments a family when ``MachineConfig.metrics`` is on; the text
exposition is valid Prometheus 0.0.4 and byte-identical across
identical runs; and the whole subsystem is a pure observer — nothing
here may change a simulated value (that half of the contract is
asserted by tests/test_fastpaths.py's bit-identity harness).
"""

from __future__ import annotations

import pytest

from repro.machine import MachineConfig
from repro.metrics import (
    MetricsFormatError,
    MetricsRegistry,
    validate_exposition,
)
from repro.workloads.fasthttp import run_fasthttp_server
from repro.workloads.httpserver import run_http_server
from repro.workloads.wiki import run_wiki

ENFORCING = ["mpk", "vtx"]


def _metrics_config(backend: str, **kw) -> MachineConfig:
    return MachineConfig(backend=backend, metrics=True, **kw)


class TestRegistry:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests.", ("verb",))
        c.inc(verb="get")
        c.inc(2, verb="post")
        assert c.value(verb="get") == 1
        assert c.value(verb="post") == 2
        assert c.total() == 3

    def test_label_set_must_match_schema(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "X.", ("a",))
        with pytest.raises(ValueError, match="got labels"):
            c.inc(b="nope")
        with pytest.raises(ValueError, match="got labels"):
            c.inc()

    def test_duplicate_family_rejected(self):
        reg = MetricsRegistry()
        reg.counter("dup_total", "X.")
        with pytest.raises(ValueError, match="duplicate metric"):
            reg.gauge("dup_total", "Y.")

    def test_gauge_function_evaluated_at_render_time(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.gauge("now", "Now.").set_function(lambda: state["v"])
        assert 'now 1\n' in reg.render_text()
        state["v"] = 7.5
        assert 'now 7.5\n' in reg.render_text()

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "Latency.", ("w",), buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 5.0, 100.0):
            h.observe(v, w="x")
        text = reg.render_text()
        assert 'lat_bucket{w="x",le="1"} 1' in text
        assert 'lat_bucket{w="x",le="10"} 3' in text
        assert 'lat_bucket{w="x",le="+Inf"} 4' in text
        assert 'lat_count{w="x"} 4' in text
        assert h.child_count(w="x") == 4

    def test_const_labels_stamped_on_every_series(self):
        reg = MetricsRegistry(const_labels={"backend": "mpk"})
        reg.counter("a_total", "A.", ("k",)).inc(k="v")
        reg.histogram("h", "H.", buckets=(1.0,)).observe(0.5)
        for line in reg.render_text().splitlines():
            if not line.startswith("#"):
                assert 'backend="mpk"' in line

    def test_render_is_valid_and_deterministic(self):
        def build():
            reg = MetricsRegistry(const_labels={"backend": "vtx"})
            reg.counter("z_total", "Z.", ("k",)).inc(k="b")
            reg.get("z_total").inc(k="a")
            reg.histogram("lat", "L.", ("w",)).observe(123.0, w="http")
            reg.gauge("g", "G.", ("e",)).set(2, e="x")
            return reg.render_text()

        first, second = build(), build()
        assert first == second
        assert validate_exposition(first) > 0


class TestValidator:
    GOOD = ("# HELP a_total A.\n"
            "# TYPE a_total counter\n"
            'a_total{k="v"} 3\n')

    def test_accepts_well_formed(self):
        assert validate_exposition(self.GOOD) == 1

    def test_rejects_missing_trailing_newline(self):
        with pytest.raises(MetricsFormatError, match="newline"):
            validate_exposition(self.GOOD.rstrip("\n"))

    def test_rejects_sample_without_type(self):
        with pytest.raises(MetricsFormatError, match="without HELP/TYPE"):
            validate_exposition("# HELP a_total A.\na_total 1\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(MetricsFormatError, match="unknown type"):
            validate_exposition("# HELP a A.\n# TYPE a widget\na 1\n")

    def test_rejects_duplicate_series(self):
        text = self.GOOD + 'a_total{k="v"} 4\n'
        with pytest.raises(MetricsFormatError, match="duplicate series"):
            validate_exposition(text)

    def test_rejects_malformed_sample(self):
        with pytest.raises(MetricsFormatError, match="malformed sample"):
            validate_exposition(self.GOOD + "what even is this\n")

    def _hist(self, *lines):
        return ("# HELP h H.\n# TYPE h histogram\n" +
                "\n".join(lines) + "\n")

    def test_rejects_non_cumulative_buckets(self):
        text = self._hist('h_bucket{le="1"} 5',
                          'h_bucket{le="+Inf"} 3',
                          "h_sum 1", "h_count 3")
        with pytest.raises(MetricsFormatError, match="not cumulative"):
            validate_exposition(text)

    def test_rejects_missing_inf_bucket(self):
        text = self._hist('h_bucket{le="1"} 1', "h_sum 1", "h_count 1")
        with pytest.raises(MetricsFormatError, match=r"\+Inf"):
            validate_exposition(text)

    def test_rejects_count_bucket_mismatch(self):
        text = self._hist('h_bucket{le="1"} 1',
                          'h_bucket{le="+Inf"} 2',
                          "h_sum 1", "h_count 5")
        with pytest.raises(MetricsFormatError, match="_count"):
            validate_exposition(text)

    def test_bucket_lines_key_to_count_despite_le_position(self):
        # The le label is stripped wherever it sits among the labels.
        text = ("# HELP h H.\n# TYPE h histogram\n"
                'h_bucket{a="x",le="1",b="y"} 1\n'
                'h_bucket{a="x",le="+Inf",b="y"} 2\n'
                'h_sum{a="x",b="y"} 3\n'
                'h_count{a="x",b="y"} 2\n')
        assert validate_exposition(text) == 4


class TestEnforcementHooks:
    """The wired families actually count on the macro workloads."""

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_http_per_enclosure_switches_and_latency(self, backend):
        driver = run_http_server(backend,
                                 config=_metrics_config(backend))
        for _ in range(6):
            driver.request()
        m = driver.machine.metrics
        assert m.switches.value(env="main_1", kind="prolog") == 6
        assert m.switches.value(env="trusted", kind="epilog") == 6
        assert m.switches.value(env="trusted", kind="execute") > 0
        assert m.request_latency.child_count(workload="http") == 6
        assert m.verdicts.total() > 0
        assert m.transfers.total() > 0
        assert m.transfer_bytes.total() > m.transfers.total()

    def test_vm_exits_counted_on_vtx_only(self):
        for backend, expect in (("vtx", True), ("mpk", False)):
            driver = run_http_server(backend,
                                     config=_metrics_config(backend))
            driver.request()
            total = driver.machine.metrics.vm_exits.total()
            assert (total > 0) is expect, (backend, total)

    def test_seccomp_verdicts_carry_category(self):
        driver = run_http_server("mpk", config=_metrics_config("mpk"))
        driver.request()
        verdicts = driver.machine.metrics.verdicts
        assert verdicts.value(mechanism="seccomp-bpf", verdict="allow",
                              category="net") > 0
        assert verdicts.value(mechanism="seccomp-bpf", verdict="allow",
                              category="io") > 0

    def test_fasthttp_and_wiki_use_their_own_workload_label(self):
        driver = run_fasthttp_server(
            "mpk", config=_metrics_config("mpk"))
        driver.request()
        assert driver.machine.metrics.request_latency.child_count(
            workload="fasthttp") == 1

        wiki, _pg = run_wiki("mpk", config=_metrics_config("mpk"))
        wiki.view("home")
        wiki.save("home", "hello")
        assert wiki.machine.metrics.request_latency.child_count(
            workload="wiki") == 2

    def test_containment_and_quarantine_families(self):
        config = _metrics_config("mpk", fault_policy="quarantine",
                                 quarantine_threshold=2,
                                 inject="pkey@main_1:every=3")
        driver = run_http_server("mpk", config=config)
        for _ in range(8):
            driver.request()
        m = driver.machine.metrics
        assert m.contained.value(env="main_1", kind="pkey") == 2
        assert m.contained.value(env="trusted", kind="denied-entry") > 0
        assert m.quarantined.value(env="main_1") == 1
        assert m.switches.value(env="trusted", kind="unwind") == 2

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_machine_exposition_valid_and_byte_identical(self, backend):
        def render() -> str:
            driver = run_http_server(backend,
                                     config=_metrics_config(backend))
            for _ in range(4):
                driver.request()
            return driver.machine.metrics_registry.render_text()

        first, second = render(), render()
        assert first == second
        assert validate_exposition(first) > 0
        assert f'backend="{backend}"' in first


class TestInSimEndpoint:
    """The simulated server itself answers GET /metrics, end-to-end
    through the enclosure boundary (the handler stays enclosed; the
    route lives in trusted server code)."""

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_scrape_returns_valid_exposition(self, backend):
        driver = run_http_server(backend,
                                 config=_metrics_config(backend),
                                 metrics=True)
        for _ in range(3):
            driver.request()
        response = driver.scrape_metrics()
        assert response.startswith(b"HTTP/1.1 200 OK"), response[:64]
        assert b"text/plain; version=0.0.4" in response
        body = response.split(b"\r\n\r\n", 1)[1].decode()
        assert validate_exposition(body) > 0
        assert "enclosure_switches_total" in body
        # The scrape is not recorded: the latency histogram still
        # counts exactly the driver's real requests.
        assert f'http_request_latency_ns_count{{backend="{backend}"' \
               f',workload="http"}} 3' in body

    def test_plain_image_has_no_metrics_route(self):
        driver = run_http_server("mpk", config=_metrics_config("mpk"),
                                 metrics=False)
        response = driver.scrape_metrics()
        # Without the route the path falls through to the enclosed
        # handler, which serves the static page for any path.
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b"version=0.0.4" not in response
