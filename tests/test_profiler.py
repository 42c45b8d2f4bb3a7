"""Sim-time sampling profiler: drain model, attribution, determinism.

The profiler samples *simulated* time, so its folded output is a pure
function of (program, seed, backend) — byte-identical across runs —
and enabling it changes no simulated value (the on/off half of that
contract is asserted by tests/test_fastpaths.py).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.machine import MachineConfig
from repro.profiler import Profiler, parse_folded, top_table
from repro.workloads.bild import run_bild
from repro.workloads.httpserver import run_http_server

ENFORCING = ["mpk", "vtx"]


class FakeClock:
    def __init__(self) -> None:
        self.now_ns = 0.0


def _fake_image(*ranges):
    """(base, size, owner) triples -> an object with .sections."""
    sections = []
    for base, size, owner in ranges:
        sections.append(SimpleNamespace(
            kind="text", owner=owner,
            section=SimpleNamespace(base=base, size=size)))
    sections.append(SimpleNamespace(
        kind="data", owner="ignored",
        section=SimpleNamespace(base=0x9000, size=0x100)))
    return SimpleNamespace(sections=sections)


class TestDrainModel:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="period_ns"):
            Profiler(FakeClock(), period_ns=0)

    def test_retire_drain_counts_elapsed_periods(self):
        clock = FakeClock()
        prof = Profiler(clock, period_ns=100.0)
        clock.now_ns = 250.0  # points due at 100 and 200
        prof.drain_retire(0x1000)
        assert prof.samples == {("trusted", "?", ""): 2}
        assert prof.next_due == 300.0
        # Nothing further due: draining again is a no-op.
        prof.finish()
        assert prof.total_samples() == 2

    def test_env_switch_attributes_pending_to_old_env(self):
        clock = FakeClock()
        prof = Profiler(clock, period_ns=100.0)
        prof.load_image(_fake_image((0x1000, 0x100, "libA")))
        clock.now_ns = 90.0
        prof.set_env("encl")  # nothing due yet
        clock.now_ns = 150.0
        prof.drain_retire(0x1010)
        clock.now_ns = 260.0
        prof.set_env("trusted")  # the point at 200 belongs to encl
        assert prof.samples == {("encl", "libA", ""): 2}

    def test_kernel_drain_uses_pc_provider_and_syscall_frame(self):
        clock = FakeClock()
        prof = Profiler(clock, period_ns=100.0)
        prof.load_image(_fake_image((0x1000, 0x100, "libA")))
        prof.pc_provider = lambda: 0x1020
        clock.now_ns = 110.0
        prof.drain_kernel(0)  # SYS_READ
        assert prof.samples == {("trusted", "libA", "read"): 1}

    def test_pkg_of_interval_map(self):
        prof = Profiler(FakeClock())
        prof.load_image(_fake_image((0x1000, 0x100, "libA"),
                                    (0x2000, 0x100, "libB")))
        assert prof.pkg_of(0x1000) == "libA"
        assert prof.pkg_of(0x10FF) == "libA"
        assert prof.pkg_of(0x1100) == "?"   # gap between sections
        assert prof.pkg_of(0x2050) == "libB"
        assert prof.pkg_of(0x50) == "?"     # below every section


class TestFoldedFormat:
    def test_folded_lines_and_summary_agree(self):
        clock = FakeClock()
        prof = Profiler(clock, period_ns=100.0, backend="mpk")
        prof.load_image(_fake_image((0x1000, 0x100, "libA")))
        clock.now_ns = 300.0
        prof.drain_retire(0x1000)
        prof.set_env("encl")
        clock.now_ns = 500.0
        prof.drain_retire(0x1010)
        folded = prof.folded()
        assert folded == ("mpk;env:encl;pkg:libA 2\n"
                          "mpk;env:trusted;pkg:libA 3\n")
        summary = prof.summary()
        assert summary["total_samples"] == 5
        assert summary["envs"] == {"encl": 2, "trusted": 3}
        assert summary["in_enclosure_share"] == pytest.approx(0.4)

    def test_parse_folded_round_trip(self):
        stacks = parse_folded("mpk;env:e;pkg:p 3\nmpk;env:t;pkg:q 1\n")
        assert stacks == {"mpk;env:e;pkg:p": 3, "mpk;env:t;pkg:q": 1}
        table = top_table(stacks)
        assert "75.0%" in table and "(total)" in table

    def test_parse_folded_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_folded("no trailing count here\n")

    def test_top_table_empty(self):
        assert top_table({}) == "(no samples)"


class TestWorkloadAttribution:
    @pytest.mark.parametrize("backend", ENFORCING)
    def test_bild_folded_byte_identical_across_runs(self, backend):
        def fold() -> str:
            machine = run_bild(backend, config=MachineConfig(
                backend=backend, profile=True))
            return machine.profiler.folded()

        first, second = fold(), fold()
        assert first == second
        assert first.startswith(backend + ";")

    def test_bild_samples_land_in_the_enclosure(self):
        machine = run_bild("mpk", config=MachineConfig(
            backend="mpk", profile=True))
        summary = machine.profiler.summary()
        assert summary["total_samples"] > 50
        assert "main_1" in summary["envs"]
        # Invert's compute shows up under the bild package.
        assert summary["pkgs"].get("bild", 0) > \
            summary["total_samples"] // 2

    def test_http_profile_has_kernel_frames(self):
        driver = run_http_server("mpk", config=MachineConfig(
            backend="mpk", profile=True))
        for _ in range(5):
            driver.request()
        folded = driver.machine.profiler.folded()
        assert ";kernel:write" in folded
        assert ";kernel:accept" in folded
        summary = driver.machine.profiler.summary()
        assert summary["kernel_samples"] > 0

    def test_custom_period_scales_sample_count(self):
        coarse = run_bild("mpk", config=MachineConfig(
            backend="mpk", profile=True,
            profile_period_ns=4000.0)).profiler
        fine = run_bild("mpk", config=MachineConfig(
            backend="mpk", profile=True,
            profile_period_ns=1000.0)).profiler
        assert fine.total_samples() > 2 * coarse.total_samples()
        # Same sim timeline, so the counts relate by the period ratio.
        assert fine.total_samples() == \
            pytest.approx(4 * coarse.total_samples(), rel=0.05)

    def test_non_positive_period_is_a_config_error(self):
        with pytest.raises(ConfigError, match="profile period"):
            run_bild("mpk", config=MachineConfig(
                backend="mpk", profile=True, profile_period_ns=0.0))
