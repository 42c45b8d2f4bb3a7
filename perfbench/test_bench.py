"""Self-checks of the benchmark, on its ``--quick`` mode (tiny sizes, one
repetition).  Run with ``pytest perfbench/test_bench.py``; the tier-1
suite (``tests/``) does not collect it.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE / "bench.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH), *args],
                          capture_output=True, text=True, timeout=600)


def _results(lines: str) -> list[dict]:
    return [json.loads(line) for line in lines.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two full quick runs of every workload (traced)."""
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp(f"run{index}") / "results.json"
        proc = _bench("run", "--quick", "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append((json.loads(out.read_text()), _results(proc.stdout)))
    return runs


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_end_to_end_metrics_emitted_with_units():
    proc = _bench("--workload", "loadtest-1c", "--seed", "3",
                  "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


def test_calibration_chunks_are_left_out_of_the_clock():
    sys.path.insert(0, str(HERE))
    from layers import Probes
    probes = Probes()
    start = probes._mark()
    end = probes._mark()
    assert probes.clock() >= end
    chunk_ns = probes.take()["chunk_ns"]
    assert len(chunk_ns) == 1
    assert end - start < chunk_ns[0]


def test_segment_floor_takes_each_segment_at_its_fastest():
    sys.path.insert(0, str(HERE))
    from bench import _floor
    assert _floor([[3, 9, 4], [5, 2, 4], [7, 8, 1]]) == [3, 2, 1]


def test_fails_without_the_simulator_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    must fail without printing a result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "paper-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not _results(proc.stdout)


def test_per_layer_metrics_emitted_with_units(quick_runs):
    _, results = quick_runs[0]
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        _check_metrics(result, SPEC["per_layer"])


def test_traced_digest_equals_untraced(quick_runs):
    for merged, _ in quick_runs:
        for name, detail in merged["workloads"].items():
            assert detail["traced_digest"] == detail["digest"], name
            assert not detail["errors"], (name, detail["errors"])


def test_layer_self_times_add_up_to_traced_wall(quick_runs):
    merged, _ = quick_runs[0]
    for name, detail in merged["workloads"].items():
        total = sum(value for key, value in detail["per_layer"].items()
                    if key.endswith(".self_s"))
        wall = detail["traced_wall_s"]
        assert abs(total - wall) <= 0.05 * wall, (name, total, wall)
        assert detail["per_layer"]["host.other.self_s"] >= 0.0


def test_two_runs_identical_digests_and_calls(quick_runs):
    (first, _), (second, _) = quick_runs
    for name, detail in first["workloads"].items():
        other = second["workloads"][name]
        assert detail["digest"] == other["digest"], name
        calls = {key: value for key, value in detail["per_layer"].items()
                 if key.endswith(".calls")}
        assert calls, name
        assert calls == {key: other["per_layer"][key] for key in calls}, name


def test_compare_reports_every_pair(quick_runs, tmp_path):
    paths = []
    for index, (merged, _) in enumerate(quick_runs):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(merged))
        paths.append(str(path))
    proc = _bench("compare", *paths)
    assert "CHANGED" not in proc.stdout
    verdicts = re.findall(r"(worse|better|unchanged|unresolved)$",
                          proc.stdout, re.MULTILINE)
    assert len(verdicts) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert "self time moved most in" in proc.stdout
