"""Table 1: microbenchmark results in (simulated) nanoseconds.

The three operations and the paper's values are described in
:mod:`repro.workloads.micro`, which measures them; this module records
the row and asserts the shape of the paper's §6.1 analysis.
"""

from __future__ import annotations

import pytest

from repro.workloads.micro import (
    BACKENDS,
    PAPER,
    measure_call,
    measure_syscall,
    measure_transfer,
)

from benchmarks.conftest import add_table


_MEASURES = {
    "call": measure_call,
    "transfer": measure_transfer,
    "syscall": measure_syscall,
}

_RESULTS: dict[tuple[str, str], float] = {}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("operation", ("call", "transfer", "syscall"))
def test_table1(benchmark, operation, backend):
    measure = _MEASURES[operation]

    def run_once():
        value = measure(backend)
        _RESULTS[(operation, backend)] = value
        return value

    value = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["simulated_ns"] = round(value, 1)
    benchmark.extra_info["paper_ns"] = PAPER[operation][backend]
    _record()

    # Shape assertions from the paper's analysis (§6.1); each checks
    # only once the values it needs have been measured.
    results = _RESULTS
    if operation == "call" and backend == "vtx" and \
            ("call", "mpk") in results:
        assert value > 5 * results[("call", "mpk")]
    if operation == "call" and backend == "mpk" and \
            ("call", "baseline") in results:
        assert value < 4 * results[("call", "baseline")] + 60
    if operation == "transfer" and backend == "baseline":
        assert value == 0
    if operation == "transfer" and backend == "vtx" and \
            ("transfer", "mpk") in results:
        # LBVTX transfers ~6x cheaper than LBMPK's pkey_mprotect.
        assert results[("transfer", "mpk")] > 4 * value
    if operation == "syscall" and backend == "vtx" and \
            ("syscall", "baseline") in results:
        # Hypercall costs dominate: ~8-12x the baseline syscall.
        assert value > 6 * results[("syscall", "baseline")]


def _record() -> None:
    lines = [f"{'':<10}{'Baseline':>10}{'LBMPK':>10}{'LBVTX':>10}"
             f"{'   (paper: B/MPK/VTX)'}"]
    for op in ("call", "transfer", "syscall"):
        if not all((op, b) in _RESULTS for b in BACKENDS):
            continue
        row = f"{op:<10}"
        for backend in BACKENDS:
            row += f"{_RESULTS[(op, backend)]:>10.0f}"
        paper = PAPER[op]
        row += (f"   ({paper['baseline']}/{paper['mpk']}/{paper['vtx']})")
        lines.append(row)
    add_table("Table 1: microbenchmarks (ns)", lines)
