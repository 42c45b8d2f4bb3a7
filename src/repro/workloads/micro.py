"""Table 1: the paper's microbenchmarks, in (simulated) nanoseconds.

Paper values::

            Baseline   LBMPK   LBVTX
    call        45       86     924
    transfer     0     1002     158
    syscall    387      523    4126

``call`` calls and returns from an empty enclosure; ``transfer`` moves
a 4-page memory section between arenas; ``syscall`` performs ``getuid``
inside an enclosure that permits it.  Loop overhead is measured
separately and subtracted, as the per-op figure is what Table 1 lists.
``repro micro`` prints the row; ``benchmarks/test_table1_micro.py``
asserts the paper's shape on it.
"""

from __future__ import annotations

from repro.golite import build_program
from repro.hw.pages import PAGE_SIZE
from repro.machine import Machine, MachineConfig
from repro.os.syscalls import SYS_MMAP

BACKENDS = ("baseline", "mpk", "vtx")
ITERS = 200

PAPER = {
    "call": {"baseline": 45, "mpk": 86, "vtx": 924},
    "transfer": {"baseline": 0, "mpk": 1002, "vtx": 158},
    "syscall": {"baseline": 387, "mpk": 523, "vtx": 4126},
}

_CALL_TEMPLATE = """
package main

func main() {{
    f := with "proc" func(x int) int {{ return x }}
    sink := 0
    for i := 0; i < {iters}; i++ {{
        {body}
    }}
}}
"""

_SYSCALL_TEMPLATE = """
package main

func main() {{
    f := with "proc" func(n int) int {{
        acc := 0
        for i := 0; i < n; i++ {{
            {body}
        }}
        return acc
    }}
    sink := f({iters})
}}
"""


def _run(source: str, backend: str) -> float:
    machine = Machine(build_program([source]), MachineConfig(backend=backend))
    start = machine.clock.now_ns
    result = machine.run()
    assert result.status == "exited", machine.fault
    return machine.clock.now_ns - start


def measure_call(backend: str) -> float:
    with_call = _CALL_TEMPLATE.format(iters=ITERS, body="sink = sink + f(i)")
    without = _CALL_TEMPLATE.format(iters=ITERS, body="sink = sink + i")
    return (_run(with_call, backend) - _run(without, backend)) / ITERS


def measure_syscall(backend: str) -> float:
    with_sys = _SYSCALL_TEMPLATE.format(
        iters=ITERS, body="acc = acc + syscall(102)")
    without = _SYSCALL_TEMPLATE.format(iters=ITERS, body="acc = acc + i")
    return (_run(with_sys, backend) - _run(without, backend)) / ITERS


def measure_transfer(backend: str) -> float:
    source = _CALL_TEMPLATE.format(iters=1, body="sink = sink + i")
    machine = Machine(build_program([source]), MachineConfig(backend=backend))
    base = machine.kernel.syscall(SYS_MMAP, (0, 4 * PAGE_SIZE, 3, 0),
                                  None, pkru=0)
    assert base > 0
    owners = ("main", "litterbox.user")
    start = machine.clock.now_ns
    for i in range(ITERS):
        machine.litterbox.transfer(base, 4 * PAGE_SIZE, owners[i % 2])
    return (machine.clock.now_ns - start) / ITERS
