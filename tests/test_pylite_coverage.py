"""Additional Pylite interpreter and machine coverage."""

import pytest

from repro.errors import PolicyError, PyliteError
from repro.pylite import Interpreter, PyMachine

from tests.test_pylite import result_of, run_pylite


class TestInterpreterEdges:
    def test_augassign(self):
        _, interp = run_pylite("out = 1\nout += 4\nout -= 2\nout *= 10\n")
        assert result_of(interp) == 30

    def test_string_repetition_and_index(self):
        _, interp = run_pylite('s = "ab" * 3\nout = s[4] + s\n')
        assert result_of(interp) == "aababab"

    def test_nested_lists(self):
        _, interp = run_pylite(
            "xs = [[1, 2], [3, 4]]\nout = xs[1][0] + xs[0][1]\n")
        assert result_of(interp) == 5

    def test_unary_ops(self):
        _, interp = run_pylite("out = -5 + (not False) + (not 3)\n")
        assert result_of(interp) == -4

    def test_truthiness(self):
        _, interp = run_pylite(
            'out = 0\nif "":\n    out = 1\nif [0]:\n    out = out + 2\n'
            "if None:\n    out = out + 4\nif 7:\n    out = out + 8\n")
        assert result_of(interp) == 10

    def test_str_comparison(self):
        _, interp = run_pylite('out = 0\nif "abc" < "abd":\n    out = 1\n')
        assert result_of(interp) == 1

    def test_function_arity_error(self):
        with pytest.raises(PyliteError, match="takes"):
            run_pylite("def f(a, b):\n    return a\nout = f(1)\n")

    def test_list_index_out_of_range(self):
        with pytest.raises(PyliteError, match="range"):
            run_pylite("xs = [1]\nout = xs[5]\n")

    def test_unsupported_statement(self):
        with pytest.raises(PyliteError, match="unsupported"):
            run_pylite("class X:\n    pass\n")

    def test_missing_module(self):
        with pytest.raises(PyliteError, match="no module"):
            run_pylite("import ghost\n")

    def test_missing_attribute(self):
        with pytest.raises(PyliteError, match="attribute"):
            run_pylite("import m\nout = m.ghost\n", m="x = 1\n")

    def test_recursion_with_lists(self):
        _, interp = run_pylite(
            "def rev(xs):\n"
            "    out = []\n"
            "    i = len(xs) - 1\n"
            "    while i >= 0:\n"
            "        out.append(xs[i])\n"
            "        i = i - 1\n"
            "    return out\n"
            "out = rev([1, 2, 3])\n")
        assert result_of(interp) == [3, 2, 1]


class TestMachineBehaviour:
    def test_bad_mode_rejected(self):
        with pytest.raises(PyliteError, match="mode"):
            PyMachine("sgx")

    def test_refcounts_live_in_simulated_memory(self):
        machine, interp = run_pylite("x = 42\ny = x\nz = x\n")
        addr = machine.modules["__main__"].namespace["x"]
        import struct
        raw = machine.mmu.read(machine.trusted_ctx, addr, 8, charge=False)
        refcount = struct.unpack("<q", raw)[0]
        assert refcount >= 3  # x, y, z all reference it

    def test_gc_lists_linked_through_objects(self):
        machine, interp = run_pylite("a = 1\nb = 2\n")
        module = machine.modules["__main__"]
        # Between collections the gen-0 list threads through gc_next.
        seen = 0
        addr = module.gc_head
        while addr and seen < 1000:
            import struct
            addr = struct.unpack("<q", machine.mmu.read(
                machine.trusted_ctx, addr + 16, 8, charge=False))[0]
            seen += 1
        assert seen >= 2

    def test_gc_collection_promotes(self):
        machine, interp = run_pylite(
            "xs = []\nfor i in range(700):\n    xs.append(i)\n")
        # At least one collection happened (interval is 600 allocs).
        assert machine.modules["__main__"].allocations > 600

    def test_allocation_charges_time(self):
        machine = PyMachine("python")
        interp = Interpreter(machine)
        before = machine.clock.now_ns
        interp.run_main("x = [1, 2, 3]\n")
        assert machine.clock.now_ns > before

    def test_policy_with_unknown_module_rejected_at_first_call(self):
        with pytest.raises(PolicyError, match="unknown package"):
            run_pylite(
                "import w\n"
                'f = enclosure("ghost:R, none", w.f)\n'
                "out = f()\n",
                mode="conservative",
                w="def f():\n    return 1\n")

    def test_write_file_lands_in_simulated_fs(self):
        machine, _ = run_pylite(
            'write_file("/data/x.txt", "payload")\n')
        assert machine.kernel.fs.read_file("/data/x.txt") == b"payload"
