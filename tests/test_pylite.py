"""Tests for the Pylite dynamic frontend (paper §5.2 / §6.4)."""

import pytest

from repro.core.policy import Access
from repro.errors import PageFault, PyliteError, SyscallFault
from repro.hw.clock import COSTS
from repro.hw.pages import Perm
from repro.pylite import Interpreter, PyMachine, run_experiment


def run_pylite(main_src, mode="python", **modules):
    machine = PyMachine(mode)
    interp = Interpreter(machine)
    for name, src in modules.items():
        interp.add_source(name, src)
    interp.run_main(main_src)
    return machine, interp


def result_of(interp, name="out"):
    value = interp.machine.modules["__main__"].namespace.get(name)
    return interp.to_python(value)


class TestInterpreter:
    def test_arithmetic(self):
        _, interp = run_pylite("out = (2 + 3) * 4 - 10 // 3\n")
        assert result_of(interp) == 17

    def test_strings(self):
        _, interp = run_pylite('out = "ab" + "cd" + str(7)\n')
        assert result_of(interp) == "abcd7"

    def test_lists(self):
        _, interp = run_pylite(
            "xs = [1, 2, 3]\nxs.append(10)\nout = xs[3] + len(xs)\n")
        assert result_of(interp) == 14

    def test_while_and_if(self):
        _, interp = run_pylite(
            "total = 0\ni = 0\nwhile i < 10:\n"
            "    if i % 2 == 0:\n        total = total + i\n"
            "    i = i + 1\nout = total\n")
        assert result_of(interp) == 20

    def test_for_range(self):
        _, interp = run_pylite(
            "out = 0\nfor i in range(5):\n    out = out + i\n")
        assert result_of(interp) == 10

    def test_for_list(self):
        _, interp = run_pylite(
            "out = 0\nfor v in [5, 6, 7]:\n    out = out + v\n")
        assert result_of(interp) == 18

    def test_functions(self):
        _, interp = run_pylite(
            "def fib(n):\n"
            "    if n < 2:\n        return n\n"
            "    return fib(n - 1) + fib(n - 2)\n"
            "out = fib(10)\n")
        assert result_of(interp) == 55

    def test_list_index_assignment(self):
        _, interp = run_pylite("xs = [0, 0]\nxs[1] = 9\nout = xs[1]\n")
        assert result_of(interp) == 9

    def test_print_writes_stdout(self):
        machine, _ = run_pylite('print("hello", 42)\n')
        assert machine.kernel.stdout == bytearray(b"hello 42\n")

    def test_undefined_name(self):
        with pytest.raises(PyliteError, match="not defined"):
            run_pylite("out = ghost\n")

    def test_division_by_zero(self):
        with pytest.raises(PyliteError, match="zero"):
            run_pylite("out = 1 // 0\n")


class TestModules:
    def test_import_and_attribute(self):
        _, interp = run_pylite(
            "import mathx\nout = mathx.square(6)\n",
            mathx="def square(x):\n    return x * x\n")
        assert result_of(interp) == 36

    def test_lazy_import_registers_deps(self):
        machine, _ = run_pylite(
            "import a\nout = a.f()\n",
            a="import b\ndef f():\n    return b.g()\n",
            b="def g():\n    return 1\n")
        graph = machine.litterbox.graph
        assert "b" in graph.get("a").imports
        assert graph.natural_dependencies("a") == {"b"}

    def test_module_globals(self):
        _, interp = run_pylite(
            "import cfg\nout = cfg.limit + 1\n", cfg="limit = 41\n")
        assert result_of(interp) == 42

    def test_per_module_allocators_disjoint(self):
        """Objects of different modules land on distinct pages (§5.2)."""
        machine, interp = run_pylite(
            "import a\nimport b\nxa = a.make()\nxb = b.make()\n",
            a="def make():\n    return [1, 2]\n",
            b="def make():\n    return [3, 4]\n")
        a_pages = {s.base >> 12 for s in machine.modules["a"].data_sections}
        b_pages = {s.base >> 12 for s in machine.modules["b"].data_sections}
        assert a_pages and b_pages and not (a_pages & b_pages)

    def test_import_cycle_gets_the_partly_run_module(self):
        """``a`` imports ``b``, which imports ``a`` back while ``a`` is
        still running its top level: ``b`` gets ``a`` as it stands, as
        in CPython, instead of running it again."""
        machine, interp = run_pylite(
            "import a\nout = a.x + a.b.y\n",
            a="import b\nx = 40\n",
            b="import a\ny = 2\n")
        assert result_of(interp) == 42
        assert machine.litterbox.graph.get("b").imports == ("a",)

    def test_module_without_names_is_imported_once(self):
        """A module that binds no name still counts as imported: later
        imports neither run it nor charge ``PY_IMPORT`` again."""
        once, _ = run_pylite("import e\n", e="pass\n")
        thrice, _ = run_pylite("import e\nimport e\nimport e\n",
                               e="pass\n")
        extra = thrice.clock.now_ns - once.clock.now_ns
        assert 0 < extra < COSTS.PY_IMPORT

    def test_code_and_data_arenas_split(self):
        machine, _ = run_pylite("import a\n",
                                a="v = 1\ndef f():\n    return 0\n")
        module = machine.modules["a"]
        assert module.code_sections and module.data_sections


class TestLocalcopy:
    def test_deep_copy_into_caller_module(self):
        machine, interp = run_pylite(
            "import donor\nmine = localcopy(donor.data)\n"
            "mine.append(4)\nout = len(mine) + len(donor.data)\n",
            donor="data = [1, 2, 3]\n")
        assert result_of(interp) == 7
        # The copy must live in __main__'s arena, not donor's.
        mine = machine.modules["__main__"].namespace["mine"]
        main_sections = machine.modules["__main__"].data_sections
        assert any(s.contains(mine) for s in main_sections)


class TestPyliteEnclosures:
    SECRET = "data = [10, 20, 30]\n"
    WORKER = (
        "def total(data):\n"
        "    s = 0\n"
        "    i = 0\n"
        "    while i < len(data):\n"
        "        s = s + data[i]\n"
        "        i = i + 1\n"
        "    return s\n")
    EVIL = (
        "def total(data):\n"
        "    data[0] = 666\n"
        "    return 0\n")

    def test_enclosure_runs_and_returns(self):
        _, interp = run_pylite(
            "import secret\nimport worker\n"
            'f = enclosure("secret:R, none", worker.total)\n'
            "out = f(secret.data)\n",
            mode="conservative", secret=self.SECRET, worker=self.WORKER)
        assert result_of(interp) == 60

    def test_readonly_secret_blocks_mutation(self):
        from repro.errors import PageFault
        with pytest.raises(PageFault):
            run_pylite(
                "import secret\nimport worker\n"
                'f = enclosure("secret:R, none", worker.total)\n'
                "out = f(secret.data)\n",
                mode="conservative", secret=self.SECRET, worker=self.EVIL)

    def test_unshared_module_invisible(self):
        from repro.errors import PageFault
        spy = ("import secret\n"
               "def total(data):\n"
               "    return secret.data[0]\n")
        # worker legitimately imports secret, but the policy unmaps it.
        with pytest.raises(PageFault):
            run_pylite(
                "import secret\nimport worker\n"
                'f = enclosure("secret:U, none", worker.total)\n'
                "out = f([1])\n",
                mode="conservative", secret=self.SECRET, worker=spy)

    def test_syscall_filter(self):
        leaky = ('def run(data):\n'
                 '    write_file("/stolen", "secret-bytes")\n'
                 '    return 0\n')
        with pytest.raises(SyscallFault):
            run_pylite(
                "import secret\nimport worker\n"
                'f = enclosure("secret:R, none", worker.run)\n'
                "out = f(secret.data)\n",
                mode="conservative", secret=self.SECRET, worker=leaky)

    def test_enclosure_triggered_import_becomes_available(self):
        """§5.2: imports during enclosure execution are made available
        to the executing enclosure by the default policy."""
        worker = ("def run(data):\n"
                  "    import helper\n"
                  "    return helper.bump(data[0])\n")
        _, interp = run_pylite(
            "import secret\nimport worker\n"
            'f = enclosure("secret:R, none", worker.run)\n'
            "out = f(secret.data)\n",
            mode="conservative", secret=self.SECRET, worker=worker,
            helper="def bump(x):\n    return x + 1\n")
        assert result_of(interp) == 11

    def test_denied_syscall_is_attributed_to_the_enclosure(self):
        """FilterSyscall runs on the issuing environment and pins the
        denial on it, as for the Go frontend."""
        leaky = ('def run(data):\n'
                 '    write_file("/stolen", "x")\n'
                 '    return 0\n')
        with pytest.raises(SyscallFault) as denied:
            run_pylite(
                "import secret\nimport worker\n"
                'f = enclosure("secret:R, none", worker.run)\n'
                "out = f(secret.data)\n",
                mode="conservative", secret=self.SECRET, worker=leaky)
        assert denied.value.env_name == "pyencl_1"
        assert denied.value.origin() == "env 'pyencl_1'"

    LATE_MAIN = ("import worker\n"
                 'f = enclosure("none", worker.total)\n'
                 "a = f(worker.data)\n"
                 "{load}"
                 "b = f({late}.data)\n")
    VIEWED = ("data = [1, 2]\n"
              "def total(xs):\n"
              "    s = 0\n"
              "    for v in xs:\n"
              "        s = s + v\n"
              "    return s\n"
              "def load():\n"
              "    import helper\n"
              "    return helper\n")

    def test_module_imported_by_trusted_code_stays_unmapped(self):
        """A module that only trusted code imports after the enclosure's
        first call is no natural dependency of the enclosure, so it
        never joins the enclosure's view."""
        machine = PyMachine("conservative")
        interp = Interpreter(machine)
        interp.add_source("worker", self.VIEWED)
        interp.add_source("late", "data = [3, 4]\n")
        with pytest.raises(PageFault):
            interp.run_main(self.LATE_MAIN.format(load="import late\n",
                                                  late="late"))
        assert result_of(interp, "a") == 3
        assert "late" not in machine.litterbox.env(1).view

    def test_module_imported_by_a_viewed_module_joins_the_view(self):
        """An import made by a module of the enclosure's view, even by
        trusted code after the first call, makes the imported module a
        natural dependency: it joins the view as RWX (§5.2)."""
        machine, interp = run_pylite(
            self.LATE_MAIN.format(load="helper = worker.load()\n",
                                  late="helper"),
            mode="conservative", worker=self.VIEWED,
            helper="data = [3, 4]\n")
        assert (result_of(interp, "a"), result_of(interp, "b")) == (3, 7)
        assert machine.litterbox.env(1).view["helper"] is Access.RWX

    def test_import_of_a_loaded_module_does_not_widen_the_view(self):
        """An enclosure that imports a module trusted code loaded before
        gets no access to it: §5.2 makes only new modules available."""
        grabber = ("def run():\n"
                   "    import secret\n"
                   "    secret.data[0] = 666\n"
                   "    return secret.data[0]\n")
        machine = PyMachine("conservative")
        interp = Interpreter(machine)
        interp.add_source("secret", self.SECRET)
        interp.add_source("worker", grabber)
        with pytest.raises(PageFault) as fault:
            interp.run_main("import secret\nimport worker\n"
                            'f = enclosure("none", worker.run)\n'
                            "out = f()\n")
        assert any(arena.contains(fault.value.addr)
                   for arena in machine.litterbox.arena_of("secret"))
        assert "secret" in machine.litterbox.graph.get("worker").imports
        assert "secret" not in machine.litterbox.env(1).view
        data = machine.modules["secret"].namespace["data"]
        assert interp.to_python(data) == [10, 20, 30]

    @pytest.mark.parametrize("mode", ["python", "conservative"])
    def test_module_text_is_read_execute_to_trusted_code(self, mode):
        """A module imported after start-up has RX text in the table
        trusted code runs on (under LBVTX, the trusted guest table)."""
        machine, _ = run_pylite("import late\n", mode=mode,
                                late="x = 1\n")
        text = machine.modules["late"].code_sections[0]
        assert machine.cpu.ctx.page_table is \
            (machine.litterbox.trusted_env.table or machine.host_table)
        for table in (machine.host_table, machine.cpu.ctx.page_table):
            for vpn in text.vpns():
                assert table.lookup(vpn).perms == Perm.RX

    def test_refcount_switches_counted(self):
        machine, interp = run_pylite(
            "import secret\nimport worker\n"
            'f = enclosure("secret:R, none", worker.total)\n'
            "out = f(secret.data)\n",
            mode="conservative", secret=self.SECRET, worker=self.WORKER)
        assert machine.clock.count("refcount_switches") > 0

    def test_rw_mapping_avoids_switches(self):
        machine, interp = run_pylite(
            "import secret\nimport worker\n"
            'f = enclosure("secret:RW, none", worker.total)\n'
            "out = f(secret.data)\n",
            mode="optimized", secret=self.SECRET, worker=self.WORKER)
        assert result_of(interp) == 60
        assert machine.clock.count("refcount_switches") == 0

    def test_delayed_init_charged_once(self):
        machine, interp = run_pylite(
            "import secret\nimport worker\n"
            'f = enclosure("secret:R, none", worker.total)\n'
            "a = f(secret.data)\nb = f(secret.data)\nout = a + b\n",
            mode="conservative", secret=self.SECRET, worker=self.WORKER)
        assert result_of(interp) == 120
        envs = [e for e in machine.litterbox.envs.values() if not e.trusted]
        assert len(envs) == 1 and envs[0].table is not None
        assert machine.init_ns == COSTS.PY_INIT_BASE


class TestExperiment:
    def test_section64_shape(self):
        base = run_experiment("python", points=300)
        conservative = run_experiment("conservative", points=300)
        optimized = run_experiment("optimized", points=300)
        slow_c = conservative.total_ns / base.total_ns
        slow_o = optimized.total_ns / base.total_ns
        # Paper: ~18x conservative, ~1.4x optimized.
        assert 8 < slow_c < 40
        assert 1.1 < slow_o < 2.5
        assert conservative.refcount_switches > 1000
        assert optimized.refcount_switches == 0
        # Syscalls account for less than 1 percent of the slowdown.
        assert conservative.syscall_fraction < 0.01
        # The plot was actually produced.
        assert conservative.svg.startswith("<svg>")
