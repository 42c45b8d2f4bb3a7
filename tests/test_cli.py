"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def golite_files(tmp_path):
    lib = tmp_path / "lib.go"
    lib.write_text("package lib\n\nfunc Triple(x int) int { return 3*x }\n")
    app = tmp_path / "main.go"
    app.write_text(
        'package main\n\nimport "lib"\n\nfunc main() {\n'
        '    f := with "none" func(x int) int { return lib.Triple(x) }\n'
        "    println(f(14))\n}\n")
    return [str(lib), str(app)]


class TestRun:
    def test_run_ok(self, golite_files, capsys):
        assert main(["run", *golite_files, "--backend", "mpk"]) == 0
        assert capsys.readouterr().out == "42\n"

    @pytest.mark.parametrize("backend", ["baseline", "vtx", "lwc"])
    def test_all_backends(self, golite_files, capsys, backend):
        assert main(["run", *golite_files, "--backend", backend]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_stats_flag(self, golite_files, capsys):
        assert main(["run", *golite_files, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "simulated time" in err and "switches" in err

    def test_fault_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "main.go"
        bad.write_text(
            "package main\n\nfunc main() {\n"
            '    f := with "none" func() int { return syscall(102) }\n'
            "    println(f())\n}\n")
        assert main(["run", str(bad), "--backend", "mpk"]) == 1
        assert "aborted" in capsys.readouterr().err

    def test_compile_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "main.go"
        bad.write_text("package main\nfunc main() { $$$ }\n")
        assert main(["run", str(bad)]) == 2
        assert "repro:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "layout", "views", "py",
                                         "report"])
    def test_missing_input_is_a_named_error(self, tmp_path, capsys,
                                            command):
        missing = tmp_path / "nonexistent" / "main.go"
        assert main([command, str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "No such file or directory" in err and str(missing) in err
        assert "Traceback" not in err


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("argv", [
        ["macro", "--profile-period", "0"],
        ["loadtest", "--backends", "mpk", "--offered", "abc"],
        ["loadtest", "--backends", "mpk", "--offered", "0"],
        ["loadtest", "--backends", "mpk", "--offered", "-100"],
        ["loadtest", "--backends", "mpk", "--offered", "1000",
         "--span-sample", "-0.5"],
        ["loadtest", "--backends", "mpk", "--offered", "1000",
         "--span-sample", "2"],
        ["tenants", "--tenants", "0"],
        ["tenants", "--tenants", "10", "--rate", "0"],
        ["tenants", "--tenants", "10", "--faulty-frac", "2"],
    ], ids=["profile-period-0", "offered-abc", "offered-0", "offered-neg",
            "span-sample-neg", "span-sample-2", "tenants-0", "rate-0",
            "faulty-frac-2"])
    def test_out_of_range_input_is_a_named_error(self, capsys, argv):
        assert main(argv + ["--requests", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "Traceback" not in err


class TestLayoutAndViews:
    def test_layout(self, golite_files, capsys):
        assert main(["layout", *golite_files]) == 0
        out = capsys.readouterr().out
        assert "main.text" in out
        assert "litterbox.super.verif" in out

    def test_views(self, golite_files, capsys):
        assert main(["views", *golite_files]) == 0
        out = capsys.readouterr().out
        assert "trusted" in out
        assert "meta-packages" in out


class TestPylite:
    def test_py_command(self, tmp_path, capsys):
        mod = tmp_path / "secret.py"
        mod.write_text("data = [5, 6, 7]\n")
        app = tmp_path / "app.py"
        app.write_text("import secret\nprint(len(secret.data))\n")
        assert main(["py", str(mod), str(app), "--mode", "python"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_py_fault(self, tmp_path, capsys):
        mod = tmp_path / "worker.py"
        mod.write_text('def run():\n    write_file("/x", "y")\n'
                       "    return 0\n")
        app = tmp_path / "app.py"
        app.write_text('import worker\n'
                       'f = enclosure("none", worker.run)\nout = f()\n')
        assert main(["py", str(mod), str(app),
                     "--mode", "conservative"]) == 1
        assert "aborted" in capsys.readouterr().err


class TestContainmentFlags:
    def test_fault_policy_keeps_exit_code_but_not_abort(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "main.go"
        bad.write_text(
            "package main\n\nfunc main() {\n"
            '    f := with "none" func() int { return syscall(102) }\n'
            "    println(f())\n}\n")
        assert main(["run", str(bad), "--backend", "mpk",
                     "--fault-policy", "kill-goroutine"]) == 1
        err = capsys.readouterr().err
        assert "contained" in err
        assert "aborted" not in err

    def test_inject_entry_denial(self, golite_files, capsys):
        assert main(["run", *golite_files, "--backend", "mpk",
                     "--inject", "entry@main_1", "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert "denied-entry" in err

    def test_macro_smoke_with_injection(self, tmp_path, capsys):
        report = tmp_path / "containment.json"
        code = main(["macro", "--backend", "mpk", "--requests", "12",
                     "--fault-policy", "quarantine",
                     "--quarantine-threshold", "1000",
                     "--inject", "pkey@main_1:every=3", "--seed", "7",
                     "--expect-contained", "3",
                     "--report", str(report)])
        assert code == 0
        err = capsys.readouterr().err
        assert "contained faults" in err
        import json
        data = json.loads(report.read_text())
        assert data["ok"] + data["errors"] == 12
        assert len(data["contained"]) >= 3
        assert data["injector"]["seed"] == 7

    def test_macro_expect_contained_failure(self, capsys):
        code = main(["macro", "--backend", "mpk", "--requests", "2",
                     "--fault-policy", "quarantine",
                     "--expect-contained", "1"])
        assert code == 1
        assert "expected" in capsys.readouterr().err
