"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

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

    @pytest.mark.parametrize("command", ["run", "layout", "views", "py"])
    def test_non_utf8_input_is_a_named_error(self, tmp_path, capsys,
                                             command):
        bad = tmp_path / "main.go"
        bad.write_bytes(b"\xff\xfe")
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and str(bad) in err
        assert len(err.splitlines()) == 1


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("argv", [
        ["loadtest", "--backends", "mpk", "--offered", "abc"],
        ["loadtest", "--backends", "mpk", "--offered", "0"],
        ["loadtest", "--backends", "mpk", "--offered", "-100"],
        ["loadtest", "--backends", "mpk", "--offered", "1000",
         "--span-sample", "-0.5"],
        ["loadtest", "--backends", "mpk", "--offered", "1000",
         "--span-sample", "2"],
        ["loadtest", "--backends", "mpk", "--maxconns", "-1"],
        ["loadtest", "--backends", "mpk", "--backlog", "-1"],
        ["loadtest", "--backends", "mpk", "--slo-ms", "-1"],
        ["loadtest", "--backends", "mpk", "--pool", "0"],
        ["tenants", "--tenants", "0"],
        ["tenants", "--tenants", "10", "--rate", "0"],
        ["tenants", "--tenants", "10", "--faulty-frac", "2"],
        ["tenants", "--tenants", "10", "--pool", "0"],
        ["tenants", "--tenants", "10", "--revive-limit", "-1"],
    ], ids=["offered-abc", "offered-0", "offered-neg",
            "span-sample-neg", "span-sample-2", "maxconns-neg",
            "backlog-neg", "slo-ms-neg", "loadtest-pool-0", "tenants-0",
            "rate-0", "faulty-frac-2", "tenants-pool-0", "revive-limit-neg"])
    def test_out_of_range_input_is_a_named_error(self, capsys, argv):
        assert main(argv + ["--requests", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, minimum", [
        (["loadtest", "--backends", "mpk", "--requests", "-5"], 0),
        (["tenants", "--tenants", "10", "--requests", "-5"], 1),
        (["macro", "--requests", "-1"], 0),
    ], ids=["loadtest", "tenants", "macro"])
    def test_negative_request_count_is_a_named_error(self, capsys, argv,
                                                     minimum):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: requests must be >= {minimum}")
        assert "Traceback" not in err

    def test_a_tenants_study_needs_a_request(self, capsys):
        """Zero requests reach no tenant, so the study's gates could
        only read FAIL; the study rejects the count up front."""
        assert main(["tenants", "--tenants", "10", "--requests", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "repro: requests must be >= 1, got 0\n"


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

    def test_py_syntax_error_is_a_named_abort(self, tmp_path, capsys):
        app = tmp_path / "app.py"
        app.write_text("x = 1\ndef f(:\n")
        assert main(["py", str(app)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pylite: aborted: ")
        assert "'__main__', line 2" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("program, message", [
        ("import m\nk = [m.g]\n", "function 'g' is not a heap object"),
        ("import m\nx = m.g + 1\n", "function 'g' is not a heap object"),
        ("import m\nprint(m.g)\n", "function 'g' is not a heap object"),
        ("def f(n):\n    return f(n + 1)\nf(0)\n",
         "maximum recursion depth exceeded"),
    ], ids=["function-in-list", "function-operand", "function-printed",
            "unbounded-recursion"])
    def test_py_program_errors_are_named_aborts(self, tmp_path, capsys,
                                                program, message):
        mod = tmp_path / "m.py"
        mod.write_text("def g(v):\n    return v + 1\n")
        app = tmp_path / "app.py"
        app.write_text(program)
        assert main(["py", str(mod), str(app)]) == 1
        err = capsys.readouterr().err
        assert err == f"pylite: aborted: {message}\n"


class TestMicro:
    def test_micro_runs_outside_the_checkout(self, tmp_path):
        """``repro micro`` needs only the installed package, not the
        repository's ``benchmarks`` directory on the import path."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "repro", "micro"],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        rows = [line.split()[0] for line in done.stdout.splitlines()[1:]]
        assert rows == ["call", "transfer", "syscall"]


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
        code = main(["macro", "--backend", "mpk", "--requests", "12",
                     "--fault-policy", "quarantine",
                     "--quarantine-threshold", "1000",
                     "--inject", "pkey@main_1:every=3", "--seed", "7",
                     "--expect-contained", "3",
                     "--artifacts", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "contained faults" in err
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["ok"] + data["errors"] == 12
        assert len(data["contained"]) >= 3
        assert data["injector"]["seed"] == 7

    def test_macro_expect_contained_failure(self, capsys):
        code = main(["macro", "--backend", "mpk", "--requests", "2",
                     "--fault-policy", "quarantine",
                     "--expect-contained", "1"])
        assert code == 1
        assert "expected" in capsys.readouterr().err


def _bundle(root) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


MACHINE_FILES = ("containment.json", "stats.json")
TRACED_FILES = ("trace.json", "trace-summary.json", "metrics.prom",
                "profile.folded", *MACHINE_FILES)
SPANNED_FILES = ("metrics.prom", "flight.json", *MACHINE_FILES)

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Smoke-scale commands and the bundle each writes.
SMOKES = {
    "run": (["run", str(EXAMPLES / "golite" / "libfx.go"),
             str(EXAMPLES / "golite" / "main.go")],
            {f"mpk/{f}" for f in TRACED_FILES}),
    "macro": (["macro", "--requests", "4", "--fault-policy", "quarantine",
               "--inject", "pkey@main_1:every=2", "--seed", "7"],
              {"report.json", *(f"mpk/{f}" for f in TRACED_FILES)}),
    "loadtest": (["loadtest", "--backends", "mpk", "--offered", "10000",
                  "--requests", "20", "--seed", "7", "--containment", "on",
                  "--inject", "pkey@main_1:every=5"],
                 {"report.json", "table.md", "spans.json",
                  *(f"mpk/quarantine/10000/{f}" for f in SPANNED_FILES)}),
    "tenants": (["tenants", "--tenants", "6", "--requests", "30",
                 "--faulty-frac", "0.2", "--cpuhog-frac", "0",
                 "--memhog-frac", "0"],
                {"report.json", "spans.json",
                 *(f"mpk/{leg}/{f}" for leg in ("baseline", "study")
                   for f in SPANNED_FILES)}),
}


class TestArtifacts:
    """``--artifacts DIR`` writes one bundle; ``report DIR`` checks it."""

    @pytest.mark.parametrize("command", sorted(SMOKES))
    def test_smoke_bundle_reports_clean(self, tmp_path, capsys, command):
        argv, files = SMOKES[command]
        assert main(argv + ["--artifacts", str(tmp_path)]) == 0
        assert set(_bundle(tmp_path)) == files
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert {line[3:] for line in captured.out.splitlines()
                if line.startswith("== ")} == files

    def test_bundle_is_deterministic(self, tmp_path):
        argv, _ = SMOKES["loadtest"]
        for run in ("a", "b"):
            assert main(argv + ["--artifacts", str(tmp_path / run)]) == 0
        assert _bundle(tmp_path / "a") == _bundle(tmp_path / "b")

    @pytest.mark.parametrize("name, damage", [
        ("metrics.prom", lambda text: text[:len(text) // 2]),
        ("trace.json", lambda text: "not json"),
    ], ids=["truncated-metrics", "non-json-trace"])
    def test_damaged_file_is_named(self, tmp_path, capsys, name, damage):
        argv, _ = SMOKES["run"]
        assert main(argv + ["--artifacts", str(tmp_path)]) == 0
        path = tmp_path / "mpk" / name
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro: mpk/{name}: ")
        assert err.count("repro: ") == 1

    @pytest.mark.parametrize("damage", [
        lambda summary: [], lambda summary: 1, lambda summary: "x",
        lambda summary: None,
        lambda summary: {env: {**row, "counts": []}
                         for env, row in summary.items()},
    ], ids=["list", "number", "string", "null", "counts-list"])
    def test_mangled_trace_summary_is_named(self, tmp_path, capsys, damage):
        """The breakdown printed for trace.json reads its summary, whose
        shape is outside input too: a mangled one is named, never a
        traceback."""
        argv, _ = SMOKES["run"]
        assert main(argv + ["--artifacts", str(tmp_path)]) == 0
        path = tmp_path / "mpk" / "trace-summary.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "repro: mpk/trace.json: trace-summary.json: not an object of "
            "per-environment rows, each with a counts object\n")

    def test_empty_dir_is_a_named_error(self, tmp_path, capsys):
        # A missing DIR is TestRun::test_missing_input_is_a_named_error.
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"repro: {tmp_path}: no artifacts\n"
