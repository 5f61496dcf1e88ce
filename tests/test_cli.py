import json

import pytest

from agmx import cli
from agmx.solvers import DivergenceError, MethodKind

LAP9 = ["--problem", "laplacian2d", "--n", "9"]


def run_cli(args):
    return cli.main(args)


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "run" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(["run", "--nosuchflag"]) == 1

    def test_unknown_method_named_in_message(self, tmp_path, capsys):
        rc = run_cli(["run", *LAP9, "--method", "nosuch",
                      "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "nosuch" in capsys.readouterr().err

    def test_unknown_problem(self, capsys):
        assert run_cli(["run", "--problem", "mystery", "--method", "gd"]) == 1

    def test_run_requires_out(self, monkeypatch, capsys):
        # rejected before any problem is built or solved
        def no_build(args, seed):
            raise AssertionError("run built a problem without --out")
        monkeypatch.setattr(cli, "_build_problem", no_build)
        assert run_cli(["run", *LAP9, "--method", "gd"]) == 1
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", *LAP9, "--method", "hnag"],
        ["compare", *LAP9, "--methods", "gd,hnag"],
        ["diagnose", *LAP9, "--check", "thm_hnag_funcval"],
        ["diagnose", *LAP9, "--check", "strong_hnag", "--states", "4"],
        ["rates"],
    ])
    def test_unwritable_out(self, argv, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "out.csv"
        assert run_cli([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert str(out) in err


class TestRun:
    def test_run_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = run_cli(["run", *LAP9, "--method", "hnagpp", "--tol", "1e-8",
                      "--seed", "42", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.TRACE_CSV_HEADER
        assert lines[1].startswith("0,")
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == "hnag"
        assert summary["status"] == "converged"
        assert summary["iterations"] == len(lines) - 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", *LAP9, "--method", "nag", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)]) == 0
        out_a = capsys.readouterr().out
        assert run_cli(args + ["--out", str(b)]) == 0
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert out_a == out_b

    def test_max_iter_exit_code(self, tmp_path, capsys):
        rc = run_cli(["run", *LAP9, "--method", "gd", "--max-iter", "5",
                      "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["status"] == "max_iter"

    def test_divergence_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(f, config, x0):
            raise DivergenceError(MethodKind.GD, 17)
        monkeypatch.setattr(cli.solvers, "solve", boom)
        rc = run_cli(["run", *LAP9, "--method", "gd",
                      "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert "17" in capsys.readouterr().err

    def test_real_divergence_via_box_ordering(self, tmp_path, capsys):
        # the box ordering genuinely blows up on this problem (see
        # test_solvers); the CLI must surface it as exit code 3
        rc = run_cli(["run", "--problem", "laplacian2d", "--n", "19",
                      "--method", "hnagbox", "--seed", "42",
                      "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_seed_env_var(self, tmp_path, monkeypatch, capsys):
        flag = tmp_path / "flag.csv"
        env = tmp_path / "env.csv"
        other = tmp_path / "other.csv"
        assert run_cli(["run", *LAP9, "--method", "gd", "--seed", "5",
                        "--out", str(flag)]) == 0
        monkeypatch.setenv("AGMX_SEED", "5")
        assert run_cli(["run", *LAP9, "--method", "gd", "--out", str(env)]) == 0
        assert flag.read_bytes() == env.read_bytes()
        # explicit flag wins over the environment
        monkeypatch.setenv("AGMX_SEED", "99")
        assert run_cli(["run", *LAP9, "--method", "gd", "--seed", "5",
                        "--out", str(other)]) == 0
        assert other.read_bytes() == flag.read_bytes()
        capsys.readouterr()


class TestCompare:
    def test_five_methods_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        args = ["compare", "--problem", "laplacian2d", "--n", "19",
                "--methods", "gd,nag,tm,hnag,hnagplus", "--seed", "42"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        strip = lambda p: [
            (c[0], c[1], c[2], c[4], c[5])  # drop the runtime column
            for c in (line.split(",") for line in p.read_text().splitlines()[1:])
        ]
        assert strip(out1) == strip(out2)
        lines = out1.read_text().splitlines()
        assert lines[0] == "method,kappa,iterations,runtime_s,measured_rate,theoretical_rate"
        # regression baseline captured at the first verified run
        counts = {c[0]: int(c[2]) for c in (l.split(",") for l in lines[1:])}
        assert counts == {"gd": 1269, "nag": 210, "tm": 223,
                          "hnag": 160, "hnag_plus": 199}
        capsys.readouterr()

    def test_single_method_rejected(self, capsys):
        assert run_cli(["compare", *LAP9, "--methods", "gd"]) == 1

    def test_nonconvergence_exit_code(self, capsys):
        rc = run_cli(["compare", *LAP9, "--methods", "gd,nag", "--max-iter", "3"])
        assert rc == 2
        capsys.readouterr()

    def test_json_format(self, capsys):
        rc = run_cli(["compare", *LAP9, "--methods", "gd,hnag",
                      "--seed", "1", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["method"] for row in payload] == ["gd", "hnag"]
        assert all(row["iterations"] >= 1 for row in payload)


class TestDiagnose:
    def test_funcval_check_passes(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = run_cli(["diagnose", "--problem", "laplacian2d", "--n", "39",
                      "--check", "thm_hnag_funcval", "--seed", "42",
                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,lhs,rhs,residual"
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["violated_step"] is None

    def test_method_theorem_mismatch(self, capsys):
        rc = run_cli(["diagnose", *LAP9, "--check", "thm_hnag_plus",
                      "--method", "gd"])
        assert rc == 1

    def test_prop_quadratic_needs_quadratic_problem(self, capsys):
        rc = run_cli(["diagnose", "--problem", "piecewise", "--d", "20",
                      "--check", "prop_quadratic"])
        assert rc == 1

    def test_unknown_check(self, capsys):
        assert run_cli(["diagnose", *LAP9, "--check", "nosuch"]) == 1

    def test_strong_sweep(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = run_cli(["diagnose", *LAP9, "--check", "strong_partial",
                      "--mu-hat-frac", "0.99", "--states", "12",
                      "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "k,lhs,rhs,residual"
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("states", ["0", "-3"])
    def test_sweep_needs_a_state(self, states, capsys):
        rc = run_cli(["diagnose", *LAP9, "--check", "strong_hnag", "--states", states])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --states must be >= 1, got {states}\n"

    def test_sweep_accepts_method_alias(self, capsys):
        rc = run_cli(["diagnose", *LAP9, "--check", "strong_hnag_plus",
                      "--method", "hnagplus", "--states", "4"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("check,method,required", [
        ("strong_hnag", "nag", "hnag"),
        ("strong_partial", "hnagplus", "hnag"),
        ("strong_hnag_plus", "hnag", "hnag_plus"),
    ])
    def test_sweep_rejects_other_method(self, check, method, required, capsys):
        rc = run_cli(["diagnose", *LAP9, "--check", check, "--method", method])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {check} applies to method '{required}', not '{method}'\n"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["diagnose", *LAP9, "--check", "prop_quadratic", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        out_a = capsys.readouterr().out
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert capsys.readouterr().out == out_a


class TestRates:
    def test_csv_catalog(self, capsys):
        assert run_cli(["rates", "--kappas", "100,3150"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,kappa,rate_general,rate_special"
        assert len(lines) == 1 + 5 * 2

    def test_json_catalog(self, capsys):
        assert run_cli(["rates", "--kappas", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hnag = [r for r in payload if r["method"] == "hnag"][0]
        assert hnag["rate_special"] < hnag["rate_general"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["rates", "--out", str(a)]) == 0
        assert run_cli(["rates", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
