import inspect
import json
import warnings

import numpy as np
import pytest

from agmx import (
    ContractionTheorem,
    LyapunovKind,
    RateRegime,
    Rng,
    SolverConfig,
    build_laplacian2d,
    build_piecewise,
    cli,
    contraction_residuals,
    ensure_minimizer,
    problems,
    solve,
    strong_lyapunov_sweep,
    theoretical_rate,
)
from agmx.solvers import DivergenceError, MethodKind

from _helpers import SimpleObjective

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


class TestProblemFlags:
    """The problem flags are the builders' arguments, read from their signatures."""

    BUILDER_ARGS = [(kind, name, param.default)
                    for kind, build in problems.BUILDERS.items()
                    for name, param in inspect.signature(build).parameters.items()
                    if name != "seed"]

    @pytest.mark.parametrize("kind,name,default", BUILDER_ARGS)
    def test_every_builder_argument_is_a_flag_typed_by_its_default(self, kind, name, default):
        args = cli.build_parser().parse_args(["run", "--method", "gd", f"--{name}", "3"])
        assert type(getattr(args, name)) is type(default)

    @pytest.mark.parametrize("command", ["run", "compare", "diagnose"])
    def test_help_shows_each_problem_default(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for kind, name, default in self.BUILDER_ARGS:
            assert f"--{name} {name.upper()}" in text
            assert f"{kind} (default {default})" in text


PIECEWISE = ["--problem", "piecewise"]
LOGISTIC = ["--problem", "logistic"]
MU_HAT_ERROR = "--mu-hat-frac must lie in [0, 1], got "


class TestErrorPaths:
    """Every bad input ends in exactly one ``error:`` line and exit 1."""

    @pytest.mark.parametrize("argv,message", [
        (["run", *LAP9, "--method", "nosuch", "--out", "@OUT"], "unknown method 'nosuch'"),
        (["compare", *LAP9, "--methods", "gd,nosuch"], "unknown method 'nosuch'"),
        (["rates", "--methods", "gd,nosuch"], "unknown method 'nosuch'"),
        (["compare", *LAP9, "--methods", "gd"], "compare needs at least 2 methods"),
        (["compare", *LAP9, "--methods", "gd,,"], "compare needs at least 2 methods"),
        (["diagnose", *LAP9, "--check", "nosuch"], "unknown check 'nosuch'"),
        (["diagnose", *PIECEWISE, "--d", "20", "--check", "prop_quadratic"],
         "prop_quadratic needs a quadratic problem (laplacian2d)"),
        (["diagnose", *LOGISTIC, "--check", "prop_quadratic"],
         "prop_quadratic needs a quadratic problem (laplacian2d)"),
        (["diagnose", *LAP9, "--check", "strong_hnag", "--states", "0"],
         "--states must be >= 1, got 0"),
        (["diagnose", *LAP9, "--check", "strong_hnag", "--states", "-3"],
         "--states must be >= 1, got -3"),
        (["diagnose", *LAP9, "--check", "strong_partial", "--mu-hat-frac", "2"],
         MU_HAT_ERROR + "2.0"),
        (["diagnose", *LAP9, "--check", "strong_partial", "--mu-hat-frac", "-0.5"],
         MU_HAT_ERROR + "-0.5"),
        (["diagnose", *LAP9, "--check", "strong_partial", "--mu-hat-frac", "nan"],
         MU_HAT_ERROR + "nan"),
        (["rates", "--kappas", "0.5"], "kappa must be >= 1"),
        (["rates", "--kappas", "abc"], "could not convert string to float: 'abc'"),
        (["run", "--n", "0", "--method", "hnag", "--out", "@OUT"],
         "grid parameter must be >= 1, got 0"),
        (["run", *LAP9, "--max-iter", "0", "--method", "hnag", "--out", "@OUT"],
         "max_iter must be >= 1"),
        (["run", *LAP9, "--tol", "0", "--method", "hnag", "--out", "@OUT"],
         "tol_rel_grad must lie in (0, 1)"),
        (["compare", *LAP9, "--tol", "2", "--methods", "gd,hnag"],
         "tol_rel_grad must lie in (0, 1)"),
        (["diagnose", *LAP9, "--tol", "nan", "--check", "thm_hnag_funcval"],
         "tol_rel_grad must lie in (0, 1)"),
        (["run", *PIECEWISE, "--mu", "2", "--lipschitz", "1", "--method", "hnag",
          "--out", "@OUT"], "need 0 < mu < lipschitz"),
        (["run", *PIECEWISE, "--eps", "0", "--method", "hnag", "--out", "@OUT"],
         "eps must be positive"),
        (["compare", *PIECEWISE, "--d", "0", "--methods", "gd,hnag"],
         "d and p must be >= 1"),
        (["diagnose", *PIECEWISE, "--p", "0", "--check", "strong_hnag"],
         "d and p must be >= 1"),
        (["run", *LOGISTIC, "--lam", "0", "--method", "hnag", "--out", "@OUT"],
         "lam must be positive"),
        (["compare", *LOGISTIC, "--lam", "-1", "--methods", "gd,hnag"],
         "lam must be positive"),
        (["run", *LOGISTIC, "--m", "0", "--method", "hnag", "--out", "@OUT"],
         "d and m must be >= 1"),
        (["run", *LAP9, "--method", "hnag", "--out", "@OUT", "@BADSEED"],
         "AGMX_SEED must be a decimal integer, got 'abc'"),
        # non-finite inputs, rejected before the minimizer oracle runs
        (["run", *PIECEWISE, "--lipschitz", "inf", "--method", "hnag", "--out", "@OUT"],
         "need finite mu, lipschitz and eps, got 1.0, inf, 1e-06"),
        (["run", *PIECEWISE, "--eps", "nan", "--method", "hnag", "--out", "@OUT"],
         "need finite mu, lipschitz and eps, got 1.0, 10000.0, nan"),
        (["run", *LOGISTIC, "--lam", "inf", "--method", "hnag", "--out", "@OUT"],
         "lam must be finite, got inf"),
        (["run", *LOGISTIC, "--lam", "nan", "--method", "hnag", "--out", "@OUT"],
         "lam must be finite, got nan"),
        (["rates", "--kappas", "100,nan"], "kappa must be finite, got nan"),
        (["rates", "--kappas", "inf"], "kappa must be finite, got inf"),
        # the solver config is checked before the problem is built
        (["run", *PIECEWISE, "--tol", "2", "--method", "hnag", "--out", "@OUT"],
         "tol_rel_grad must lie in (0, 1)"),
        (["compare", *LOGISTIC, "--max-iter", "0", "--methods", "gd,hnag"],
         "max_iter must be >= 1"),
        (["diagnose", *LAP9, "--check", "strong_hnag", "--tol", "5", "--max-iter", "0"],
         "tol_rel_grad must lie in (0, 1)"),
        (["diagnose", *PIECEWISE, "--check", "strong_hnag_plus", "--max-iter", "0"],
         "max_iter must be >= 1"),
        (["diagnose", *PIECEWISE, "--check", "prop_quadratic", "--tol", "2"],
         "tol_rel_grad must lie in (0, 1)"),
        (["rates", "--kappas", ","], "rates needs at least 1 method and 1 kappa"),
        (["rates", "--methods", ","], "rates needs at least 1 method and 1 kappa"),
        # a problem flag the chosen builder does not take
        (["run", *LAP9, "--d", "20", "--lam", "5", "--method", "nag", "--out", "@OUT"],
         "--problem laplacian2d takes no --d, --lam"),
        (["compare", *PIECEWISE, "--n", "9", "--methods", "gd,hnag"],
         "--problem piecewise takes no --n"),
        (["run", *PIECEWISE, "--m", "3", "--method", "hnag", "--out", "@OUT"],
         "--problem piecewise takes no --m"),
        (["diagnose", *LOGISTIC, "--eps", "1e-3", "--check", "strong_hnag"],
         "--problem logistic takes no --eps"),
        (["diagnose", *LOGISTIC, "--lipschitz", "50", "--mu", "2", "--check", "strong_hnag"],
         "--problem logistic takes no --lipschitz, --mu"),
        (["run", "--p", "3", "--method", "hnag", "--out", "@OUT"],
         "--problem laplacian2d takes no --p"),
        # checked before the build, so the oracle never runs
        (["diagnose", *LOGISTIC, "--check", "strong_partial", "--mu-hat-frac", "2"],
         MU_HAT_ERROR + "2.0"),
        (["run", *LAP9, "--method", "hnag", "--out", ""],
         "run requires --out for the trace CSV"),
        # the box ordering is no longer a method, under either name
        (["run", *LAP9, "--method", "hnagbox", "--out", "@OUT"], "unknown method 'hnagbox'"),
        (["run", *LAP9, "--method", "hnag_box", "--out", "@OUT"],
         "unknown method 'hnag_box'"),
    ])
    def test_one_error_line(self, argv, message, tmp_path, monkeypatch, capsys):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the minimizer oracle ran")
        monkeypatch.setattr(cli.analysis, "find_minimizer", no_oracle)
        if argv[-1] == "@BADSEED":
            argv = argv[:-1]
            monkeypatch.setenv("AGMX_SEED", "abc")
        out = tmp_path / "out.csv"
        argv = [str(out) if a == "@OUT" else a for a in argv]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", *LAP9, "--method", "hnag", "--out", "@OUT", "--format", "json"],
        ["diagnose", *LAP9, "--check", "strong_hnag", "--out", "@OUT", "--format", "csv"],
    ])
    def test_format_only_for_tables(self, argv, tmp_path, capsys):
        # --format belongs to compare and rates; run and diagnose write CSV
        out = tmp_path / "out.csv"
        assert run_cli([str(out) if a == "@OUT" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        [*LOGISTIC, "--lam", "1e308"],
        [*PIECEWISE, "--mu", "1e-300", "--lipschitz", "1e300"],
        [*PIECEWISE, "--lipschitz", "1e300"],
    ])
    def test_oracle_overflow_prints_no_warning(self, flags, tmp_path, capsys):
        # Newton-CG's difference quotients overflow before its gradient check
        # stops the oracle; numpy's warnings must not print ahead of the error
        out = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["run", "--method", "hnag", "--out", str(out), *flags]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == \
            "error: minimizer oracle: non-finite gradient at call 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--n", "3", "--check", "strong_hnag", "--states", str(10**18)],
        ["run", "--method", "hnag", "--n", str(10**9), "--out", "@OUT"],
        ["run", "--method", "hnag", *PIECEWISE, "--d", str(10**17), "--out", "@OUT"],
    ])
    def test_too_large_to_allocate(self, argv, tmp_path, capsys):
        # each first array is over 2**57 bytes, more than any address space
        # maps, so numpy's MemoryError comes at once, with nothing touched
        out = tmp_path / "t.csv"
        assert run_cli([str(out) if a == "@OUT" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_oracle_start(self, tmp_path, monkeypatch, capsys):
        # an objective whose gradient at 0 is not finite stops the oracle at once
        calls = []

        def grad(x):
            calls.append(1)
            return np.full(x.shape, np.nan)

        bad = SimpleObjective(value_fn=lambda x: 0.0, grad_fn=grad, dim=4,
                              mu=1.0, lipschitz=2.0)
        monkeypatch.setattr(cli, "_build_problem", lambda args, seed: bad)
        rc = run_cli(["run", "--method", "hnag", "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: minimizer oracle: ||grad f(0)|| is nan, not finite\n"
        assert len(calls) == 1


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

    @pytest.mark.parametrize("regime,rate_regime", [
        ("general", RateRegime.GENERAL),
        ("asymptotic", RateRegime.QUADRATIC_OR_ASYMPTOTIC),
    ])
    def test_regime_selects_the_rate(self, regime, rate_regime, tmp_path, capsys):
        assert run_cli(["run", *LAP9, "--method", "hnag", "--regime", regime,
                        "--out", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["theoretical_rate"] == theoretical_rate(
            MethodKind.HNAG, summary["kappa"], rate_regime)
        assert run_cli(["compare", *LAP9, "--methods", "nag,hnag", "--regime", regime,
                        "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["theoretical_rate"] for r in rows] == [
            theoretical_rate(m, rows[0]["kappa"], rate_regime)
            for m in (MethodKind.NAG, MethodKind.HNAG)]

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

    def test_real_divergence(self, tmp_path, monkeypatch, understated_laplacian, capsys):
        # hnag genuinely blows up on a Laplacian declaring L/4 (see
        # test_solvers); the CLI must surface it as exit code 3
        monkeypatch.setitem(problems.BUILDERS, "laplacian2d", understated_laplacian)
        rc = run_cli(["run", "--problem", "laplacian2d", "--n", "19",
                      "--method", "hnag", "--seed", "42",
                      "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert capsys.readouterr().err == \
            "error: hnag produced non-finite values at iteration 177\n"

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

    def test_seed_env_var_draws_piecewise_problem(self, tmp_path, monkeypatch, capsys):
        # the seed draws the piecewise problem as well as x0
        flags = ["--problem", "piecewise", "--d", "20", "--method", "hnag"]
        flag = tmp_path / "flag.csv"
        env = tmp_path / "env.csv"
        other = tmp_path / "other.csv"
        assert run_cli(["run", *flags, "--seed", "5", "--out", str(flag)]) == 0
        monkeypatch.setenv("AGMX_SEED", "5")
        assert run_cli(["run", *flags, "--out", str(env)]) == 0
        assert flag.read_bytes() == env.read_bytes()
        # explicit flag wins over the environment
        monkeypatch.setenv("AGMX_SEED", "99")
        assert run_cli(["run", *flags, "--seed", "5", "--out", str(other)]) == 0
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
        assert list(report)[:3] == ["check", "iterations", "status"]
        assert report["status"] == "converged"
        assert report["pass"] is True
        assert report["violated_step"] is None
        f = build_laplacian2d(39)
        trace = solve(f, SolverConfig(method=MethodKind.HNAG), Rng(42).uniform(f.dim))
        rep = contraction_residuals(ContractionTheorem.THM_HNAG_FUNCVAL, trace, f)
        assert report["tolerance"] == rep.allowance
        assert report["max_violation"] == rep.residuals.max()

    @pytest.mark.parametrize("check", ["thm_hnag_funcval", "thm_hnag_plus",
                                       "prop_quadratic"])
    def test_unconverged_trace_exits_2(self, check, capsys):
        # the five steps pass the check, but the trace stopped at --max-iter
        rc = run_cli(["diagnose", "--problem", "laplacian2d", "--n", "39",
                      "--check", check, "--max-iter", "5"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert report["iterations"] == 5
        assert report["status"] == "max_iter"
        assert report["pass"] is True

    def test_prop_quadratic_reads_the_built_problem(self, monkeypatch, capsys):
        # a problem with a constant Hessian (hessian_lipschitz 0.0) qualifies,
        # whatever --problem names it
        monkeypatch.setitem(problems.BUILDERS, "piecewise",
                            lambda seed, **_: build_laplacian2d(9))
        assert run_cli(["diagnose", *PIECEWISE, "--check", "prop_quadratic"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("check", ["strong_hnag", "strong_partial"])
    def test_sweep_draws_no_start_vector(self, check, monkeypatch, capsys):
        # the one Rng a sweep makes is its states' Rng(seed + 1)
        seeds = []
        init = problems.Rng.__init__

        def recorded(self, seed=42):
            seeds.append(seed)
            init(self, seed)

        monkeypatch.setattr(problems.Rng, "__init__", recorded)
        assert run_cli(["diagnose", *LAP9, "--check", check, "--states", "4",
                        "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert seeds == [4]

    def test_strong_sweep(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = run_cli(["diagnose", *LAP9, "--check", "strong_partial",
                      "--mu-hat-frac", "0.99", "--states", "12",
                      "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "k,lhs,rhs,residual"
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_method_flag_is_gone(self, capsys):
        # the check fixes the method, so diagnose takes no --method
        rc = run_cli(["diagnose", *LAP9, "--check", "strong_hnag", "--method", "hnag"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--method" in err

    @pytest.mark.parametrize("problem,seed", [("piecewise", 42), ("logistic", 42),
                                              ("logistic", 7)])
    def test_full_partial_shift_passes_on_nonquadratics(self, problem, seed, capsys):
        # at mu_hat = mu the bound is an identity up to grad f(x*) . (x - x*);
        # with the Newton-CG minimizer these cases pass within the 1e-12 allowance
        rc = run_cli(["diagnose", "--problem", problem, "--check", "strong_partial",
                      "--mu-hat-frac", "1.0", "--seed", str(seed)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

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


def read_csv(path):
    """(header, columns) of a CSV written by the CLI, each cell through float()."""
    lines = path.read_text().splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), [np.array(col) for col in zip(*rows)]


def same_bits(parsed, column):
    return parsed.tobytes() == np.asarray(column, dtype=np.float64).tobytes()


class TestOutputFormat:
    """Every cell the CLI writes parses back to the library's number bit for bit."""

    @pytest.mark.parametrize("flags,problem", [
        (LAP9, lambda: build_laplacian2d(9)),
        (["--problem", "laplacian2d"], lambda: build_laplacian2d(39)),
        ([*PIECEWISE, "--d", "20"], lambda: ensure_minimizer(build_piecewise(d=20, seed=3))),
    ])
    @pytest.mark.parametrize("method", [MethodKind.HNAG, MethodKind.TM])
    def test_trace_csv(self, flags, problem, method, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(["run", *flags, "--method", method.value, "--seed", "3",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        f = problem()
        trace = solve(f, SolverConfig(method=method), Rng(3).uniform(f.dim))
        header, columns = read_csv(out)
        assert ",".join(header) == cli.TRACE_CSV_HEADER
        for name, parsed in zip(header, columns):
            assert same_bits(parsed, getattr(trace, name)), name

    @pytest.mark.parametrize("check", ["thm_hnag_plus", "strong_partial"])
    def test_residual_csv(self, check, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli(["diagnose", *LAP9, "--check", check, "--states", "7",
                        "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        f = build_laplacian2d(9)
        if check == "thm_hnag_plus":
            trace = solve(f, SolverConfig(method=MethodKind.HNAG_PLUS), Rng(5).uniform(f.dim))
            report = contraction_residuals(ContractionTheorem.THM_HNAG_PLUS, trace, f)
        else:
            kind = LyapunovKind.E_PARTIAL
            report = strong_lyapunov_sweep(kind, f, Rng(6), 7, (1e-3, 1e-1, 1.0, 10.0),
                                           0.5 * f.mu)
        header, columns = read_csv(out)
        assert header == ["k", "lhs", "rhs", "residual"]
        for parsed, column in zip(columns, (report.k, report.lhs, report.rhs,
                                            report.residuals)):
            assert same_bits(parsed, column)

    def test_diverged_compare_row(self, monkeypatch, understated_laplacian, capsys):
        # under L/4 both methods diverge: a diverged row counts the steps to
        # divergence and has no measured rate, nan in CSV and null in JSON
        monkeypatch.setitem(problems.BUILDERS, "laplacian2d", understated_laplacian)
        argv = ["compare", "--problem", "laplacian2d", "--n", "19",
                "--methods", "hnag,nag", "--seed", "42"]
        assert run_cli(argv) == 2
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["method", "hnag", "nag"]
        assert [r[2] for r in rows[1:]] == ["177", "204"]
        assert [r[4] for r in rows[1:]] == ["nan", "nan"]
        assert run_cli([*argv, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert [r["method"] for r in payload] == ["hnag", "nag"]
        for row, cells in zip(payload, rows[1:]):
            assert row["iterations"] == int(cells[2])
            assert row["measured_rate"] is None
            assert row["theoretical_rate"] == float(cells[5])
