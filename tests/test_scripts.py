import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np

import agmx
from agmx import CHECKS, MethodKind
from agmx.cli import COMPARISON_CSV_HEADER

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPTS = os.path.join(ROOT, "scripts")


def test_verify_theory_passes_every_check(tmp_path):
    # every CHECKS name on lap39, all but prop_quadratic on the two
    # nonquadratics, strong_partial at mu_hat = 0.99 mu on each, and 2 shift
    # schedules, at two seeds; run from outside the repository, the script
    # still finds its own agmx
    for seed in (42, 7):
        proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "verify_theory.py"),
                               "--seed", str(seed)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == "0 failures"
        assert sum(line.startswith("PASS ") for line in lines) == 21
        assert not any(line.startswith("FAIL ") for line in lines)
        checks = {}     # problem -> the checks that passed on it
        for check, problem in re.findall(r"^PASS (\S+) on (\S+): ", proc.stdout, re.M):
            checks.setdefault(problem, set()).add(check)
        assert set(CHECKS) <= checks["laplacian2d(n=39)"]
        assert [p for p in checks if "prop_quadratic" in checks[p]] == ["laplacian2d(n=39)"]


def test_benchmark_laplacian_table(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "benchmark_laplacian.py"),
                           "--sizes", "9,19", "--skip-gd"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == COMPARISON_CSV_HEADER
    for n in (9, 19):
        rows = [line for line in lines if line.endswith(f"  # n={n}")]
        assert [row.split(",")[0] for row in rows] == ["hnag", "hnag_plus", "tm", "nag"]
    assert lines[-1] == ("# hnag iteration growth n=9->n=19: 1.798 "
                         "(kappa ratio ~4 -> ~2 expected)")


def test_trace_digests_lap9():
    # the problem's surface, then one line per method, each with the
    # gradient-only solve's parity, and a rerun prints the same bytes
    argv = [sys.executable, "scripts/trace_digests.py", "--problems", "lap9", "--seeds", "42"]
    runs = [subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    problem, *lines = runs[0].stdout.splitlines()
    f = agmx.build_laplacian2d(9)
    surface = dict(cell.split("=") for cell in problem.split()[2:])
    assert problem.split()[:2] == ["lap9", "problem"]
    assert surface.pop("minimizer") == hashlib.sha256(
        b"<f8:" + np.zeros(81).tobytes()).hexdigest()
    assert surface.pop("description") == hashlib.sha256(
        b'{"kind": "laplacian2d", "n": 9}').hexdigest()
    assert surface == {"seed": "42", "dim": "81", "mu": repr(f.mu),
                       "lipschitz": repr(f.lipschitz), "hessian_lipschitz": "0.0"}
    assert [line.split()[:3] for line in lines] == [["lap9", m.value, "seed=42"]
                                                     for m in MethodKind]
    for line in lines:
        fields = dict(cell.split("=") for cell in line.split()[2:])
        assert fields.pop("lean") == "same"
        assert fields["status"] == "converged"
        digests = list(fields.items())[3:]
        assert [name for name, _ in digests] == [
            "k", "f_gap", "grad_norm", "x_err_sq", "y_err_sq", "E", "E_shifted",
            "grad_shifted_sq"]
        assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in digests)


def test_cli_digests_lap9(tmp_path):
    # one line per command, a rerun prints the same bytes, and the grid
    # reaches all four subcommands
    argv = [sys.executable, os.path.join(SCRIPTS, "cli_digests.py"), "--problems", "lap9"]
    runs = [subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 6 + 1 + 2 + 2 + 2 + 2 + 2 + 4
    assert {line.split()[0] for line in lines} == {"run", "compare", "diagnose", "rates"}
    for line in lines:
        command, cells = line.split(" | ")
        fields = dict(cell.split("=") for cell in cells.split())
        assert list(fields) == ["exit", "stdout", "stderr", "out"]
        assert all(re.fullmatch("[0-9a-f]{64}", fields[k]) for k in ("stdout", "stderr"))
        assert fields["out"] == "none" or re.fullmatch("[0-9a-f]{64}", fields["out"])
    exits = [line.split(" | ")[1].split()[0] for line in lines]
    # every method of the compare grid converges on lap9
    assert [e for line, e in zip(lines[:-6], exits)
            if line.startswith("compare")] == ["exit=0"] * 2
    assert exits[-6:] == ["exit=2"] * 2 + ["exit=1"] * 4


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_benchmark_patch_targets_exist(monkeypatch):
    # the benchmark patches these bindings through owner.__dict__[attr]
    path = os.path.join(ROOT, "bench", "instrument.py")
    spec = importlib.util.spec_from_file_location("bench_instrument", path)
    instrument = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, instrument)   # for its dataclasses
    spec.loader.exec_module(instrument)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in instrument.TARGETS if attr not in vars(owner)]
    missing += [(cls.__name__, op) for cls in instrument.OBJECTIVES
                for op in ("value", "gradient") if op not in vars(cls)]
    assert missing == []


def test_benchmark_correctness_gate():
    # two passes of the certify workload; the gate times nothing
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "2026", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_benchmark_correctness_gate_small_nonquad():
    # two passes of piecewise and logistic jobs, each behind the minimizer oracle
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-nonquad",
                           "--seed", "2026", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_benchmark_correctness_gate_lap178_solve():
    # two passes of compare, run, a strong_hnag sweep and the run's
    # certificate at n = 178, every iteration count checked against its record
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lap178-solve",
                           "--seed", "2026", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
