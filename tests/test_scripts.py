import importlib.util
import json
import os
import re
import subprocess
import sys

from agmx.cli import COMPARISON_CSV_HEADER

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_verify_theory_passes_every_check():
    # 7 contraction checks, 12 dissipation sweeps, 2 shift schedules
    proc = subprocess.run([sys.executable, "scripts/verify_theory.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "0 failures"
    assert sum(line.startswith("PASS ") for line in lines) == 21
    assert not any(line.startswith("FAIL ") for line in lines)


def test_benchmark_laplacian_table():
    proc = subprocess.run([sys.executable, "scripts/benchmark_laplacian.py",
                           "--sizes", "9,19", "--skip-gd"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == COMPARISON_CSV_HEADER
    for n in (9, 19):
        rows = [line for line in lines if line.endswith(f"  # n={n}")]
        assert [row.split(",")[0] for row in rows] == ["hnag", "hnag_plus", "tm", "nag"]
    assert lines[-1] == ("# hnag iteration growth n=9->n=19: 1.798 "
                         "(kappa ratio ~4 -> ~2 expected)")


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
