import os
import subprocess
import sys

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
