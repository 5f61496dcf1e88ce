#!/usr/bin/env python3
"""Record the deterministic iteration counts that the correctness gate checks.

    python3 bench/record_iterations.py --seeds 0-31,42

For each workload and seed this runs the jobs that report iterations
(compare, run and the diagnose contraction checks) once, checks them, and
writes their counts to ``bench/expected_iterations.json``.  ``run.py`` then
fails any job whose count differs for a recorded seed.  Re-record only when
a change is meant to alter the iterates.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run
import workloads
from prove import seeds_of


def record(name: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=f"record-{name}-", dir=run.OUT) as outdir:
        jobs = [j for j in workloads.WORKLOADS[name].plan(seed, outdir)
                if j.cmd in ("compare", "run") or j.check.startswith(("thm", "prop"))]
        _, results, _ = run.run_pass(jobs, traced=False)
        errors = workloads.check_pass(jobs, results, None)
        bad = {j.label: e for j, e in zip(jobs, errors) if e}
        if bad:
            raise SystemExit(f"{name} seed {seed}: {bad}")
        return workloads.pass_iterations(jobs, results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31,42")
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {str(s): record(name, s) for s in seeds_of(args.seeds)}
        print(f"{name}: {len(table[name])} seeds", flush=True)
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
