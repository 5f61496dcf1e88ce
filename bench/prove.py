#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 bench/prove.py --workloads all --seeds 1-10 [--write bench/baseline.json]

Each (workload, seed) is one ``bench/run.py`` process with tracing off and
``run_seconds`` from BENCHMARK.json, run one after another.  For every metric
this prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median, next to the metric's bound; a
spread at or above a third of its bound is flagged (``setup_s`` excepted,
its spread is not gated).  ``--write`` stores the summary, the raw values
and the environment stamp as the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):]) if lines and lines[0].startswith("env ") else {}
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return env, result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--write", default=None)
    args = parser.parse_args()

    names = ([w["name"] for w in SPEC["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = seeds_of(args.seeds)
    summary, env, worst = {}, {}, 0.0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            env, result = run_once(name, seed, args.seconds)
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary[name] = {k: summarize(v) for k, v in values.items()}
        for key, s in summary[name].items():
            flag = ""
            if key != "setup_s":
                worst = max(worst, s["spread"] / bounds[key])
                flag = "  <-- spread >= bound/3" if s["spread"] >= bounds[key] / 3 else ""
            print(f"  {name:14s} {key:18s} median={s['median']:<12.6g} "
                  f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
                  f"spread={s['spread']:.4f} bound={bounds[key]}{flag}", flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.write:
        env.pop("seed", None)
        Path(args.write).write_text(json.dumps({
            "env": env, "seeds": seeds, "run_seconds": args.seconds,
            "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
