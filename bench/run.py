#!/usr/bin/env python3
"""agmx benchmark: end-to-end and per-layer numbers for three workloads.

Run from the repository root:

    python3 bench/run.py --workload lap178-solve --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 40     # every workload

One process is the single caller of a closed loop: the jobs of a workload
pass (see ``workloads.py``) run back to back, and passes repeat until
``--seconds`` would be exceeded (at least two, so that the byte-identical
rerun check has a reference).  Timings are medians over passes.

``--trace 0`` reports the end-to-end metrics with only oracle counters and
two phase clocks installed.  ``--trace 1`` alternates untraced and traced
passes, records one span per public call (``instrument.py``) and reports the
per-layer metrics, ``trace.overhead_s`` (traced minus untraced pass time),
and micro loops of the step kernels and Lyapunov sweeps.  Spans of the last
traced pass and every raw number go to ``.bench_out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed output check makes the exit code 1.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads: the single-threaded baseline.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_agmx():
    """Import agmx from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "agmx" / "__init__.py").is_file():
        raise SystemExit(f"bench: no agmx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import agmx
    if Path(agmx.__file__).resolve().parent != SRC / "agmx":
        raise SystemExit(f"bench: imported agmx from {agmx.__file__}, not {SRC}")
    return agmx


agmx = _import_agmx()

import numpy as np  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402
from agmx import analysis, problems, solvers  # noqa: E402
from agmx.lyapunov import LyapunovKind  # noqa: E402
from instrument import lyapunov  # noqa: E402
from agmx.solvers import MethodKind  # noqa: E402

_clock = time.perf_counter

END_TO_END = {   # name -> unit
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "certify_s": "s",
    "grad_evals_per_s": "1/s", "iterations": "count", "grad_evals": "count",
    "value_evals": "count", "import_s": "s", "peak_rss_mb": "MB",
}
STEP_LOOP = (200, 5)        # steps per repeat, repeats
SWEEP_PROBE_STATES = 4
IMPORTS_PER_PASS = 2        # a 0.4 s sample is noisy; long passes give few of them
EXPECTED = HERE / "expected_iterations.json"


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if "_us" in name:
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("floor_ratio"):
        return "ratio"
    return "count"


# -- environment ------------------------------------------------------------

def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return {"cpu_model": fields.get("Model name"), "l2": fields.get("L2 cache"),
            "l3": fields.get("L3 cache")}


def _blas() -> tuple[str | None, int | None]:
    """OpenBLAS version from numpy's build info, and its live thread count."""
    version = None
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    import ctypes
    import glob
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def _commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree (git may not look above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def env_stamp(seed: int) -> dict:
    import platform

    import scipy
    blas_version, blas_live = _blas()
    return {
        "nproc": os.cpu_count(), **_lscpu(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": blas_version,
        "blas_threads_pinned": int(BLAS_THREADS), "blas_threads_live": blas_live,
        "agmx": agmx.__version__, "commit": _commit(), "seed": seed,
    }


# -- one pass ---------------------------------------------------------------

def time_import() -> float:
    """Wall time of a fresh interpreter running ``import agmx.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    t0 = _clock()
    subprocess.run([sys.executable, "-c", "import agmx.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120, capture_output=True)
    return _clock() - t0


def run_pass(jobs, traced: bool):
    """Run every job once under a Meter or a Tracer."""
    probe = instrument.Tracer() if traced else instrument.Meter()
    results = []
    certify = 0.0
    with probe:
        t0 = _clock()
        for job in jobs:
            before = dict(probe.phase) if not traced else None
            res = workloads.execute(job)
            if job.cmd in ("diagnose", "certify") and not traced:
                inner = sum(probe.phase[k] - before.get(k, 0.0) for k in ("setup", "solve"))
                certify += res.seconds - inner
            results.append(res)
        wall = _clock() - t0
    rec = {
        "traced": traced,
        "wall_s": wall,
        "iterations": sum(workloads.pass_iterations(jobs, results).values()),
        "grad_evals": probe.oracle.total("gradient"),
        "value_evals": probe.oracle.total("value"),
        "oracle": {f"{k}.{op}": n for (k, op), n in sorted(probe.oracle.by_kind().items())},
        "output_bytes": sum(len(r.stdout.encode()) + sum(len(b) for b in r.files.values())
                            for r in results),
        "job_s": {j.label: r.seconds for j, r in zip(jobs, results)},
    }
    if not traced:
        rec.update(setup_s=probe.phase["setup"], solve_s=probe.phase["solve"],
                   certify_s=certify,
                   grad_evals_per_s=(probe.oracle.total("gradient", "solve")
                                     / max(probe.phase["solve"], 1e-9)))
    return rec, results, probe


# -- micro loops (traced run only) ------------------------------------------

def step_loop(problem, seed: int) -> dict:
    """Per-step time and gradients per step of each method's own step loop."""
    f = problems.rebuild(problem.description)
    x0 = problems.Rng(seed).uniform(f.dim)
    steps, repeats = STEP_LOOP
    out = {}
    for name in workloads.METHODS.split(","):
        method = solvers.parse_method(name)
        params = solvers.make_params(method, f.mu, f.lipschitz)
        with instrument.Meter() as meter:
            state = solvers.init_state(method, f, x0, params)
            grads0 = meter.oracle.total("gradient")
            times = []
            for _ in range(repeats):
                t0 = _clock()
                for _ in range(steps):
                    state = solvers.step(method, state, f, params)
                times.append(_clock() - t0)
            grads = meter.oracle.total("gradient") - grads0
        out[f"solvers.step_us.{name}"] = 1e6 * statistics.median(times) / steps
        out[f"solvers.grads_per_iter.{name}"] = grads / (steps * repeats)
    return out


def sweep_probe(problem, seed: int) -> dict:
    """Oracle evaluations per state of each strong-Lyapunov check."""
    f = analysis.ensure_minimizer(problems.rebuild(problem.description))
    xstar = np.asarray(f.minimizer)
    rng = problems.Rng(seed + 1)
    out = {}
    for kind in LyapunovKind:
        method = MethodKind.HNAG_PLUS if kind is LyapunovKind.E_HNAG_PLUS else MethodKind.HNAG
        params = solvers.make_params(method, f.mu, f.lipschitz)
        beta = params.alpha_beta / params.alpha
        mu_hat = 0.5 * f.mu if kind is LyapunovKind.E_PARTIAL else 0.0
        states = [(xstar + rng.standard_normal(f.dim), xstar + rng.standard_normal(f.dim))
                  for _ in range(SWEEP_PROBE_STATES)]
        with instrument.Meter() as meter:
            for x, y in states:
                lyapunov.strong_lyapunov_terms(kind, f, x, y, beta, mu_hat)
        evals = meter.oracle.total("gradient") + meter.oracle.total("value")
        out[f"lyapunov.evals_per_state.{kind.value}"] = evals / SWEEP_PROBE_STATES
    return out


# -- one workload -----------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    expected = None
    if EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text()).get(name, {}).get(str(seed))
    checks = []          # (what, errors) of every attempted job and run-level check
    passes, layer_runs, imports = [], [], []
    reference = None
    tracer = None
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as outdir:
        jobs = w.plan(seed, outdir)
        start = _clock()
        while True:
            traced = trace and len(passes) % 2 == 1
            rec, results, probe = run_pass(jobs, traced)
            errors = workloads.check_pass(jobs, results, expected)
            outputs = [workloads.normalized_output(j, r) for j, r in zip(jobs, results)]
            if reference is None:
                reference = outputs
            for i, job in enumerate(jobs):
                if outputs[i] != reference[i]:
                    errors[i].append("output differs from the first pass")
                checks.append((job.label, errors[i]))
            if traced:
                tracer = probe
                lm, breakdown = instrument.layer_metrics(probe, rec["wall_s"])
                for job, res in zip(jobs, results):
                    if job.argv is not None:
                        key = f"cli.main_s.{job.cmd}"
                        breakdown[key] = breakdown.get(key, 0.0) + res.seconds
                layer_runs.append((lm, breakdown))
            elif not trace:
                imports += [time_import() for _ in range(IMPORTS_PER_PASS)]
            passes.append(rec)
            # stop when one more pass of the mean length would overrun
            elapsed = _clock() - start
            if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break

        for p in {j.problem.label: j.problem for j in jobs}.values():
            try:
                errs = workloads.round_trip_errors(p, seed)
            except Exception as exc:   # a broken rebuild is a failed check
                errs = [f"{type(exc).__name__}: {exc}"]
            checks.append((f"round-trip:{p.label}", errs))
        plain = [p for p in passes if not p["traced"]]
        for p in passes:
            if p["traced"]:
                same = (p["oracle"] == plain[0]["oracle"]
                        and p["iterations"] == plain[0]["iterations"])
                checks.append(("trace-counts", [] if same else [
                    f"traced counts {p['oracle']} != untraced {plain[0]['oracle']}"]))

        if trace:
            metrics = {}
            for key in layer_runs[0][0]:
                metrics[key] = _median([lm[key] for lm, _ in layer_runs])
            metrics["cli.output_bytes"] = plain[0]["output_bytes"]
            metrics["trace.overhead_s"] = (
                _median([p["wall_s"] for p in passes if p["traced"]])
                - _median([p["wall_s"] for p in plain]))
            primary = w.primary(seed)
            metrics.update(step_loop(primary, seed))
            metrics.update(sweep_probe(primary, seed))
            breakdown = {k: _median([b.get(k, 0.0) for _, b in layer_runs])
                         for k in layer_runs[0][1]}
        else:
            metrics = {k: _median([p[k] for p in plain])
                       for k in ("wall_s", "setup_s", "solve_s", "certify_s",
                                 "grad_evals_per_s")}
            for k in ("iterations", "grad_evals", "value_evals"):
                metrics[k] = plain[0][k]
            metrics["import_s"] = _median(imports)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            breakdown = {}

    failed = [(what, errs) for what, errs in checks if errs]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "fail_rate": len(failed) / len(checks),
        "failures": [{"check": what, "errors": errs} for what, errs in failed][:50],
        "passes": passes, "import_s_samples": imports,
        "metrics": metrics, "breakdown": breakdown,
    }
    if tracer is not None:
        result["spans_last_traced_pass"] = tracer.dump()
    return result


def report(result: dict, stamp: dict) -> None:
    """Human-readable lines; also writes the full result under .bench_out/."""
    name = result["workload"]
    path = OUT / f"{name}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps({"env": stamp, **result}))
    n = sum(1 for p in result["passes"] if not p["traced"])
    print(f"== {name}  seed={result['seed']}  trace={result['trace']}  "
          f"passes={len(result['passes'])} (untraced {n})  -> {path.relative_to(ROOT)}")
    for key, value in {**result["metrics"], "fail_rate": result["fail_rate"]}.items():
        print(f"   {key:34s} {value:>16.6g} {unit_of(key) if key != 'fail_rate' else 'ratio'}")
    for key, value in result["breakdown"].items():
        print(f"   ({key:32s} {value:>16.6g} {unit_of(key)})")
    for f in result["failures"]:
        print(f"   FAIL {f['check']}: {'; '.join(f['errors'])[:300]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    stamp = env_stamp(args.seed)
    print("env " + json.dumps(stamp))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        report(r, stamp)

    def entry(key, value):
        return {"value": value, "unit": unit_of(key)}

    if len(results) == 1:
        metrics = {k: entry(k, v) for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": entry(k, v)
                   for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
