"""The benchmark's workloads: the jobs of one pass and the checks on them.

A pass is a fixed list of jobs run back to back by one caller.  A CLI job
calls ``agmx.cli.main`` in-process with the argv a user would type; a
library job certifies a CLI output file through the public API, the way a
user checks a run's Lyapunov certificate without solving again.  Every job
rebuilds its problem, as a fresh CLI process would.

``check_pass`` returns, per job, the reasons its outputs are wrong (empty
when correct).  The checks never time anything.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from agmx import analysis, cli, problems, solvers
from agmx.lyapunov import ContractionTheorem
from instrument import lyapunov
from agmx.solvers import MethodKind, TerminalStatus

TOL = 1e-8                      # the CLI's default relative-gradient tolerance
METHODS = "hnag,hnagplus,nag,tm"
A_MAX = 0.75 * (math.sqrt(2.0) - 1.0)   # largest admissible shift-schedule a
SWEEP_STATES = 100

# Contraction factor of each theorem at (mu, L); the certificate's energy
# must shrink at least this fast per step.
THEOREM_RATE = {
    "thm_hnag_funcval": lambda mu, L: 1.0 / (1.0 + math.sqrt(2.0 * mu / L)),
    "thm_hnag_plus": lambda mu, L: 1.0 / (1.0 + 2.0 * math.sqrt(mu / L)),
    "prop_quadratic": lambda mu, L: 1.0 / (1.0 + 2.0 * math.sqrt(2.0 * mu / L)),
}


@dataclass
class Problem:
    """One benchmark problem: CLI flags and the matching ``rebuild`` description."""

    label: str
    flags: list[str]
    description: dict


def laplacian(n: int) -> Problem:
    return Problem(f"laplacian{n}", ["--problem", "laplacian2d", "--n", str(n)],
                   {"kind": "laplacian2d", "n": n})


def piecewise(seed: int) -> Problem:
    return Problem("piecewise", ["--problem", "piecewise"],
                   {"kind": "piecewise", "d": 100, "p": 5, "mu": 1.0,
                    "lipschitz": 1e4, "eps": 1e-6, "seed": seed})


def logistic(seed: int) -> Problem:
    return Problem("logistic", ["--problem", "logistic"],
                   {"kind": "logistic", "d": 1000, "m": 50, "lam": 0.1, "seed": seed})


@dataclass
class Job:
    """One unit of user work.  ``cmd`` is the CLI subcommand or 'certify'.

    'diagnose' and 'certify' jobs count toward certify_s.
    """

    label: str
    cmd: str
    problem: Problem
    argv: Optional[list[str]] = None   # CLI job
    run: Optional[Callable[[], dict]] = None   # library job
    out: Optional[str] = None          # file the job writes
    check: str = ""                    # diagnose check name, if any


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)   # path -> bytes
    value: Optional[dict] = None                # library job result
    error: Optional[str] = None
    seconds: float = 0.0


def execute(job: Job) -> Result:
    """Run one job and time it; exceptions become a failed result."""
    if job.out and os.path.exists(job.out):
        os.remove(job.out)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                rc, value = cli.main(job.argv), None
            else:
                rc, value = 0, job.run()
    except Exception as exc:   # a crashing job is a failed job, not a dead run
        return Result(1, out.getvalue(), err.getvalue(),
                      error=f"{type(exc).__name__}: {exc}",
                      seconds=time.perf_counter() - t0)
    seconds = time.perf_counter() - t0
    files = {}
    if job.out and os.path.exists(job.out):
        with open(job.out, "rb") as fh:
            files[job.out] = fh.read()
    return Result(rc, out.getvalue(), err.getvalue(), files, value, seconds=seconds)


# -- library jobs -----------------------------------------------------------

def _load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def certify_run(problem: Problem, path: str) -> dict:
    """Check the THM_HNAG_FUNCVAL certificate of an ``agmx run`` trace CSV."""
    f = problems.rebuild(problem.description)
    data = _load_csv(path)
    converged = data[-1, 2] <= TOL * data[0, 2]
    trace = solvers.Trace(
        method=MethodKind.HNAG,
        status=TerminalStatus.CONVERGED if converged else TerminalStatus.MAX_ITER,
        k=data[:, 0].astype(np.int64), f_gap=data[:, 1], grad_norm=data[:, 2],
        x_err_sq=data[:, 3], y_err_sq=data[:, 4], E=data[:, 5], E_shifted=data[:, 6],
    )
    report = lyapunov.contraction_residuals(
        ContractionTheorem.THM_HNAG_FUNCVAL, trace, f)
    rate = analysis.estimate_rate(trace.y_err_sq, metric="err_sq").rate
    kappa = f.lipschitz / f.mu
    sched = lyapunov.shift_schedule(0.5, A_MAX, f.mu / f.lipschitz, trace.iterations)
    return {
        "iterations": trace.iterations,
        "converged": bool(converged),
        "certified": report.passes(),
        "measured_rate": rate,
        "schedule": _schedule_facts(sched, kappa),
    }


def certify_report(problem: Problem, path: str, check: str) -> dict:
    """Re-check a ``diagnose`` contraction report and fit its energy decay."""
    f = problems.rebuild(problem.description)
    data = _load_csv(path)
    fit = analysis.estimate_rate(data[:, 1], metric="energy").rate
    kappa = f.lipschitz / f.mu
    sched = lyapunov.shift_schedule(0.5, A_MAX, f.mu / f.lipschitz, len(data))
    return {
        "steps": len(data),
        "max_residual": float(data[:, 3].max()),
        "energy_rate": fit,
        "theorem_rate": THEOREM_RATE[check](f.mu, f.lipschitz),
        "schedule": _schedule_facts(sched, kappa),
    }


def _schedule_facts(sched, kappa: float) -> dict:
    catalog = analysis.theoretical_rate(
        MethodKind.HNAG, kappa, analysis.RateRegime.QUADRATIC_OR_ASYMPTOTIC)
    return {
        "cancellation_ok": sched.cancellation_ok,
        "monotone": bool((np.diff(sched.mu_k) > 0).all() and (np.diff(sched.r) < 0).all()),
        "above_limit": bool((sched.r > sched.limit_rate).all()),
        "limit_matches_catalog": math.isclose(sched.limit_rate, catalog, rel_tol=1e-12),
    }


# -- workload plans ---------------------------------------------------------

def _solve_jobs(p: Problem, seed: int, outdir: str) -> list[Job]:
    """compare + run + strong_hnag sweep on one problem, then certify the run."""
    base = os.path.join(outdir, p.label)
    run_csv = base + "-run.csv"
    return [
        Job(f"compare:{p.label}", "compare", p,
            argv=["compare", *p.flags, "--methods", METHODS, "--seed", str(seed),
                  "--out", base + "-compare.csv"], out=base + "-compare.csv"),
        Job(f"run:{p.label}", "run", p,
            argv=["run", *p.flags, "--method", "hnag", "--seed", str(seed), "--out", run_csv],
            out=run_csv),
        Job(f"diagnose:{p.label}:strong_hnag", "diagnose", p,
            argv=["diagnose", *p.flags, "--check", "strong_hnag", "--seed", str(seed),
                  "--out", base + "-strong_hnag.csv"],
            out=base + "-strong_hnag.csv", check="strong_hnag"),
        Job(f"certify:{p.label}:run", "certify", p,
            run=lambda: certify_run(p, run_csv), check="thm_hnag_funcval"),
    ]


def _certify_jobs(seed: int, outdir: str) -> list[Job]:
    jobs = []
    lap87 = laplacian(87)
    for check in ("thm_hnag_funcval", "thm_hnag_plus", "prop_quadratic"):
        csv = os.path.join(outdir, f"{lap87.label}-{check}.csv")
        jobs.append(Job(f"diagnose:{lap87.label}:{check}", "diagnose", lap87,
                        argv=["diagnose", *lap87.flags, "--check", check,
                              "--seed", str(seed), "--out", csv], out=csv, check=check))
        jobs.append(Job(f"certify:{lap87.label}:{check}", "certify", lap87,
                        run=lambda c=check, path=csv: certify_report(lap87, path, c),
                        check=check))
    for p in (laplacian(178), logistic(seed)):
        for check in ("strong_hnag", "strong_hnag_plus", "strong_partial"):
            csv = os.path.join(outdir, f"{p.label}-{check}.csv")
            jobs.append(Job(f"diagnose:{p.label}:{check}", "diagnose", p,
                            argv=["diagnose", *p.flags, "--check", check,
                                  "--seed", str(seed), "--out", csv], out=csv, check=check))
    return jobs


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and bench/README.md."""

    name: str
    plan: Callable[[int, str], list[Job]]
    primary: Callable[[int], Problem]    # problem of the per-layer micro loops


WORKLOADS = {
    w.name: w for w in (
        Workload("lap178-solve",
                 lambda seed, outdir: _solve_jobs(laplacian(178), seed, outdir),
                 lambda seed: laplacian(178)),
        Workload("small-nonquad",
                 lambda seed, outdir: (_solve_jobs(piecewise(seed), seed, outdir)
                                       + _solve_jobs(logistic(seed), seed, outdir)),
                 logistic),
        Workload("certify", _certify_jobs, lambda seed: laplacian(87)),
    )
}


# -- checks -----------------------------------------------------------------

def iterations_of(job: Job, res: Result) -> dict:
    """Deterministic iteration counts a job reports, keyed by label."""
    if res.rc != 0 or res.error:
        return {}
    if job.cmd == "compare":
        lines = res.files.get(job.out, b"").decode().splitlines()[1:]
        return {f"{job.label}:{ln.split(',')[0]}": int(ln.split(",")[2]) for ln in lines}
    if job.cmd == "run" or (job.cmd == "diagnose" and job.check.startswith(("thm", "prop"))):
        return {job.label: int(json.loads(res.stdout)["iterations"])}
    return {}


def normalized_output(job: Job, res: Result) -> bytes:
    """Job output with the runtime column of compare tables blanked."""
    blobs = [res.stdout.encode()]
    for path, data in sorted(res.files.items()):
        if job.cmd == "compare":
            rows = [ln.split(",") for ln in data.decode().splitlines()]
            data = "\n".join(",".join(r[:3] + r[4:]) for r in rows).encode()
        blobs.append(data)
    return b"\0".join(blobs)


def _check_job(job: Job, res: Result) -> list[str]:
    """What is wrong with one job's own outputs."""
    if job.cmd == "compare":
        got = iterations_of(job, res)
        if sorted(k.rsplit(":", 1)[1] for k in got) != ["hnag", "hnag_plus", "nag", "tm"]:
            return [f"compare rows {sorted(got)}"]
        if job.problem.description["kind"] == "laplacian2d":
            h = got[f"{job.label}:hnag"]
            if not all(h < n for k, n in got.items() if not k.endswith(":hnag")):
                return [f"hnag is not strictly fewest: {got}"]
        return []
    if job.cmd == "run":
        status = json.loads(res.stdout)["status"]
        return [] if status == "converged" else [f"run status {status}"]
    if job.cmd == "diagnose":
        summary = json.loads(res.stdout)
        e = [] if summary["pass"] is True else [f"{job.check} failed: {summary}"]
        if job.check.startswith("strong") and summary["states"] != SWEEP_STATES:
            e.append(f"sweep covered {summary['states']} states")
        return e
    v = res.value
    e = [f"shift schedule: {[k for k, ok in v['schedule'].items() if not ok]}"] \
        if not all(v["schedule"].values()) else []
    if "certified" in v:
        if not (v["converged"] and v["certified"]):
            e.append(f"run trace not converged/certified: {v}")
    elif not v["energy_rate"] <= v["theorem_rate"] * (1.0 + 1e-9):
        e.append(f"energy decays at {v['energy_rate']!r}, slower than {v['theorem_rate']!r}")
    return e


def _check_certificate(job: Job, res: Result, by_label: dict, errors: list,
                       iters: dict) -> list[str]:
    """A certification job must agree with the CLI output it certified."""
    v = res.value
    if "certified" in v:
        j, run_res = by_label[f"run:{job.problem.label}"]
        if errors[j]:
            return ["its run job failed"]
        summary = json.loads(run_res.stdout)
        e = []
        if v["measured_rate"] != summary["measured_rate"]:
            e.append(f"refit rate {v['measured_rate']!r} != run's "
                     f"{summary['measured_rate']!r}")
        if v["iterations"] != summary["iterations"]:
            e.append("trace length differs from run's iteration count")
        cmp_key = f"compare:{job.problem.label}:hnag"
        if cmp_key in iters and iters[cmp_key] != summary["iterations"]:
            e.append(f"run took {summary['iterations']} iterations, "
                     f"compare's hnag {iters[cmp_key]}")
        return e
    j, diag = by_label[f"diagnose:{job.problem.label}:{job.check}"]
    if errors[j]:
        return ["its diagnose job failed"]
    summary = json.loads(diag.stdout)
    e = []
    if v["max_residual"] != summary["max_violation"]:
        e.append("report CSV disagrees with diagnose's max_violation")
    if v["steps"] != summary["iterations"]:
        e.append("report length differs from diagnose's iterations")
    return e


def check_pass(jobs: list[Job], results: list[Result],
               expected: Optional[dict]) -> list[list[str]]:
    """Reasons each job of one pass is wrong; an empty list means correct.

    Output that cannot be parsed is itself a reason, never a crash.
    """
    errors: list[list[str]] = [[] for _ in jobs]
    by_label = {job.label: (i, res) for i, (job, res) in enumerate(zip(jobs, results))}
    iters = {}
    for i, (job, res) in enumerate(zip(jobs, results)):
        if res.error:
            errors[i].append(res.error)
        elif res.rc != 0:
            errors[i].append(f"exit code {res.rc}: {res.stderr.strip()[:200]}")
        else:
            try:
                iters.update(iterations_of(job, res))
                errors[i] += _check_job(job, res)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                errors[i].append(f"unreadable output: {type(exc).__name__}: {exc}")

    for i, (job, res) in enumerate(zip(jobs, results)):
        if job.cmd == "certify" and not errors[i]:
            try:
                errors[i] += _check_certificate(job, res, by_label, errors, iters)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                errors[i].append(f"unreadable output: {type(exc).__name__}: {exc}")

    if expected is not None:
        for label, n in iters.items():
            want = expected.get(label)
            if want is not None and want != n:
                errors[_owner(jobs, label)].append(
                    f"{label}: {n} iterations, recorded {want}")
    return errors


def _owner(jobs: list[Job], label: str) -> int:
    return next(i for i, job in enumerate(jobs)
                if label == job.label or label.startswith(job.label + ":"))


def pass_iterations(jobs: list[Job], results: list[Result]) -> dict:
    out = {}
    for job, res in zip(jobs, results):
        out.update(iterations_of(job, res))
    return out


def round_trip_errors(problem: Problem, seed: int) -> list[str]:
    """``rebuild(f.description())`` must reproduce f bit for bit."""
    f = problems.rebuild(problem.description)
    if f.description() != problem.description:
        return [f"{problem.label}: description {f.description()} != {problem.description}"]
    g = problems.rebuild(f.description())
    x = problems.Rng(seed).uniform(f.dim)
    same = (f.mu == g.mu and f.lipschitz == g.lipschitz
            and f.value(x) == g.value(x)
            and np.array_equal(f.gradient(x), g.gradient(x)))
    return [] if same else [f"{problem.label}: rebuilt problem differs"]
