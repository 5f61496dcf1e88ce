#!/usr/bin/env python3
"""SHA-256 digests of the CLI's outputs over a grid of commands.

Runs each command in-process through ``agmx.cli.main``, with its output file
in a temporary directory, and prints one line per command: the argv (the
output path written as OUT), the exit code, and the SHA-256 of stdout, of
stderr and of the output file ("none" when it was not written).  Compare's
``runtime_s`` is blanked first, in CSV and in JSON, as it changes from run
to run.  Two trees whose lines match give byte-identical CLI outputs on the
grid, so diffing this output is the byte-identity check of the CLI, as
``trace_digests.py`` is of the traces.  Every warning is printed, each time
it is raised, so a command's stderr does not depend on the ones before it.

Problems are ``lapN`` (laplacian2d on an N x N grid, seed 42), ``piecewise``
(seed 7) and ``logistic`` (seed 42), builder defaults otherwise.  For each:
all six ``diagnose`` checks with their residual CSVs, ``strong_partial
--mu-hat-frac 1.0``, ``run`` under both regimes, and ``compare`` as CSV and
JSON.  Then, whatever the problems, ``rates`` as CSV and JSON, a
``strong_partial`` sweep at piecewise d = 1001 over 25 draw blocks, one at
Laplacian n = 65 (d = 4225, odd), whose y rows a second thread draws, two
``diagnose`` checks that exit 2 (a sweep that fails, a theorem check cut off
at --max-iter), and four error cases, the last a sweep too large to allocate.

Usage: python scripts/cli_digests.py [--problems lap43,lap178,piecewise,logistic]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from agmx import CHECKS, cli

COMPARE_METHODS = "hnag,hnag_plus,nag,tm"
# a sweep of odd d over several draw blocks, the last one partial
SWEEP_BLOCKS = ["diagnose", "--problem", "piecewise", "--d", "1001", "--check",
                "strong_partial", "--states", "99", "--out", "OUT"]
# a sweep of odd d > 4096, whose y rows a worker thread draws
SWEEP_AHEAD = ["diagnose", "--problem", "laplacian2d", "--n", "65", "--check",
               "strong_partial", "--states", "9", "--out", "OUT"]
EXIT_2 = [
    ["diagnose", "--problem", "piecewise", "--seed", "20", "--check", "strong_partial",
     "--mu-hat-frac", "1.0"],
    ["diagnose", "--problem", "laplacian2d", "--n", "43", "--check", "thm_hnag_plus",
     "--max-iter", "5"],
]
ERRORS = [
    ["run", "--method", "nosuch", "--out", "OUT"],
    ["run", "--problem", "laplacian2d", "--d", "20", "--lam", "5", "--method", "nag",
     "--out", "OUT"],
    ["compare", "--methods", "gd,hnag", "--format", "xml"],
    ["diagnose", "--n", "3", "--check", "strong_hnag", "--states", "1000000000000000000"],
]


def flags(name: str) -> list:
    """The problem flags and seed of one grid problem."""
    if name.startswith("lap"):
        return ["--problem", "laplacian2d", "--n", name[3:], "--seed", "42"]
    seeds = {"piecewise": "7", "logistic": "42"}
    if name not in seeds:
        raise ValueError(f"unknown problem {name!r}")
    return ["--problem", name, "--seed", seeds[name]]


def grid(names: list) -> list:
    commands = []
    for name in names:
        p = flags(name)
        commands += [["diagnose", *p, "--check", check, "--out", "OUT"] for check in CHECKS]
        commands.append(["diagnose", *p, "--check", "strong_partial", "--mu-hat-frac", "1.0",
                         "--out", "OUT"])
        commands += [["run", *p, "--method", "hnag", "--regime", regime, "--out", "OUT"]
                     for regime in ("general", "asymptotic")]
        commands += [["compare", *p, "--methods", COMPARE_METHODS, "--format", fmt,
                      "--out", "OUT"] for fmt in ("csv", "json")]
    commands += [["rates", "--out", "OUT"], ["rates", "--format", "json", "--out", "OUT"],
                 SWEEP_BLOCKS, SWEEP_AHEAD]
    return commands + EXIT_2 + ERRORS


def blank_runtime(text: str) -> str:
    """Compare's table with every runtime_s cell blanked."""
    if text.startswith("["):
        rows = json.loads(text)
        for row in rows:
            row["runtime_s"] = None
        return json.dumps(rows)
    lines = [line.split(",") for line in text.splitlines()]
    column = lines[0].index("runtime_s")
    for cells in lines[1:]:
        cells[column] = ""
    return "\n".join(",".join(cells) for cells in lines)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def line(argv: list, out_path: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([out_path if a == "OUT" else a for a in argv])
    out = "none"
    if os.path.exists(out_path):
        with open(out_path, "rb") as stream:
            data = stream.read()
        out = sha(blank_runtime(data.decode()).encode() if argv[0] == "compare" else data)
    return (f"{' '.join(argv)} | exit={rc} stdout={sha(stdout.getvalue().encode())} "
            f"stderr={sha(stderr.getvalue().encode())} out={out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--problems", default="lap43,lap178,piecewise,logistic")
    args = parser.parse_args()

    warnings.simplefilter("always")
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(grid(args.problems.split(","))):
            print(line(argv, os.path.join(tmp, f"{i}.out")), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
