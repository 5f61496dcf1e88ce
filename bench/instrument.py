"""Instrumentation the benchmark installs around agmx's public functions.

Two modes, both installed from here and removed again on exit:

* ``Meter`` (tracing off) counts oracle calls and times two coarse phases
  (setup, solve) at the outermost call only.  Its cost is one extra Python
  frame per oracle call and per phase call.
* ``Tracer`` (tracing on) additionally records one span per call of every
  public function listed in ``TARGETS``: name, layer, start, end and parent.
  Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers.

Nothing here edits the package: wrappers replace module attributes and class
methods, which is where the package itself resolves these names at call time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from agmx import analysis, cli, core, problems, solvers

# The package re-exports the function ``lyapunov`` under the submodule's name.
lyapunov = importlib.import_module("agmx.lyapunov")

_clock = time.perf_counter

# (owner, attribute, span name, layer, phase).  The same function is often
# bound under two names (defined in one module, imported by name into
# another); both bindings are listed so every call site is seen.
TARGETS = [
    (problems, "build_laplacian2d", "build_laplacian2d", "problems", "setup"),
    (problems, "build_piecewise", "build_piecewise", "problems", "setup"),
    (problems, "build_logistic", "build_logistic", "problems", "setup"),
    (problems, "rebuild", "rebuild", "problems", "setup"),
    (problems, "estimate_extreme_eigs", "estimate_extreme_eigs", "problems", None),
    (problems.Rng, "uniform", "rng", "problems", None),
    (problems.Rng, "standard_normal", "rng", "problems", None),
    (problems.Rng, "signs", "rng", "problems", None),
    (core, "bregman", "bregman", "core", None),
    (lyapunov, "bregman", "bregman", "core", None),
    (core, "bregman_asymmetry", "bregman_asymmetry", "core", None),
    (lyapunov, "bregman_asymmetry", "bregman_asymmetry", "core", None),
    (core.ShiftedObjective, "value", "shifted.value", "core", None),
    (core.ShiftedObjective, "gradient", "shifted.gradient", "core", None),
    (solvers, "solve", "solve", "solvers", "solve"),
    (analysis, "solve", "solve", "solvers", "solve"),
    (solvers, "make_params", "make_params", "solvers", None),
    (solvers, "init_state", "init_state", "solvers", None),
    (solvers, "step", "step", "solvers", None),
    (analysis, "ensure_minimizer", "ensure_minimizer", "analysis", "setup"),
    (analysis, "find_minimizer", "find_minimizer", "analysis", None),
    (analysis, "compare", "compare", "analysis", "solve"),
    (analysis, "estimate_rate", "estimate_rate", "analysis", None),
    (lyapunov, "contraction_residuals", "contraction_residuals", "lyapunov", None),
    (cli, "contraction_residuals", "contraction_residuals", "lyapunov", None),
    (lyapunov, "strong_lyapunov_terms", "strong_lyapunov_terms", "lyapunov", None),
    (cli, "strong_lyapunov_terms", "strong_lyapunov_terms", "lyapunov", None),
    (lyapunov, "lyapunov", "lyapunov", "lyapunov", None),
    (lyapunov, "shift_schedule", "shift_schedule", "lyapunov", None),
    (cli, "main", "cli.main", "cli", None),
]

# Objective classes whose value/gradient form the problems-layer oracle.
OBJECTIVES = {
    problems.QuadraticObjective: "laplacian2d",
    problems.PiecewiseSmoothObjective: "piecewise",
    problems.LogisticObjective: "logistic",
}

LAYERS = ("problems", "core", "solvers", "analysis", "lyapunov", "cli")
F8 = 8  # bytes per float64


def computed_bytes(f, op: str) -> int:
    """Bytes one oracle call moves, computed from array sizes.

    Every whole-array operand of each numpy operation is counted as read once
    and every result as written once; cache reuse is ignored.
    """
    if isinstance(f, problems.QuadraticObjective):
        a = f.matrix
        d = f.dim
        matvec = (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                  + 2 * d * F8)                       # read r, write A r
        # gradient: r = x - c, A r;  value: r = x - c, A r, r . (A r)
        return 3 * d * F8 + matvec + (2 * d * F8 if op == "value" else 0)
    d, k = f.A.shape
    mat = f.A.nbytes
    # A^T x (+ its scalar/elementwise tail on k-vectors), then for the
    # gradient A h (k -> d) plus the ridge term; for the value a d-dot.
    head = mat + d * F8 + 8 * k * F8
    if op == "value":
        return head + 2 * d * F8
    return head + mat + k * F8 + 6 * d * F8


@dataclass
class Oracle:
    """Oracle calls keyed by (kind, op, phase), and computed bytes by (kind, op).

    ``phase`` is the outermost setup/solve phase the call ran in (the Meter
    knows it; the Tracer leaves it None and nests spans instead).
    """

    calls: Counter = field(default_factory=Counter)
    nbytes: Counter = field(default_factory=Counter)

    def total(self, op: str, phase: Optional[str] = "*") -> int:
        return sum(n for (_, o, ph), n in self.calls.items()
                   if o == op and (phase == "*" or ph == phase))

    def by_kind(self) -> Counter:
        out = Counter()
        for (kind, op, _), n in self.calls.items():
            out[(kind, op)] += n
        return out


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Meter:
    """Tracing off: oracle counts and outermost setup/solve phase time."""

    def __init__(self):
        self.oracle = Oracle()
        self.phase: Counter = Counter()
        self.active: Optional[str] = None     # outermost phase running now
        self._patches: Optional[_Patches] = None

    # -- wrappers ---------------------------------------------------------
    def _wrap_phase(self, fn: Callable, phase: str) -> Callable:
        meter = self

        def wrapper(*args, **kwargs):
            if meter.active is not None:
                return fn(*args, **kwargs)
            meter.active = phase
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                meter.phase[phase] += _clock() - t0
                meter.active = None

        return wrapper

    def _wrap_oracle(self, fn: Callable, kind: str, op: str) -> Callable:
        calls = self.oracle.calls
        meter = self

        def wrapper(obj, x):
            calls[(kind, op, meter.active)] += 1
            return fn(obj, x)

        return wrapper

    # -- install ----------------------------------------------------------
    def __enter__(self) -> "Meter":
        self._patches = _Patches()
        for cls, kind in OBJECTIVES.items():
            for op in ("value", "gradient"):
                self._patches.set(cls, op, self._wrap_oracle(cls.__dict__[op], kind, op))
        for owner, attr, _, _, phase in TARGETS:
            if phase is not None:
                self._patches.set(owner, attr, self._wrap_phase(owner.__dict__[attr], phase))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


class Tracer:
    """Tracing on: one span per public call, oracle counts and bytes."""

    def __init__(self):
        self.oracle = Oracle()
        self.name: list[str] = []
        self.layer: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._patches: Optional[_Patches] = None

    def _open(self, name: str, layer: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(_clock())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = _clock()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        def wrapper(*args, **kwargs):
            i = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _wrap_oracle(self, fn: Callable, kind: str, op: str) -> Callable:
        calls, nbytes = self.oracle.calls, self.oracle.nbytes
        key = (kind, op)
        ckey = (kind, op, None)
        name = f"{op}.{kind}"

        def wrapper(obj, x):
            calls[ckey] += 1
            nbytes[key] += computed_bytes(obj, op)
            i = self._open(name, "problems")
            try:
                return fn(obj, x)
            finally:
                self._close(i)

        return wrapper

    def __enter__(self) -> "Tracer":
        self._patches = _Patches()
        for cls, kind in OBJECTIVES.items():
            for op in ("value", "gradient"):
                self._patches.set(cls, op, self._wrap_oracle(cls.__dict__[op], kind, op))
        for owner, attr, name, layer, _ in TARGETS:
            self._patches.set(owner, attr, self._wrap(owner.__dict__[attr], name, layer))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def dump(self) -> dict:
        """Spans as parallel columns, times in seconds from the first span."""
        base = self.t0[0] if self.t0 else 0.0
        return {
            "name": self.name,
            "layer": self.layer,
            "start": [round(t - base, 9) for t in self.t0],
            "end": [round(t - base, 9) for t in self.t1],
            "parent": self.parent,
        }


def _has_ancestor(tr: Tracer, i: int, names: frozenset) -> bool:
    p = tr.parent[i]
    while p >= 0:
        if tr.name[p] in names:
            return True
        p = tr.parent[p]
    return False


def layer_metrics(tr: Tracer, wall: float) -> tuple[dict, dict]:
    """Per-layer numbers of one traced pass, and a per-kind breakdown.

    Self time of a span is its duration minus its children's durations; a
    layer's self time sums that over its spans.  ``trace.unattributed_s`` is
    pass wall time that no root span covers.
    """
    n = len(tr.name)
    dur = [tr.t1[i] - tr.t0[i] for i in range(n)]
    child = [0.0] * n
    root = 0.0
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
        else:
            root += dur[i]
    self_by_layer = Counter()
    self_by_name = Counter()
    total_by_name = Counter()
    outer_by_name = Counter()     # outermost occurrences only
    for i in range(n):
        s = dur[i] - child[i]
        self_by_layer[tr.layer[i]] += s
        self_by_name[tr.name[i]] += s
        total_by_name[tr.name[i]] += dur[i]
        p = tr.parent[i]
        if p < 0 or tr.name[p] != tr.name[i]:
            outer_by_name[tr.name[i]] += dur[i]

    builds = frozenset(("build_laplacian2d", "build_piecewise", "build_logistic", "rebuild"))
    solves = frozenset(("solve",))
    minimizer = frozenset(("find_minimizer",))
    grad_names = [f"gradient.{k}" for k in OBJECTIVES.values()]
    value_names = [f"value.{k}" for k in OBJECTIVES.values()]
    build_s = grad_in_solve = 0.0
    minimizer_grads = 0
    for i in range(n):
        nm = tr.name[i]
        if nm in builds and not _has_ancestor(tr, i, builds):
            build_s += dur[i]
        elif nm.startswith("gradient."):
            if _has_ancestor(tr, i, solves):
                grad_in_solve += dur[i]
            if _has_ancestor(tr, i, minimizer):
                minimizer_grads += 1

    grad_s = sum(total_by_name[k] for k in grad_names)
    value_s = sum(total_by_name[k] for k in value_names)
    grad_calls = tr.oracle.total("gradient")
    grad_bytes = sum(b for (_, op), b in tr.oracle.nbytes.items() if op == "gradient")
    solve_s = outer_by_name["solve"]
    m = {
        "problems.grad_s": grad_s,
        "problems.grad_calls": grad_calls,
        "problems.grad_us": 1e6 * grad_s / max(grad_calls, 1),
        "problems.grad_bytes": grad_bytes / max(grad_calls, 1),
        "problems.value_s": value_s,
        "problems.value_calls": tr.oracle.total("value"),
        "problems.rng_s": outer_by_name["rng"],
        "problems.build_s": build_s,
        "solvers.solve_s": solve_s,
        "solvers.floor_ratio": solve_s / grad_in_solve if grad_in_solve else 0.0,
        "analysis.minimizer_s": outer_by_name["ensure_minimizer"],
        "analysis.minimizer_grad_calls": minimizer_grads,
        "analysis.rate_fit_s": total_by_name["estimate_rate"],
        "lyapunov.contraction_s": total_by_name["contraction_residuals"],
        "lyapunov.sweep_s": total_by_name["strong_lyapunov_terms"],
        "lyapunov.sweep_self_s": self_by_name["strong_lyapunov_terms"],
        "lyapunov.schedule_s": total_by_name["shift_schedule"],
        "cli.main_s": total_by_name["cli.main"],
        "trace.unattributed_s": wall - root,
        "trace.spans": n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]

    breakdown = {}
    for (kind, op), calls in sorted(tr.oracle.by_kind().items()):
        t = total_by_name[f"{op}.{kind}"]
        breakdown[f"problems.{op}_us.{kind}"] = 1e6 * t / calls
        breakdown[f"problems.{op}_bytes.{kind}"] = tr.oracle.nbytes[(kind, op)] / calls
        breakdown[f"problems.{op}_calls.{kind}"] = calls
    return m, breakdown

