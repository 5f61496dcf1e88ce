"""Accelerated gradient methods for strongly convex minimization.

Solvers (GD, NAG, TM, and the Hessian-driven family), seeded benchmark
problems, and numerical certification of the Lyapunov contraction theory.
"""

from .analysis import (
    ComparisonRow,
    RateEstimate,
    RateRegime,
    compare,
    ensure_minimizer,
    estimate_rate,
    find_minimizer,
    theoretical_rate,
)
from .core import (
    ObjectiveLike,
    ShiftedObjective,
    Vector,
    bregman,
    bregman_asymmetry,
)
from .lyapunov import (
    CHECKS,
    Anchor,
    CheckReport,
    ContractionTheorem,
    LyapunovKind,
    ShiftSchedule,
    asymmetry_bound_check,
    contraction_residuals,
    flow_beta,
    lyapunov,
    minimizer_anchor,
    shift_schedule,
    strong_lyapunov_sweep,
    strong_lyapunov_terms,
)
from .problems import (
    LogisticObjective,
    PiecewiseSmoothObjective,
    QuadraticObjective,
    Rng,
    build_laplacian2d,
    build_logistic,
    build_piecewise,
    check_gradient,
    estimate_extreme_eigs,
    rebuild,
)
from .solvers import (
    DivergenceError,
    MethodKind,
    MethodParams,
    SolverConfig,
    SolverState,
    TerminalStatus,
    Trace,
    make_params,
    parse_method,
    solve,
    step,
)

__version__ = "0.1.0"
