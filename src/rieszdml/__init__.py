"""Debiased ML estimation of linear functionals with regularized Riesz representers."""

import ctypes

from .dictionaries import (
    Dataset,
    Dictionary,
    FourierDictionary,
    IdentityDictionary,
    PolynomialDictionary,
    TreatmentInteractedDictionary,
    design_matrix,
    load_csv,
)
from .dml import (
    DmlResult,
    FoldPlan,
    dml_estimate,
    fit_and_score_fold,
    make_fold_plan,
    orthogonality_report,
    score_derivatives,
    score_psi,
)
from .functional import (
    AverageDerivative,
    AverageTreatmentEffect,
    PolicyShift,
    m_hat_vector,
)
from .rmd import (
    LambdaRule,
    RmdInfeasibleError,
    RmdProblem,
    RmdSolution,
    SolverError,
    estimate_blp,
    estimate_riesz,
    solve_rmd,
)
from .simulation import (
    AteLogisticDgp,
    EstimatorConfig,
    MonteCarloReport,
    SparseLinearDgp,
    dense_decay_dgp,
    run_monte_carlo,
    true_theta_info,
)


def _pin_malloc_thresholds():
    """Keep freed arrays of up to 32 MiB in the heap instead of returning them to the kernel.

    glibc's dynamic thresholds settle near the largest chunk freed so far,
    below the n x p arrays of one replication, so each replication would
    fault its pages in afresh.  The values are where glibc's own dynamic
    rule ends up on 64-bit: its mmap ceiling, and twice that for trimming.
    Where ``mallopt`` is missing (macOS, Windows) or refuses a value (musl,
    32-bit glibc), the allocator is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    if mallopt(M_MMAP_THRESHOLD, 32 << 20):
        mallopt(M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()

__version__ = "0.1.0"

__all__ = [
    "AteLogisticDgp",
    "AverageDerivative",
    "AverageTreatmentEffect",
    "Dataset",
    "Dictionary",
    "DmlResult",
    "EstimatorConfig",
    "FoldPlan",
    "FourierDictionary",
    "IdentityDictionary",
    "LambdaRule",
    "MonteCarloReport",
    "PolicyShift",
    "PolynomialDictionary",
    "RmdInfeasibleError",
    "RmdProblem",
    "RmdSolution",
    "SolverError",
    "SparseLinearDgp",
    "TreatmentInteractedDictionary",
    "dense_decay_dgp",
    "design_matrix",
    "dml_estimate",
    "estimate_blp",
    "estimate_riesz",
    "fit_and_score_fold",
    "load_csv",
    "m_hat_vector",
    "make_fold_plan",
    "orthogonality_report",
    "run_monte_carlo",
    "score_derivatives",
    "score_psi",
    "solve_rmd",
    "true_theta_info",
]
