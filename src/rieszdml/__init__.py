"""Debiased ML estimation of linear functionals with regularized Riesz representers."""

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
