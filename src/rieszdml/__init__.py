"""Debiased ML estimation of linear functionals with regularized Riesz representers.

The exports are looked up in their home modules on first use (PEP 562), so
``import rieszdml`` loads no numpy and the command-line interface can choose
OpenBLAS's thread count before numpy starts it.
"""

import ctypes
from importlib import import_module

_HOMES = {
    "dictionaries": ("Dataset", "Dictionary", "FourierDictionary", "IdentityDictionary",
                     "PolynomialDictionary", "TreatmentInteractedDictionary", "design_matrix",
                     "load_csv"),
    "dml": ("DmlResult", "EstimatorConfig", "dml_estimate", "fit_and_score_fold",
            "make_fold_plan", "orthogonality_report", "score_derivatives", "score_psi"),
    "functional": ("AverageDerivative", "AverageTreatmentEffect", "PolicyShift", "m_hat_vector"),
    "lp": ("SolverError",),
    "rmd": ("LambdaRule", "RmdInfeasibleError", "RmdProblem", "RmdSolution", "estimate_blp",
            "estimate_riesz", "solve_rmd"),
    "simulation": ("AteLogisticDgp", "MonteCarloReport", "SparseLinearDgp", "dense_decay_dgp",
                   "run_monte_carlo", "true_theta_info"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
