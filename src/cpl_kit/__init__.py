"""Correlation-induced privacy leakage analysis for local differential privacy.

Quantifies how much a perturbed attribute reveals about a correlated
neighbor: exactly from transition probabilities, by a tight bound from the
(epsilon, delta) budget alone, or statistically from perturbed data with a
permutation significance test, where ``estimate_cpl`` gives the leakage
caused by a neighbor tuple or, with the target's own report in the tuple,
the total leakage. Includes analyzer and utility benchmarks and
correlation-aware budget calibration, which totals an attribute's leakage as
its own budget plus the pairwise leakage caused by each neighbor.

The names of the benchmark, calibration, correlation-metric and statistical
modules are imported on first use, so that a command loads only the modules
it runs. ``cpl_bound`` and ``cpl_exact`` are imported here: each function
shares its module's name, and importing the module later would rebind the
package attribute to the module.

A cpl-kit process runs no BLAS worker thread. numpy's OpenBLAS starts one
worker per extra CPU when it loads, and each spins for about 0.1 s of CPU
before it sleeps, yet no matrix product here is large enough to hand work to
it. So, unless the caller has set ``OPENBLAS_NUM_THREADS`` or numpy is
already loaded, numpy is first imported here under ``OPENBLAS_NUM_THREADS=1``,
which OpenBLAS reads once at load; the variable is then removed again, so the
caller's environment and any child process are left as they were.
"""

__version__ = "0.1.0"

import os
import sys
from importlib import import_module

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cpl_bound import BoundedCplResult, BudgetParams, cpl_bound
from .cpl_exact import ExactCplResult, cpl_exact
from .data_model import (
    Alphabet,
    ConditionalDistribution,
    Dataset,
    JointDistribution,
    bin_numeric,
    conditional_from_joint,
    empirical_joint,
    load_csv,
    pairwise_conditionals,
    write_csv,
)
from .errors import (
    CplKitError,
    DimensionMismatchError,
    InfeasibleBudgetError,
    InputError,
    InsufficientDataError,
    UnsupportedMechanismError,
)
from .mechanisms import (
    MechanismSpec,
    PerturbedColumn,
    TransitionMatrix,
    decode_column,
    estimate_frequencies,
    perturb_column,
    transition_matrix,
)

#: Each name imported on first use, and the module that defines it.
_LAZY = {
    **dict.fromkeys(("BenchmarkPoint", "UtilityReport", "UtilityRow", "analyzer_benchmark",
                     "baseline_grf", "baseline_spl_anl", "nmse_cpl", "ordered_pairs",
                     "pairwise_abs_pcc", "undershoot_overshoot", "utility_benchmark"),
                    "benchmarks"),
    **dict.fromkeys(("CalibrationResult", "calibrate"), "calibration"),
    **dict.fromkeys(("MetricReport", "metrics"), "correlation_metrics"),
    **dict.fromkeys(("EstimationConfig", "StatisticalCplResult", "count_table", "estimate_cpl",
                     "sup_ratio_leakage"), "statistical"),
}

__all__ = [
    "BoundedCplResult", "BudgetParams", "cpl_bound",
    "ExactCplResult", "cpl_exact",
    "Alphabet", "ConditionalDistribution", "Dataset", "JointDistribution", "bin_numeric",
    "conditional_from_joint", "empirical_joint", "load_csv", "pairwise_conditionals",
    "write_csv",
    "CplKitError", "DimensionMismatchError", "InfeasibleBudgetError", "InputError",
    "InsufficientDataError", "UnsupportedMechanismError",
    "MechanismSpec", "PerturbedColumn", "TransitionMatrix", "decode_column",
    "estimate_frequencies", "perturb_column", "transition_matrix",
    *_LAZY,
]


def __getattr__(name):
    # Not cached: the name stays whatever its module binds, so a patch of the
    # defining module is seen here too.
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
