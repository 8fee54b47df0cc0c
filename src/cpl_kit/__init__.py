"""Correlation-induced privacy leakage analysis for local differential privacy.

Quantifies how much a perturbed attribute reveals about a correlated
neighbor: exactly from transition probabilities, by a tight bound from the
(epsilon, delta) budget alone, or statistically from perturbed data with a
permutation significance test, where ``estimate_cpl`` gives the leakage
caused by a neighbor tuple or, with the target's own report in the tuple,
the total leakage. Includes analyzer and utility benchmarks and
correlation-aware budget calibration, which totals an attribute's leakage as
its own budget plus the pairwise leakage caused by each neighbor.
"""

__version__ = "0.1.0"

from .benchmarks import (
    BenchmarkPoint,
    UtilityReport,
    UtilityRow,
    analyzer_benchmark,
    baseline_grf,
    baseline_spl_anl,
    nmse_cpl,
    ordered_pairs,
    pairwise_abs_pcc,
    pairwise_conditionals,
    undershoot_overshoot,
    utility_benchmark,
)
from .calibration import CalibrationResult, calibrate
from .correlation_metrics import MetricReport, metrics
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
from .statistical import (
    EstimationConfig,
    StatisticalCplResult,
    count_table,
    estimate_cpl,
    sup_ratio_leakage,
)
