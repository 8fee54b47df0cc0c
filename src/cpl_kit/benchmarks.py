"""Benchmarks for leakage analyzers and for mechanism utility-vs-leakage.

Analyzer benchmark: per-pair leakage estimates are scored against a
reference by normalized undershoot (mass of underestimation) and overshoot
(mass of overestimation), both divided by epsilon times the pair count, and
classified into regions: P1 (both zero, optimal), R1 (pure underestimation,
risky), R2 (pure overestimation, wasteful), R3 (mixed).

Utility benchmark: each mechanism/budget cell reports frequency-estimation
NMSE, normalized 0-1 error between decoded outputs and inputs, and total
pairwise leakage normalized by the budget-only bound. The leakage is exact
for every mechanism: each neighbor is released through its decoded channel,
so it depends on the data and the budget alone, not on the seed or the
expansion factor. Here and in the analyzer benchmark every per-pair leakage,
bound or exact, is the closed form of the table that ``calibrate`` probes
(``calibration._LeakageTable``). The errors come from columns, one attribute
of one cell each, which build their own spec and draw from their own
streams, so they run on a thread pool and are read and summed in grid
order: the rows do not depend on the threads, and the first failing column
raises, as in a serial run.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .calibration import _LeakageTable
from .correlation_metrics import metrics
from .data_model import (
    Dataset, _integer, empirical_joint, ordered_pairs, pairwise_conditionals,
)
from .errors import DimensionMismatchError, InputError
from .mechanisms import MechanismSpec, debias_counts, support_counts
from .statistical import _decoded_column

_TOL = 1e-9


@dataclass(frozen=True)
class BenchmarkPoint:
    undershoot: float
    overshoot: float
    region: str  # P1 | R1 | R2 | R3

    @property
    def distance(self) -> float:
        return math.hypot(self.undershoot, self.overshoot)


@dataclass(frozen=True)
class UtilityReport:
    freq_nmse: float
    zero_one_error: float
    norm_tcpl: float


@dataclass(frozen=True)
class UtilityRow:
    mechanism: str
    epsilon: float
    report: UtilityReport


def _classify(undershoot: float, overshoot: float) -> str:
    under_zero = undershoot <= _TOL
    over_zero = overshoot <= _TOL
    if under_zero and over_zero:
        return "P1"
    if over_zero:
        return "R1"
    if under_zero:
        return "R2"
    return "R3"


def undershoot_overshoot(reference, estimates, epsilon: float) -> BenchmarkPoint:
    """Score a per-pair estimate list against the reference list."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimates, dtype=np.float64)
    if ref.shape != est.shape or ref.ndim != 1 or ref.size < 1:
        raise DimensionMismatchError("reference and estimates must be equal-length lists")
    if epsilon <= 0:
        raise InputError("normalization requires epsilon > 0")
    diff = ref - est
    q = ref.size
    undershoot = float(diff[diff >= 0].sum()) / (epsilon * q) + 0.0
    overshoot = float(-diff[diff < 0].sum()) / (epsilon * q) + 0.0
    return BenchmarkPoint(undershoot, overshoot, _classify(undershoot, overshoot))


def baseline_spl_anl(n_attributes: int, epsilon: float) -> list[float]:
    """Worst-case analyzer: every neighbor presumed to leak its full budget."""
    return [epsilon] * (n_attributes * (n_attributes - 1))


def baseline_grf(abs_pcc: np.ndarray, threshold: float, epsilon: float) -> list[float]:
    """Dependency-graph analyzer: connect attributes whose |PCC| clears the
    threshold, presume full-budget leakage inside each connected component
    and none across components."""
    if not 0 < threshold < 1:
        raise InputError("threshold must be in (0, 1)")
    pcc = np.asarray(abs_pcc, dtype=np.float64)
    n = pcc.shape[0]
    if pcc.shape != (n, n):
        raise DimensionMismatchError("PCC matrix must be square")
    adj = np.nan_to_num(np.abs(pcc)) >= threshold
    component = [-1] * n
    label = 0
    for start in range(n):
        if component[start] >= 0:
            continue
        stack = [start]
        component[start] = label
        while stack:
            u = stack.pop()
            for v in range(n):
                if v != u and adj[u, v] and component[v] < 0:
                    component[v] = label
                    stack.append(v)
        label += 1
    return [epsilon if component[i] == component[j] else 0.0
            for i, j in ordered_pairs(n)]


def pairwise_abs_pcc(d: Dataset) -> np.ndarray:
    """|Pearson| matrix over integer-coded attributes (NaN when undefined)."""
    n = d.n_attributes
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            pcc = metrics(empirical_joint(d, i, j)).pcc
            out[i, j] = out[j, i] = abs(pcc) if not math.isnan(pcc) else math.nan
    return out


def analyzer_benchmark(d: Dataset, epsilons, thresholds=(0.2, 0.4),
                       reference="bound") -> list[dict[str, BenchmarkPoint]]:
    """Score the built-in analyzers on one dataset at each budget.

    ``reference`` is a leakage engine, ``bound`` or ``exact-<kind>``, or a
    precomputed per-pair list (e.g. statistical estimates) used at every
    budget. The conditionals, the |PCC| matrix and the leakage tables do
    not depend on the budget and are built once.
    """
    if d.n_attributes < 2:
        raise InputError("the analyzer benchmark needs at least two attributes")
    conds = list(pairwise_conditionals(d).values())
    if isinstance(reference, str):
        refs = _LeakageTable(conds, reference)(epsilons).tolist()
    else:
        refs = [list(reference)] * len(epsilons)
    n = d.n_attributes
    pcc = pairwise_abs_pcc(d)
    grr = _LeakageTable(conds, "exact-grr")(epsilons).tolist()
    exp = _LeakageTable(conds, "exact-exp")(epsilons).tolist()
    runs = []
    for eps, ref, grr_eps, exp_eps in zip(epsilons, refs, grr, exp):
        points = {
            "spl-anl": undershoot_overshoot(ref, baseline_spl_anl(n, eps), eps),
            "grr-anl": undershoot_overshoot(ref, grr_eps, eps),
            "exp-anl": undershoot_overshoot(ref, exp_eps, eps),
        }
        for thr in thresholds:
            points[f"grf-{thr:g}"] = undershoot_overshoot(ref, baseline_grf(pcc, thr, eps), eps)
        runs.append(points)
    return runs


def nmse_cpl(estimates, references) -> float:
    """Normalized mean-square error between two per-pair leakage lists."""
    est = np.asarray(estimates, dtype=np.float64)
    ref = np.asarray(references, dtype=np.float64)
    if est.shape != ref.shape:
        raise DimensionMismatchError("leakage lists must have equal length")
    denom = float((ref ** 2).sum())
    if denom <= 0:
        raise InputError("reference leakages are all zero; NMSE undefined")
    return float(((est - ref) ** 2).sum()) / denom


def _workers(n_columns: int) -> int:
    """Threads for ``n_columns`` columns: one per CPU the process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_columns))


def _total(values) -> float:
    """Left-to-right float sum: from Python 3.12 the built-in ``sum``
    compensates its rounding, which changes the last bits."""
    total = 0.0
    for value in values:
        total += value
    return total


def _column_error(d: Dataset, kind: str, eps: float, j: int, r: int, seed: int, cell: int,
                  true_freq: np.ndarray) -> tuple[float, int]:
    """Squared frequency-estimation error and decoding mismatches of
    attribute ``j`` under the ``cell``-th (kind, eps), its support counted
    over the expanded rows block by block."""
    spec = MechanismSpec(kind, eps, d.alphabet(j).size)
    counts, mismatches = 0, 0
    for values, column, symbols in _decoded_column(spec, d.column(j), r, seed, (cell,), j):
        counts += support_counts(spec, column)
        mismatches += int(np.count_nonzero(symbols != values))
        # Unbound now: the loop variables would otherwise keep this block
        # alive while the walker draws the next one, two blocks at a time.
        del values, column, symbols
    est = debias_counts(spec, counts, d.n_records * r)
    return float(((est - true_freq) ** 2).sum()), mismatches


def utility_benchmark(d: Dataset, kinds: list[str], epsilons: list[float],
                      r: int, seed: int) -> list[UtilityRow]:
    """Perturb the dataset, each record repeated ``r`` times, under every
    (mechanism, budget) cell and report utility errors alongside normalized
    total pairwise leakage.

    Each column, one attribute of one cell, walks the expanded dataset in
    blocks on a thread pool and keeps only its frequency error and decoding
    mismatches. The columns are read in grid order, so the first failing
    one raises, as in a serial run. The leakage of each pair is exact,
    through the neighbor's decoded channel, and its budget-only bound, both
    summed over calibration's leakage table."""
    # Imported here: concurrent.futures loads logging, which every other
    # command would pay for in start-up time and memory.
    from concurrent.futures import ThreadPoolExecutor

    r = _integer(r, "expansion factor")
    if r < 1:
        raise InputError("expansion factor must be >= 1")
    n_attr = d.n_attributes
    n_rows = d.n_records * r
    conds = list(pairwise_conditionals(d).values())
    true_freqs = [np.bincount(d.column(j), minlength=d.alphabet(j).size) / d.n_records
                  for j in range(n_attr)]
    freq_denom = _total(float((f ** 2).sum()) for f in true_freqs)
    grid = [(k, e) for k in kinds for e in epsilons]
    tables: dict[str, _LeakageTable] = {}  # by engine, each built at its first cell

    pool = ThreadPoolExecutor(_workers(len(grid) * n_attr))
    try:
        columns = [[pool.submit(_column_error, d, kind, eps, j, r, seed, cell, true_freqs[j])
                    for j in range(n_attr)] for cell, (kind, eps) in enumerate(grid)]
        rows: list[UtilityRow] = []
        for (kind, eps), futures in zip(grid, columns):
            errors, mismatches = zip(*(future.result() for future in futures))
            freq_nmse = _total(errors) / freq_denom
            zero_one = sum(mismatches) / (n_rows * n_attr)

            # Built after the cell's columns are read: a constant column
            # fails on its spec first, as in a serial run, not on its table.
            for engine in ("bound", f"exact-{kind}"):
                if engine not in tables:
                    tables[engine] = _LeakageTable(conds, engine)
            tcpl_star = _total(tables["bound"]([eps])[0].tolist())
            tcpl_prime = _total(tables[f"exact-{kind}"]([eps])[0].tolist())
            norm_tcpl = tcpl_prime / tcpl_star if tcpl_star > 0 else 0.0
            rows.append(UtilityRow(kind, eps, UtilityReport(freq_nmse, zero_one, norm_tcpl)))
    finally:
        pool.shutdown(cancel_futures=True)
    return rows
