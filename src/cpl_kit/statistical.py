"""Statistical leakage estimation from perturbed data.

Three stages: expand the dataset by replication, perturb every attribute of
every expanded record independently, and decode each report back into the
input alphabet. The leakage of a target attribute caused by a neighbor set
is then the log of the largest conditional-probability ratio observed across
decoded neighbor tuples, restricted to cells witnessed under both
conditioning symbols.

Significance comes from permutation surrogates: shuffling each neighbor
column independently keeps every one-way margin and destroys the
cross-attribute correlation. That null depends on the margins alone, so each
surrogate is drawn directly as a count table with those margins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, expand_dataset
from .errors import InputError, InsufficientDataError
from .mechanisms import MechanismSpec, decode_column, perturb_column
from .rng import STAGE_DECODE, STAGE_PERTURB, STAGE_SURROGATE, derive_rng

#: Refuse joint neighbor alphabets larger than this many cells.
MAX_TUPLE_CELLS = 10 ** 6


@dataclass(frozen=True)
class EstimationConfig:
    """Knobs for the statistical pipeline.

    ``expansion`` is the record replication factor; ``surrogates`` the number
    of permutation surrogates behind each p-value.
    """

    expansion: int = 50
    surrogates: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.expansion < 1:
            raise InputError("expansion factor must be >= 1")
        if self.surrogates < 1:
            raise InputError("surrogate count must be >= 1")
        if not 0 < self.alpha < 1:
            raise InputError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class StatisticalCplResult:
    """Estimated leakage (nats) with its permutation-test verdict.

    ``excluded_cells`` counts conditional cells dropped from the supremum
    because one side had zero observations.
    """

    leakage: float
    p_value: float
    significant: bool
    excluded_cells: int


def perturb_dataset(d: Dataset, specs: list[MechanismSpec], cfg: EstimationConfig) -> Dataset:
    """Expand, perturb and decode every attribute; returns the decoded dataset.

    Row i of the result is aligned with row i of ``expand_dataset(d,
    cfg.expansion)``. Every expanded record is perturbed with fresh
    randomness; per-attribute streams are derived from the config seed.
    """
    if len(specs) != d.n_attributes:
        raise InputError(f"need one mechanism spec per attribute ({d.n_attributes})")
    for j, spec in enumerate(specs):
        if spec.k != d.alphabet(j).size:
            raise InputError(
                f"attribute {d.attribute_names[j]!r} has alphabet size "
                f"{d.alphabet(j).size} but spec k={spec.k}"
            )
    expanded = expand_dataset(d, cfg.expansion)
    decoded = np.empty_like(expanded.records)
    for j, spec in enumerate(specs):
        col = perturb_column(spec, expanded.column(j), derive_rng(cfg.seed, STAGE_PERTURB, j))
        decoded[:, j] = decode_column(spec, col, derive_rng(cfg.seed, STAGE_DECODE, j))
    return Dataset(expanded.schema, decoded)


def _tuple_codes(columns: list[np.ndarray], sizes: list[int]) -> tuple[np.ndarray, int]:
    cells = math.prod(sizes)
    if cells > MAX_TUPLE_CELLS:
        raise InputError(
            f"joint neighbor alphabet has {cells} cells (cap {MAX_TUPLE_CELLS}); "
            "reduce the neighbor set"
        )
    return np.ravel_multi_index(tuple(columns), dims=tuple(sizes)), cells


def count_table(target: np.ndarray, w_codes: np.ndarray, m: int, n_w: int) -> np.ndarray:
    """(m, n_w) counts of the (target symbol, neighbor code) pairs of aligned rows."""
    return np.bincount(target * n_w + w_codes, minlength=m * n_w).reshape(m, n_w)


def sup_ratio_leakage(counts: np.ndarray) -> tuple[float, int]:
    """Supremum log-ratio of empirical conditionals P(w | target) from an
    (m, n_w) count table such as :func:`count_table` returns.

    Only cells observed under both conditioning symbols enter the supremum;
    the return also counts the dropped zero cells.
    """
    counts = np.asarray(counts, dtype=np.float64)
    row_tot = counts.sum(axis=1)
    rows = row_tot > 0
    if rows.sum() < 2:
        raise InsufficientDataError("need at least 2 observed conditioning symbols")
    sub = counts[rows]
    probs = sub / row_tot[rows, None]
    observed = sub.sum(axis=0) > 0
    sub = sub[:, observed]
    probs = probs[:, observed]
    positive = sub > 0
    excluded = int((~positive).sum())
    usable = positive.sum(axis=0) >= 2
    if not usable.any():
        raise InsufficientDataError("no conditional cell observed under two symbols")
    masked = np.where(positive[:, usable], probs[:, usable], np.nan)
    col_max = np.nanmax(masked, axis=0)
    col_min = np.nanmin(masked, axis=0)
    return float(np.log((col_max / col_min).max())), excluded


def _surrogate_table(target_counts: np.ndarray, neighbor_counts: list[np.ndarray],
                     rng: np.random.Generator) -> np.ndarray:
    """(m, n_w) counts of one permutation surrogate: each permuted neighbor
    column cross-tabulates with the tuple so far, ((target, w1), w2), ..., as a
    random table with fixed margins, sampled exactly by one multivariate
    hypergeometric draw per neighbor symbol (Patefield, AS 159, 1981)."""
    table = target_counts
    for col_counts in neighbor_counts:
        remaining = table.ravel()
        drawn = []
        for count in col_counts:
            drawn.append(rng.multivariate_hypergeometric(remaining, count))
            remaining = remaining - drawn[-1]
        table = np.stack(drawn, axis=1)
    return table.reshape(target_counts.size, -1)


def _observed_and_null(perturbed: Dataset, original: Dataset, target: int,
                       neighbors: list[int], cfg: EstimationConfig) -> StatisticalCplResult:
    if perturbed.n_records != original.n_records:
        raise InputError("perturbed and original datasets are not row-aligned")
    if perturbed.n_attributes != original.n_attributes:
        raise InputError("perturbed and original datasets have different schemas")
    cols = [perturbed.column(z) for z in neighbors]
    sizes = [perturbed.alphabet(z).size for z in neighbors]
    w_codes, n_w = _tuple_codes(cols, sizes)
    x = original.column(target)
    m = original.alphabet(target).size
    leakage, excluded = sup_ratio_leakage(count_table(x, w_codes, m, n_w))

    x_counts = np.bincount(x, minlength=m)
    w_counts = [np.bincount(col, minlength=size) for col, size in zip(cols, sizes)]
    hits = 0
    for s in range(cfg.surrogates):
        table = _surrogate_table(x_counts, w_counts, derive_rng(cfg.seed, STAGE_SURROGATE, s))
        try:
            surrogate, _ = sup_ratio_leakage(table)
        except InsufficientDataError:
            continue
        hits += surrogate >= leakage
    p_value = (1 + hits) / (1 + cfg.surrogates)
    return StatisticalCplResult(leakage, p_value, p_value < cfg.alpha, excluded)


def statistical_cpl(perturbed: Dataset, original: Dataset, target: int,
                    neighbors: list[int], cfg: EstimationConfig) -> StatisticalCplResult:
    """Leakage of ``target`` caused by the decoded ``neighbors`` tuple."""
    neighbors = list(neighbors)
    if not neighbors:
        raise InputError("neighbor set must be nonempty")
    if target in neighbors:
        raise InputError("target attribute cannot be its own neighbor")
    return _observed_and_null(perturbed, original, target, neighbors, cfg)


def statistical_tpl(perturbed: Dataset, original: Dataset, target: int,
                    cfg: EstimationConfig, neighbors: list[int] | None = None) -> StatisticalCplResult:
    """Total leakage of ``target``: the decoded tuple includes its own report.

    ``neighbors`` defaults to every other attribute.
    """
    if neighbors is None:
        neighbors = [j for j in range(original.n_attributes) if j != target]
    w_set = sorted(set(neighbors) | {target})
    return _observed_and_null(perturbed, original, target, w_set, cfg)

