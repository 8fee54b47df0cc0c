"""Statistical leakage estimation from perturbed data.

Three stages: expand the dataset by replication, perturb every attribute of
every expanded record independently, and decode each report back into the
input alphabet. The leakage of a target attribute caused by a neighbor set
is then the log of the largest conditional-probability ratio observed across
decoded neighbor tuples, restricted to cells witnessed under both
conditioning symbols.

The expanded rows are only ever counted, so the stages run on blocks of
``BLOCK_ROWS`` expanded rows and the counts add up across blocks: memory
stays flat in the expansion factor. ``estimate_cpl`` keeps only the
count table, and perturbs only the neighbors; ``perturb_dataset`` joins the
decoded blocks for callers that want the rows.

Significance comes from permutation surrogates: shuffling each neighbor
column independently keeps every one-way margin and destroys the
cross-attribute correlation. That null depends on the margins alone, so each
surrogate is drawn directly as a count table with the observed table's
margins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, _lock
from .errors import InputError, InsufficientDataError
from .mechanisms import MechanismSpec, decode_column, perturb_column, support_counts
from .rng import STAGE_DECODE, STAGE_PERTURB, STAGE_SURROGATE, derive_rng

#: Refuse joint neighbor alphabets larger than this many cells.
MAX_TUPLE_CELLS = 10 ** 6

#: Expanded rows per block of the perturb -> decode -> count pipeline.
BLOCK_ROWS = 2 ** 16


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


def _check_specs(d: Dataset, specs: list[MechanismSpec]) -> None:
    if len(specs) != d.n_attributes:
        raise InputError(f"need one mechanism spec per attribute ({d.n_attributes})")
    for j, spec in enumerate(specs):
        if spec.k != d.alphabet(j).size:
            raise InputError(
                f"attribute {d.attribute_names[j]!r} has alphabet size "
                f"{d.alphabet(j).size} but spec k={spec.k}"
            )


def _column_streams(seed: int, key: tuple[int, ...], j: int):
    """Perturb and decode streams of attribute ``j``: ``derive_rng(seed,
    STAGE_PERTURB | STAGE_DECODE, *key, j)``."""
    return derive_rng(seed, STAGE_PERTURB, *key, j), derive_rng(seed, STAGE_DECODE, *key, j)


def _expanded_blocks(records: np.ndarray, r: int):
    """Walk ``records`` expanded by ``r``, whose row i is record i // r, in
    blocks of ``BLOCK_ROWS`` rows without building it."""
    n_rows = len(records) * r
    for start in range(0, n_rows, BLOCK_ROWS):
        yield records.take(np.arange(start, min(start + BLOCK_ROWS, n_rows)) // r, axis=0)


def _decoded_blocks(d: Dataset, specs: list[MechanismSpec], attrs, r: int, seed: int,
                    key: tuple[int, ...] = ()):
    """Yield every block of ``expand_dataset(d, r)`` with the ``(perturbed
    column, decoded symbols)`` of each attribute in ``attrs``. Attribute j
    draws from its two ``_column_streams``, each continued from block to
    block."""
    streams = [(j, *_column_streams(seed, key, j)) for j in attrs]
    for block in _expanded_blocks(d.records, r):
        reports = []
        for j, perturb_rng, decode_rng in streams:
            col = perturb_column(specs[j], block[:, j], perturb_rng)
            reports.append((col, decode_column(specs[j], col, decode_rng)))
        yield block, reports


def _block_stats(spec: MechanismSpec, values: np.ndarray, perturb_rng: np.random.Generator,
                 decode_rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Perturb and decode one block of one attribute, as ``_decoded_blocks``
    does, and keep only its support counts and its decoding mismatches, so
    no report outlives the block."""
    col = perturb_column(spec, values, perturb_rng)
    symbols = decode_column(spec, col, decode_rng)
    return support_counts(spec, col), int(np.count_nonzero(symbols != values))


def perturb_dataset(d: Dataset, specs: list[MechanismSpec], cfg: EstimationConfig) -> Dataset:
    """Expand, perturb and decode every attribute; returns the decoded dataset.

    Row i of the result is aligned with row i of ``expand_dataset(d,
    cfg.expansion)``. Every expanded record is perturbed with fresh
    randomness; per-attribute streams are derived from the config seed.
    """
    _check_specs(d, specs)
    decoded = np.empty((d.n_records * cfg.expansion, d.n_attributes), dtype=np.int64)
    row = 0
    for block, reports in _decoded_blocks(d, specs, range(d.n_attributes), cfg.expansion, cfg.seed):
        for j, (_, symbols) in enumerate(reports):
            decoded[row:row + len(block), j] = symbols
        row += len(block)
    return Dataset(d.schema, _lock(decoded))


def _check_indices(n_attributes: int, indices) -> None:
    if not all(0 <= z < n_attributes for z in indices):
        raise InputError(f"attribute indices must lie in [0, {n_attributes})")


def _check_attributes(n_attributes: int, target: int, neighbors) -> list[int]:
    neighbors = list(neighbors)
    if not neighbors:
        raise InputError("neighbor set must be nonempty")
    if len(set(neighbors)) != len(neighbors):
        # A repeated neighbor would be permuted as an independent copy of
        # itself by the surrogates, which breaks the null.
        raise InputError(f"neighbor indices must be distinct, got {neighbors}")
    if target in neighbors:
        raise InputError("target attribute cannot be its own neighbor")
    _check_indices(n_attributes, (target, *neighbors))
    return neighbors


def _tuple_cells(sizes: list[int]) -> int:
    cells = math.prod(sizes)
    if cells > MAX_TUPLE_CELLS:
        raise InputError(
            f"joint neighbor alphabet has {cells} cells (cap {MAX_TUPLE_CELLS}); "
            "reduce the neighbor set"
        )
    return cells


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


def _observed_and_null(table: np.ndarray, sizes: list[int],
                       cfg: EstimationConfig) -> StatisticalCplResult:
    """Leakage of an observed (m, n_w) count table, whose columns index the
    decoded neighbor tuple of alphabet ``sizes``, and its permutation p-value.
    The surrogates keep the table's target margin and its margin of every
    neighbor."""
    leakage, excluded = sup_ratio_leakage(table)
    cube = table.reshape(-1, *sizes)
    x_counts = table.sum(axis=1)
    w_counts = [cube.sum(axis=tuple(a for a in range(cube.ndim) if a != z))
                for z in range(1, cube.ndim)]
    hits = 0
    for s in range(cfg.surrogates):
        null_table = _surrogate_table(x_counts, w_counts, derive_rng(cfg.seed, STAGE_SURROGATE, s))
        try:
            surrogate, _ = sup_ratio_leakage(null_table)
        except InsufficientDataError:
            continue
        hits += surrogate >= leakage
    p_value = (1 + hits) / (1 + cfg.surrogates)
    return StatisticalCplResult(leakage, p_value, p_value < cfg.alpha, excluded)


def _decoded_table(perturbed: Dataset, original: Dataset, target: int,
                   neighbors: list[int]) -> tuple[np.ndarray, list[int]]:
    """Count table of original ``target`` against the decoded ``neighbors``
    tuple, with the neighbors' alphabet sizes."""
    if perturbed.n_records != original.n_records:
        raise InputError("perturbed and original datasets are not row-aligned")
    if perturbed.n_attributes != original.n_attributes:
        raise InputError("perturbed and original datasets have different schemas")
    sizes = [perturbed.alphabet(z).size for z in neighbors]
    n_w = _tuple_cells(sizes)
    w_codes = np.ravel_multi_index(tuple(perturbed.column(z) for z in neighbors), dims=tuple(sizes))
    return count_table(original.column(target), w_codes, original.alphabet(target).size, n_w), sizes


def statistical_cpl(perturbed: Dataset, original: Dataset, target: int,
                    neighbors: list[int], cfg: EstimationConfig) -> StatisticalCplResult:
    """Leakage of ``target`` caused by the decoded ``neighbors`` tuple."""
    neighbors = _check_attributes(original.n_attributes, target, neighbors)
    return _observed_and_null(*_decoded_table(perturbed, original, target, neighbors), cfg)


def estimate_cpl(d: Dataset, specs: list[MechanismSpec], target: int,
                 neighbors: list[int], cfg: EstimationConfig) -> StatisticalCplResult:
    """``statistical_cpl(perturb_dataset(d, specs, cfg), expand_dataset(d,
    cfg.expansion), target, neighbors, cfg)``, bit for bit, without building
    either dataset: only the neighbors are perturbed and decoded, block by
    block, and only their (m, n_w) count table is kept."""
    neighbors = _check_attributes(d.n_attributes, target, neighbors)
    _check_specs(d, specs)
    sizes = [d.alphabet(z).size for z in neighbors]
    n_w = _tuple_cells(sizes)
    m = d.alphabet(target).size
    table = np.zeros((m, n_w), dtype=np.int64)
    for block, reports in _decoded_blocks(d, specs, neighbors, cfg.expansion, cfg.seed):
        w_codes = np.ravel_multi_index(tuple(symbols for _, symbols in reports), dims=tuple(sizes))
        table += count_table(block[:, target], w_codes, m, n_w)
    return _observed_and_null(table, sizes, cfg)


def statistical_tpl(perturbed: Dataset, original: Dataset, target: int,
                    cfg: EstimationConfig, neighbors: list[int] | None = None) -> StatisticalCplResult:
    """Total leakage of ``target``: the decoded tuple includes its own report.

    ``neighbors`` defaults to every other attribute.
    """
    if neighbors is None:
        neighbors = [j for j in range(original.n_attributes) if j != target]
    w_set = sorted(set(neighbors) | {target})
    _check_indices(original.n_attributes, w_set)
    return _observed_and_null(*_decoded_table(perturbed, original, target, w_set), cfg)
