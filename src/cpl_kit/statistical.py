"""Statistical leakage estimation from perturbed data.

Three stages: expand the dataset by replication, perturb each member of
the attribute tuple in every expanded record independently, and decode each
report back into the input alphabet. The leakage of a target attribute
caused by a tuple of attributes is then the log of the largest
conditional-probability ratio observed across decoded tuples, restricted to
cells witnessed under both conditioning symbols. With neighbors alone in the
tuple this is the correlation leakage; with the target's own report in it,
the total leakage.

The expanded rows are only ever counted, so the stages run on blocks of
``BLOCK_ROWS`` expanded rows and the counts add up across blocks: memory
stays flat in the expansion factor. One walker streams one attribute's
column through the stages, from that attribute's own two streams.
``estimate_cpl`` walks the tuple's members in step and keeps only the count
table; the utility benchmark walks each column alone.

Significance comes from permutation surrogates: shuffling each member
column of the tuple independently keeps every one-way margin and destroys the
cross-attribute correlation. That null depends on the margins alone, so each
surrogate is drawn directly as a count table with the observed table's
margins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpl_exact import _output_ratios
from .data_model import Dataset, _integer, _real, count_table
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
    of permutation surrogates behind each p-value. Both are kept as ``int``.
    """

    expansion: int = 50
    surrogates: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "expansion", _integer(self.expansion, "expansion factor"))
        object.__setattr__(self, "surrogates", _integer(self.surrogates, "surrogate count"))
        if self.expansion < 1:
            raise InputError("expansion factor must be >= 1")
        if self.surrogates < 1:
            raise InputError("surrogate count must be >= 1")
        if not 0 < _real(self.alpha, "alpha") < 1:
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


def _check_specs(d: Dataset, specs, attrs) -> None:
    """Check ``specs[j]``, the mechanism of attribute j, for every j in ``attrs``."""
    for j in attrs:
        try:
            spec = specs[j]
        except LookupError:
            raise InputError(f"no mechanism spec for attribute {d.attribute_names[j]!r}") from None
        if spec.k != d.alphabet(j).size:
            raise InputError(
                f"attribute {d.attribute_names[j]!r} has alphabet size "
                f"{d.alphabet(j).size} but spec k={spec.k}"
            )


def _expanded_blocks(records: np.ndarray, r: int):
    """Walk ``records`` expanded by ``r``, whose row i is record i // r, in
    blocks of ``BLOCK_ROWS`` rows without building it. Each block is a new
    array, filled by three broadcasts: the repeats of its first record, the
    r repeats of each record in between and the repeats of its last."""
    n_rows = len(records) * r
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n_rows)
        block = np.empty((stop - start, *records.shape[1:]), dtype=records.dtype)
        first, last = start // r, (stop - 1) // r
        # Where the first record's repeats end and the last's begin; the
        # slices stop at the block's end, and with one record both do.
        head = (first + 1) * r - start
        body = max(last * r - start, head)
        block[:head] = records[first]
        block[head:body].reshape(-1, r, *records.shape[1:])[...] = records[first + 1:last, None]
        block[body:] = records[last]
        yield block


def _decoded_column(spec: MechanismSpec, values: np.ndarray, r: int, seed: int,
                    key: tuple[int, ...], j: int):
    """The ``(block, support counts, decoded symbols)`` of every block of
    ``values``, attribute j's column, expanded by ``r``. The column draws
    from ``derive_rng(seed, STAGE_PERTURB | STAGE_DECODE, *key, j)``, each
    stream continued from block to block, so a column walked alone and one
    walked in step with others give the same symbols. Only the support
    counts and decoded symbols are kept, so no report outlives its block."""
    perturb_rng = derive_rng(seed, STAGE_PERTURB, *key, j)
    decode_rng = derive_rng(seed, STAGE_DECODE, *key, j)

    def stats(block):
        col = perturb_column(spec, block, perturb_rng)
        return block, support_counts(spec, col), decode_column(spec, col, decode_rng)

    return map(stats, _expanded_blocks(values, r))


def _check_attributes(n_attributes: int, target: int, neighbors) -> list[int]:
    neighbors = list(neighbors)
    if not neighbors:
        raise InputError("neighbor set must be nonempty")
    if len(set(neighbors)) != len(neighbors):
        # A repeated neighbor would be permuted as an independent copy of
        # itself by the surrogates, which breaks the null.
        raise InputError(f"neighbor indices must be distinct, got {neighbors}")
    if not all(0 <= z < n_attributes for z in (target, *neighbors)):
        raise InputError(f"attribute indices must lie in [0, {n_attributes})")
    return neighbors


def _tuple_cells(sizes: list[int]) -> int:
    cells = math.prod(sizes)
    if cells > MAX_TUPLE_CELLS:
        raise InputError(
            f"joint neighbor alphabet has {cells} cells (cap {MAX_TUPLE_CELLS}); "
            "reduce the neighbor set"
        )
    return cells


def sup_ratio_leakage(counts: np.ndarray) -> tuple[float, int]:
    """Supremum log-ratio of empirical conditionals P(w | target) from an
    (m, n_w) count table such as :func:`count_table` returns.

    Only cells observed under both conditioning symbols enter the supremum;
    the return also counts the dropped zero cells. The supremum is the exact
    engine's column-extremes kernel, which gives a column observed under one
    symbol only ratio 1, no more than any column observed under two.
    """
    counts = np.asarray(counts, dtype=np.float64)
    row_tot = counts.sum(axis=1)
    rows = row_tot > 0
    if rows.sum() < 2:
        raise InsufficientDataError("need at least 2 observed conditioning symbols")
    sub = counts[rows]
    observed = sub.sum(axis=0) > 0
    sub = sub[:, observed]
    positive = sub > 0
    excluded = int((~positive).sum())
    if not (positive.sum(axis=0) >= 2).any():
        raise InsufficientDataError("no conditional cell observed under two symbols")
    probs = sub / row_tot[rows, None]
    # np.log, not math.log: the two differ in the last bit on some inputs.
    return float(np.log(_output_ratios(probs).max())), excluded


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


def estimate_cpl(d: Dataset, specs, target: int, neighbors: list[int],
                 cfg: EstimationConfig) -> StatisticalCplResult:
    """Leakage of ``target`` caused by the decoded ``neighbors`` tuple, with
    its permutation p-value. The tuple may hold the target itself: its column
    then counts once as the original and once, decoded, as a member, so the
    result is the total leakage. Only the members are perturbed and decoded,
    each by its own column walker, in step block by block, and only their
    (m, n_w) count table is kept. ``specs[z]`` is attribute z's mechanism;
    only the members' are read, so a mapping of the members alone will do."""
    neighbors = _check_attributes(d.n_attributes, target, neighbors)
    _check_specs(d, specs, neighbors)
    sizes = [d.alphabet(z).size for z in neighbors]
    n_w = _tuple_cells(sizes)
    m = d.alphabet(target).size
    table = np.zeros((m, n_w), dtype=np.int64)
    walkers = [_decoded_column(specs[z], d.column(z), cfg.expansion, cfg.seed, (), z)
               for z in neighbors]
    for block, *reports in zip(_expanded_blocks(d.column(target), cfg.expansion), *walkers):
        w_codes = np.ravel_multi_index(tuple(symbols for _, _, symbols in reports), dims=tuple(sizes))
        table += count_table(block, w_codes, m, n_w)
    return _observed_and_null(table, sizes, cfg)
