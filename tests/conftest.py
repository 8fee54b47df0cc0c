import sys

# A test run leaves no __pycache__ in the checkout: a stale cache would
# change the start-up time that a benchmark of the checkout measures.
sys.dont_write_bytecode = True

import functools
import math

import numpy as np
import pytest

from cpl_kit import (
    ConditionalDistribution, JointDistribution, conditional_from_joint, pairwise_conditionals,
)
from cpl_kit.calibration import _as_conditionals, _LeakageTable
from cpl_kit.cpl_bound import _ZERO, BoundedCplResult, BudgetParams, _iter_pairs, cpl_bound
from cpl_kit.cpl_exact import EXACT_ENGINES, ExactCplResult, cpl_exact
from cpl_kit.errors import InputError, InsufficientDataError
from cpl_kit.fixtures import MAXLEAK_JOINT
from cpl_kit.mechanisms import MechanismSpec, TransitionMatrix, transition_matrix
from cpl_kit.statistical import (
    StatisticalCplResult, _decoded_column, _observed_and_null, count_table,
)

LABELS4 = ("s0", "s1", "s2", "s3")


@pytest.fixture(scope="session")
def maxleak_joint() -> JointDistribution:
    return JointDistribution(LABELS4, LABELS4, MAXLEAK_JOINT)


@pytest.fixture(scope="session")
def maxleak_cond_fwd(maxleak_joint) -> ConditionalDistribution:
    """P(neighbor | target): rows s0/s1 have disjoint support."""
    return conditional_from_joint(maxleak_joint, given="rows")


@pytest.fixture(scope="session")
def maxleak_cond_rev(maxleak_joint) -> ConditionalDistribution:
    """The opposite conditioning direction."""
    return conditional_from_joint(maxleak_joint, given="cols")


def random_conditional(rng: np.random.Generator, m: int = None, t: int = None,
                       zeros: bool = True) -> ConditionalDistribution:
    """Random row-stochastic table; nonzero entries bounded away from zero so
    ratio suprema are numerically well conditioned."""
    m = m or int(rng.integers(2, 6))
    t = t or int(rng.integers(2, 6))
    while True:
        mat = rng.random((m, t)) + 0.05
        if zeros:
            mask = rng.random((m, t)) < 0.3
            # never zero out a full row
            for i in range(m):
                if mask[i].all():
                    mask[i, rng.integers(0, t)] = False
            mat[mask] = 0.0
        mat /= mat.sum(axis=1, keepdims=True)
        if (mat[mat > 0] >= 1e-3).all():
            break
    labels_m = tuple(f"r{i}" for i in range(m))
    labels_t = tuple(f"c{i}" for i in range(t))
    return ConditionalDistribution(labels_m, labels_t, mat)


def _disjoint(g: np.ndarray, gp: np.ndarray) -> bool:
    return not ((g > _ZERO) & (gp > _ZERO)).any()


def cpl_bound_bruteforce(cond: ConditionalDistribution, budget: BudgetParams) -> BoundedCplResult:
    """Exhaustive-subset reference implementation (oracle for the greedy).

    Enumerates every nonempty index subset for every ordered row pair;
    only usable below ~20 neighbor symbols.
    """
    t = cond.n_cols
    if t > 20:
        raise InputError(f"brute force enumerates 2^t subsets; t={t} is too large")
    masks = (np.arange(1, 2 ** t)[:, None] >> np.arange(t)[None, :]) & 1
    masks = masks.astype(np.float64)
    lam = math.expm1(budget.epsilon)
    best: BoundedCplResult | None = None
    for x, xp in _iter_pairs(cond):
        g = cond.matrix[x]
        gp = cond.matrix[xp]
        a_all = masks @ g
        b_all = masks @ gp
        h_all = (1.0 + a_all * lam) / (1.0 + b_all * lam)
        s = int(np.argmax(h_all))
        a, b = float(a_all[s]), float(b_all[s])
        if _disjoint(g, gp):
            leak = budget.epsilon
        else:
            leak = math.log(h_all[s])
        if best is None or leak > best.leakage:
            subset = tuple(int(i) for i in np.flatnonzero(masks[s]))
            best = BoundedCplResult(leak, budget.delta * a, subset, a, b, (x, xp))
    return best


def cpl_limit(cond: ConditionalDistribution) -> float:
    """Saturation value of the bound as the neighbor budget grows.

    Returns ln of the largest single-entry ratio p(col|x)/p(col|x') over all
    columns and ordered usable row pairs; ``math.inf`` when some column has
    positive mass under one row and zero under another.
    """
    sub = cond.matrix[cond.usable_rows()]
    col_max = sub.max(axis=0)
    col_min = sub.min(axis=0)
    if ((col_max > _ZERO) & (col_min <= _ZERO)).any():
        return math.inf
    active = col_max > _ZERO
    if not active.any():
        return 0.0
    return float(np.log((col_max[active] / col_min[active]).max()))


def is_max_attainable(cond: ConditionalDistribution) -> tuple[bool, tuple[int, int] | None]:
    """Whether the bound can reach the full budget: true exactly when two
    usable rows have disjoint supports, returned with such a row pair."""
    rows = cond.valid_rows()
    support = cond.matrix[rows] > _ZERO
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not (support[i] & support[j]).any():
                return True, (int(rows[i]), int(rows[j]))
    return False, None


def evaluate_witness(cond: ConditionalDistribution, trans: TransitionMatrix,
                     witness: tuple[int, int, int]) -> float:
    """Re-evaluate an exact-leakage witness triple; returns the leakage it
    certifies."""
    y, x, xp = witness
    c = trans.matrix[:, y]
    num = float(c @ cond.matrix[x])
    den = float(c @ cond.matrix[xp])
    if den == 0:
        return math.inf
    return math.log(num / den)


def decode_rows(d, specs, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Row-level reference for ``estimate_cpl``: the records expanded by
    ``cfg.expansion`` (record i becomes rows i*r..i*r+r-1) and, aligned with
    them, every attribute decoded by its own column walker."""
    r = cfg.expansion
    decoded = [np.concatenate([symbols for *_, symbols in
                               _decoded_column(spec, d.column(j), r, cfg.seed, (), j)])
               for j, spec in enumerate(specs)]
    return np.repeat(d.records, r, axis=0), np.column_stack(decoded)


def row_leakage(d, expanded, decoded, target, tuple_, cfg) -> StatisticalCplResult:
    """Leakage of ``target``'s expanded column caused by the decoded
    ``tuple_``, counted from whole rows; with the target in ``tuple_`` it is
    the total leakage."""
    sizes = [d.alphabet(z).size for z in tuple_]
    codes = np.ravel_multi_index(tuple(decoded[:, z] for z in tuple_), dims=tuple(sizes))
    table = count_table(expanded[:, target], codes, d.alphabet(target).size, math.prod(sizes))
    return _observed_and_null(table, sizes, cfg)


def exact_set_leakage(d, specs, target, tuple_) -> ExactCplResult:
    """Exact leakage of ``target`` caused by releasing every member of
    ``tuple_`` through its own decoded channel: P(tuple | target) counted from
    the records, sent through the Kronecker product of the members' channels,
    a channel at the summed budget. ``tuple_`` may hold the target."""
    sizes = [d.alphabet(z).size for z in tuple_]
    n_w = math.prod(sizes)
    codes = np.ravel_multi_index(tuple(d.column(z) for z in tuple_), dims=tuple(sizes))
    counts = count_table(d.column(target), codes, d.alphabet(target).size, n_w)
    labels = tuple(str(c) for c in range(n_w))
    cond = conditional_from_joint(
        JointDistribution(d.alphabet(target).symbols, labels, counts / d.n_records))
    channel = functools.reduce(np.kron, (transition_matrix(specs[z]).matrix for z in tuple_))
    trans = TransitionMatrix(labels, labels, channel, sum(specs[z].epsilon for z in tuple_))
    return cpl_exact(cond, trans)


def exact_closed_form(cond: ConditionalDistribution, kind: str, eps: float) -> float:
    """Plain-Python oracle for the exact engines' leakage table. The decoded
    channel of ``kind`` is symmetric, with diagonal to off-diagonal ratio w,
    so P(y | x) is proportional to 1 + (w - 1) G[x, y], and the exact leakage
    is ln max over columns y of (1 + (w - 1) top_y) / (1 + (w - 1) low_y),
    with top_y and low_y the extremes of column y over the usable rows. The
    largest ratio starts at 1, so rounding that leaves w a hair below 1
    cannot make a leakage negative."""
    lam = MechanismSpec(kind, eps, cond.n_cols).weight - 1.0
    rows = cond.matrix[cond.usable_rows()].tolist()
    best = 1.0
    for column in zip(*rows):
        best = max(best, (1.0 + lam * max(column)) / (1.0 + lam * min(column)))
    return math.log(best)


def worst_total(conds, n, eps, engine="bound") -> float:
    """Largest total over the n attributes at a shared budget: the
    attribute's own budget plus each neighbor's leakage, summed in neighbor
    order: from the public single-pair kernel ``cpl_bound``, or for
    ``exact-<kind>`` from :func:`exact_closed_form`, which ``cpl_exact``
    through the kind's ``transition_matrix`` equals within a few ulps."""
    def leakage(cond):
        if engine == "bound":
            return cpl_bound(cond, BudgetParams(eps, 0.0)).leakage
        return exact_closed_form(cond, EXACT_ENGINES[engine], eps)

    totals = []
    for i in range(n):
        total = eps
        for j in range(n):
            if j != i:
                total += leakage(conds[(i, j)])
        totals.append(total)
    return max(totals)


def calibrate_by_probe(joints, epsilon_bar, step, engine) -> list[tuple[float, float]]:
    """Probe-by-probe reference for ``calibrate``'s trace: the same walk, one
    budget at a time, each worst total from :func:`worst_total`."""
    n, conds = _as_conditionals(joints)
    start = epsilon_bar / n
    trace = [(start, worst_total(conds, n, start, engine))]
    i = 0
    while True:
        candidate = start + (i + 1) * step
        trace.append((candidate, worst_total(conds, n, candidate, engine)))
        if trace[-1][1] > epsilon_bar + 1e-9:
            return trace
        i += 1


def reference_leakages(d, epsilon: float, method: str = "bound") -> list[float]:
    """Per-pair reference leakage of every ordered attribute pair of ``d``:
    the budget-only bound (``bound``), or the exact value through the
    decoded channel of a mechanism (``exact-<kind>`` for any kind), from
    calibration's leakage table."""
    return _LeakageTable(list(pairwise_conditionals(d).values()), method)([epsilon])[0].tolist()


def sup_ratio_reference(counts: np.ndarray) -> tuple[float, int]:
    """Masked-extremes reference for ``sup_ratio_leakage``: the largest
    over smallest positive conditional of every column observed under two
    symbols, taken with ``nanmax``/``nanmin`` over the positive cells only."""
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


def reject_constant(name):
    """``json.loads`` ``parse_constant`` hook: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-strict JSON constant {name}")
