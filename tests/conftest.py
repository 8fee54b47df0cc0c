import math

import numpy as np
import pytest

from cpl_kit import ConditionalDistribution, JointDistribution, conditional_from_joint
from cpl_kit.cpl_bound import _ZERO, BoundedCplResult, BudgetParams, _iter_pairs
from cpl_kit.errors import InputError
from cpl_kit.fixtures import MAXLEAK_JOINT
from cpl_kit.mechanisms import TransitionMatrix

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
