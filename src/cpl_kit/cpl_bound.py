"""Tight upper bound on correlation-induced leakage from (epsilon, delta) alone.

When only the neighbor's privacy budget is known, the leakage maximization
over all admissible transition columns reduces, for each ordered pair of
conditional rows (g, g'), to choosing the index subset S that maximizes

    H(S) = (1 + A*(e^eps - 1)) / (1 + B*(e^eps - 1)),   A = sum_S g_i,
                                                        B = sum_S g'_i.

A greedy pass over indices in descending ratio order g_i/g'_i admits index i
exactly when g_i/g'_i >= current H; an exchange argument shows this is
optimal, and the tests check it against a brute-force subset enumeration.
The admission order and its prefix sums do not depend on the budget, so they
are computed once for all row pairs of a set of conditionals and reused for
every budget (``_BoundTable``).
For delta > 0 the same leakage expression holds and the slack rides alongside
as a relaxation component delta*A, so results are reported as the pair
(leakage, relaxation).

Leakages are in nats throughout; converting to bits is a display concern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import ConditionalDistribution, ordered_pairs
from .errors import InputError
from .mechanisms import _check_epsilon

_ZERO = 1e-15  # below this a probability entry is treated as exactly zero


@dataclass(frozen=True)
class BudgetParams:
    """An (epsilon, delta) privacy budget."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not 0 <= self.delta < 1:
            raise InputError("delta must be in [0, 1)")


@dataclass(frozen=True)
class BoundedCplResult:
    """Leakage bound in nats with the optimizer that produced it.

    ``relaxation`` is delta * a_mass at the maximizing row pair; ``subset``
    holds the admitted neighbor-symbol indices, and ``a_mass``/``b_mass``
    their total probability under the two conditioning rows.
    """

    leakage: float
    relaxation: float
    subset: tuple[int, ...]
    a_mass: float
    b_mass: float
    witness_pair: tuple[int, int]


def _iter_pairs(cond: ConditionalDistribution) -> list[tuple[int, int]]:
    rows = cond.usable_rows().tolist()
    return [(rows[a], rows[b]) for a, b in ordered_pairs(len(rows))]


@dataclass(frozen=True)
class _BoundTable:
    """The greedy's budget-independent data for every ordered usable row pair
    of a list of conditionals, stacked in list order and ``_iter_pairs``
    order within each conditional.

    For pair p (rows g, g'), ``order[p]`` is the admission order: indices
    with g' = 0 < g (infinite ratio) ascending, then those with g' > 0 by
    descending ratio g/g', ties by ascending index (the optimum depends on
    the subset only through its masses, so tie order cannot change it), then
    the skipped g = g' = 0 indices. ``q[p, k]`` is the ratio of the k-th index (``inf``
    for infinite, ``-inf`` from the first skipped index on, with one extra
    ``-inf`` column), and ``a[p, k]``/``b[p, k]`` are the masses of the
    first k indices under g and g'. ``slices`` maps each conditional to its
    pairs.
    """

    pairs: tuple[tuple[int, int], ...]
    slices: tuple[slice, ...]
    order: np.ndarray  # (P, t)
    q: np.ndarray  # (P, t + 1)
    a: np.ndarray  # (P, t + 1)
    b: np.ndarray  # (P, t + 1)
    disjoint: np.ndarray  # (P,) bool

    @classmethod
    def build(cls, conds: list[ConditionalDistribution]) -> "_BoundTable":
        pairs: list[tuple[int, int]] = []
        slices = []
        for cond in conds:
            start = len(pairs)
            pairs.extend(_iter_pairs(cond))
            slices.append(slice(start, len(pairs)))
        t = max((cond.n_cols for cond in conds), default=0)
        g = np.zeros((len(pairs), t))
        gp = np.zeros((len(pairs), t))
        for cond, sl in zip(conds, slices):
            x, xp = np.array(pairs[sl]).T
            g[sl, :cond.n_cols] = cond.matrix[x]
            gp[sl, :cond.n_cols] = cond.matrix[xp]
        positive, positive_p = g > _ZERO, gp > _ZERO
        ratio = np.where(positive, np.inf, -np.inf)
        np.divide(g, gp, out=ratio, where=positive_p)
        # A stable sort keeps ascending index order among equal ratios.
        order = np.argsort(-ratio, axis=1, kind="stable")
        sorted_at = (np.arange(len(pairs))[:, None], order)
        q = np.full((len(pairs), t + 1), -np.inf)
        q[:, :t] = ratio[sorted_at]
        # cumsum adds in sequence, exactly as the greedy accumulates its masses.
        a = np.zeros((len(pairs), t + 1))
        b = np.zeros((len(pairs), t + 1))
        np.cumsum(g[sorted_at], axis=1, out=a[:, 1:])
        np.cumsum(gp[sorted_at], axis=1, out=b[:, 1:])
        disjoint = ~(positive & positive_p).any(axis=1)
        return cls(tuple(pairs), tuple(slices), order, q, a, b, disjoint)

    def _stops(self, epsilons) -> tuple[np.ndarray, np.ndarray]:
        """Greedy stop of every pair at each of E budgets, and its H there,
        as (E, P) arrays.

        The greedy admits index k exactly when q[k] >= H of the first k
        indices; since q descends, the first rejection ends the admitted
        prefix, and H never falls below its empty-prefix value 1. Each
        e^eps - 1 is taken on a Python float, so a value does not depend on
        how many budgets share the call.
        """
        for eps in epsilons:
            _check_epsilon(eps)
        lam = np.array([math.expm1(eps) for eps in epsilons])[:, None, None]
        h = (1.0 + self.a * lam) / (1.0 + self.b * lam)
        stop = np.argmin(self.q >= h, axis=-1)
        return stop, np.take_along_axis(h, stop[..., None], axis=-1)[..., 0]

    def evaluate(self, epsilons) -> tuple[np.ndarray, np.ndarray]:
        """Greedy stop and leakage of every pair at each of E budgets, as
        (E, P) arrays.

        Disjoint pairs attain H = e^eps analytically, so they report the
        exact budget rather than round-tripping through exp/log.
        """
        stop, h_stop = self._stops(epsilons)
        eps_col = np.array(epsilons, dtype=np.float64)[:, None]
        return stop, np.where(self.disjoint, eps_col, _log_each(h_stop))

    def leakages(self, epsilons) -> np.ndarray:
        """(E, C) bound of each conditional at each of E budgets, the largest
        leakage ``evaluate`` gives its pairs.

        Since log is monotone, that is one log per conditional, of its
        largest H over its pairs that are not disjoint, raised to the budget
        where it has a disjoint pair. A disjoint pair's H is masked as 1,
        whose log 0 the budget covers.
        """
        starts = np.array([sl.start for sl in self.slices], dtype=np.intp)
        h_max = np.maximum.reduceat(np.where(self.disjoint, 1.0, self._stops(epsilons)[1]),
                                    starts, axis=1)
        logs = _log_each(h_max)
        eps_col = np.array(epsilons, dtype=np.float64)[:, None]
        return np.where(np.logical_or.reduceat(self.disjoint, starts),
                        np.maximum(logs, eps_col), logs)


def _log_each(x: np.ndarray) -> np.ndarray:
    """``math.log`` of every entry: numpy's log can differ from the C
    library's in the last bit."""
    return np.fromiter(map(math.log, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def cpl_bound(cond: ConditionalDistribution, budget: BudgetParams) -> BoundedCplResult:
    """Upper bound on the leakage of the conditional's row attribute caused by
    any (epsilon, delta)-LDP release of the column attribute.

    The witness is the first row pair with the largest leakage.
    """
    table = _BoundTable.build([cond])
    stop, leaks = table.evaluate([budget.epsilon])
    leaks = leaks[0].tolist()
    p = max(range(len(leaks)), key=leaks.__getitem__)
    k = int(stop[0, p])
    a, b = float(table.a[p, k]), float(table.b[p, k])
    subset = tuple(table.order[p, :k].tolist())
    return BoundedCplResult(leaks[p], budget.delta * a, subset, a, b, table.pairs[p])

