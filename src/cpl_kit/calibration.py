"""Correlation-aware privacy-budget calibration.

Given a total leakage ceiling for every attribute, step a uniform
per-attribute budget up from the equal split, ceiling/n, into the slack that
weak correlations leave unused. An attribute's total is its own budget plus
the leakage each neighbor causes at that budget, through the budget-only
bound or ``exact-<kind>`` (the decoded channel of any kind); this module is
the one place that total is computed. It is not a bound on the leakage of
all neighbors at once, which can exceed it when the neighbors depend on each
other given the target. The walk probes the grid start + i * step and
returns the budget before the first one whose worst total is over the
ceiling, so every grid budget up to it keeps the ceiling; it is the largest
such budget only if the worst total rises with the budget, as the bound's
does, and olh's decoded weight falls whenever its hash range steps up. Both
engines are one closed-form kernel over points built once per calibration
(``_LeakageTable``), which the analyzer and utility benchmarks and
``analyze matrix --mechanism`` share; the probes are evaluated in chunks
and walked in order, and each value is the one a probe alone gives. The
grid stops at the engine's largest budget, so no probe after the first can
be refused.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# ``cpl_bound`` is unused here but stays importable: perfbench's tracer tests rebind it.
from .cpl_bound import _BoundTable, _log_each, cpl_bound  # noqa: F401
from .cpl_exact import EXACT_ENGINES
from .data_model import (
    ConditionalDistribution, JointDistribution, _real, conditional_from_joint, ordered_pairs,
)
from .errors import InfeasibleBudgetError, InputError
from .mechanisms import MechanismSpec, _check_epsilon, _largest_epsilon

_FEAS_TOL = 1e-9
_MAX_PROBES = 10 ** 6
#: Float64 entries a leakage table's temporaries may hold at once, which
#: bounds how many budgets it evaluates together.
_BLOCK_CELLS = 2 ** 14


@dataclass(frozen=True)
class CalibrationResult:
    """The budget before the walk's first one over the ceiling, and its worst attribute.

    ``iterations`` counts accepted increments above the equal-split start;
    ``trace`` records every probed (budget, worst total leakage) pair.
    """

    epsilon_star: float
    worst_attribute: int
    worst_tpl: float
    iterations: int
    trace: tuple[tuple[float, float], ...]


def _as_conditionals(joints: dict) -> tuple[int, dict]:
    if not joints:
        raise InputError("no pairwise distributions supplied")
    n = 1 + max(max(i, j) for i, j in joints)
    conds = {}
    for i, j in ordered_pairs(n):
        if (i, j) not in joints:
            raise InputError(f"missing pairwise distribution for ({i}, {j})")
        table = joints[(i, j)]
        if isinstance(table, JointDistribution):
            conds[(i, j)] = conditional_from_joint(table, given="rows")
        elif isinstance(table, ConditionalDistribution):
            conds[(i, j)] = table
        else:
            raise InputError("pairwise tables must be joint or conditional distributions")
    return n, conds


class _LeakageTable:
    """Leakage of every conditional as a function of the shared budget: for
    both engines, ln max over (a, b) in P of (1 + lam a) / (1 + lam b), with
    the points P of each conditional built here, once. For the bound, P holds
    the prefix masses that ``cpl_bound`` scores, of the row pairs that are
    not disjoint, lam = e^eps - 1, and a disjoint pair raises the value to
    eps, so each value is ``cpl_bound``'s leakage bit for bit. Every
    decoded channel is symmetric, so for ``exact-<kind>`` P(y | x) is
    proportional to 1 + lam G[x, y], lam = w - 1 with w the diagonal to
    off-diagonal ratio: P holds each column's extremes over the usable rows,
    the bound's H restricted to single symbols, and each value is the exact
    leakage that ``analyze matrix --mechanism`` reports. ``cpl_exact``'s
    product with the channel matrix rounds otherwise and can differ from it
    in the last few bits. Only P's Pareto frontier is
    kept, and a (0, 0) point pads every row, so no leakage reads below 0
    where rounding leaves w a hair below 1. A call maps E budgets to an
    (E, C) array, ``block`` budgets at a time, which keeps the temporaries
    near ``_BLOCK_CELLS`` float64 entries; every value is the one a call with
    its budget alone gives.
    """

    def __init__(self, conds: list[ConditionalDistribution], engine: str):
        self._kind = EXACT_ENGINES.get(engine) if isinstance(engine, str) else None
        self._disjoint = np.zeros(len(conds), bool)
        if engine == "bound":
            table = _BoundTable.build(conds)
            points = table.stops()
            self._disjoint[:] = [table.disjoint[sl].any() for sl in table.slices]
        elif self._kind is not None:
            points = [(rows.max(axis=0), rows.min(axis=0))
                      for rows in (cond.matrix[cond.usable_rows()] for cond in conds)]
            self._sizes, self._size_of = np.unique([c.n_cols for c in conds], return_inverse=True)
        else:
            raise InputError(f"unknown leakage engine {engine!r}")
        points = [_frontier(a, b) for a, b in points]
        width = 1 + max((a.size for a, _ in points), default=0)
        self._a, self._b = np.zeros((2, len(conds), width))
        for c, (a, b) in enumerate(points):
            self._a[c, :a.size], self._b[c, :b.size] = a, b
        self.block = max(1, _BLOCK_CELLS // max(self._a.size, 1))
        #: The largest budget the engine takes; every other check on a
        #: budget is a lower bound.
        self.largest = _largest_epsilon(self._kind)

    def __call__(self, epsilons) -> np.ndarray:
        parts = [self._evaluate(epsilons[lo:lo + self.block])
                 for lo in range(0, len(epsilons), self.block)]
        return np.concatenate(parts) if parts else np.empty((0, len(self._disjoint)))

    def _evaluate(self, epsilons) -> np.ndarray:
        # Every budget is checked before any is evaluated, and each lam is a
        # Python float, so a value does not depend on the budgets beside it.
        if self._kind is None:
            for eps in epsilons:
                _check_epsilon(eps)
            lam = np.array([[math.expm1(eps)] for eps in epsilons])
        else:
            lam = np.array([[MechanismSpec(self._kind, eps, k).weight - 1.0
                             for k in self._sizes] for eps in epsilons])[:, self._size_of]
        ratio = (1.0 + self._a * lam[..., None]) / (1.0 + self._b * lam[..., None])
        logs = _log_each(ratio.max(axis=-1))
        eps_col = np.array(epsilons, dtype=np.float64)[:, None]
        return np.where(self._disjoint, np.maximum(logs, eps_col), logs)


def _frontier(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points (a, b) no other matches or beats with a' >= a and b' <= b;
    the ratio rises with a and falls with b, in floating point too."""
    order = np.lexsort((b, -a))
    a, b = a[order], b[order]
    keep = b < np.append(np.inf, np.minimum.accumulate(b))[:-1]
    return a[keep], b[keep]


def _worst(leaks: np.ndarray, n: int, epsilons) -> tuple[list[float], list[int]]:
    """Largest total of own budget plus the n - 1 neighbor leakages of an
    attribute at each budget, with the first attribute attaining it.

    The neighbors are added one at a time, in order, for every attribute and
    budget at once: numpy's unrolled summation can change the last bit.
    """
    per = leaks.reshape(len(epsilons), n, n - 1)
    total = np.repeat(np.array(epsilons, dtype=np.float64)[:, None], n, axis=1)
    for k in range(n - 1):
        total += per[:, :, k]
    return total.max(axis=1).tolist(), total.argmax(axis=1).tolist()


def _ordered(conds: dict, n: int) -> list[ConditionalDistribution]:
    return [conds[pair] for pair in ordered_pairs(n)]


def _candidates(start: float, step: float, limit: float, largest: float):
    """The budgets the walk probes, in order: ``start``, then ``start + i *
    step`` for i >= 1 up to the first past ``limit``, and none past
    ``largest``, the largest budget a probe can take."""
    yield start
    for i in itertools.count(1):
        candidate = start + i * step
        if candidate > largest:
            return
        yield candidate
        if candidate > limit:
            return


def calibrate(joints: dict, epsilon_bar: float, step: float = 0.01,
              engine: str = "bound") -> CalibrationResult:
    """Step the shared budget up from the equal split and return the last
    budget before the first one over the ceiling.

    ``joints`` maps ordered attribute pairs (i, j) to the pairwise
    distribution of (attribute i, attribute j); the per-pair leakage engine
    is the budget-only bound or ``exact-<kind>``, and an attribute's total is
    its own budget plus its pairwise leakages, which neighbors that depend on
    each other given the attribute can exceed. The equal split is feasible
    by construction (each neighbor leaks at most the shared budget); a
    numerical violation of that is an error. The probes are evaluated a
    chunk at a time and walked in order; no chunk reaches past the first
    budget above the ceiling or past the engine's largest budget.
    """
    epsilon_bar, step = _real(epsilon_bar, "total budget"), _real(step, "step")
    if not 0 < epsilon_bar < math.inf:
        raise InputError("total budget must be finite and positive")
    if not 0 < step < math.inf:
        raise InputError("step must be finite and positive")
    n, conds = _as_conditionals(joints)
    start = epsilon_bar / n
    limit = epsilon_bar + _FEAS_TOL
    # A probe's worst TPL is at least its budget, so the walk ends past the
    # ceiling. n >= 2, so a step lost in rounding (start + step == start) fails too.
    if (limit - start) / step > _MAX_PROBES:
        raise InputError(f"step {step} is too small: over {_MAX_PROBES} probes to the ceiling")
    table = _LeakageTable(_ordered(conds, n), engine)
    trace = []
    probes = _candidates(start, step, limit, table.largest)
    while chunk := list(itertools.islice(probes, table.block)):
        for candidate, worst, idx in zip(chunk, *_worst(table(chunk), n, chunk)):
            trace.append((candidate, worst))
            if worst > limit:
                if len(trace) == 1:
                    raise InfeasibleBudgetError(f"equal split should satisfy the ceiling but "
                                                f"worst TPL {worst} > {epsilon_bar}")
                return CalibrationResult(*best, len(trace) - 2, tuple(trace))
            best = (candidate, idx, worst)
    raise InputError(f"the walk reached the largest budget a probe can take ({table.largest:.2f}) "
                     f"with every worst total leakage still within the ceiling {epsilon_bar}")
