"""Correlation-aware privacy-budget calibration.

Given a total leakage ceiling for every attribute, step a uniform
per-attribute budget up from the equal split, ceiling/n, into the slack
that weak correlations leave unused. An attribute's total is its own budget plus the
leakage each neighbor causes at that same budget, through the budget-only
bound or ``exact-<kind>`` (the decoded channel of any mechanism kind); this
module is the one place that total is computed. It is not a bound on the
leakage of all neighbors at once, which can exceed it when the neighbors
depend on each other given the target. The walk probes the grid start +
i * step and returns the budget before the first one whose worst total is
over the ceiling, so every grid budget up to the result keeps the ceiling.
That is the largest such grid budget only if the worst total rises with the
budget, as the bound's does. A kind's decoded weight can fall as the budget
rises (olh's whenever its hash range steps up), so for ``exact-<kind>`` a
later grid budget may keep the ceiling again. The budget-independent part
of every leakage is built once per calibration and shared by all probes,
which are evaluated in chunks and walked in order; each value is the one a
probe alone gives. The analyzer and utility benchmarks take their per-pair
leakages from the same table.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Calibration evaluates the bound through ``_BoundTable``; ``cpl_bound`` stays
# importable from here because perfbench's tracer tests rebind it in this module.
from .cpl_bound import _BoundTable, _log_each, cpl_bound  # noqa: F401
from .cpl_exact import EXACT_ENGINES, _output_ratios
from .data_model import (
    ConditionalDistribution, JointDistribution, conditional_from_joint, ordered_pairs,
)
from .errors import CplKitError, InfeasibleBudgetError, InputError
from .mechanisms import _EPSILON_MAX, MechanismSpec, _channel

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
    """Leakage of every conditional as a function of the shared budget.

    Everything that does not depend on the budget is computed here, once:
    the bound's greedy orders and prefix masses, or for ``exact-<kind>`` the
    usable rows stacked by (row count, domain size), so that a probe builds
    one channel per domain size and does one matmul per stack. A call maps E
    budgets to an (E, C) array, ``block`` budgets at a time: that many keep
    the temporaries within about ``_BLOCK_CELLS`` float64 entries. Every
    value is the one a call with its budget alone gives.
    """

    def __init__(self, conds: list[ConditionalDistribution], engine: str):
        self._n = len(conds)
        if engine == "bound":
            self._bound = _BoundTable.build(conds)
            cells = self._bound.q.size
        elif engine in EXACT_ENGINES:
            self._bound = None
            self._kind = EXACT_ENGINES[engine]
            groups: dict[tuple[int, int], list[int]] = {}
            usable = [cond.matrix[cond.usable_rows()] for cond in conds]
            for c, rows in enumerate(usable):
                groups.setdefault(rows.shape, []).append(c)
            self._stacks = [(k, members, np.stack([usable[c] for c in members]))
                            for (_, k), members in groups.items()]
            self._sizes = list(dict.fromkeys(k for k, *_ in self._stacks))
            cells = sum(stack.size for *_, stack in self._stacks)
        else:
            raise InputError(f"unknown leakage engine {engine!r}")
        self.block = max(1, _BLOCK_CELLS // max(cells, 1))

    def __call__(self, epsilons) -> np.ndarray:
        parts = [self._evaluate(epsilons[lo:lo + self.block])
                 for lo in range(0, len(epsilons), self.block)]
        return np.concatenate(parts) if parts else np.empty((0, self._n))

    def _evaluate(self, epsilons) -> np.ndarray:
        if self._bound is not None:
            return self._bound.leakages(epsilons)
        # Every budget is checked before any is evaluated.
        channels = [{k: _channel(MechanismSpec(self._kind, eps, k)) for k in self._sizes}
                    for eps in epsilons]
        out = np.empty((len(epsilons), self._n))
        for k, members, stack in self._stacks:
            chan = np.stack([stack @ trans[k] for trans in channels])
            out[:, members] = _log_each(_output_ratios(chan).max(axis=-1))
        return out


def _worst(leaks: np.ndarray, n: int, epsilons) -> tuple[np.ndarray, np.ndarray]:
    """Largest total of own budget plus the n - 1 neighbor leakages of an
    attribute at each budget, with the first attribute attaining it.

    The neighbors are added one at a time, in order, for every attribute and
    budget at once: numpy's unrolled summation can change the last bit.
    """
    per = leaks.reshape(len(epsilons), n, n - 1)
    total = np.repeat(np.array(epsilons, dtype=np.float64)[:, None], n, axis=1)
    for k in range(n - 1):
        total += per[:, :, k]
    return total.max(axis=1), total.argmax(axis=1)


def _ordered(conds: dict, n: int) -> list[ConditionalDistribution]:
    return [conds[pair] for pair in ordered_pairs(n)]


def _candidates(start: float, step: float, limit: float):
    """The budgets the walk probes, in order: ``start``, then ``start + i *
    step`` for i >= 1 up to the first past ``limit``, and none past the
    largest budget a probe can take."""
    yield start
    for i in itertools.count(1):
        candidate = start + i * step
        if candidate > _EPSILON_MAX:
            return
        yield candidate
        if candidate > limit:
            return


def _probed(table: _LeakageTable, n: int, chunk: list[float]):
    """(budget, worst total, worst attribute) of each budget of a chunk."""
    try:
        worst, idx = _worst(table(chunk), n, chunk)
    except (CplKitError, ArithmeticError, ValueError):
        if len(chunk) == 1:
            raise
        # Some budget of the chunk cannot be probed. Probe one at a time, so
        # that its error is raised only if the walk reaches it.
        return itertools.chain.from_iterable(_probed(table, n, [eps]) for eps in chunk)
    return zip(chunk, worst.tolist(), idx.tolist())


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
    chunk at a time and walked in order; the walk never passes the first
    budget above the ceiling, so no chunk reaches past it.
    """
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
    probes = _candidates(start, step, limit)
    while chunk := list(itertools.islice(probes, table.block)):
        for candidate, worst, idx in _probed(table, n, chunk):
            trace.append((candidate, worst))
            if worst > limit:
                if len(trace) == 1:
                    raise InfeasibleBudgetError(f"equal split should satisfy the ceiling but "
                                                f"worst TPL {worst} > {epsilon_bar}")
                return CalibrationResult(*best, len(trace) - 2, tuple(trace))
            best = (candidate, idx, worst)
    raise InputError(f"the walk reached the largest budget a probe can take ({_EPSILON_MAX:.2f}) "
                     f"with every worst total leakage still within the ceiling {epsilon_bar}")
