"""Correlation-aware privacy-budget calibration.

Given a total leakage ceiling for every attribute, find the largest uniform
per-attribute budget whose worst-attribute total leakage (own budget plus
the correlation leakage caused by every neighbor at that same budget) stays
within the ceiling. Naive equal splitting uses ceiling/n; weak correlations
leave most of that slack unused, and stepping the shared budget upward while
the constraint holds recovers it. Worst-attribute leakage is monotone in the
shared budget, so the first infeasible step is final. The per-pair leakage
engine is the budget-only bound or ``exact-<kind>``: the exact leakage
through the decoded channel of any mechanism kind. An attribute's total is
its own budget plus the sum of its pairwise leakages; this module is the one
place that total is computed. The sum is not a bound on the leakage of all
neighbors at once: when the neighbors depend on each other given the target,
their joint leakage can exceed it. The budget-independent part of every
leakage computation is built once per calibration and shared by all probes.
The analyzer and utility benchmarks take their per-pair leakages from the
same table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Calibration evaluates the bound through ``_BoundTable``; ``cpl_bound`` stays
# importable from here because perfbench's tracer tests rebind it in this module.
from .cpl_bound import BudgetParams, _BoundTable, cpl_bound  # noqa: F401
from .cpl_exact import EXACT_ENGINES, _output_ratios
from .data_model import ConditionalDistribution, JointDistribution, conditional_from_joint
from .errors import InfeasibleBudgetError, InputError, InsufficientDataError
from .mechanisms import MechanismSpec, transition_matrix

_FEAS_TOL = 1e-9
_MAX_PROBES = 10 ** 6


@dataclass(frozen=True)
class CalibrationResult:
    """Largest feasible uniform budget with the binding attribute.

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
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
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


def _leakage_table(conds: list[ConditionalDistribution], engine: str):
    """Leakage of every conditional as a function of the shared budget.

    Everything that does not depend on the budget is computed here, once:
    the bound's greedy orders and prefix masses, or for ``exact-<kind>`` the
    usable rows stacked by (row count, domain size), so that a probe builds
    one transition matrix per domain size and does one matmul per stack.
    """
    if engine == "bound":
        table = _BoundTable.build(conds)
        return lambda eps: table.leakages(BudgetParams(eps, 0.0))
    if engine not in EXACT_ENGINES:
        raise InputError(f"unknown leakage engine {engine!r}")
    kind = EXACT_ENGINES[engine]
    groups: dict[tuple[int, int], list[int]] = {}
    for c, cond in enumerate(conds):
        rows = cond.valid_rows()
        if rows.size < 2:
            raise InsufficientDataError("need at least 2 usable conditioning symbols")
        groups.setdefault((rows.size, cond.n_cols), []).append(c)
    stacks = [(k, members, np.stack([conds[c].matrix[conds[c].valid_rows()] for c in members]))
              for (_, k), members in groups.items()]

    def leakages(eps: float) -> list[float]:
        out = [0.0] * len(conds)
        trans: dict[int, np.ndarray] = {}
        for k, members, stack in stacks:
            if k not in trans:
                trans[k] = transition_matrix(MechanismSpec(kind, eps, k)).matrix
            best = _output_ratios(stack @ trans[k])[0].max(axis=1)
            for c, ratio in zip(members, best.tolist()):
                out[c] = math.log(ratio)
        return out

    return leakages


def _worst(leaks: list[float], n: int, eps_tilde: float) -> tuple[float, int]:
    """Largest total of own budget plus the n - 1 neighbor leakages of an
    attribute, summed in neighbor order, with the first attribute attaining it.

    The sums run in sequence on purpose: numpy's unrolled summation can
    change the last bit.
    """
    worst, worst_idx = -1.0, 0
    for i in range(n):
        total = eps_tilde
        for leak in leaks[i * (n - 1):(i + 1) * (n - 1)]:
            total += leak
        if total > worst:
            worst, worst_idx = total, i
    return worst, worst_idx


def _ordered(conds: dict, n: int) -> list[ConditionalDistribution]:
    return [conds[(i, j)] for i in range(n) for j in range(n) if j != i]


def worst_tpl(conds: dict, n: int, eps_tilde: float, engine: str = "bound") -> tuple[float, int]:
    """Worst-attribute total leakage at a shared per-attribute budget.

    An attribute's own leakage toward itself is zero and skipped.
    """
    return _worst(_leakage_table(_ordered(conds, n), engine)(eps_tilde), n, eps_tilde)


def calibrate(joints: dict, epsilon_bar: float, step: float = 0.01,
              engine: str = "bound") -> CalibrationResult:
    """Step the shared budget up from the equal split and return the last
    feasible value.

    ``joints`` maps ordered attribute pairs (i, j) to the pairwise
    distribution of (attribute i, attribute j); the per-pair leakage engine
    is the budget-only bound or ``exact-<kind>``, and an attribute's total is
    its own budget plus its pairwise leakages, which neighbors that depend on
    each other given the attribute can exceed. The equal split is feasible
    by construction (each neighbor leaks at most the shared budget); a
    numerical violation of that is an error.
    """
    if not 0 < epsilon_bar < math.inf:
        raise InputError("total budget must be finite and positive")
    if not 0 < step < math.inf:
        raise InputError("step must be finite and positive")
    n, conds = _as_conditionals(joints)
    start = epsilon_bar / n
    # A probe's worst TPL is at least its budget, so the walk ends past the
    # ceiling. n >= 2, so a step lost in rounding (start + step == start) fails too.
    if (epsilon_bar + _FEAS_TOL - start) / step > _MAX_PROBES:
        raise InputError(f"step {step} is too small: over {_MAX_PROBES} probes to the ceiling")
    leakages = _leakage_table(_ordered(conds, n), engine)
    worst, idx = _worst(leakages(start), n, start)
    if worst > epsilon_bar + _FEAS_TOL:
        raise InfeasibleBudgetError(
            f"equal split should satisfy the ceiling but worst TPL {worst} > {epsilon_bar}"
        )
    trace = [(start, worst)]
    best = CalibrationResult(start, idx, worst, 0, ())
    i = 0
    while True:
        candidate = start + (i + 1) * step
        worst, idx = _worst(leakages(candidate), n, candidate)
        trace.append((candidate, worst))
        if worst > epsilon_bar + _FEAS_TOL:
            break
        i += 1
        best = CalibrationResult(candidate, idx, worst, i, ())
    return CalibrationResult(best.epsilon_star, best.worst_attribute, best.worst_tpl,
                             best.iterations, tuple(trace))
