"""Sequential composition of leakage budgets and dataset-level aggregates.

A leakage statement is a (leakage, relaxation) pair; budgets (epsilon, delta)
and correlation-induced leakages (l, relaxation) compose the same way, by
componentwise addition. Per-attribute total leakage is bounded by composing
the attribute's own budget with every neighbor's correlation leakage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_DELTA_CEILING = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class LeakagePair:
    """A (leakage nats, relaxation) statement.

    ``overflow`` marks a composed relaxation that exceeded 1 and was clamped;
    the statement still holds but is vacuous. ``infinite`` marks a leakage
    component that is unbounded (propagated as a flag, the numeric field
    keeps the finite part).
    """

    leakage: float
    relaxation: float = 0.0
    overflow: bool = False
    infinite: bool = False

    def __post_init__(self):
        if self.leakage < 0:
            raise InputError("leakage must be nonnegative")
        if not 0 <= self.relaxation < 1:
            raise InputError("relaxation must be in [0, 1)")


def sequential_compose(parts: list[LeakagePair]) -> LeakagePair:
    """Componentwise sum of leakage statements (left fold)."""
    if not parts:
        raise InputError("nothing to compose")
    leakage = 0.0
    relaxation = 0.0
    infinite = False
    for p in parts:
        leakage += p.leakage
        relaxation += p.relaxation
        infinite = infinite or p.infinite
    overflow = relaxation >= 1.0 or any(p.overflow for p in parts)
    if relaxation >= 1.0:
        relaxation = _DELTA_CEILING
    return LeakagePair(leakage, relaxation, overflow, infinite)


def tpl_upper_bound(own: LeakagePair, neighbors: list[LeakagePair]) -> LeakagePair:
    """Total-leakage bound for one attribute: its own budget composed with
    the correlation leakage caused by every neighbor."""
    return sequential_compose([own, *neighbors])


@dataclass(frozen=True)
class CplMatrix:
    """Pairwise leakage grid: entry (i, j) is the leakage of attribute i
    caused by attribute j. The diagonal is absent and asymmetry is expected."""

    attributes: tuple[str, ...]
    entries: tuple[tuple[object, ...], ...]  # results with a .leakage field, None on diagonal

    def __post_init__(self):
        n = len(self.attributes)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise InputError("entry grid must be n x n")
        for i in range(n):
            if self.entries[i][i] is not None:
                raise InputError("diagonal entries must be absent")

    @property
    def n(self) -> int:
        return len(self.attributes)

    def leakage_grid(self) -> np.ndarray:
        """Leakage components as an array with NaN on the diagonal."""
        out = np.full((self.n, self.n), np.nan)
        for i in range(self.n):
            for j in range(self.n):
                if i != j:
                    e = self.entries[i][j]
                    if e is None:
                        raise InputError(f"missing leakage entry ({i}, {j})")
                    out[i, j] = e.leakage
        return out


def tcpl(matrix: CplMatrix) -> float:
    """Sum of all pairwise leakage components over the grid."""
    grid = matrix.leakage_grid()
    mask = ~np.eye(matrix.n, dtype=bool)
    return float(grid[mask].sum())
