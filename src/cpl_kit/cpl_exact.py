"""Exact correlation-induced privacy leakage from transition probabilities.

For a target attribute with conditional table P(neighbor | target) and a
neighbor perturbed by a mechanism with transition matrix P(output | neighbor),
the leakage is

    l = ln max over outputs y and ordered row pairs (x, x') of
           (C_y . G_x) / (C_y . G_x')

where C_y is the y-th transition-matrix column and G_x the x-th conditional
row. The supremum ranges over ordered pairs, so the two directions between a
pair of attributes generally differ; that asymmetry is intended and must not
be symmetrized away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import ConditionalDistribution
from .errors import DimensionMismatchError
from .mechanisms import KINDS, TransitionMatrix

#: Exact leakage engine names, ``exact-<kind>``, and the mechanism kind each
#: releases the neighbor through; the one other engine is ``bound``.
EXACT_ENGINES = {f"exact-{kind}": kind for kind in KINDS}


@dataclass(frozen=True)
class ExactCplResult:
    """Leakage in nats plus the (output, row pair) witness achieving it.

    ``infinite_witness`` is set when some output has zero probability under
    one conditioning symbol and positive probability under another; such
    pairs make the supremum infinite and are surfaced separately instead of
    being folded into the finite ``leakage``.
    """

    leakage: float
    witness: tuple[int, int, int]  # (output index, row x, row x')
    infinite_witness: tuple[int, int, int] | None = None

    @property
    def is_infinite(self) -> bool:
        return self.infinite_witness is not None


def cpl_exact(cond: ConditionalDistribution, trans: TransitionMatrix) -> ExactCplResult:
    """Exact leakage of the conditional's row attribute caused by releasing
    the column attribute through ``trans``."""
    if cond.n_cols != trans.n_inputs:
        raise DimensionMismatchError(
            f"conditional has {cond.n_cols} columns but transition matrix has "
            f"{trans.n_inputs} input rows"
        )
    rows = cond.usable_rows()

    # chan[x, y] = P(output y | target x) for every usable conditioning row.
    chan = cond.matrix[rows] @ trans.matrix
    ratio = _output_ratios(chan)
    y = int(np.argmax(ratio))
    best, witness = 1.0, (0, int(rows[0]), int(rows[1]))
    if ratio[y] > 1.0:
        # x: the first row with the output's largest entry; x': its smallest positive one.
        col = chan[:, y]
        x, xp = np.argmax(col), np.argmin(np.where(col > 0, col, np.inf))
        best, witness = ratio[y], (y, int(rows[x]), int(rows[xp]))
    positive = chan > 0
    partial = positive.any(axis=0) & ~positive.all(axis=0)
    infinite = None
    if partial.any():
        y = int(np.argmax(partial))
        infinite = (y, int(rows[np.argmax(chan[:, y])]), int(rows[np.argmax(~positive[:, y])]))
    return ExactCplResult(math.log(best), witness, infinite)


def _output_ratios(chan: np.ndarray) -> np.ndarray:
    """Largest over smallest positive entry of every output column y of a
    channel ``chan[x, y]``; an output that is zero under every row has ratio 1."""
    top = np.max(chan, axis=-2)
    low = np.min(np.where(chan > 0, chan, np.inf), axis=-2)
    return np.divide(top, low, out=np.ones_like(top), where=top > 0)
