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

    The leakage is infinite when some output has positive probability under
    one usable row and zero under another; the witness then names the first
    such output, its first row with the largest probability and its first
    row with none.
    """

    leakage: float
    witness: tuple[int, int, int]  # (output index, row x, row x')


def cpl_exact(cond: ConditionalDistribution, trans: TransitionMatrix) -> ExactCplResult:
    """Exact leakage of the conditional's row attribute caused by releasing
    the column attribute through ``trans``, any channel. Through a kind's
    decoded channel, which is symmetric and strictly positive, calibration's
    leakage table gives the same leakage in closed form, and the commands
    that read many pairs (``analyze matrix``, ``calibrate`` and the
    benchmarks) read it there."""
    if cond.n_cols != trans.n_inputs:
        raise DimensionMismatchError(
            f"conditional has {cond.n_cols} columns but transition matrix has "
            f"{trans.n_inputs} input rows"
        )
    rows = cond.usable_rows()

    # chan[x, y] = P(output y | target x) for every usable conditioning row.
    # An output that is zero under every row has ratio 1, and one that is
    # zero under some rows only, inf; x is the first row with the output's
    # largest entry, x' the first with its smallest.
    chan = cond.matrix[rows] @ trans.matrix
    top, low = chan.max(axis=0), chan.min(axis=0)
    ratio = np.divide(top, low, out=np.where(top > 0, np.inf, 1.0), where=low > 0)
    y = int(np.argmax(ratio))
    if ratio[y] <= 1.0:
        return ExactCplResult(0.0, (0, int(rows[0]), int(rows[1])))
    x, xp = rows[np.argmax(chan[:, y])], rows[np.argmin(chan[:, y])]
    return ExactCplResult(math.log(ratio[y]), (y, int(x), int(xp)))
