"""Conventional correlation metrics for categorical attribute pairs.

Mutual information, normalized mutual information, Pearson correlation on
integer-coded symbols, and the marginal/joint entropies, all in nats. These
are the symmetric averages the leakage analysis is contrasted against: a
worst-case supremum can be maximal while every metric here reads "weak".

NMI is normalized by the joint entropy. Sqrt-, min-, max- and mean-entropy
normalizations are deliberate rejections; the selection is pinned by tests
against a reference table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import JointDistribution


@dataclass(frozen=True)
class MetricReport:
    """Correlation metrics of one attribute pair (entropies in nats).

    ``pcc`` is NaN when either marginal is concentrated on a single symbol.
    """

    mi: float
    nmi: float
    pcc: float
    h_a: float
    h_b: float
    h_joint: float

    @property
    def pcc_defined(self) -> bool:
        return not math.isnan(self.pcc)


def _entropy(p: np.ndarray) -> float:
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


def metrics(joint: JointDistribution) -> MetricReport:
    """Compute the metric suite for one joint table; the Pearson coefficient
    codes each symbol by its 1-based position in its alphabet."""
    p = joint.matrix
    pa = joint.row_marginal()
    pb = joint.col_marginal()
    h_a = _entropy(pa)
    h_b = _entropy(pb)
    h_joint = _entropy(p)

    pos = p > 0
    outer = pa[:, None] * pb[None, :]
    mi = float((p[pos] * np.log(p[pos] / outer[pos])).sum())
    mi = max(mi, 0.0)
    nmi = mi / h_joint if h_joint > 0 else 0.0

    ca = np.arange(1, len(pa) + 1, dtype=np.float64)
    cb = np.arange(1, len(pb) + 1, dtype=np.float64)
    mean_a = float(pa @ ca)
    mean_b = float(pb @ cb)
    var_a = float(pa @ (ca - mean_a) ** 2)
    var_b = float(pb @ (cb - mean_b) ** 2)
    if var_a <= 0 or var_b <= 0:
        pcc = math.nan
    else:
        cov = float(((ca - mean_a)[:, None] * (cb - mean_b)[None, :] * p).sum())
        pcc = cov / math.sqrt(var_a * var_b)
        pcc = min(1.0, max(-1.0, pcc))
    return MetricReport(mi, nmi, pcc, h_a, h_b, h_joint)
