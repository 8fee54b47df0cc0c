"""The workloads: their CLI invocations and their result checks.

Every reference below is computed from the fixture alone, never from the
random stream of the run it checks, so a change of sampler or mechanism
stream that keeps results statistically correct still passes. Statistical
tolerances are ``Z`` standard errors of a log-ratio of empirical
proportions (delta method), with the error taken at its worst cell.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cpl_kit.cpl_bound import BudgetParams, cpl_bound
from cpl_kit.cpl_exact import cpl_exact
from cpl_kit.data_model import (
    ConditionalDistribution,
    Dataset,
    JointDistribution,
    conditional_from_joint,
    empirical_joint,
    load_csv,
)
from cpl_kit.mechanisms import MechanismSpec, transition_matrix

from layers import KINDS

#: Standard errors allowed between a statistical estimate and its reference.
Z = 6.0
#: Slack for results that are exact up to floating-point rounding.
EXACT_TOL = 1e-9

EXACT_KINDS = ("grr", "exp")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _conditional(d: Dataset, i: int, j: int) -> ConditionalDistribution:
    """Empirical P(attribute j | attribute i)."""
    return conditional_from_joint(empirical_joint(d, i, j), given="rows")


def _log_ratio_se(p: np.ndarray, n: np.ndarray) -> float:
    """Largest delta-method standard error of log(p1/p2) over cells of
    proportions ``p`` estimated from ``n`` draws each."""
    var = (1.0 - p) / (n * p)
    return float(math.sqrt(2.0 * var.max()))


class Checker:
    """Builds a workload's references from its fixture (untimed set-up) and
    checks the result of a job's ``index``-th invocation against them."""

    def __init__(self, fixture: Path):
        self.data = load_csv(fixture)
        self.tolerances: dict[str, str] = {}

    def check_result(self, index: int, result: dict) -> list[str]:
        """Problems found; an empty list means correct."""
        raise NotImplementedError


class EstimatePairChecker(Checker):
    """grr on a pair: the statistical estimate must match exact leakage of
    the empirical conditional, since the grr decoder is the identity."""

    def __init__(self, fixture: Path, epsilon: float, r: int):
        super().__init__(fixture)
        cond = _conditional(self.data, 0, 1)
        trans = transition_matrix(MechanismSpec("grr", epsilon, cond.n_cols))
        self.reference = cpl_exact(cond, trans).leakage
        rows = cond.valid_rows()
        chan = cond.matrix[rows] @ trans.matrix
        n_x = np.bincount(self.data.column(0), minlength=cond.n_rows)[rows] * r
        self.tol = Z * _log_ratio_se(chan, n_x[:, None].astype(np.float64))
        self.tolerances["leakage"] = (
            f"|leakage - cpl_exact(empirical P(b|a), grr)| <= {self.tol:.4g}: {Z:g} delta-method "
            f"standard errors of the log-ratio at the worst cell of P(y|x) = cond @ T over "
            f"count(x)*r decoded rows")

    def check_result(self, index: int, result: dict) -> list[str]:
        leak = result.get("leakage_nats")
        if not _finite(leak):
            return [f"leakage {leak!r} is not finite"]
        problems = []
        if abs(leak - self.reference) > self.tol:
            problems.append(f"leakage {leak} is not within {self.tol:.4g} "
                            f"of exact {self.reference}")
        if result.get("significant") is not True:
            problems.append(f"result not significant (p={result.get('p_value')})")
        return problems


class EstimateWideChecker(Checker):
    """olh on a four-neighbor tuple: the estimate must lie between 0 and the
    bound of the tuple, which sequential composition releases at 4*epsilon."""

    def __init__(self, fixture: Path, epsilon: float, target: int, neighbors: list[int]):
        super().__init__(fixture)
        d = self.data
        sizes = [d.alphabet(z).size for z in neighbors]
        codes = np.ravel_multi_index(tuple(d.column(z) for z in neighbors), dims=tuple(sizes))
        m, cells = d.alphabet(target).size, int(np.prod(sizes))
        counts = np.bincount(d.column(target) * cells + codes, minlength=m * cells)
        joint = JointDistribution(d.alphabet(target).symbols,
                                  tuple(f"w{c}" for c in range(cells)),
                                  counts.reshape(m, cells) / d.n_records)
        budget = BudgetParams(epsilon * len(neighbors), 0.0)
        self.bound = cpl_bound(conditional_from_joint(joint, given="rows"), budget).leakage
        self.tolerances["leakage"] = (
            f"0 <= leakage <= {self.bound:.4f}: cpl_bound of empirical P(tuple | target) at the "
            f"composed budget {budget.epsilon:g} (exact, no sampling slack)")

    def check_result(self, index: int, result: dict) -> list[str]:
        leak = result.get("leakage_nats")
        if not _finite(leak):
            return [f"leakage {leak!r} is not finite"]
        problems = []
        if not 0.0 <= leak <= self.bound + EXACT_TOL:
            problems.append(f"leakage {leak} outside [0, {self.bound}]")
        if result.get("significant") is not True:
            problems.append(f"result not significant (p={result.get('p_value')})")
        return problems


class CalibrateChecker(Checker):
    """Each engine's epsilon* must be feasible and within one step of an
    independent bisection for the largest feasible shared budget."""

    def __init__(self, fixture: Path, budget: float, step: float, engines: tuple[str, ...]):
        super().__init__(fixture)
        d = self.data
        self.n = d.n_attributes
        self.conds = {(i, j): _conditional(d, i, j)
                      for i in range(self.n) for j in range(self.n) if i != j}
        self.budget, self.step, self.engines = budget, step, engines
        self._probes: dict[tuple[str, float], float] = {}
        self.bisection = {e: self._bisect(e) for e in engines}
        self.tolerances["epsilon_star"] = (
            f"worst_tpl(eps*) <= budget + {EXACT_TOL:g} and bisection - step - 1e-6 <= eps* <= "
            f"bisection + 1e-6 (bisection to 1e-7); bisection: "
            + ", ".join(f"{e}={v:.6f}" for e, v in self.bisection.items()))

    def worst_tpl(self, eps: float, engine: str) -> float:
        """Largest own budget plus leakage caused by every neighbor."""
        key = (engine, eps)
        if key not in self._probes:
            totals = []
            for i in range(self.n):
                total = eps
                for j in range(self.n):
                    if j == i:
                        continue
                    cond = self.conds[(i, j)]
                    if engine == "bound":
                        total += cpl_bound(cond, BudgetParams(eps, 0.0)).leakage
                    else:
                        spec = MechanismSpec("grr", eps, cond.n_cols)
                        total += cpl_exact(cond, transition_matrix(spec)).leakage
                totals.append(total)
            self._probes[key] = max(totals)
        return self._probes[key]

    def _bisect(self, engine: str) -> float:
        lo, hi = self.budget / self.n, self.budget
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if self.worst_tpl(mid, engine) <= self.budget + EXACT_TOL:
                lo = mid
            else:
                hi = mid
        return lo

    def check_result(self, index: int, result: dict) -> list[str]:
        engine = self.engines[index]
        eps = result.get("epsilon_star")
        if not _finite(eps):
            return [f"{engine}: epsilon_star {eps!r} is not finite"]
        problems = []
        worst = self.worst_tpl(eps, engine)
        if worst > self.budget + EXACT_TOL:
            problems.append(f"{engine}: worst TPL {worst} at eps*={eps} exceeds {self.budget}")
        ref = self.bisection[engine]
        if not ref - self.step - 1e-6 <= eps <= ref + 1e-6:
            problems.append(f"{engine}: eps*={eps} not within one step below bisection {ref}")
        return problems


class UtilityChecker(Checker):
    """24 rows; normalized total leakage at most 1 (exactly for grr/exp, up
    to sampling error for the statistically estimated kinds)."""

    def __init__(self, fixture: Path, epsilons: list[float], r: int):
        super().__init__(fixture)
        d = self.data
        self.epsilons = epsilons
        pairs = [(i, j) for i in range(d.n_attributes) for j in range(d.n_attributes) if i != j]
        conds = {p: _conditional(d, *p) for p in pairs}
        # A symmetric mechanism with its decoder is a doubly stochastic channel,
        # so a decoded cell's probability is at least min P(w|x); halve it for
        # the hash mechanisms, whose real hash is not exactly symmetric.
        p_floor = 0.5 * min(float(c.matrix[c.valid_rows()].min()) for c in conds.values())
        n_min = r * min(int(np.bincount(d.column(i)).min()) for i in range(d.n_attributes))
        se = _log_ratio_se(np.array([p_floor]), np.array([float(n_min)]))
        self.tol = {}
        for eps in epsilons:
            star = sum(cpl_bound(c, BudgetParams(eps, 0.0)).leakage for c in conds.values())
            self.tol[eps] = Z * len(pairs) * se / star
        self.tolerances["norm_tcpl"] = (
            f"grr/exp: <= 1 + {EXACT_TOL:g}; other kinds: <= 1 + Z*pairs*se/tcpl_star "
            f"with Z={Z:g}, pairs={len(pairs)}, se={se:.4g} (log-ratio of a cell with "
            f"p >= {p_floor:.4g} over >= {n_min} rows): " + ", ".join(f"eps {e:g}: {t:.4g}" for e, t in self.tol.items()))

    def check_result(self, index: int, result: dict) -> list[str]:
        rows = result.get("rows")
        if not isinstance(rows, list):
            return ["no rows"]
        grid = {(k, float(e)) for k in KINDS for e in self.epsilons}
        seen = {(r.get("mechanism"), r.get("epsilon")) for r in rows}
        if len(rows) != len(grid) or seen != grid:
            return [f"rows cover {sorted(seen)}, expected the {len(grid)}-cell grid"]
        problems = []
        for r in rows:
            kind, eps = r["mechanism"], r["epsilon"]
            values = [r.get(key) for key in ("freq_nmse", "zero_one_error", "norm_tcpl")]
            if not all(_finite(v) for v in values):
                problems.append(f"{kind}@{eps}: non-finite values {values}")
                continue
            nmse, zero_one, norm = values
            limit = 1.0 + (EXACT_TOL if kind in EXACT_KINDS else self.tol[eps])
            if nmse < 0 or not 0 <= zero_one <= 1 or not 0 <= norm <= limit:
                problems.append(f"{kind}@{eps}: nmse={nmse} 0-1={zero_one} "
                                f"norm_tcpl={norm} (limit {limit:.4g})")
        return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: str
    #: CLI arguments of each invocation of a job, given the fixture path
    #: and the job's seed.
    invocations: Callable[[Path, int], list[list[str]]]
    checker: Callable[[Path], Checker]
    #: Permutation surrogates one job requests (for per-surrogate time).
    surrogates: int = 0


def _estimate(path, mechanism, target, neighbors, r, surrogates, seed):
    return ["estimate", "--data", str(path), "--mechanism", mechanism, "--epsilon", "1",
            "--target", str(target), "--neighbors", ",".join(map(str, neighbors)),
            "--r", str(r), "--surrogates", str(surrogates), "--seed", str(seed)]


def _calibrate(path, engine):
    return ["calibrate", "--data", str(path), "--budget", "10", "--step", "0.01",
            "--engine", engine]


CALIBRATE_ENGINES = ("bound", "exact-grr")

WORKLOADS = {w.name: w for w in (
    Workload(
        "estimate_pair",
        "grr pair, 500k expanded rows, 200 surrogates: the row-shuffle surrogate loop in "
        "statistical dominates; no bound or calibration code runs",
        "maxleak_pair",
        lambda p, s: [_estimate(p, "grr", 0, [1], 5, 200, s)],
        lambda p: EstimatePairChecker(p, 1.0, 5),
        surrogates=200,
    ),
    Workload(
        "estimate_wide",
        "olh, 4-neighbor tuple (48 cells), 500k rows, 50 surrogates: same statistical layer with "
        "a heavy hash decoder, so a pair-only gain that costs this shows",
        "latent_five",
        lambda p, s: [_estimate(p, "olh", 0, [1, 2, 3, 4], 25, 50, s)],
        lambda p: EstimateWideChecker(p, 1.0, 0, [1, 2, 3, 4]),
        surrogates=50,
    ),
    Workload(
        "calibrate_weak",
        "linear-step calibration of weak_ten with the bound then the exact-grr engine: all "
        "cpl_bound, cpl_exact and calibration, no mechanisms or surrogates",
        "weak_ten",
        lambda p, s: [_calibrate(p, e) for e in CALIBRATE_ENGINES],
        lambda p: CalibrateChecker(p, 10.0, 0.01, CALIBRATE_ENGINES),
    ),
    Workload(
        "utility_mix",
        "utility benchmark, 8 mechanisms x eps 1,3,5 at 500k rows: perturb, decode and frequency "
        "estimation dominate; the only run of benchmarks and most kinds",
        "noisy_copy",
        lambda p, s: [["benchmark", "utility", "--data", str(p), "--mechanisms", ",".join(KINDS),
                       "--epsilons", "1,3,5", "--r", "10", "--seed", str(s)]],
        lambda p: UtilityChecker(p, [1.0, 3.0, 5.0], 10),
    ),
)}
