import itertools
import math
import sys

import numpy as np
import pytest

from cpl_kit import (
    BudgetParams,
    ConditionalDistribution,
    InputError,
    InsufficientDataError,
    TransitionMatrix,
    cpl_bound,
    cpl_exact,
)
from cpl_kit.data_model import pairwise_conditionals
from cpl_kit.fixtures import FIXTURES
from cpl_kit.rng import derive_rng
from conftest import cpl_bound_bruteforce, cpl_limit, is_max_attainable, random_conditional


def pure_python_pair_max(g, gp, epsilon):
    """Oracle for one row pair: enumerate every nonempty subset with fsum."""
    lam = math.expm1(epsilon)
    t = len(g)
    best = 1.0
    for size in range(1, t + 1):
        for subset in itertools.combinations(range(t), size):
            a = math.fsum(g[i] for i in subset)
            b = math.fsum(gp[i] for i in subset)
            best = max(best, (1 + a * lam) / (1 + b * lam))
    return math.log(best)


def loop_greedy(cond, budget):
    """Reference greedy, one row pair and one index at a time: infinite-ratio
    indices ascending, then finite ones by (-ratio, index); index i is
    admitted when its ratio is at least the current H. Returns the result
    fields of the first row pair with the largest leakage."""
    lam = math.expm1(budget.epsilon)
    best = None
    rows = cond.valid_rows()
    for x, xp in itertools.permutations(rows.tolist(), 2):
        g, gp = cond.matrix[x], cond.matrix[xp]
        infinite = [i for i in range(len(g)) if g[i] > 1e-15 >= gp[i]]
        finite = sorted((i for i in range(len(g)) if gp[i] > 1e-15),
                        key=lambda i: (-(g[i] / gp[i]), i))
        a = b = 0.0
        chosen = []
        for i in infinite + finite:
            q = math.inf if i in infinite else g[i] / gp[i]
            if q >= (1.0 + a * lam) / (1.0 + b * lam):
                a += g[i]
                b += gp[i]
                chosen.append(i)
        if not any(g[i] > 1e-15 and gp[i] > 1e-15 for i in range(len(g))):
            leak = budget.epsilon
        else:
            leak = math.log((1.0 + a * lam) / (1.0 + b * lam))
        if best is None or leak > best[0]:
            best = (leak, budget.delta * a, tuple(chosen), a, b, (x, xp))
    return best


def quantized_conditional(rng, m, t):
    """Rows drawn from a few integer levels, so exact zeros, disjoint and
    duplicate rows and tied ratios are common; sometimes one row is flagged
    unusable."""
    mat = rng.integers(0, 3, (m, t)).astype(float)
    if rng.random() < 0.3:
        mat[1] = mat[0]
    mat[mat.sum(axis=1) == 0, int(rng.integers(0, t))] = 1.0
    valid = np.ones(m, dtype=bool)
    if m > 2 and rng.random() < 0.3:
        valid[int(rng.integers(0, m))] = False
        mat[~valid] = 0.0
    mat[valid] /= mat[valid].sum(axis=1, keepdims=True)
    return ConditionalDistribution(tuple(f"x{i}" for i in range(m)),
                                   tuple(f"c{i}" for i in range(t)), mat, valid)


def two_row_cond(g, gp):
    mat = np.vstack([np.asarray(g, float), np.asarray(gp, float)])
    labels = tuple(f"c{i}" for i in range(mat.shape[1]))
    return ConditionalDistribution(("x", "xp"), labels, mat)


class TestWorkedValues:
    def test_binary_example_admits_only_top_ratio(self):
        res = cpl_bound(two_row_cond([0.8, 0.2], [0.2, 0.8]), BudgetParams(math.log(3)))
        # subsets: {0} -> 2.6/1.4, {1} -> 1.4/2.6, {0,1} -> 1; max is {0}
        assert res.leakage == pytest.approx(math.log(2.6 / 1.4), abs=1e-12)
        assert res.subset == (0,)
        assert res.a_mass == pytest.approx(0.8)
        assert res.b_mass == pytest.approx(0.2)
        assert res.leakage == pytest.approx(
            pure_python_pair_max([0.8, 0.2], [0.2, 0.8], math.log(3)), abs=1e-12)

    @pytest.mark.parametrize("epsilon,fwd,rev", [
        (0.5, 0.5, 0.2810), (1.0, 1.0, 0.6203), (2.0, 2.0, 1.4340)])
    def test_reference_table_values(self, maxleak_cond_fwd, maxleak_cond_rev,
                                    epsilon, fwd, rev):
        got_fwd = cpl_bound(maxleak_cond_fwd, BudgetParams(epsilon)).leakage
        got_rev = cpl_bound(maxleak_cond_rev, BudgetParams(epsilon)).leakage
        assert got_fwd == pytest.approx(fwd, abs=1e-3)
        assert got_rev == pytest.approx(rev, abs=1e-3)

    def test_disjoint_support_attains_budget_exactly(self, maxleak_cond_fwd):
        res = cpl_bound(maxleak_cond_fwd, BudgetParams(1.0))
        assert res.leakage == 1.0
        assert res.b_mass == 0.0

    def test_zero_budget_zero_leakage(self):
        rng = derive_rng(200, 0)
        for _ in range(10):
            cond = random_conditional(rng)
            assert cpl_bound(cond, BudgetParams(0.0)).leakage == 0.0

    def test_singleton_alphabet(self):
        cond = ConditionalDistribution(("x", "xp"), ("c",), np.array([[1.0], [1.0]]))
        assert cpl_bound(cond, BudgetParams(1.0)).leakage == 0.0


class TestGreedyEqualsBruteForce:
    def test_randomized_instances(self):
        rng = derive_rng(201, 0)
        count = 0
        for _ in range(200):
            t = int(rng.integers(2, 13))
            cond = random_conditional(rng, m=2, t=t)
            for eps in (0.1, 1.0, 5.0):
                greedy = cpl_bound(cond, BudgetParams(eps))
                brute = cpl_bound_bruteforce(cond, BudgetParams(eps))
                assert abs(greedy.leakage - brute.leakage) <= 1e-12
                count += 1
        assert count == 600

    def test_pure_python_oracle_small_instances(self):
        rng = derive_rng(202, 0)
        for _ in range(40):
            t = int(rng.integers(2, 8))
            cond = random_conditional(rng, m=2, t=t)
            for eps in (0.3, 2.0):
                got = cpl_bound(cond, BudgetParams(eps)).leakage
                want = max(pure_python_pair_max(cond.matrix[0], cond.matrix[1], eps),
                           pure_python_pair_max(cond.matrix[1], cond.matrix[0], eps))
                assert got == pytest.approx(want, abs=1e-12)

    def test_reference_table_cross_check(self, maxleak_cond_fwd, maxleak_cond_rev):
        for cond in (maxleak_cond_fwd, maxleak_cond_rev):
            g = cpl_bound(cond, BudgetParams(1.0))
            b = cpl_bound_bruteforce(cond, BudgetParams(1.0))
            assert g.leakage == pytest.approx(b.leakage, abs=1e-12)

    def test_tied_ratios_value_neutral(self):
        # duplicated columns create ratio ties; the optimum depends on the
        # subset only through its (A, B) masses, so ties cannot matter
        rng = derive_rng(208, 0)
        for _ in range(20):
            base = rng.random(3) + 0.1
            gp = rng.random(3) + 0.1
            g = np.concatenate([base, base])  # columns 0..2 tie with 3..5
            gp2 = np.concatenate([gp, gp])
            cond = two_row_cond(g / g.sum(), gp2 / gp2.sum())
            for eps in (0.5, 2.0):
                greedy = cpl_bound(cond, BudgetParams(eps)).leakage
                brute = cpl_bound_bruteforce(cond, BudgetParams(eps)).leakage
                assert greedy == pytest.approx(brute, abs=1e-12)

    def test_tie_heavy_and_random_instances(self):
        rng = derive_rng(209, 0)
        seen = {"disjoint": 0, "duplicate": 0, "flagged": 0, "zeros": 0}
        for n in range(160):
            m, t = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            cond = quantized_conditional(rng, m, t) if n % 2 else random_conditional(rng, m=m, t=t)
            rows = cond.matrix[cond.valid_rows()]
            seen["disjoint"] += is_max_attainable(cond)[0]
            seen["duplicate"] += len({tuple(r) for r in rows}) < len(rows)
            seen["flagged"] += not cond.valid.all()
            seen["zeros"] += bool((rows == 0).any())
            for eps in (0.0, 0.3, 1.0, 4.0, 20.0):
                greedy = cpl_bound(cond, BudgetParams(eps))
                brute = cpl_bound_bruteforce(cond, BudgetParams(eps))
                assert abs(greedy.leakage - brute.leakage) <= 1e-12
        assert min(seen.values()) >= 10

    def test_bit_identical_to_loop_greedy(self):
        # The largest prefix is the greedy's stop wherever no two prefixes
        # tie within rounding, as on these tables: scoring every prefix
        # keeps each field of the greedy's result.
        rng = derive_rng(211, 0)
        for n in range(120):
            m, t = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            cond = quantized_conditional(rng, m, t) if n % 2 else random_conditional(rng, m=m, t=t)
            for eps in (0.0, 0.01, 0.7, 3.0, 40.0):
                res = cpl_bound(cond, BudgetParams(eps, 0.2))
                assert (res.leakage, res.relaxation, res.subset, res.a_mass, res.b_mass,
                        res.witness_pair) == loop_greedy(cond, BudgetParams(eps, 0.2))

    def test_witness_certifies_leakage(self):
        rng = derive_rng(210, 0)
        for n in range(60):
            cond = quantized_conditional(rng, 3, 5) if n % 2 else random_conditional(rng)
            for eps in (0.5, 2.0):
                res = cpl_bound(cond, BudgetParams(eps, 0.1))
                x, xp = res.witness_pair
                assert res.a_mass == pytest.approx(cond.matrix[x, list(res.subset)].sum())
                assert res.b_mass == pytest.approx(cond.matrix[xp, list(res.subset)].sum())
                lam = math.expm1(eps)
                h = (1 + res.a_mass * lam) / (1 + res.b_mass * lam)
                assert res.leakage == pytest.approx(math.log(h), abs=1e-12)
                assert res.relaxation == 0.1 * res.a_mass

    def test_brute_force_refuses_large_alphabets(self):
        cond = random_conditional(derive_rng(203, 0), m=2, t=5)
        big = ConditionalDistribution(
            cond.row_labels, tuple(f"c{i}" for i in range(25)),
            np.hstack([cond.matrix, np.zeros((2, 20))]))
        with pytest.raises(InputError, match="too large"):
            cpl_bound_bruteforce(big, BudgetParams(1.0))


class TestBudgetRange:
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -0.1, 710.0])
    def test_rejects_non_finite_and_overflowing(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            BudgetParams(epsilon)

    def test_rejects_nan_delta(self):
        with pytest.raises(InputError, match="delta"):
            BudgetParams(1.0, math.nan)

    def test_largest_budget_accepted(self, maxleak_cond_fwd):
        # half the largest double: the bound's 1 + A (e^eps - 1) must stay finite
        eps = math.log(sys.float_info.max / 2)
        with pytest.raises(InputError, match="epsilon"):
            BudgetParams(math.nextafter(eps, math.inf))
        assert cpl_bound(maxleak_cond_fwd, BudgetParams(eps)).leakage == eps
        assert math.isfinite(cpl_bound(two_row_cond([0.5, 0.5], [0.25, 0.75]),
                                       BudgetParams(eps)).leakage)


class TestSaturation:
    def test_limit_formula_on_reference_table(self, maxleak_cond_fwd, maxleak_cond_rev):
        assert cpl_limit(maxleak_cond_fwd) == math.inf  # disjoint-support rows
        assert cpl_limit(maxleak_cond_rev) == math.inf  # zero against positive cell

    def test_limit_zero_for_identical_rows(self):
        cond = two_row_cond([0.4, 0.6], [0.4, 0.6])
        assert cpl_limit(cond) == 0.0

    def test_bound_approaches_finite_limit(self):
        rng = derive_rng(204, 0)
        for _ in range(20):
            cond = random_conditional(rng, zeros=False)
            limit = cpl_limit(cond)
            assert math.isfinite(limit)
            at16 = cpl_bound(cond, BudgetParams(16.0)).leakage
            assert abs(at16 - limit) < 1e-3

    def test_monotone_nondecreasing_in_budget(self):
        rng = derive_rng(205, 0)
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        for _ in range(20):
            cond = random_conditional(rng)
            leaks = [cpl_bound(cond, BudgetParams(e)).leakage for e in grid]
            assert all(leaks[i + 1] >= leaks[i] - 1e-12 for i in range(len(grid) - 1))


class TestExtremes:
    def test_attainability_witnesses(self, maxleak_cond_fwd):
        ok, pair = is_max_attainable(maxleak_cond_fwd)
        assert ok and pair == (0, 1)
        identity = two_row_cond([1.0, 0.0], [0.0, 1.0])
        assert is_max_attainable(identity) == (True, (0, 1))
        strictly_positive = two_row_cond([0.7, 0.3], [0.2, 0.8])
        assert is_max_attainable(strictly_positive) == (False, None)

    def test_budget_attained_iff_disjoint_support(self):
        rng = derive_rng(206, 0)
        eps = 1.0
        seen = {True: 0, False: 0}
        for _ in range(60):
            cond = random_conditional(rng)
            attainable, _ = is_max_attainable(cond)
            leak = cpl_bound(cond, BudgetParams(eps)).leakage
            assert (leak == eps) == attainable
            seen[attainable] += 1
        assert min(seen.values()) > 0  # both branches exercised

    def test_relaxation_component(self, maxleak_cond_fwd):
        res = cpl_bound(maxleak_cond_fwd, BudgetParams(1.0, delta=0.01))
        assert res.relaxation == pytest.approx(0.01 * res.a_mass)
        assert 0 <= res.relaxation <= 0.01
        res0 = cpl_bound(maxleak_cond_fwd, BudgetParams(1.0, delta=0.0))
        assert res0.relaxation == 0.0
        assert res0.leakage == res.leakage  # leakage component shared across deltas

    def test_delta_does_not_change_leakage_random(self):
        rng = derive_rng(207, 0)
        for _ in range(15):
            cond = random_conditional(rng)
            l0 = cpl_bound(cond, BudgetParams(1.3, 0.0))
            l1 = cpl_bound(cond, BudgetParams(1.3, 0.25))
            assert l0.leakage == l1.leakage
            assert l1.relaxation == pytest.approx(0.25 * l1.a_mass)

    def test_flagged_rows_excluded(self):
        mat = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cond = ConditionalDistribution(("a", "b", "c"), ("u", "v", "w"), mat,
                                       valid=np.array([True, False, True]))
        res = cpl_bound(cond, BudgetParams(2.0))
        assert res.witness_pair in ((0, 2), (2, 0))
        assert res.leakage == 2.0  # rows 0 and 2 have disjoint supports

    def test_requires_two_valid_rows(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.0]])
        cond = ConditionalDistribution(("a", "b"), ("u", "v"), mat,
                                       valid=np.array([True, False]))
        with pytest.raises(InsufficientDataError):
            cpl_bound(cond, BudgetParams(1.0))


class TestTightness:
    """The bound is attained. Its witness subset S gives the two-output
    channel P(1 | v) = c e^eps for v in S and c otherwise, with c = e^-eps / 2,
    which is eps-LDP; its output 1 has likelihood ratio (1 + lam A) /
    (1 + lam B) = H on the witness pair, and no eps-LDP channel leaks more,
    so the exact leakage through it equals the bound."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_witness_channel_attains_the_bound(self, name):
        make, _ = FIXTURES[name]
        for cond in pairwise_conditionals(make(n=5_000, seed=2)).values():
            for eps in (0.1, 0.5, 1.0, 3.0, 7.5):
                res = cpl_bound(cond, BudgetParams(eps))
                c = math.exp(-eps) / 2
                one = np.full(cond.n_cols, c)
                one[list(res.subset)] = c * math.exp(eps)
                trans = TransitionMatrix(cond.col_labels, ("0", "1"),
                                         np.column_stack([1.0 - one, one]), eps)
                exact = cpl_exact(cond, trans).leakage
                assert exact == pytest.approx(res.leakage, rel=0, abs=1e-12)
