import math

import numpy as np
import pytest

from cpl_kit import (
    BudgetParams,
    ConditionalDistribution,
    DimensionMismatchError,
    InsufficientDataError,
    MechanismSpec,
    TransitionMatrix,
    cpl_bound,
    cpl_exact,
    transition_matrix,
)
from cpl_kit.benchmarks import pairwise_conditionals
from cpl_kit.fixtures import FIXTURES
from cpl_kit.mechanisms import KINDS
from cpl_kit.rng import derive_rng
from conftest import cpl_limit, evaluate_witness, random_conditional


def brute_force_exact(cond: ConditionalDistribution, trans: TransitionMatrix) -> float:
    """Independent oracle: explicit loops over outputs and ordered row pairs;
    infinite when an output has positive probability under one row and none
    under another."""
    rows = cond.valid_rows()
    best = 1.0
    for y in range(trans.n_outputs):
        c = trans.matrix[:, y]
        for x in rows:
            for xp in rows:
                if x == xp:
                    continue
                num = math.fsum(c[u] * cond.matrix[x, u] for u in range(cond.n_cols))
                den = math.fsum(c[u] * cond.matrix[xp, u] for u in range(cond.n_cols))
                if den == 0.0:
                    if num > 0.0:
                        return math.inf
                    continue
                best = max(best, num / den)
    return math.log(best)


def two_row_cond(g, gp):
    g = np.asarray(g, dtype=float)
    mat = np.vstack([g, gp])
    labels = tuple(f"c{i}" for i in range(mat.shape[1]))
    return ConditionalDistribution(("x", "xp"), labels, mat)


class TestWorkedValues:
    def test_grr_binary_example(self):
        cond = two_row_cond([0.8, 0.2], [0.2, 0.8])
        trans = transition_matrix(MechanismSpec("grr", math.log(3), 2))
        res = cpl_exact(cond, trans)
        assert res.leakage == pytest.approx(brute_force_exact(cond, trans), abs=1e-12)
        assert res.leakage == pytest.approx(math.log(0.65 / 0.35), abs=1e-12)

    def test_identical_rows_zero(self):
        cond = two_row_cond([0.3, 0.7], [0.3, 0.7])
        trans = transition_matrix(MechanismSpec("grr", 1.0, 2))
        assert cpl_exact(cond, trans).leakage == 0.0

    def test_zero_budget_transition_zero_leakage(self, maxleak_cond_fwd):
        trans = transition_matrix(MechanismSpec("grr", 0.0, 4))
        assert cpl_exact(maxleak_cond_fwd, trans).leakage == pytest.approx(0.0, abs=1e-12)


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("epsilon", [0.2, 1.0, 3.0])
    def test_random_conditionals(self, kind, epsilon):
        rng = derive_rng(100, 0)
        for _ in range(30):
            cond = random_conditional(rng)
            trans = transition_matrix(MechanismSpec(kind, epsilon, cond.n_cols))
            res = cpl_exact(cond, trans)
            assert math.isfinite(res.leakage)  # a decoded channel is strictly positive
            assert res.leakage == pytest.approx(brute_force_exact(cond, trans), abs=1e-10)

    def test_custom_transition_with_zero_column_entry(self):
        # output 0 impossible under input 1: the leakage is infinite, and its
        # witness is the output and the rows that certify it
        cond = two_row_cond([1.0, 0.0], [0.0, 1.0])
        trans = TransitionMatrix(("a", "b"), ("u", "v"),
                                 np.array([[1.0, 0.0], [0.0, 1.0]]), math.inf)
        res = cpl_exact(cond, trans)
        assert res.leakage == math.inf == brute_force_exact(cond, trans)
        assert res.witness == (0, 0, 1)
        assert evaluate_witness(cond, trans, res.witness) == math.inf


class TestInvariants:
    def test_witness_reproduces_leakage(self):
        rng = derive_rng(101, 0)
        for _ in range(20):
            cond = random_conditional(rng)
            trans = transition_matrix(MechanismSpec("grr", 1.5, cond.n_cols))
            res = cpl_exact(cond, trans)
            assert evaluate_witness(cond, trans, res.witness) == pytest.approx(res.leakage, abs=1e-12)

    def test_directional_asymmetry_preserved(self, maxleak_cond_fwd, maxleak_cond_rev):
        t = transition_matrix(MechanismSpec("grr", 1.0, 4))
        fwd = cpl_exact(maxleak_cond_fwd, t).leakage
        rev = cpl_exact(maxleak_cond_rev, t).leakage
        assert abs(fwd - rev) > 0.3

    def test_leakage_at_most_budget(self):
        rng = derive_rng(102, 0)
        for _ in range(30):
            cond = random_conditional(rng)
            for eps in (0.5, 2.0):
                for kind in KINDS:
                    trans = transition_matrix(MechanismSpec(kind, eps, cond.n_cols))
                    assert cpl_exact(cond, trans).leakage <= eps + 1e-9

    def test_monotone_in_budget_for_grr(self):
        rng = derive_rng(103, 0)
        grid = [0.1, 0.5, 1.0, 2.0, 4.0]
        for _ in range(15):
            cond = random_conditional(rng)
            leaks = [cpl_exact(cond, transition_matrix(MechanismSpec("grr", e, cond.n_cols))).leakage
                     for e in grid]
            assert all(leaks[i] <= leaks[i + 1] + 1e-9 for i in range(len(grid) - 1))

    def test_permutation_of_neighbor_alphabet(self):
        rng = derive_rng(104, 0)
        for _ in range(15):
            cond = random_conditional(rng, zeros=False)
            t = cond.n_cols
            trans = transition_matrix(MechanismSpec("grr", 1.0, t))
            perm = rng.permutation(t)
            cond_p = ConditionalDistribution(
                cond.row_labels, tuple(cond.col_labels[p] for p in perm),
                cond.matrix[:, perm])
            trans_p = TransitionMatrix(
                tuple(trans.input_labels[p] for p in perm), trans.output_labels,
                trans.matrix[perm, :], trans.epsilon)
            assert cpl_exact(cond_p, trans_p).leakage == pytest.approx(
                cpl_exact(cond, trans).leakage, abs=1e-12)

    def test_never_exceeds_budget_bound(self):
        # exact <= bound <= min(eps, cpl_limit) for every mechanism
        rng = derive_rng(105, 0)
        for _ in range(25):
            cond = random_conditional(rng)
            limit = cpl_limit(cond)
            for eps in (0.5, 1.0, 3.0):
                bound = cpl_bound(cond, BudgetParams(eps, 0.0)).leakage
                assert bound <= min(eps, limit) + 1e-9
                for kind in KINDS:
                    trans = transition_matrix(MechanismSpec(kind, eps, cond.n_cols))
                    assert cpl_exact(cond, trans).leakage <= bound + 1e-9

    def test_requires_two_rows(self):
        cond = ConditionalDistribution(("x",), ("a", "b"), np.array([[0.5, 0.5]]))
        with pytest.raises(InsufficientDataError):
            cpl_exact(cond, transition_matrix(MechanismSpec("grr", 1.0, 2)))

    def test_channel_inputs_must_match_columns(self):
        cond = ConditionalDistribution(("x", "y"), ("a", "b"), np.full((2, 2), 0.5))
        with pytest.raises(DimensionMismatchError, match=r"^conditional has 2 columns but "
                                                         r"transition matrix has 3 input rows$"):
            cpl_exact(cond, transition_matrix(MechanismSpec("grr", 1.0, 3)))


def per_output_exact(cond: ConditionalDistribution, trans: TransitionMatrix):
    """Reference scan of the outputs in order: the first output positive
    under some row and zero under another, with its first largest and first
    zero rows, makes the leakage infinite; otherwise the largest max/min
    ratio with the first output and first rows attaining it."""
    rows = cond.valid_rows()
    chan = cond.matrix[rows] @ trans.matrix
    best, witness = 1.0, (0, int(rows[0]), int(rows[1]))
    for y in range(chan.shape[1]):
        col = [float(v) for v in chan[:, y]]
        top, low = max(col), min(col)
        if top <= 0:
            continue
        pair = (y, int(rows[col.index(top)]), int(rows[col.index(low)]))
        if low <= 0:
            return math.inf, pair
        if top / low > best:
            best, witness = top / low, pair
    return math.log(best), witness


def custom_trans(matrix):
    mat = np.asarray(matrix, dtype=float)
    return TransitionMatrix(tuple(f"i{u}" for u in range(mat.shape[0])),
                            tuple(f"o{y}" for y in range(mat.shape[1])), mat, math.inf)


def identity_cond(m):
    return ConditionalDistribution(tuple(f"x{i}" for i in range(m)),
                                   tuple(f"c{i}" for i in range(m)), np.eye(m))


class TestWitnesses:
    def test_output_zero_under_one_row(self):
        # chan = trans; output 0 is impossible under row 2, output 2 under row 0
        trans = custom_trans([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]])
        res = cpl_exact(identity_cond(3), trans)
        assert res.leakage == math.inf
        assert res.witness == (0, 0, 2)
        assert (res.leakage, res.witness) == per_output_exact(identity_cond(3), trans)

    def test_all_zero_output_is_skipped(self):
        trans = custom_trans([[0.6, 0.0, 0.4], [0.3, 0.0, 0.7], [0.5, 0.0, 0.5]])
        res = cpl_exact(identity_cond(3), trans)
        assert res.witness == (0, 0, 1)
        assert res.leakage == math.log(0.6 / 0.3)
        assert (res.leakage, res.witness) == per_output_exact(identity_cond(3), trans)

    def test_tied_maxima_take_the_first_row_and_output(self):
        # rows 0 and 2 tie at the top of every output, rows 1 and 3 at the bottom
        cond = ConditionalDistribution(("a", "b", "c", "d"), ("u", "v"),
                                       np.array([[0.8, 0.2], [0.2, 0.8]] * 2))
        trans = custom_trans([[0.5, 0.5], [0.5, 0.5]])
        assert cpl_exact(cond, trans).leakage == 0.0  # every output is uninformative
        trans = custom_trans([[1.0, 0.0], [0.0, 1.0]])
        res = cpl_exact(cond, trans)
        assert res.leakage == math.log(4.0)
        assert res.witness == (0, 0, 1)  # output 1 attains the same ratio 4
        assert (res.leakage, res.witness) == per_output_exact(cond, trans)

    def test_no_informative_output_keeps_default_witness(self):
        cond = ConditionalDistribution(("a", "b", "c"), ("u", "v"),
                                       np.array([[1.0, 0.0], [0.4, 0.6], [0.0, 1.0]]),
                                       valid=np.array([False, True, True]))
        cond_equal = ConditionalDistribution(cond.row_labels, cond.col_labels,
                                             np.array([[0.0, 0.0], [0.4, 0.6], [0.4, 0.6]]),
                                             valid=cond.valid)
        res = cpl_exact(cond_equal, transition_matrix(MechanismSpec("grr", 1.0, 2)))
        assert (res.leakage, res.witness) == (0.0, (0, 1, 2))
        res = cpl_exact(cond, custom_trans([[1.0, 0.0], [0.0, 1.0]]))
        # output 0 is positive under row 1 only: infinite, though output 1's
        # ratio is finite
        assert (res.leakage, res.witness) == (math.inf, (0, 1, 2))

    def test_random_and_quantized_against_reference_scan(self):
        rng = derive_rng(106, 0)
        for n in range(120):
            if n % 2:
                cond = random_conditional(rng)
            else:  # integer-quantized rows: ties, zeros and duplicate rows
                m, t = int(rng.integers(2, 5)), int(rng.integers(2, 6))
                mat = rng.integers(0, 3, (m, t)).astype(float)
                mat[mat.sum(axis=1) == 0, 0] = 1.0
                cond = ConditionalDistribution(tuple(f"x{i}" for i in range(m)),
                                               tuple(f"c{i}" for i in range(t)),
                                               mat / mat.sum(axis=1, keepdims=True))
            t = cond.n_cols
            sparse = rng.integers(0, 2, (t, t)).astype(float)
            sparse[sparse.sum(axis=1) == 0, 0] = 1.0
            for trans in (transition_matrix(MechanismSpec("grr", 1.0, t)),
                          custom_trans(sparse / sparse.sum(axis=1, keepdims=True))):
                res = cpl_exact(cond, trans)
                assert (res.leakage, res.witness) == per_output_exact(cond, trans)


@pytest.fixture(scope="module")
def fixture_conditionals():
    return [cond for gen, _ in FIXTURES.values() for cond in pairwise_conditionals(gen()).values()]


class TestClosedForm:
    """Every decoded channel is symmetric, with diagonal-to-off-diagonal
    ratio w, so P(y | x) is proportional to 1 + (w - 1) G[x, y] and the
    exact leakage is ln max_y (1 + (w - 1) top_y) / (1 + (w - 1) low_y), with
    top_y and low_y the extremes of column y over the usable rows. That is the
    bound's H of the singleton subset {y} at budget ln w, so it is at most the
    bound there. The float evaluations of the two differ by a few ulps."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_leakage_in_closed_form(self, fixture_conditionals, kind):
        for cond in fixture_conditionals:
            usable = cond.matrix[cond.valid_rows()]
            top, low = usable.max(axis=0), usable.min(axis=0)
            for eps in (0.3, 1.0, 3.0, 7.5):
                trans = transition_matrix(MechanismSpec(kind, eps, cond.n_cols))
                w = trans.matrix[0, 0] / trans.matrix[0, 1]
                closed = math.log(((1.0 + (w - 1.0) * top) / (1.0 + (w - 1.0) * low)).max())
                assert cpl_exact(cond, trans).leakage == pytest.approx(closed, rel=0, abs=1e-12)
                bound = cpl_bound(cond, BudgetParams(math.log(w))).leakage
                assert closed <= bound + 1e-12
