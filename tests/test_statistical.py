import math
import tracemalloc

import numpy as np
import pytest

from cpl_kit import (
    BudgetParams,
    Dataset,
    EstimationConfig,
    InputError,
    InsufficientDataError,
    MechanismSpec,
    cpl_bound,
    cpl_exact,
    estimate_cpl,
    expand_dataset,
    nmse_cpl,
    perturb_dataset,
    statistical_cpl,
    statistical_tpl,
    transition_matrix,
)
from cpl_kit.benchmarks import ordered_pairs, pairwise_conditionals
from cpl_kit.data_model import Alphabet, conditional_from_joint, empirical_joint
from cpl_kit.mechanisms import KINDS
from cpl_kit.fixtures import independent_pair, latent_five, maxleak_pair, perfect_copy
from cpl_kit.rng import STAGE_SURROGATE, derive_rng
from cpl_kit.statistical import (
    BLOCK_ROWS, _decoded_blocks, _surrogate_table, count_table, sup_ratio_leakage,
)


def grr_specs(d, epsilon):
    return [MechanismSpec("grr", epsilon, d.alphabet(j).size) for j in range(d.n_attributes)]


def pipeline(d, epsilon, cfg, kind="grr"):
    specs = [MechanismSpec(kind, epsilon, d.alphabet(j).size) for j in range(d.n_attributes)]
    return perturb_dataset(d, specs, cfg), expand_dataset(d, cfg.expansion)


class TestPerturbDataset:
    def test_row_count(self):
        d = independent_pair(n=1000, seed=0)
        cfg = EstimationConfig(expansion=50, surrogates=1, seed=0)
        assert perturb_dataset(d, grr_specs(d, 1.0), cfg).n_records == 50_000

    def test_high_budget_is_identity(self):
        d = independent_pair(n=2000, seed=1, k=4)
        cfg = EstimationConfig(expansion=2, surrogates=1, seed=1)
        pert, orig = pipeline(d, 20.0, cfg)
        assert (pert.records == orig.records).all()

    def test_zero_budget_uniformizes(self):
        d = perfect_copy(n=50_000, seed=2, k=4)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=2)
        pert, _ = pipeline(d, 0.0, cfg)
        sigma = math.sqrt(0.25 * 0.75 / pert.n_records)
        for j in range(2):
            freq = np.bincount(pert.column(j), minlength=4) / pert.n_records
            assert np.abs(freq - 0.25).max() <= 4 * sigma

    def test_spec_alphabet_mismatch_rejected(self):
        d = independent_pair(n=100, seed=3, k=2)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        with pytest.raises(InputError, match="alphabet size"):
            perturb_dataset(d, [MechanismSpec("grr", 1.0, 3)] * 2, cfg)

    def test_rows_aligned_across_blocks(self):
        d = perfect_copy(n=30_001, seed=3, k=4)  # 90_003 rows: one full block and a partial one
        cfg = EstimationConfig(expansion=3, surrogates=1, seed=4)
        pert, orig = pipeline(d, 40.0, cfg)
        assert orig.n_records > BLOCK_ROWS
        assert (pert.records == orig.records).all()

    def test_deterministic_given_seed(self):
        d = independent_pair(n=3000, seed=4, k=2)
        cfg = EstimationConfig(expansion=2, surrogates=1, seed=11)
        a = perturb_dataset(d, grr_specs(d, 1.0), cfg)
        b = perturb_dataset(d, grr_specs(d, 1.0), cfg)
        assert (a.records == b.records).all()


class TestStatisticalCpl:
    def test_independent_attributes_near_zero_and_insignificant(self):
        d = independent_pair(n=50_000, seed=3, k=2)
        cfg = EstimationConfig(expansion=2, surrogates=200, seed=7)
        pert, orig = pipeline(d, 1.0, cfg)
        res = statistical_cpl(pert, orig, 0, [1], cfg)
        assert res.leakage < 0.05
        assert not res.significant

    def test_reference_table_both_directions(self):
        d = maxleak_pair(n=100_000, seed=0)
        cfg = EstimationConfig(expansion=5, surrogates=200, seed=42)
        pert, orig = pipeline(d, 1.0, cfg)
        fwd = statistical_cpl(pert, orig, 0, [1], cfg)
        rev = statistical_cpl(pert, orig, 1, [0], cfg)
        assert fwd.leakage == pytest.approx(0.9985, abs=0.05)
        assert rev.leakage == pytest.approx(0.6222, abs=0.05)
        assert fwd.p_value < 0.05 and rev.p_value < 0.05
        assert abs(fwd.leakage - rev.leakage) > 0.3  # asymmetry preserved

    def test_perfect_copy_matches_exact_path(self):
        d = perfect_copy(n=100_000, seed=5, k=4)
        cfg = EstimationConfig(expansion=1, surrogates=50, seed=9)
        pert, orig = pipeline(d, 2.0, cfg)
        res = statistical_cpl(pert, orig, 0, [1], cfg)
        cond = conditional_from_joint(empirical_joint(d, 0, 1))
        exact = cpl_exact(cond, transition_matrix(MechanismSpec("grr", 2.0, 4))).leakage
        assert res.leakage == pytest.approx(exact, abs=0.05)

    def test_determinism_bit_identical(self):
        d = maxleak_pair(n=5000, seed=1)
        cfg = EstimationConfig(expansion=2, surrogates=99, seed=123)
        pert, orig = pipeline(d, 1.0, cfg)
        a = statistical_cpl(pert, orig, 0, [1], cfg)
        b = statistical_cpl(pert, orig, 0, [1], cfg)
        assert a == b

    def test_input_validation(self):
        d = independent_pair(n=100, seed=6)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        pert, orig = pipeline(d, 1.0, cfg)
        with pytest.raises(InputError, match="nonempty"):
            statistical_cpl(pert, orig, 0, [], cfg)
        with pytest.raises(InputError, match="own neighbor"):
            statistical_cpl(pert, orig, 0, [0, 1], cfg)

    def test_joint_neighbor_alphabet_cap(self):
        k = 101  # three neighbors: 101^3 cells exceeds the 1e6 cap
        alphabet = Alphabet(tuple(f"s{i}" for i in range(k)))
        records = np.zeros((50, 4), dtype=np.int64)
        records[:, 0] = np.arange(50) % 2
        schema = tuple((f"a{j}", alphabet) for j in range(4))
        d = Dataset(schema, records)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        with pytest.raises(InputError, match="cells"):
            statistical_cpl(d, d, 0, [1, 2, 3], cfg)

    def test_insufficient_data_when_target_constant(self):
        records = np.column_stack([np.zeros(200, dtype=np.int64),
                                   np.arange(200) % 2])
        schema = (("t", Alphabet(("u", "v"))), ("n", Alphabet(("x", "y"))))
        d = Dataset(schema, records)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        pert, orig = pipeline(d, 1.0, cfg)
        with pytest.raises(InsufficientDataError):
            statistical_cpl(pert, orig, 0, [1], cfg)


class TestPermutationSignificance:
    def test_zero_leakage_gives_p_near_one(self):
        # identical constant neighbor: observed leakage 0, every surrogate ties
        records = np.column_stack([np.arange(400) % 2, np.zeros(400, dtype=np.int64)])
        schema = (("t", Alphabet(("u", "v"))), ("n", Alphabet(("x",))))
        d = Dataset(schema, records)
        cfg = EstimationConfig(expansion=1, surrogates=99, seed=0)
        orig = d
        res = statistical_cpl(d, orig, 0, [1], cfg)  # no perturbation needed
        assert res.leakage == 0.0
        assert res.p_value == 1.0

    def test_correlated_data_significant(self):
        d = maxleak_pair(n=20_000, seed=2)
        cfg = EstimationConfig(expansion=1, surrogates=199, seed=3)
        pert, orig = pipeline(d, 1.0, cfg)
        assert statistical_cpl(pert, orig, 0, [1], cfg).p_value < 0.05

    def test_null_calibration_reject_rate(self):
        # correlation destroyed up front: rejections should track alpha
        rejects = 0
        p_values = []
        for s in range(100):
            d = maxleak_pair(n=1500, seed=s)
            shuffler = np.random.default_rng(10_000 + s)
            rec = d.records.copy()
            rec[:, 1] = rec[shuffler.permutation(len(rec)), 1]
            broken = Dataset(d.schema, rec)
            cfg = EstimationConfig(expansion=1, surrogates=199, seed=s)
            pert, orig = pipeline(broken, 1.0, cfg)
            res = statistical_cpl(pert, orig, 0, [1], cfg)
            p_values.append(res.p_value)
            rejects += res.significant
        assert rejects <= 12
        assert np.median(p_values) > 0.2  # p-values spread out, not piled at 0


def shuffled_table(x, cols, sizes, m, rng):
    """Reference surrogate: the count table after permuting every neighbor
    column independently, row by row."""
    shuffled = [col[rng.permutation(len(col))] for col in cols]
    codes = np.ravel_multi_index(tuple(shuffled), dims=tuple(sizes))
    return count_table(x, codes, m, math.prod(sizes))


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (ties handled by the pooled grid)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, grid, side="right") / a.size
                  - np.searchsorted(b, grid, side="right") / b.size).max()


class TestSurrogateTables:
    @pytest.mark.parametrize("neighbor_counts", [
        [[7, 0, 33]],
        [[20, 20], [0, 15, 25], [10, 10, 0, 20]],
    ], ids=["one-neighbor", "three-neighbors"])
    def test_every_margin_kept(self, neighbor_counts):
        target_counts = np.array([12, 0, 28])
        neighbor_counts = [np.array(c) for c in neighbor_counts]
        shape = (target_counts.size, *(c.size for c in neighbor_counts))
        tables = [_surrogate_table(target_counts, neighbor_counts,
                                   derive_rng(21, STAGE_SURROGATE, s)) for s in range(20)]
        for table in tables:
            assert table.shape == (shape[0], math.prod(shape[1:]))
            assert (table >= 0).all()
            cube = table.reshape(shape)
            for axis, counts in enumerate([target_counts, *neighbor_counts]):
                others = tuple(a for a in range(len(shape)) if a != axis)
                assert (cube.sum(axis=others) == counts).all()
        assert len({t.tobytes() for t in tables}) > 1

    def test_null_matches_row_shuffle(self):
        # two-neighbor tuple; the leakage of sampled tables and of shuffled
        # rows must have the same distribution (two-sample KS at the 1% level)
        rng = derive_rng(5, 0)
        n, m, sizes = 300, 3, [2, 3]
        x = rng.integers(0, m, n)
        cols = [(x + rng.integers(0, 2, n)) % k for k in sizes]
        x_counts = np.bincount(x, minlength=m)
        w_counts = [np.bincount(c, minlength=k) for c, k in zip(cols, sizes)]
        draws = 3000
        sampled = [sup_ratio_leakage(_surrogate_table(
            x_counts, w_counts, derive_rng(6, STAGE_SURROGATE, s)))[0] for s in range(draws)]
        shuffled = [sup_ratio_leakage(shuffled_table(
            x, cols, sizes, m, derive_rng(7, STAGE_SURROGATE, s)))[0] for s in range(draws)]
        assert ks_distance(sampled, shuffled) < 1.628 * math.sqrt(2 / draws)


class TestStatisticalTpl:
    def test_single_attribute_tpl_equals_budget(self):
        d = independent_pair(n=100_000, seed=7, k=2)
        cfg = EstimationConfig(expansion=1, surrogates=50, seed=8)
        pert, orig = pipeline(d, 1.0, cfg)
        res = statistical_tpl(pert, orig, 0, cfg, neighbors=[])
        assert res.leakage == pytest.approx(1.0, abs=0.05)

    def test_tpl_below_composition_bound(self):
        d = maxleak_pair(n=50_000, seed=8)
        cfg = EstimationConfig(expansion=2, surrogates=50, seed=9)
        pert, orig = pipeline(d, 1.0, cfg)
        res = statistical_tpl(pert, orig, 0, cfg)
        cond = conditional_from_joint(empirical_joint(d, 0, 1))
        bound = 1.0 + cpl_bound(cond, BudgetParams(1.0)).leakage
        assert res.leakage <= bound + 0.05

    def test_attribute_out_of_range_rejected(self):
        d = maxleak_pair(n=200, seed=0)
        cfg = EstimationConfig(expansion=1, surrogates=2, seed=0)
        for target, neighbors in ((5, None), (0, [7]), (0, [-1])):
            with pytest.raises(InputError, match="attribute indices"):
                statistical_tpl(d, d, target, cfg, neighbors=neighbors)

    def test_zero_budget_tpl_insignificant(self):
        d = independent_pair(n=100_000, seed=9, k=2)
        cfg = EstimationConfig(expansion=2, surrogates=99, seed=10)
        pert, orig = pipeline(d, 0.0, cfg)
        res = statistical_tpl(pert, orig, 0, cfg)
        assert res.leakage < 0.05
        assert not res.significant


def four_records_pair():
    """One record per symbol of a maxleak-schema pair, for expansions so large
    that a single record spans several blocks."""
    schema = maxleak_pair(n=10, seed=0).schema
    return Dataset(schema, np.array([[0, 0], [1, 1], [2, 3], [3, 2]]))


class TestEstimateCpl:
    @pytest.mark.parametrize("kind, data, target, neighbors, r", [
        ("grr", lambda: maxleak_pair(n=70_001, seed=3), 0, [1], 1),
        ("grr", lambda: maxleak_pair(n=30_001, seed=3), 1, [0], 3),
        ("olh", lambda: latent_five(n=70_001, seed=4), 0, [1, 2, 3, 4], 1),
        ("olh", lambda: latent_five(n=30_001, seed=4), 2, [4, 0, 1, 3], 3),
        ("grr", four_records_pair, 0, [1], BLOCK_ROWS + 5),
    ], ids=["grr-r1", "grr-r3", "olh-r1", "olh-r3", "grr-r-above-block"])
    def test_one_stream_two_paths(self, kind, data, target, neighbors, r):
        # every n*r here leaves a partial last block
        d = data()
        assert d.n_records * r % BLOCK_ROWS != 0
        cfg = EstimationConfig(expansion=r, surrogates=30, seed=5)
        specs = [MechanismSpec(kind, 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        got = estimate_cpl(d, specs, target, neighbors, cfg)
        want = statistical_cpl(perturb_dataset(d, specs, cfg), expand_dataset(d, r),
                               target, neighbors, cfg)
        assert got.leakage.hex() == want.leakage.hex()
        assert got.p_value.hex() == want.p_value.hex()
        assert (got.significant, got.excluded_cells) == (want.significant, want.excluded_cells)

    def test_input_validation(self):
        d = independent_pair(n=100, seed=6)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        specs = grr_specs(d, 1.0)
        with pytest.raises(InputError, match="nonempty"):
            estimate_cpl(d, specs, 0, [], cfg)
        with pytest.raises(InputError, match="own neighbor"):
            estimate_cpl(d, specs, 0, [0, 1], cfg)
        with pytest.raises(InputError, match="alphabet size"):
            estimate_cpl(d, [MechanismSpec("grr", 1.0, 3)] * 2, 0, [1], cfg)
        for target, neighbors in ((2, [1]), (0, [-1]), (0, [2])):
            with pytest.raises(InputError, match="attribute indices"):
                estimate_cpl(d, specs, target, neighbors, cfg)
            with pytest.raises(InputError, match="attribute indices"):
                statistical_cpl(d, d, target, neighbors, cfg)

    @pytest.mark.parametrize("neighbors", [[1, 1], [2, 1, 2]])
    def test_repeated_neighbor_rejected(self, neighbors):
        # A repeat would enter the surrogates as an independent copy.
        d = latent_five(n=200, seed=6)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        specs = grr_specs(d, 1.0)
        with pytest.raises(InputError, match="distinct"):
            estimate_cpl(d, specs, 0, neighbors, cfg)
        with pytest.raises(InputError, match="distinct"):
            statistical_cpl(d, d, 0, neighbors, cfg)

    @pytest.mark.parametrize("r", [1, 3, BLOCK_ROWS + 5])
    def test_blocks_concatenate_to_the_expanded_records(self, r):
        d = four_records_pair()
        assert d.n_records * r % BLOCK_ROWS != 0
        blocks = [block for block, _ in _decoded_blocks(d, [], [], r, seed=0)]
        assert max(len(block) for block in blocks) <= BLOCK_ROWS
        np.testing.assert_array_equal(np.concatenate(blocks), expand_dataset(d, r).records)

    def test_peak_memory_flat_in_expansion(self):
        d = maxleak_pair(n=20_000, seed=0)
        specs = grr_specs(d, 1.0)

        def peak(r):
            cfg = EstimationConfig(expansion=r, surrogates=5, seed=1)
            tracemalloc.start()
            try:
                estimate_cpl(d, specs, 0, [1], cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50) <= 1.5 * peak(5)


class TestStatisticalMatchesExact:
    """``estimate_cpl`` converges to the exact leakage through the decoded
    channel, for every mechanism: NMSE over every ordered pair of a desk-scale
    fixture with mixed alphabet sizes, in the style of acceptance test 05."""

    # blh/olh key the real _mix64 hash per report, which is close to but not
    # exactly the ideal hash that transition_matrix assumes.
    NMSE_MAX = {"blh": 2e-2, "olh": 2e-2}

    @pytest.mark.parametrize("kind", KINDS)
    def test_nmse_against_exact(self, kind):
        d = latent_five(n=10_000, seed=0)
        conds = pairwise_conditionals(d)
        specs = [MechanismSpec(kind, 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        cfg = EstimationConfig(expansion=5, surrogates=1, seed=3)
        refs, ests = [], []
        for i, j in ordered_pairs(d.n_attributes):
            refs.append(cpl_exact(conds[(i, j)], transition_matrix(specs[j])).leakage)
            ests.append(estimate_cpl(d, specs, i, [j], cfg).leakage)
        assert nmse_cpl(ests, refs) < self.NMSE_MAX.get(kind, 1e-2)
