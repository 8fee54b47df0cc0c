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
    nmse_cpl,
    transition_matrix,
)
from cpl_kit.benchmarks import ordered_pairs, pairwise_conditionals, utility_benchmark
from cpl_kit.data_model import Alphabet, conditional_from_joint, empirical_joint
from cpl_kit.mechanisms import KINDS
from cpl_kit.fixtures import independent_pair, latent_five, maxleak_pair, mixed_five, perfect_copy
from cpl_kit.rng import STAGE_SURROGATE, derive_rng
from cpl_kit import statistical
from cpl_kit.statistical import (
    BLOCK_ROWS, _decoded_column, _expanded_blocks, _surrogate_leakages, _surrogate_table,
    count_table, sup_ratio_leakage,
)
from conftest import decode_rows, exact_set_leakage, row_leakage, sup_ratio_reference


def grr_specs(d, epsilon):
    return [MechanismSpec("grr", epsilon, d.alphabet(j).size) for j in range(d.n_attributes)]


def pipeline(d, epsilon, cfg, kind="grr"):
    """Expanded records and, aligned with them, every decoded attribute."""
    specs = [MechanismSpec(kind, epsilon, d.alphabet(j).size) for j in range(d.n_attributes)]
    return decode_rows(d, specs, cfg)


class TestPerturbDataset:
    """Every attribute of the expanded dataset, perturbed and decoded by its
    column walker."""

    def test_row_count(self):
        d = independent_pair(n=1000, seed=0)
        walker = _decoded_column(grr_specs(d, 1.0)[0], d.column(0), 50, 0, (), 0)
        assert sum(len(symbols) for *_, symbols in walker) == 50_000

    def test_high_budget_is_identity(self):
        d = independent_pair(n=2000, seed=1, k=4)
        cfg = EstimationConfig(expansion=2, surrogates=1, seed=1)
        orig, pert = pipeline(d, 20.0, cfg)
        assert (pert == orig).all()

    def test_zero_budget_uniformizes(self):
        d = perfect_copy(n=50_000, seed=2, k=4)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=2)
        _, pert = pipeline(d, 0.0, cfg)
        sigma = math.sqrt(0.25 * 0.75 / len(pert))
        for j in range(2):
            freq = np.bincount(pert[:, j], minlength=4) / len(pert)
            assert np.abs(freq - 0.25).max() <= 4 * sigma

    def test_spec_alphabet_mismatch_rejected(self):
        # the target's own spec is read once the target joins the tuple
        d = independent_pair(n=100, seed=3, k=2)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        specs = {0: MechanismSpec("grr", 1.0, 3), 1: MechanismSpec("grr", 1.0, 2)}
        estimate_cpl(d, specs, 0, [1], cfg)
        with pytest.raises(InputError, match="alphabet size"):
            estimate_cpl(d, specs, 0, [0, 1], cfg)

    def test_rows_aligned_across_blocks(self):
        d = perfect_copy(n=30_001, seed=3, k=4)  # 90_003 rows: one full block and a partial one
        cfg = EstimationConfig(expansion=3, surrogates=1, seed=4)
        orig, pert = pipeline(d, 40.0, cfg)
        assert len(orig) > BLOCK_ROWS
        assert (pert == orig).all()

    def test_deterministic_given_seed(self):
        d = independent_pair(n=3000, seed=4, k=2)
        cfg = EstimationConfig(expansion=2, surrogates=1, seed=11)
        _, a = pipeline(d, 1.0, cfg)
        _, b = pipeline(d, 1.0, cfg)
        assert (a == b).all()


class TestStatisticalCpl:
    def test_independent_attributes_near_zero_and_insignificant(self):
        d = independent_pair(n=50_000, seed=3, k=2)
        cfg = EstimationConfig(expansion=2, surrogates=200, seed=7)
        res = estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg)
        assert res.leakage < 0.05
        assert not res.significant

    def test_reference_table_both_directions(self):
        d = maxleak_pair(n=100_000, seed=0)
        cfg = EstimationConfig(expansion=5, surrogates=200, seed=42)
        fwd = estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg)
        rev = estimate_cpl(d, grr_specs(d, 1.0), 1, [0], cfg)
        assert fwd.leakage == pytest.approx(0.9985, abs=0.05)
        assert rev.leakage == pytest.approx(0.6222, abs=0.05)
        assert fwd.p_value < 0.05 and rev.p_value < 0.05
        assert abs(fwd.leakage - rev.leakage) > 0.3  # asymmetry preserved

    def test_perfect_copy_matches_exact_path(self):
        d = perfect_copy(n=100_000, seed=5, k=4)
        cfg = EstimationConfig(expansion=1, surrogates=50, seed=9)
        res = estimate_cpl(d, grr_specs(d, 2.0), 0, [1], cfg)
        cond = conditional_from_joint(empirical_joint(d, 0, 1))
        exact = cpl_exact(cond, transition_matrix(MechanismSpec("grr", 2.0, 4))).leakage
        assert res.leakage == pytest.approx(exact, abs=0.05)

    def test_determinism_bit_identical(self):
        d = maxleak_pair(n=5000, seed=1)
        cfg = EstimationConfig(expansion=2, surrogates=99, seed=123)
        a = estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg)
        b = estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg)
        assert a == b

    def test_input_validation(self):
        d = independent_pair(n=100, seed=6)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        with pytest.raises(InputError, match="nonempty"):
            estimate_cpl(d, grr_specs(d, 1.0), 0, [], cfg)

    def test_joint_neighbor_alphabet_cap(self):
        k = 101  # three neighbors: 101^3 cells exceeds the 1e6 cap
        alphabet = Alphabet(tuple(f"s{i}" for i in range(k)))
        records = np.zeros((50, 4), dtype=np.int64)
        records[:, 0] = np.arange(50) % 2
        schema = tuple((f"a{j}", alphabet) for j in range(4))
        d = Dataset(schema, records)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        with pytest.raises(InputError, match="cells"):
            estimate_cpl(d, grr_specs(d, 1.0), 0, [1, 2, 3], cfg)

    def test_insufficient_data_when_target_constant(self):
        records = np.column_stack([np.zeros(200, dtype=np.int64),
                                   np.arange(200) % 2])
        schema = (("t", Alphabet(("u", "v"))), ("n", Alphabet(("x", "y"))))
        d = Dataset(schema, records)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        with pytest.raises(InsufficientDataError):
            estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg)


def sup_ratio_outcome(fn, counts):
    """(value as hex, excluded) of a supremum, or its error's type and message."""
    try:
        value, excluded = fn(counts)
    except InsufficientDataError as exc:
        return type(exc), str(exc)
    return value.hex(), excluded


def edge_case_tables(rng, n_tables):
    """Seeded sparse count tables, each reshaped into one edge case: an
    all-zero row, columns seen under one symbol only, tied extremes (rows
    proportional to each other), a single observed row, or no column seen
    under two symbols."""
    cases = ("plain", "zero_row", "lone_column", "tied", "single_row", "no_shared_column")
    for index in range(n_tables):
        case = cases[index % len(cases)]
        m, n_w = int(rng.integers(2, 6)), int(rng.integers(1, 8))
        counts = rng.poisson(rng.uniform(0.3, 4.0), size=(m, n_w))
        if case == "zero_row":
            counts[rng.integers(0, m)] = 0
        elif case == "lone_column":
            for col in rng.choice(n_w, size=int(rng.integers(1, n_w + 1)), replace=False):
                keep = rng.integers(0, m)
                counts[:, col] = 0
                counts[keep, col] = rng.integers(1, 9)
        elif case == "tied":
            counts[1] = int(rng.integers(1, 4)) * counts[0]
        elif case == "single_row":
            counts[np.arange(m) != rng.integers(0, m)] = 0
        elif case == "no_shared_column":
            owner = rng.integers(0, m, size=n_w)
            counts = np.where(np.arange(m)[:, None] == owner, counts + 1, 0)
        yield case, counts


class TestSupRatioLeakage:
    """The supremum reuses the exact engine's column-extremes kernel; it must
    equal the masked nanmax/nanmin form bit for bit, errors included."""

    def test_equals_masked_reference_on_edge_cases(self):
        rng = derive_rng(2101, 0)
        seen: dict[str, set] = {}
        for case, counts in edge_case_tables(rng, 3000):
            want = sup_ratio_outcome(sup_ratio_reference, counts)
            assert sup_ratio_outcome(sup_ratio_leakage, counts) == want, (case, counts)
            seen.setdefault(case, set()).add(want[0] if want[0] is InsufficientDataError
                                             else "value")
        assert seen["single_row"] == {InsufficientDataError}
        assert seen["no_shared_column"] == {InsufficientDataError}
        for case in ("plain", "zero_row", "lone_column", "tied"):
            assert "value" in seen[case], case

    def test_lone_and_tied_columns(self):
        # column 2 is seen under row 0 only; columns 0 and 1 tie at ratio 2
        counts = np.array([[2, 4, 5, 0], [1, 2, 0, 0], [0, 0, 0, 0]])
        value, excluded = sup_ratio_leakage(counts)
        assert (value, excluded) == sup_ratio_reference(counts)
        assert value == pytest.approx(math.log((1 / 3) / (2 / 11)), abs=1e-15)
        assert excluded == 1


class TestPermutationSignificance:
    def test_zero_leakage_gives_p_near_one(self):
        # identical constant neighbor: observed leakage 0, every surrogate ties
        records = np.column_stack([np.arange(400) % 2, np.zeros(400, dtype=np.int64)])
        schema = (("t", Alphabet(("u", "v"))), ("n", Alphabet(("x",))))
        d = Dataset(schema, records)
        cfg = EstimationConfig(expansion=1, surrogates=99, seed=0)
        res = row_leakage(d, d.records, d.records, 0, [1], cfg)  # no perturbation needed
        assert res.leakage == 0.0
        assert res.p_value == 1.0

    def test_correlated_data_significant(self):
        d = maxleak_pair(n=20_000, seed=2)
        cfg = EstimationConfig(expansion=1, surrogates=199, seed=3)
        assert estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg).p_value < 0.05

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
            res = estimate_cpl(broken, grr_specs(broken, 1.0), 0, [1], cfg)
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

    @pytest.mark.parametrize("block_rows", [1, 40, BLOCK_ROWS])
    def test_stacked_scores_equal_each_table_alone(self, monkeypatch, block_rows):
        # Small stacks cross chunk edges mid-run; sparse margins give
        # surrogates with no column observed under two symbols, which
        # sup_ratio_leakage refuses.
        monkeypatch.setattr(statistical, "BLOCK_ROWS", block_rows)
        rng = derive_rng(31, 0)
        outcomes = set()
        for case in range(60):
            m = int(rng.integers(2, 5))
            x_counts = rng.integers(0, 3, m)
            x_counts[:2] += 1
            w_counts = [rng.multinomial(x_counts.sum(), np.ones(k) / k)
                        for k in rng.integers(1, 5, size=int(rng.integers(1, 3)))]
            cfg = EstimationConfig(expansion=1, surrogates=23, seed=case)
            leakages = _surrogate_leakages(x_counts, w_counts, cfg)
            assert leakages.shape == (23,)
            for s in range(cfg.surrogates):
                table = _surrogate_table(x_counts, w_counts,
                                         derive_rng(cfg.seed, STAGE_SURROGATE, s))
                try:
                    want = sup_ratio_leakage(table)[0]
                except InsufficientDataError:
                    want = -math.inf  # never a hit
                    outcomes.add("skipped")
                else:
                    outcomes.add("scored")
                assert float(leakages[s]).hex() == want.hex()
        assert outcomes == {"skipped", "scored"}

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
    """Total leakage: the target's own report joins the tuple."""

    def test_single_attribute_tpl_equals_budget(self):
        d = independent_pair(n=100_000, seed=7, k=2)
        cfg = EstimationConfig(expansion=1, surrogates=50, seed=8)
        res = estimate_cpl(d, grr_specs(d, 1.0), 0, [0], cfg)
        assert res.leakage == pytest.approx(1.0, abs=0.05)

    def test_tpl_below_composition_bound(self):
        d = maxleak_pair(n=50_000, seed=8)
        cfg = EstimationConfig(expansion=2, surrogates=50, seed=9)
        res = estimate_cpl(d, grr_specs(d, 1.0), 0, [0, 1], cfg)
        cond = conditional_from_joint(empirical_joint(d, 0, 1))
        bound = 1.0 + cpl_bound(cond, BudgetParams(1.0)).leakage
        assert res.leakage <= bound + 0.05

    def test_attribute_out_of_range_rejected(self):
        d = maxleak_pair(n=200, seed=0)
        cfg = EstimationConfig(expansion=1, surrogates=2, seed=0)
        for target, tuple_ in ((5, [0, 1, 5]), (0, [0, 7]), (0, [-1, 0])):
            with pytest.raises(InputError, match="attribute indices"):
                estimate_cpl(d, grr_specs(d, 1.0), target, tuple_, cfg)

    def test_zero_budget_tpl_insignificant(self):
        d = independent_pair(n=100_000, seed=9, k=2)
        cfg = EstimationConfig(expansion=2, surrogates=99, seed=10)
        res = estimate_cpl(d, grr_specs(d, 0.0), 0, [0, 1], cfg)
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
        # the target in the tuple: the total leakage, with the target's
        # column counted once as the original and once decoded
        ("grr", lambda: maxleak_pair(n=30_001, seed=3), 0, [0], 3),
        ("grr", lambda: maxleak_pair(n=30_001, seed=3), 1, [0, 1], 1),
        ("olh", lambda: latent_five(n=30_001, seed=4), 2, [0, 1, 2, 3, 4], 3),
        ("she", lambda: latent_five(n=30_001, seed=4), 3, [4, 3, 0], 2),
        ("oue", lambda: latent_five(n=30_001, seed=4), 0, [2, 0], 3),
        ("grr", four_records_pair, 1, [1, 0], BLOCK_ROWS + 5),
    ], ids=["grr-r1", "grr-r3", "olh-r1", "olh-r3", "grr-r-above-block",
            "tpl-grr-target-only", "tpl-grr-pair", "tpl-olh-all", "tpl-she-unsorted",
            "tpl-oue-unsorted", "tpl-grr-r-above-block"])
    def test_one_stream_two_paths(self, kind, data, target, neighbors, r):
        # every n*r here leaves a partial last block
        d = data()
        assert d.n_records * r % BLOCK_ROWS != 0
        cfg = EstimationConfig(expansion=r, surrogates=30, seed=5)
        specs = [MechanismSpec(kind, 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        got = estimate_cpl(d, specs, target, neighbors, cfg)
        want = row_leakage(d, *decode_rows(d, specs, cfg), target, neighbors, cfg)
        assert got.leakage.hex() == want.leakage.hex()
        assert got.p_value.hex() == want.p_value.hex()
        assert (got.significant, got.excluded_cells) == (want.significant, want.excluded_cells)

    def test_input_validation(self):
        d = independent_pair(n=100, seed=6)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        specs = grr_specs(d, 1.0)
        with pytest.raises(InputError, match="nonempty"):
            estimate_cpl(d, specs, 0, [], cfg)
        with pytest.raises(InputError, match="alphabet size"):
            estimate_cpl(d, [MechanismSpec("grr", 1.0, 3)] * 2, 0, [1], cfg)
        for target, neighbors in ((2, [1]), (0, [-1]), (0, [2])):
            with pytest.raises(InputError, match="attribute indices"):
                estimate_cpl(d, specs, target, neighbors, cfg)

    @pytest.mark.parametrize("neighbors", [[1, 1], [2, 1, 2]])
    def test_repeated_neighbor_rejected(self, neighbors):
        # A repeat would enter the surrogates as an independent copy.
        d = latent_five(n=200, seed=6)
        cfg = EstimationConfig(expansion=1, surrogates=1, seed=0)
        specs = grr_specs(d, 1.0)
        with pytest.raises(InputError, match="distinct"):
            estimate_cpl(d, specs, 0, neighbors, cfg)

    # r 4 puts every block edge on a record edge, r BLOCK_ROWS makes each
    # block one record, and r 2 BLOCK_ROWS + 1 spreads a record over blocks
    @pytest.mark.parametrize("r", [1, 3, 4, BLOCK_ROWS, BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 1])
    def test_blocks_concatenate_to_the_expanded_records(self, r):
        d = four_records_pair()
        # the four records, and a one-record dataset walked whole and as a column
        for walked in (d.records, d.records[:1], d.records[:1, 1]):
            blocks = list(_expanded_blocks(walked, r))
            assert max(len(block) for block in blocks) <= BLOCK_ROWS
            np.testing.assert_array_equal(np.concatenate(blocks), np.repeat(walked, r, axis=0))
        # About 2.5 blocks' worth of records, walked whole and as one column:
        # every block but the last is full, and each holds the bytes of the
        # int64 gather of its rows' records, row i being record i // r, also
        # where a block edge splits a record's repeats, as one does unless r
        # divides BLOCK_ROWS.
        records = latent_five(n=-(-5 * BLOCK_ROWS // (2 * r)), seed=4).records
        n_rows = len(records) * r
        split = [edge for edge in range(BLOCK_ROWS, n_rows, BLOCK_ROWS) if edge % r]
        assert bool(split) == bool(BLOCK_ROWS % r)
        for walked in (records, records[:, 2]):
            blocks = list(_expanded_blocks(walked, r))
            assert len(blocks) >= 3
            assert [len(block) for block in blocks[:-1]] == [BLOCK_ROWS] * (len(blocks) - 1)
            for k, block in enumerate(blocks):
                rows = np.arange(k * BLOCK_ROWS, min((k + 1) * BLOCK_ROWS, n_rows))
                assert block.dtype == np.int64
                assert block.tobytes() == walked.take(rows // r, axis=0).tobytes()

    @pytest.mark.parametrize("kind", ["grr", "olh", "she"])
    def test_column_walked_alone_equals_column_in_step(self, kind):
        # the row-level oracle walks one column after another and
        # estimate_cpl walks its tuple in step; either way attribute j's
        # symbols agree
        d = latent_five(n=30_001, seed=4)
        r, seed, cols = 3, 8, (0, 3)
        assert BLOCK_ROWS < d.n_records * r < 2 * BLOCK_ROWS
        specs = [MechanismSpec(kind, 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        orig, pert = decode_rows(d, specs, EstimationConfig(expansion=r, surrogates=1, seed=seed))
        stepped = {j: [] for j in cols}
        for blocks in zip(*(_decoded_column(specs[j], d.column(j), r, seed, (), j) for j in cols)):
            for j, (_, _, symbols) in zip(cols, blocks):
                stepped[j].append(symbols)
        for j in cols:
            alone = list(_decoded_column(specs[j], d.column(j), r, seed, (), j))
            assert len(alone) == len(stepped[j]) == 2
            np.testing.assert_array_equal(np.concatenate([block for block, _, _ in alone]),
                                          orig[:, j])
            np.testing.assert_array_equal(
                np.concatenate([symbols for _, _, symbols in alone]), pert[:, j])
            np.testing.assert_array_equal(np.concatenate(stepped[j]), pert[:, j])

    def test_only_the_neighbors_specs_are_read(self):
        # a constant attribute has no valid grr spec; it is neither a
        # neighbor nor perturbed, so it cannot change the estimate
        d = maxleak_pair(n=3_000, seed=2)
        constant = Dataset((*d.schema, ("c", Alphabet(("z",)))),
                           np.column_stack([d.records, np.zeros(d.n_records, dtype=np.int64)]))
        cfg = EstimationConfig(expansion=2, surrogates=20, seed=3)
        want = estimate_cpl(d, grr_specs(d, 1.0), 0, [1], cfg)
        got = estimate_cpl(constant, {1: MechanismSpec("grr", 1.0, d.alphabet(1).size)},
                           0, [1], cfg)
        assert got == want
        with pytest.raises(InputError, match="no mechanism spec for attribute 'b'"):
            estimate_cpl(constant, {0: grr_specs(d, 1.0)[0]}, 0, [1], cfg)

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), 2.5, 2.0, np.float64(2), True],
                         ids=["int", "int64", "uint8", "float", "whole-float", "float64", "bool"])
def test_counts_and_seeds_must_be_integers(value):
    """Expansion, surrogate count, the benchmark's r and every seed take an
    int or a numpy integer, used as an int (200 * r overflows uint8); a
    float or a bool is an ``InputError``."""
    d = maxleak_pair(n=200, seed=1)
    calls = [lambda: EstimationConfig(expansion=value),
             lambda: EstimationConfig(surrogates=value),
             lambda: derive_rng(value, 0),
             lambda: utility_benchmark(d, ["grr"], [1.0], value, 0),
             lambda: utility_benchmark(d, ["grr"], [1.0], 1, value)]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    for call in calls:
        if integer:
            call()
        else:
            with pytest.raises(InputError, match="must be an integer"):
                call()
    if integer:
        assert derive_rng(value, 0).random() == derive_rng(2, 0).random()
        assert type(EstimationConfig(expansion=value, surrogates=value).expansion) is int


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


class TestSetLeakageMatchesExact:
    """For a tuple of attributes, with or without the target, ``estimate_cpl``
    converges to the exact leakage through the product of the members'
    decoded channels as the expansion factor grows."""

    @pytest.mark.parametrize("kind, target, tuple_", [
        ("grr", 0, [1, 2]), ("grr", 2, [0, 2, 4]), ("oue", 0, [1, 2]), ("oue", 3, [0, 3, 4]),
    ])
    def test_error_falls_with_expansion(self, kind, target, tuple_):
        d = latent_five(n=10_000, seed=0)
        specs = [MechanismSpec(kind, 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        exact = exact_set_leakage(d, specs, target, tuple_).leakage

        def mean_error(r):
            return np.mean([abs(estimate_cpl(d, specs, target, tuple_, EstimationConfig(
                expansion=r, surrogates=1, seed=seed)).leakage - exact) for seed in range(5)])

        coarse, fine = mean_error(5), mean_error(50)
        assert fine < coarse
        assert fine < 0.05

    @pytest.mark.parametrize("target", [0, 3])
    def test_every_attribute_in_the_tuple(self, target):
        # The total leakage of releasing all five attributes at once.
        d = mixed_five(n=40_000, seed=1)
        specs = [MechanismSpec("grr", 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        tuple_ = list(range(d.n_attributes))
        exact = exact_set_leakage(d, specs, target, tuple_).leakage

        def mean_error(r):
            return np.mean([abs(estimate_cpl(d, specs, target, tuple_, EstimationConfig(
                expansion=r, surrogates=1, seed=seed)).leakage - exact) for seed in range(3)])

        coarse, fine = mean_error(5), mean_error(50)
        assert fine < coarse
        assert fine < 0.06

    def test_every_attribute_in_the_tuple_peak_memory_flat_in_expansion(self):
        d = mixed_five(n=40_000, seed=1)
        specs = grr_specs(d, 1.0)

        def peak(r):
            cfg = EstimationConfig(expansion=r, surrogates=1, seed=0)
            tracemalloc.start()
            try:
                estimate_cpl(d, specs, 0, list(range(d.n_attributes)), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50) <= 1.5 * peak(5)

    def test_single_member_is_the_pairwise_exact_leakage(self):
        d = latent_five(n=10_000, seed=0)
        specs = [MechanismSpec("oue", 1.0, d.alphabet(j).size) for j in range(d.n_attributes)]
        cond = pairwise_conditionals(d)[(0, 3)]
        pairwise = cpl_exact(cond, transition_matrix(specs[3])).leakage
        assert exact_set_leakage(d, specs, 0, [3]).leakage == pytest.approx(pairwise, abs=1e-12)
