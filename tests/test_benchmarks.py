# utility_benchmark imports this lazily; importing it here keeps that import
# out of the tracemalloc windows below.
import concurrent.futures  # noqa: F401
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from cpl_kit import (
    Alphabet,
    BudgetParams,
    Dataset,
    DimensionMismatchError,
    InputError,
    InsufficientDataError,
    MechanismSpec,
    conditional_from_joint,
    cpl_bound,
    cpl_exact,
    empirical_joint,
    nmse_cpl,
    transition_matrix,
    undershoot_overshoot,
)
from cpl_kit import benchmarks
from cpl_kit.benchmarks import (
    UtilityReport,
    UtilityRow,
    analyzer_benchmark,
    baseline_grf,
    baseline_spl_anl,
    ordered_pairs,
    pairwise_abs_pcc,
    pairwise_conditionals,
    reference_leakages,
    utility_benchmark,
)
from cpl_kit.fixtures import (
    FIXTURES,
    MAXLEAK_JOINT,
    independent_pair,
    latent_five,
    mixed_five,
    noisy_copy,
    sample_pair_from_joint,
    weak_ten,
)
from cpl_kit.calibration import _LeakageTable
from cpl_kit.mechanisms import KINDS, debias_counts, decode_column, perturb_column, support_counts
from cpl_kit.rng import STAGE_DECODE, STAGE_PERTURB, derive_rng
from cpl_kit.statistical import BLOCK_ROWS
from conftest import cpl_limit, exact_closed_form


class TestUndershootOvershoot:
    def test_identity_is_optimal(self):
        p = undershoot_overshoot([0.4, 0.2], [0.4, 0.2], 1.0)
        assert (p.undershoot, p.overshoot, p.region) == (0.0, 0.0, "P1")

    def test_direct_formula_arithmetic(self):
        p = undershoot_overshoot([0.5, 0.5], [0.2, 0.7], 1.0)
        assert p.undershoot == pytest.approx(0.15)
        assert p.overshoot == pytest.approx(0.10)
        assert p.region == "R3"

    def test_full_budget_estimates_overshoot(self):
        # estimating the budget everywhere when the reference is below it
        p = undershoot_overshoot([0.3, 1.0], [1.0, 1.0], 1.0)
        assert p.region == "R2"
        assert p.undershoot == 0.0

    def test_pure_underestimation(self):
        p = undershoot_overshoot([0.5, 0.5], [0.1, 0.2], 1.0)
        assert p.region == "R1"

    def test_nonnegative_and_single_region(self):
        rng = derive_rng(300, 0)
        for _ in range(50):
            ref = rng.random(6)
            est = rng.random(6)
            p = undershoot_overshoot(ref, est, 1.0)
            assert p.undershoot >= 0 and p.overshoot >= 0
            assert p.region in ("P1", "R1", "R2", "R3")

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            undershoot_overshoot([0.1], [0.1, 0.2], 1.0)


class TestBaselines:
    def test_spl_anl_is_constant_budget(self):
        assert baseline_spl_anl(2, 1.5) == [1.5, 1.5]
        assert baseline_spl_anl(4, 0.7) == [0.7] * 12

    def test_spl_anl_lands_in_r2_on_reference_pair(self):
        d = sample_pair_from_joint(MAXLEAK_JOINT, 50_000, derive_rng(301, 0))
        ref = reference_leakages(d, 1.0, "bound")
        p = undershoot_overshoot(ref, baseline_spl_anl(2, 1.0), 1.0)
        assert p.region == "R2"

    def test_grf_components(self):
        pcc = np.array([[0.0, 0.5, 0.1], [0.5, 0.0, 0.1], [0.1, 0.1, 0.0]])
        est = baseline_grf(pcc, 0.2, 1.0)
        # pairs in row-major order: (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
        assert est == [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_grf_uncorrelated_data_underestimates_nothing_much(self):
        d = independent_pair(n=50_000, seed=5, k=2)
        ref = reference_leakages(d, 1.0, "bound")
        est = baseline_grf(pairwise_abs_pcc(d), 0.2, 1.0)
        assert est == [0.0, 0.0]
        p = undershoot_overshoot(ref, est, 1.0)
        assert p.region in ("P1", "R1")

    def test_grf_threshold_validated(self):
        with pytest.raises(InputError):
            baseline_grf(np.zeros((2, 2)), 0.0, 1.0)


class TestAnalyzerBenchmark:
    def test_region_signatures_on_mixed_data(self):
        d = mixed_five(n=40_000, seed=0)
        points, = analyzer_benchmark(d, [1.0])
        assert points["spl-anl"].region == "R2"
        assert points["grf-0.2"].region in ("R2", "R3")
        assert points["grf-0.4"].region in ("R2", "R3")
        assert points["grr-anl"].region in ("P1", "R1")
        assert points["grr-anl"].distance < 0.05
        assert points["exp-anl"].region == "R1"

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_exact_reference_for_every_mechanism(self, name):
        # 0 <= exact <= bound <= min(eps, cpl_limit) for every kind, pair and
        # budget of a dense grid, through the analyzer's tables. The slack of
        # 1e-9 is for rounding: the two engines are separate float
        # evaluations, which can differ by a few ulps where they meet.
        make, _ = FIXTURES[name]
        d = make(n=5_000, seed=1)
        conds = list(pairwise_conditionals(d).values())
        epsilons = (np.arange(1, 121) / 10).tolist()
        bound = _LeakageTable(conds, "bound")(epsilons)
        limit = np.minimum(np.array(epsilons)[:, None], [cpl_limit(c) for c in conds])
        assert (bound <= limit + 1e-9).all()
        assert reference_leakages(d, 1.0, "bound") == bound[9].tolist()
        for kind in KINDS:
            ref = _LeakageTable(conds, f"exact-{kind}")(epsilons)
            assert ((0.0 <= ref) & (ref <= bound + 1e-9)).all()
            assert reference_leakages(d, 1.0, f"exact-{kind}") == ref[9].tolist()
            for e in range(0, len(epsilons), 12):
                eps = epsilons[e]
                assert ref[e].tolist() == [exact_closed_form(c, kind, eps) for c in conds]
                kernel = [cpl_exact(c, transition_matrix(MechanismSpec(kind, eps, c.n_cols)))
                          .leakage for c in conds]
                assert ref[e].tolist() == pytest.approx(kernel, rel=0, abs=1e-12)

    @pytest.mark.parametrize("method", ["exact-nope", "exact", "grr"])
    def test_unknown_reference_rejected(self, method):
        with pytest.raises(InputError, match="unknown leakage engine"):
            reference_leakages(independent_pair(n=1_000, seed=2, k=2), 1.0, method)

    def test_exact_reference_puts_grr_at_origin(self):
        d = mixed_five(n=20_000, seed=1)
        points, = analyzer_benchmark(d, [1.0], reference="exact-grr")
        assert points["grr-anl"].region == "P1"

    def test_budgets_scored_together_equal_one_at_a_time(self):
        d = mixed_five(n=5_000, seed=1)
        epsilons = [0.5, 2.0, 7.0]
        for reference in ("bound", "exact-oue", [0.1] * 20):
            runs = analyzer_benchmark(d, epsilons, reference=reference)
            assert runs == [analyzer_benchmark(d, [eps], reference=reference)[0]
                            for eps in epsilons]

    def test_leakage_tables_built_once(self, monkeypatch):
        built = []

        def counted(conds, engine):
            built.append(engine)
            return _LeakageTable(conds, engine)

        monkeypatch.setattr(benchmarks, "_LeakageTable", counted)
        analyzer_benchmark(mixed_five(n=2_000, seed=1), [0.5, 1.0, 2.0], reference="exact-oue")
        assert built == ["exact-oue", "exact-grr", "exact-exp"]

    def test_precomputed_reference_accepted(self):
        d = independent_pair(n=10_000, seed=2, k=2)
        points, = analyzer_benchmark(d, [1.0], reference=[0.0, 0.0])
        assert points["spl-anl"].region == "R2"


class TestNmseCpl:
    def test_zero_for_identical_lists(self):
        assert nmse_cpl([0.5, 0.2], [0.5, 0.2]) == 0.0

    def test_formula(self):
        assert nmse_cpl([0.6, 0.2], [0.5, 0.4]) == pytest.approx(
            (0.01 + 0.04) / (0.25 + 0.16))

    def test_all_zero_reference_rejected(self):
        with pytest.raises(InputError):
            nmse_cpl([0.1], [0.0])


class TestUtilityBenchmark:
    def test_near_noiseless_limit(self):
        d = noisy_copy(n=20_000, seed=0, k=4, flip=0.2)
        row = utility_benchmark(d, ["grr"], [20.0], 1, 5)[0]
        assert row.report.zero_one_error < 0.01
        assert row.report.norm_tcpl == pytest.approx(1.0, abs=0.02)

    def test_zero_budget_uniform_guess(self):
        d = independent_pair(n=40_000, seed=1, k=4)
        row = utility_benchmark(d, ["grr"], [0.0], 1, 6)[0]
        assert row.report.zero_one_error == pytest.approx(0.75, abs=0.01)

    def test_grr_nmse_monotone_in_budget(self):
        d = noisy_copy(n=30_000, seed=2, k=4, flip=0.2)
        rows = utility_benchmark(d, ["grr"], [1.0, 3.0, 5.0], 1, 7)
        nmse = [r.report.freq_nmse for r in rows]
        assert nmse[1] <= nmse[0] * 1.1
        assert nmse[2] <= nmse[1] * 1.1

    def test_norm_tcpl_bounded_for_every_mechanism(self):
        d = noisy_copy(n=30_000, seed=0, k=4, flip=0.2)
        rows = utility_benchmark(d, list(KINDS), [1.0, 3.0], 4, 5)
        for row in rows:
            assert 0.0 < row.report.norm_tcpl <= 1.0 + 1e-9

    def test_norm_tcpl_is_exact_total_over_bound_total(self):
        d = mixed_five(n=5_000, seed=4)
        conds = pairwise_conditionals(d)
        for row in utility_benchmark(d, list(KINDS), [1.0], 1, 5):
            exact = sum(exact_closed_form(c, row.mechanism, 1.0) for c in conds.values())
            kernel = sum(cpl_exact(conds[(i, j)], transition_matrix(
                MechanismSpec(row.mechanism, 1.0, d.alphabet(j).size))).leakage
                for i, j in ordered_pairs(d.n_attributes))
            star = sum(cpl_bound(c, BudgetParams(1.0, 0.0)).leakage for c in conds.values())
            assert row.report.norm_tcpl == exact / star
            assert exact == pytest.approx(kernel, rel=0, abs=1e-12)

    def test_norm_tcpl_independent_of_seed_and_expansion(self):
        d = noisy_copy(n=5_000, seed=3, k=4)
        runs = [{r.mechanism: r.report.norm_tcpl for r in utility_benchmark(
                    d, list(KINDS), [1.0], r, seed)}
                for r, seed in ((1, 9), (3, 9), (1, 10))]
        assert runs[0] == runs[1] == runs[2]

    def test_grr_and_ss_near_bound_hash_vector_below(self):
        d = noisy_copy(n=30_000, seed=0, k=4, flip=0.2)
        rows = {r.mechanism: r.report.norm_tcpl for r in utility_benchmark(
            d, ["grr", "ss", "blh", "rappor"], [1.0], 4, 5)}
        assert rows["grr"] == pytest.approx(1.0, abs=0.05)
        assert rows["ss"] == pytest.approx(1.0, abs=0.05)
        assert rows["blh"] < 0.8
        # rappor at eps 1 is symmetric unary encoding, p = e^0.5/(1+e^0.5)
        # = 0.6225 and q = 1 - p. Decoded, it keeps the true symbol w.p.
        # a = p E[1/(1+B)] + (1-p)(1-q)^3/4 = 0.3731, B ~ Bin(3, q): a grr
        # channel at eps_eff = ln(3a/(1-a)) = 0.580. Its exact tcpl' on this
        # data is 0.953 against tcpl* 1.649, so norm_tcpl = 0.578.
        assert rows["rappor"] == pytest.approx(0.578, abs=5e-4)

    @pytest.mark.parametrize("make", [lambda: mixed_five(n=40_000, seed=0),
                                      lambda: noisy_copy(n=10_000, seed=2, k=33)],
                             ids=["mixed_five", "noisy_copy_k33"])
    def test_zero_one_error_matches_the_decoded_keep_probability(self, make):
        # Decoding keeps the true symbol with probability a_j, whatever that
        # symbol is, so attribute j's mismatches are Binomial(N, 1 - a_j) over
        # the N expanded rows: E = mean_j (1 - a_j) and
        # Var = sum_j N a_j (1 - a_j) / (N m)^2. k 33 adds ss with several
        # members and olh with g < k.
        d, r = make(), 5
        sizes = [d.alphabet(j).size for j in range(d.n_attributes)]
        n_rows, m = d.n_records * r, len(sizes)
        for row in utility_benchmark(d, list(KINDS), [0.5, 1.0, 3.0], r, 7):
            keep = [MechanismSpec(row.mechanism, row.epsilon, k).keep_probability()
                    for k in sizes]
            expected = sum(1 - a for a in keep) / m
            sd = math.sqrt(sum(n_rows * a * (1 - a) for a in keep)) / (n_rows * m)
            z = (row.report.zero_one_error - expected) / sd
            assert abs(z) <= 5, (row.mechanism, row.epsilon, z)

    def test_leakage_tables_built_once_per_engine(self, monkeypatch):
        built = []

        def counted(conds, engine):
            built.append(engine)
            return _LeakageTable(conds, engine)

        monkeypatch.setattr(benchmarks, "_LeakageTable", counted)
        utility_benchmark(mixed_five(n=2_000, seed=1), ["grr", "oue", "grr"], [1.0, 3.0], 1, 5)
        assert built == ["bound", "exact-grr", "exact-oue"]

    @pytest.mark.parametrize("kinds, error, match", [
        (["grr", "rappor"], InputError, "grr requires domain size k >= 2"),
        (["rappor", "grr"], InsufficientDataError, "at least 2 usable conditioning symbols"),
    ])
    def test_constant_column_fails_on_its_first_cell(self, kinds, error, match):
        # grr has no spec for a one-symbol column; rappor has, and fails on the
        # conditionals given that column, which have one usable row
        rng = derive_rng(40, 0)
        records = np.column_stack([rng.integers(0, 3, 500), np.zeros(500, dtype=np.int64)])
        d = Dataset((("a", Alphabet(("x", "y", "z"))), ("b", Alphabet(("c",)))), records)
        with pytest.raises(error, match=match):
            utility_benchmark(d, kinds, [1.0, 2.0], 1, 0)

    def test_deterministic(self):
        d = noisy_copy(n=5_000, seed=3, k=4)
        a = utility_benchmark(d, ["oue"], [1.0], 1, 9)
        b = utility_benchmark(d, ["oue"], [1.0], 1, 9)
        assert a == b

    def test_expansion_below_one_rejected(self):
        d = noisy_copy(n=1_000, seed=3, k=4)
        with pytest.raises(InputError, match="expansion factor must be >= 1"):
            utility_benchmark(d, ["grr"], [1.0], 0, 9)


def serial_utility(d, kinds, epsilons, r, seed):
    """Oracle: every cell walked serially over the blocks of the built
    expanded dataset, all attributes of a block together, with the public
    column API on the ``derive_rng`` streams; every pair's leakage comes
    from the single-pair bound kernel or the exact closed form."""
    n_attr = d.n_attributes
    sizes = [d.alphabet(j).size for j in range(n_attr)]
    n_rows = d.n_records * r
    expanded = np.repeat(d.records, r, axis=0)
    pairs = ordered_pairs(n_attr)
    conds = pairwise_conditionals(d)
    true_freqs = [np.bincount(d.column(j), minlength=sizes[j]) / d.n_records
                  for j in range(n_attr)]
    freq_denom = sum(float((f ** 2).sum()) for f in true_freqs)
    rows = []
    for cell, (kind, eps) in enumerate((k, e) for k in kinds for e in epsilons):
        specs = [MechanismSpec(kind, eps, size) for size in sizes]
        streams = [(derive_rng(seed, STAGE_PERTURB, cell, j),
                    derive_rng(seed, STAGE_DECODE, cell, j)) for j in range(n_attr)]
        counts = [0] * n_attr
        mismatches = 0
        for start in range(0, n_rows, BLOCK_ROWS):
            block = expanded[start:start + BLOCK_ROWS]
            for j, (perturb_rng, decode_rng) in enumerate(streams):
                col = perturb_column(specs[j], block[:, j], perturb_rng)
                symbols = decode_column(specs[j], col, decode_rng)
                counts[j] += support_counts(specs[j], col)
                mismatches += int(np.count_nonzero(symbols != block[:, j]))
        freq_err = 0.0
        for j, spec in enumerate(specs):
            est = debias_counts(spec, counts[j], n_rows)
            freq_err += float(((est - true_freqs[j]) ** 2).sum())
        tcpl_star = sum(cpl_bound(conds[p], BudgetParams(eps, 0.0)).leakage for p in pairs)
        tcpl_prime = sum(exact_closed_form(conds[p], kind, eps) for p in pairs)
        rows.append(UtilityRow(kind, eps, UtilityReport(
            freq_err / freq_denom, mismatches / (n_rows * n_attr),
            tcpl_prime / tcpl_star if tcpl_star > 0 else 0.0)))
    return rows


class TestUtilityColumns:
    # 3000 records x 25 = 75,000 expanded rows: one full block and a partial one
    N, R, SEED = 3_000, 25, 11

    @pytest.fixture(scope="class")
    def oracle(self):
        d = mixed_five(n=self.N, seed=6)
        assert BLOCK_ROWS < self.N * self.R < 2 * BLOCK_ROWS
        return d, serial_utility(d, list(KINDS), [1.0, 3.0], self.R, self.SEED)

    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_rows_equal_serial_oracle(self, oracle, monkeypatch, workers):
        d, expected = oracle
        if workers is not None:
            monkeypatch.setattr(benchmarks, "_workers", lambda n_columns: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches, more interleavings
        try:
            rows = utility_benchmark(d, list(KINDS), [1.0, 3.0], self.R, self.SEED)
        finally:
            sys.setswitchinterval(interval)
        assert rows == expected

    def test_one_worker_memory_is_one_block(self, monkeypatch):
        # she's payload is an (N, k) float64 block; a column keeps nothing
        # of a block past it, so the peak stays within a few such blocks
        monkeypatch.setattr(benchmarks, "_workers", lambda n_columns: 1)
        k = 4
        d, r = noisy_copy(n=5_000, seed=3, k=k), 30
        assert d.n_records * r > 2 * BLOCK_ROWS
        tracemalloc.start()
        try:
            utility_benchmark(d, ["she"], [1.0], r, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * BLOCK_ROWS * k * 8

    def test_one_worker_memory_is_under_five_int64_blocks(self, monkeypatch):
        # a grr column holds a block's values, reports and symbols, one int64
        # each; if the loop kept the last block alive while the walker draws
        # the next, the peak would pass six such blocks
        monkeypatch.setattr(benchmarks, "_workers", lambda n_columns: 1)
        d, r = noisy_copy(n=5_000, seed=3, k=4), 30
        assert d.n_records * r > 2 * BLOCK_ROWS
        tracemalloc.start()
        try:
            utility_benchmark(d, ["grr"], [1.0], r, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * BLOCK_ROWS * 8

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
    def test_workers_one_per_cpu_capped_by_columns(self):
        assert benchmarks._workers(1) == 1
        assert benchmarks._workers(10 ** 6) == len(os.sched_getaffinity(0))


class TestOrderedPairs:
    def test_row_major(self):
        assert ordered_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def wide_alphabets(n: int = 7_000, sizes=(30, 41, 17)) -> Dataset:
    """Three attributes with alphabets of 17 to 41 symbols, driven by one
    shared latent: rows long enough that a row sum's rounding depends on
    the memory order of the table."""
    rng = derive_rng(41, 0)
    latent = rng.integers(0, 50, n)
    columns = [(latent * (j + 3) + rng.integers(0, 7, n)) % k for j, k in enumerate(sizes)]
    schema = tuple((f"a{j}", Alphabet(tuple(f"s{i}" for i in range(k))))
                   for j, k in enumerate(sizes))
    return Dataset(schema, np.column_stack(columns))


class TestPairwiseConditionals:
    @pytest.mark.parametrize("make", [
        lambda: mixed_five(n=5_000, seed=1),
        lambda: latent_five(n=5_000, seed=2),
        lambda: weak_ten(n=3_000, seed=3),
        wide_alphabets,
    ])
    def test_each_pair_equals_its_own_count(self, make):
        # (j, i) comes from the transposed counts of (i, j): bit for bit the
        # conditional of its own joint, row sums included
        self.assert_each_pair_equals_its_own_count(make())

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_fixture(self, name):
        make, _ = FIXTURES[name]
        self.assert_each_pair_equals_its_own_count(make(n=4_000, seed=6))

    @pytest.mark.parametrize("sizes", [
        (2, 2, 2), (1, 255), (1, 256), (255, 2, 1), (255, 255), (255, 256, 2), (256, 256),
        (300, 2, 255, 256),
    ], ids=lambda sizes: "x".join(map(str, sizes)))
    def test_alphabets_at_code_width_edges(self, sizes):
        # the pairs are counted on codes of the narrowest unsigned dtype that
        # holds m * t: 255 * 256 fits 16 bits and 256 * 256 needs 32, and the
        # last record holds every attribute's last symbol, the largest code
        rng = derive_rng(52, len(sizes))
        records = np.column_stack([rng.integers(0, k, 5_000) for k in sizes])
        records[-1] = np.array(sizes) - 1
        schema = tuple((f"a{j}", Alphabet(tuple(f"s{i}" for i in range(k))))
                       for j, k in enumerate(sizes))
        self.assert_each_pair_equals_its_own_count(Dataset(schema, records))

    @staticmethod
    def assert_each_pair_equals_its_own_count(d):
        conds = pairwise_conditionals(d)
        assert list(conds) == ordered_pairs(d.n_attributes)
        for (i, j), cond in conds.items():
            own = conditional_from_joint(empirical_joint(d, i, j), given="rows")
            assert cond.matrix.tobytes() == own.matrix.tobytes()
            assert (cond.valid == own.valid).all()
            assert (cond.row_labels, cond.col_labels) == (own.row_labels, own.col_labels)
