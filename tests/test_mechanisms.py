import math
import sys

import numpy as np
import pytest

from cpl_kit import (
    InputError,
    MechanismSpec,
    PerturbedColumn,
    TransitionMatrix,
    decode_column,
    estimate_frequencies,
    perturb_column,
    transition_matrix,
)
from cpl_kit import mechanisms
from cpl_kit.mechanisms import (
    KINDS,
    _random_seeds,
    _support_rates,
    debias_counts,
    support_counts,
)
from cpl_kit.rng import derive_rng


def spec_for(kind, epsilon=1.0, k=4):
    return MechanismSpec(kind, epsilon, k)


class TestSpec:
    def test_grr_keep_probability_worked_value(self):
        s = MechanismSpec("grr", math.log(3), 2)
        assert s.keep_probability() == pytest.approx(0.75)

    def test_ss_subset_size_worked_value(self):
        s = MechanismSpec("ss", 1.0, 10)
        assert s.subset_size == 2  # floor(10 / (e + 1)) = floor(2.689)

    def test_olh_hash_range(self):
        assert MechanismSpec("olh", 1.0, 8).g == round(math.e) + 1
        assert MechanismSpec("blh", 1.0, 8).g == 2

    def test_validation(self):
        with pytest.raises(InputError):
            MechanismSpec("grr", -1.0, 4)
        with pytest.raises(InputError):
            MechanismSpec("grr", 1.0, 1)
        with pytest.raises(InputError):
            MechanismSpec("nope", 1.0, 4)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 709.8, 800.0])
    def test_epsilon_must_be_finite_and_exponentiable(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            MechanismSpec("grr", epsilon, 4)

    def test_largest_epsilon_accepted(self):
        eps = math.log(sys.float_info.max / 2)
        s = MechanismSpec("grr", eps, 4)
        assert s.keep_probability() == 1.0
        with pytest.raises(InputError, match="epsilon"):
            MechanismSpec("grr", math.nextafter(eps, math.inf), 4)

    @pytest.mark.parametrize("epsilon", [43.67, 50.0, 700.0])
    def test_olh_hash_range_must_fit_int64(self, epsilon):
        with pytest.raises(InputError, match="olh hash range"):
            MechanismSpec("olh", epsilon, 4)

    def test_largest_olh_budget_runs(self):
        s = MechanismSpec("olh", math.log(2 ** 63), 4)
        assert s.g <= 2 ** 63
        assert MechanismSpec("blh", 700.0, 4).g == 2
        col = perturb_column(s, np.arange(4).repeat(50), derive_rng(18, 0))
        decoded = decode_column(s, col, derive_rng(18, 1))
        assert ((decoded >= 0) & (decoded < 4)).all()
        assert estimate_frequencies(s, col).sum() == pytest.approx(1.0)


TYPED = {
    "k": lambda value: MechanismSpec("oue", 1.0, value),
    "epsilon": lambda value: MechanismSpec("grr", value, 3),
    "stream key": lambda value: derive_rng(1, value),
}


@pytest.mark.parametrize("where, value, accepted", [
    ("k", 3, True), ("k", np.int64(3), True), ("k", np.uint8(3), True),
    ("k", 2.5, False), ("k", 3.0, False), ("k", np.float64(3), False), ("k", True, False),
    ("k", "3", False),
    ("epsilon", 1.0, True), ("epsilon", 1, True), ("epsilon", np.float32(1), True),
    ("epsilon", np.int64(1), True), ("epsilon", True, False), ("epsilon", np.bool_(True), False),
    ("epsilon", "1", False), ("epsilon", None, False), ("epsilon", 1j, False),
    ("stream key", 1, True), ("stream key", np.int64(1), True), ("stream key", 1.5, False),
    ("stream key", 1.0, False), ("stream key", True, False), ("stream key", -1, False),
])
def test_integer_and_number_rule(where, value, accepted):
    """k and every stream key are Python or numpy integers, used as ints;
    a budget is a real number, numpy ones included, but not a bool. Any
    other value is an ``InputError``, never a bare ``TypeError`` or a
    silent coercion."""
    if not accepted:
        with pytest.raises(InputError, match=where):
            TYPED[where](value)
    elif where == "k":
        assert type(TYPED[where](value).k) is int
    elif where == "stream key":
        assert TYPED[where](value).random() == derive_rng(1, 1).random()
    else:
        want = MechanismSpec("grr", 1.0, 3).keep_probability()
        assert TYPED[where](value).keep_probability() == want


class TestTransitionMatrix:
    def test_grr_worked_matrix(self):
        t = transition_matrix(MechanismSpec("grr", math.log(3), 2))
        assert np.allclose(t.matrix, [[0.75, 0.25], [0.25, 0.75]])

    def test_exp_worked_matrix(self):
        t = transition_matrix(MechanismSpec("exp", 2.0, 3))
        diag = math.e / (math.e + 2)
        off = 1 / (math.e + 2)
        assert t.matrix[0, 0] == pytest.approx(diag)
        assert t.matrix[0, 1] == pytest.approx(off)

    @pytest.mark.parametrize("kind", ["grr", "exp"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0, 4.0])
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_ratio_check_passes_by_construction(self, kind, epsilon, k):
        t = transition_matrix(MechanismSpec(kind, epsilon, k))
        cmax = t.matrix.max(axis=0)
        cmin = t.matrix.min(axis=0)
        assert (cmax <= cmin * math.exp(epsilon) * (1 + 1e-9)).all()

    def test_budget_must_not_be_nan(self):
        labels = ("0", "1")
        with pytest.raises(InputError, match="budget"):
            TransitionMatrix(labels, labels, np.eye(2), math.nan)
        # an infinite budget stands for a channel with no pure-LDP bound
        assert TransitionMatrix(labels, labels, np.eye(2), math.inf).epsilon == math.inf

    @pytest.mark.parametrize("kind", ["rappor", "oue", "blh", "olh", "she"])
    def test_single_symbol_domain_keeps_it(self, kind):
        t = transition_matrix(MechanismSpec(kind, 1.0, 1))
        assert t.matrix.tolist() == [[1.0]]
        assert MechanismSpec(kind, 1.0, 1).keep_probability() == 1.0

    def test_she_needs_a_positive_budget(self):
        with pytest.raises(InputError, match="she requires epsilon > 0"):
            transition_matrix(MechanismSpec("she", 0.0, 4))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [2, 7])
    def test_largest_budget_passes_ratio_check(self, kind, k):
        # The largest accepted budget: e^eps is half the largest finite
        # double, and olh stops where its hash range reaches 2^63.
        epsilon = math.log(2 ** 63) if kind == "olh" else mechanisms._EPSILON_MAX
        t = transition_matrix(MechanismSpec(kind, epsilon, k))
        assert t.epsilon == epsilon  # the constructor's ratio check passed at it
        assert np.isfinite(t.matrix).all()
        assert (t.matrix.diagonal() >= t.matrix[0, -1]).all()


class TestChannelClosedForms:
    """The decoded channel's diagonal a against independent evaluations."""

    @pytest.mark.parametrize("kind", ["rappor", "oue", "blh", "olh"])
    @pytest.mark.parametrize("epsilon", [0.0, 1.5, 40.0])
    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_support_kinds_match_binomial_sum(self, kind, epsilon, k):
        spec = MechanismSpec(kind, epsilon, k)
        p, q = _support_rates(spec)
        mean = math.fsum(math.comb(k - 1, j) * q ** j * (1 - q) ** (k - 1 - j) / (1 + j)
                         for j in range(k))
        a = p * mean + (1 - p) * (1 - q) ** (k - 1) / k
        assert spec.keep_probability() == pytest.approx(a, rel=1e-12)

    def test_ss_is_inclusion_over_subset_size(self):
        spec = MechanismSpec("ss", 0.5, 10)
        assert spec.keep_probability() == pytest.approx(
            _support_rates(spec)[0] / spec.subset_size, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("k", [2, 7, 30])
    def test_she_matches_fine_trapezoid(self, epsilon, k):
        b = 2.0 / epsilon
        s = 0.5 * math.exp(-1.0 / b)
        ties = math.fsum(math.comb(k - 1, m) * s ** m * (1 - s) ** (k - 1 - m) / (1 + m)
                         for m in range(k)) / 2 + s * 0.5 ** (k - 1) / k
        z = np.linspace(0.0, 1.0, 200_001)
        inner = np.trapezoid(np.exp(-(1 - z) / b) / (2 * b) * (1 - 0.5 * np.exp(-z / b)) ** (k - 1), z)
        assert MechanismSpec("she", epsilon, k).keep_probability() == pytest.approx(
            ties + inner, rel=1e-7)

    @pytest.mark.parametrize("kind", ["rappor", "oue", "blh", "olh", "she", "ss"])
    def test_unclamped_channel_within_budget(self, kind):
        # Decoding is post-processing: a (k-1) / (1-a) <= e^eps before any clamp.
        for epsilon in (0.1, 0.5, 1.0, 3.0, 8.0):
            for k in (2, 3, 7, 20):
                a = mechanisms._decoded_keep(MechanismSpec(kind, epsilon, k))
                assert 1.0 / k - 1e-12 <= a < 1.0
                assert a * (k - 1) / (1 - a) <= math.exp(epsilon) * (1 + 1e-9)


class TestPerturbLaw:
    @pytest.mark.parametrize("kind", ["grr", "exp"])
    def test_empirical_transition_within_four_sigma(self, kind):
        n = 100_000
        spec = spec_for(kind, epsilon=1.0, k=4)
        t = transition_matrix(spec)
        for x in range(spec.k):
            rng = derive_rng(1000 + x, 0)
            col = perturb_column(spec, np.full(n, x), rng)
            freq = np.bincount(col.payload, minlength=spec.k) / n
            sigma = np.sqrt(t.matrix[x] * (1 - t.matrix[x]) / n)
            assert (np.abs(freq - t.matrix[x]) <= 4 * sigma).all()

    def test_grr_uniform_at_zero_budget(self):
        n = 100_000
        spec = spec_for("grr", epsilon=0.0, k=4)
        col = perturb_column(spec, derive_rng(5, 1).integers(0, 4, n), derive_rng(5, 2))
        freq = np.bincount(col.payload, minlength=4) / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert np.abs(freq - 0.25).max() <= 3 * sigma

    def test_ss_report_size_and_inclusion_rate(self):
        n = 50_000
        spec = spec_for("ss", epsilon=1.0, k=10)
        omega = spec.subset_size
        values = derive_rng(6, 1).integers(0, 10, n)
        col = perturb_column(spec, values, derive_rng(6, 2))
        members = col.payload
        assert (members.sum(axis=1) == omega).all()
        p_in = omega * math.e / (omega * math.e + 10 - omega)
        rate = members[np.arange(n), values].mean()
        assert rate == pytest.approx(p_in, abs=4 * math.sqrt(p_in * (1 - p_in) / n))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 1.0, 3.0, 5.0])
    def test_rappor_report_ratio_is_its_budget(self, epsilon):
        p, q = _support_rates(MechanismSpec("rappor", epsilon, 4))
        assert math.log(p * (1 - q) / (q * (1 - p))) == pytest.approx(epsilon, abs=1e-12)

    def test_rappor_payload_depends_on_budget(self):
        values = derive_rng(24, 0).integers(0, 4, 2000)
        low, high = (perturb_column(MechanismSpec("rappor", eps, 4), values,
                                    derive_rng(24, 1)).payload for eps in (0.1, 5.0))
        assert low.tobytes() != high.tobytes()

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 5.0])
    def test_she_noise_is_laplace(self, epsilon):
        # the payload less its one-hot against Laplace(0, b), b = 2/eps: the
        # mean (variance 2b^2), the second moment (variance 20b^4) and the
        # share of negative signs each within Z standard errors, and the
        # Kolmogorov-Smirnov distance within its 1e-6 critical value
        z, b = 5.0, 2.0 / epsilon
        n, k = 50_000, 4
        values = derive_rng(28, 0).integers(0, k, n)
        y = perturb_column(MechanismSpec("she", epsilon, k), values, derive_rng(28, 1)).payload
        noise = (y - np.eye(k)[values]).ravel()
        m = noise.size
        assert abs(noise.mean()) <= z * math.sqrt(2 * b * b / m)
        assert abs((noise ** 2).mean() - 2 * b * b) <= z * math.sqrt(20 * b ** 4 / m)
        assert abs(np.signbit(noise).mean() - 0.5) <= z * math.sqrt(0.25 / m)
        x = np.sort(noise)
        cdf = np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0) / b),
                       1 - 0.5 * np.exp(-np.maximum(x, 0) / b))
        ranks = np.arange(1, m + 1) / m
        distance = max((ranks - cdf).max(), (cdf - ranks + 1 / m).max())
        assert distance <= math.sqrt(math.log(2 / 1e-6) / 2) / math.sqrt(m)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(InputError, match="must lie in"):
            perturb_column(spec_for("grr"), np.array([4]), derive_rng(0, 0))

    # fractions were truncated, a 2-d column perturbed, and NaN a ValueError
    @pytest.mark.parametrize("kind, values", [
        ("grr", [0.7, 3.9, 2.2]), ("oue", [[0, 1], [2, 3]]), ("she", [0.0, math.nan, 1.0]),
    ], ids=["fractions", "2-d", "nan"])
    def test_values_that_are_not_symbols_rejected(self, kind, values):
        with pytest.raises(InputError, match="1-d array of integer symbols"):
            perturb_column(spec_for(kind), values, derive_rng(0, 0))


class TestDecode:
    def test_grr_decode_is_identity_on_payload(self):
        spec = spec_for("grr")
        col = perturb_column(spec, np.arange(4), derive_rng(7, 0))
        assert (decode_column(spec, col, derive_rng(7, 1)) == col.payload).all()

    def test_oue_single_set_bit(self):
        spec = spec_for("oue", k=5)
        bits = np.zeros((1, 5), dtype=np.uint8)
        bits[0, 3] = 1
        assert decode_column(spec, PerturbedColumn(spec, bits), derive_rng(8, 0))[0] == 3

    def test_oue_all_zero_uniform(self):
        spec = spec_for("oue", k=5)
        zeros = np.zeros((20_000, 5), dtype=np.uint8)
        decoded = decode_column(spec, PerturbedColumn(spec, zeros), derive_rng(8, 1))
        freq = np.bincount(decoded, minlength=5) / len(decoded)
        assert np.abs(freq - 0.2).max() < 0.02

    def test_she_near_onehot_decodes_argmax(self):
        spec = spec_for("she", epsilon=1.0, k=4)
        y = np.array([[0.01, -0.02, 0.97, 0.03]])
        assert decode_column(spec, PerturbedColumn(spec, y), derive_rng(9, 0))[0] == 2

    def test_she_ties_broken_uniformly(self):
        spec = spec_for("she", epsilon=1.0, k=4)
        saturated = np.full((20_000, 4), 2.0)  # every symbol scores the clip ceiling
        decoded = decode_column(spec, PerturbedColumn(spec, saturated), derive_rng(9, 5))
        freq = np.bincount(decoded, minlength=4) / len(decoded)
        assert np.abs(freq - 0.25).max() < 0.02

    def test_she_tiny_score_gap_is_not_a_tie(self):
        spec = spec_for("she", epsilon=1.0, k=4)
        y = np.tile([0.0, 0.0, 0.0, 1e-17], (1000, 1))  # 1e-17 - 1 rounds to -1
        assert (decode_column(spec, PerturbedColumn(spec, y), derive_rng(9, 6)) == 3).all()

    @pytest.mark.parametrize("payload", [[[math.nan, 0, 0, 5], [0, math.inf, 0, 5]],
                                         [[0, 0, 0, 5], [0, 0, -math.inf, 5]],
                                         [[0, 0, math.nan, 5]]])
    def test_she_non_finite_payload_rejected(self, payload):
        spec = spec_for("she", epsilon=1.0, k=4)
        col = PerturbedColumn(spec, np.array(payload))
        with pytest.raises(InputError, match="finite"):
            decode_column(spec, col, derive_rng(9, 4))
        with pytest.raises(InputError, match="finite"):
            estimate_frequencies(spec, col)

    def test_she_zero_budget_rejected(self):
        with pytest.raises(InputError, match=r"^she requires epsilon > 0$"):
            MechanismSpec("she", 0.0, 4)

    # upper 1e-6 quantiles of chi-square with 1 and 5 degrees of freedom
    CHI2_CRITICAL = {1: 23.93, 5: 35.89}

    def test_pick_is_uniform_over_members_or_all_symbols(self):
        # reports with one member, two members, all k and none, each group
        # decoded by one uniform per report
        k, n = 6, 60_000
        groups = [[2], [1, 4], list(range(k)), []]
        bits = np.zeros((len(groups) * n, k), dtype=np.uint8)
        for g, members in enumerate(groups):
            bits[g * n:(g + 1) * n, members] = 1
        spec = spec_for("oue", k=k)
        decoded = decode_column(spec, PerturbedColumn(spec, bits), derive_rng(29, 0))
        for g, members in enumerate(groups):
            symbols = members or list(range(k))
            counts = np.bincount(decoded[g * n:(g + 1) * n], minlength=k)
            assert counts.sum() == counts[symbols].sum() == n
            if len(symbols) > 1:
                expected = n / len(symbols)
                chi2 = float(((counts[symbols] - expected) ** 2 / expected).sum())
                assert chi2 <= self.CHI2_CRITICAL[len(symbols) - 1]

    def test_ss_with_one_member_decodes_without_a_draw(self):
        values = derive_rng(30, 0).integers(0, 5, 3000)
        for epsilon, draws in ((1.0, False), (0.1, True)):  # omega 1 and 2
            spec = spec_for("ss", epsilon=epsilon, k=5)
            assert spec.subset_size == 1 + draws
            col = perturb_column(spec, values, derive_rng(30, 1))
            rng = derive_rng(30, 2)
            state = rng.bit_generator.state
            decoded = decode_column(spec, col, rng)
            assert (rng.bit_generator.state != state) == draws
            assert col.payload[np.arange(3000), decoded].all()

    def test_blh_decode_lands_in_preimage(self):
        spec = spec_for("blh", epsilon=2.0, k=6)
        from cpl_kit.mechanisms import _hash_bucket
        values = derive_rng(10, 0).integers(0, 6, 2000)
        col = perturb_column(spec, values, derive_rng(10, 1))
        decoded = decode_column(spec, col, derive_rng(10, 2))
        seeds, reports = col.payload
        hashed = _hash_bucket(decoded, seeds, spec.g)
        preimage_sizes = (_hash_bucket(np.arange(6)[None, :], seeds[:, None], spec.g)
                          == reports[:, None]).sum(axis=1)
        # decoded value hashes to the report whenever the preimage is nonempty
        assert ((hashed == reports) | (preimage_sizes == 0)).all()

    def test_ss_decode_member_of_subset(self):
        spec = spec_for("ss", epsilon=1.0, k=10)
        values = derive_rng(11, 0).integers(0, 10, 2000)
        col = perturb_column(spec, values, derive_rng(11, 1))
        decoded = decode_column(spec, col, derive_rng(11, 2))
        assert col.payload[np.arange(2000), decoded].all()


class TestFrequencyEstimation:
    def test_grr_high_budget_recovers_frequencies(self):
        spec = spec_for("grr", epsilon=10.0, k=3)
        true = np.array([0.5, 0.3, 0.2])
        values = derive_rng(12, 0).choice(3, size=100_000, p=true)
        est = estimate_frequencies(spec, perturb_column(spec, values, derive_rng(12, 1)))
        assert np.abs(est - true).max() < 0.02

    def test_single_output_normalized(self):
        spec = spec_for("grr", epsilon=1.0, k=3)
        col = perturb_column(spec, np.array([1]), derive_rng(13, 0))
        est = estimate_frequencies(spec, col)
        assert est.sum() == pytest.approx(1.0)
        assert (est >= 0).all()

    def test_she_concentrates(self):
        spec = spec_for("she", epsilon=4.0, k=4)
        true = np.array([0.4, 0.3, 0.2, 0.1])
        values = derive_rng(14, 0).choice(4, size=100_000, p=true)
        est = estimate_frequencies(spec, perturb_column(spec, values, derive_rng(14, 1)))
        assert np.abs(est - true).max() <= 0.02

    @pytest.mark.parametrize("kind", KINDS)
    def test_estimates_are_distributions(self, kind):
        spec = spec_for(kind, epsilon=1.0, k=6)
        values = derive_rng(15, 0).integers(0, 6, 5000)
        est = estimate_frequencies(spec, perturb_column(spec, values, derive_rng(15, 1)))
        assert est.shape == (6,)
        assert est.sum() == pytest.approx(1.0)
        assert (est >= 0).all()

    @pytest.mark.parametrize("kind", ["grr", "oue", "ss"])
    def test_error_halves_when_samples_quadruple(self, kind):
        spec = spec_for(kind, epsilon=1.0, k=4)
        true = np.array([0.4, 0.3, 0.2, 0.1])

        def mean_linf(n, offset):
            errs = []
            for s in range(20):
                values = derive_rng(16 + s, offset).choice(4, size=n, p=true)
                est = estimate_frequencies(
                    spec, perturb_column(spec, values, derive_rng(16 + s, offset + 1)))
                errs.append(np.abs(est - true).max())
            return np.mean(errs)

        ratio = mean_linf(80_000, 2) / mean_linf(20_000, 0)
        assert 0.35 <= ratio <= 0.65



class TestDecodedChannel:
    """Monte-Carlo check of the decoded channel P(decoded | true). Decoding
    post-processes an eps-LDP report, so the channel obeys e^eps; every
    mechanism treats the symbols alike, so the channel is symmetric: one
    value on the diagonal and one off it; and every cell lies within Z
    standard errors of ``transition_matrix``."""

    Z = 5.0  # standard errors allowed; each channel makes about 50 comparisons

    @pytest.mark.parametrize("kind, epsilon, k, n", [
        # n reports per true symbol
        *(pytest.param(kind, 0.5, 4, 400_000, id=f"{kind}-0.5") for kind in KINDS),
        pytest.param("rappor", 0.1, 4, 400_000, id="rappor-0.1"),
        *(pytest.param(kind, 3.0, 7, 100_000, id=f"{kind}-3.0-k7") for kind in KINDS),
    ])
    def test_channel_obeys_budget_and_is_symmetric(self, kind, epsilon, k, n):
        spec = MechanismSpec(kind, epsilon, k)
        values = np.repeat(np.arange(k), n)
        seed = (25, KINDS.index(kind), int(epsilon * 10))
        col = perturb_column(spec, values, derive_rng(*seed, 1))
        decoded = decode_column(spec, col, derive_rng(*seed, 2))
        channel = np.bincount(values * k + decoded, minlength=k * k).reshape(k, k) / n
        for column in channel.T:
            hi, lo = column.max(), column.min()
            se = math.sqrt((1 - hi) / (n * hi) + (1 - lo) / (n * lo))  # delta method
            assert math.log(hi / lo) <= epsilon + self.Z * se
        for cells in (np.diag(channel), channel[~np.eye(k, dtype=bool)]):
            # Var(a - b) <= (a + b) / n for two cells, in one row or in two
            hi, lo = cells.max(), cells.min()
            assert hi - lo <= self.Z * math.sqrt((hi + lo) / n)
        exact = transition_matrix(spec).matrix
        assert (np.abs(channel - exact) <= self.Z * np.sqrt(exact * (1 - exact) / n)).all()


class TestColumnSpecCheck:
    @pytest.mark.parametrize("kind", KINDS)
    def test_mismatched_spec_rejected(self, kind):
        spec = spec_for(kind, epsilon=1.0, k=4)
        col = perturb_column(spec, np.arange(4), derive_rng(17, 0))
        other_kind = spec_for("oue" if kind == "grr" else "grr", epsilon=1.0, k=4)
        other_k = spec_for(kind, epsilon=1.0, k=5)
        for wrong in (other_kind, other_k):
            with pytest.raises(InputError, match="different mechanism spec"):
                decode_column(wrong, col, derive_rng(17, 1))
            with pytest.raises(InputError, match="different mechanism spec"):
                estimate_frequencies(wrong, col)

    @pytest.mark.parametrize("kind", ["rappor", "oue", "she", "ss"])
    @pytest.mark.parametrize("width", [3, 6])
    def test_payload_width_must_match_k(self, kind, width):
        spec = spec_for(kind, epsilon=1.0, k=4)
        col = PerturbedColumn(spec, np.ones((5, width), dtype=bool if kind == "ss" else np.uint8))
        with pytest.raises(InputError, match="one column per symbol"):
            decode_column(spec, col, derive_rng(17, 2))
        with pytest.raises(InputError, match="one column per symbol"):
            estimate_frequencies(spec, col)

    @pytest.mark.parametrize("epsilon", [1.0, 0.1])  # omega 1 and 2
    def test_ss_reports_hold_omega_members(self, epsilon):
        spec = spec_for("ss", epsilon=epsilon, k=5)
        members = np.zeros((3, 5), dtype=bool)
        members[:, :spec.subset_size] = True
        for row, width in ((1, 0), (2, spec.subset_size + 1)):
            wrong = members.copy()
            wrong[row] = False
            wrong[row, :width] = True
            col = PerturbedColumn(spec, wrong)
            with pytest.raises(InputError, match="members"):
                decode_column(spec, col, derive_rng(17, 6))
            with pytest.raises(InputError, match="members"):
                estimate_frequencies(spec, col)

    def test_non_column_rejected(self):
        with pytest.raises(InputError, match="PerturbedColumn"):
            estimate_frequencies(spec_for("grr"), [0, 1, 2])

    @pytest.mark.parametrize("kind", ["grr", "exp"])
    @pytest.mark.parametrize("payload, match", [
        ([0, 7, -1], "must lie in"), ([0, 7, 2], "must lie in"), ([0, -1, 2], "must lie in"),
        ([0.0, 1.0, 2.0], "integer symbols"), ([[0, 1], [2, 3]], "integer symbols"),
    ])
    def test_symbol_payload_checked(self, kind, payload, match):
        spec = spec_for(kind, epsilon=1.0, k=4)
        col = PerturbedColumn(spec, np.asarray(payload))
        with pytest.raises(InputError, match=match):
            decode_column(spec, col, derive_rng(17, 3))
        with pytest.raises(InputError, match=match):
            estimate_frequencies(spec, col)

    @pytest.mark.parametrize("kind", ["blh", "olh"])
    def test_hash_reports_checked(self, kind):
        spec = spec_for(kind, epsilon=1.0, k=4)
        seeds = _random_seeds(derive_rng(17, 4), 3)
        for reports, match in (([5, 9, -3], "must lie in"), ([0, spec.g, 1], "must lie in"),
                               ([-1, 0, 1], "must lie in"), ([0, 1], "equal length")):
            col = PerturbedColumn(spec, (seeds, np.asarray(reports)))
            with pytest.raises(InputError, match=match):
                decode_column(spec, col, derive_rng(17, 5))
            with pytest.raises(InputError, match=match):
                estimate_frequencies(spec, col)


def row_slice(column, lo, hi):
    """Rows lo:hi of a perturbed column, as a column of its own."""
    if column.spec.kind in ("blh", "olh"):
        return PerturbedColumn(column.spec, tuple(part[lo:hi] for part in column.payload))
    return PerturbedColumn(column.spec, column.payload[lo:hi])


class TestCountsAddAcrossSlices:
    @pytest.mark.parametrize("kind", KINDS)
    def test_slice_counts_sum_to_column_counts(self, kind):
        spec = spec_for(kind, epsilon=1.0, k=5)
        values = derive_rng(24, 0).integers(0, 5, 3001)
        col = perturb_column(spec, values, derive_rng(24, 1))
        whole = support_counts(spec, col)
        parts = sum(support_counts(spec, row_slice(col, lo, lo + 1000))
                    for lo in range(0, len(col), 1000))
        if kind == "she":  # float sums, associated differently
            np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=1e-9)
        else:
            assert_bitwise(parts, whole)
        assert_bitwise(estimate_frequencies(spec, col), debias_counts(spec, whole, len(col)))

    def test_debias_checks_its_counts(self):
        spec = spec_for("oue", epsilon=1.0, k=4)
        with pytest.raises(InputError, match="one count per symbol"):
            debias_counts(spec, np.ones(5), 10)
        with pytest.raises(InputError, match="no outputs"):
            debias_counts(spec, np.zeros(4), 0)


# --------------------------------------------------------------------------
# Row-major reference kernels: the (N, k) implementation that the symbol-major
# kernels replaced, kept as the oracle they must match bit for bit. rappor is
# the oue reference at its own rates, she breaks its ties through
# ref_uniform_over_mask, and ss with omega = 1 draws grr's report, one-hot.
# --------------------------------------------------------------------------

def ref_mix64(x):
    x = (x + mechanisms._GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= mechanisms._M1
    x ^= x >> np.uint64(27)
    x *= mechanisms._M2
    x ^= x >> np.uint64(31)
    return x


def ref_hash_bucket(values, seeds, g):
    v = np.asarray(values, dtype=np.uint64)
    s = np.asarray(seeds, dtype=np.uint64)
    return (ref_mix64(ref_mix64(v + np.uint64(1)) ^ s) % np.uint64(g)).astype(np.int64)


def ref_grr_sample(values, keep_p, k, rng):
    keep = rng.random(values.shape) < keep_p
    alt = rng.integers(0, k - 1, size=values.shape)
    alt = alt + (alt >= values)
    return np.where(keep, values, alt).astype(np.int64)


def ref_perturb(spec, values, rng):
    values = np.asarray(values, dtype=np.int64)
    n, k, kind = values.shape[0], spec.k, spec.kind
    if kind == "she":
        # Laplace(0, 2/eps) as a scaled exponential, negated where the bit
        # of its row-major place is set in the bytes drawn after it
        size = 2.0 / spec.epsilon * rng.standard_exponential((n, k))
        signs = rng.integers(0, 256, size=-(-n * k // 8), dtype=np.uint8)
        negative = np.unpackbits(signs, count=n * k).reshape(n, k) == 1
        y = np.where(negative, -size, size)
        y[np.arange(n), values] += 1.0
        return y
    p, q = _support_rates(spec)
    if kind in ("grr", "exp"):
        return ref_grr_sample(values, p, k, rng)
    if kind in ("rappor", "oue"):
        bits = np.zeros((n, k), dtype=np.uint8)
        bits[np.arange(n), values] = 1
        return (rng.random((n, k)) < np.where(bits == 1, p, q)).astype(np.uint8)
    if kind in ("blh", "olh"):
        seeds = _random_seeds(rng, n)
        return seeds, ref_grr_sample(ref_hash_bucket(values, seeds, spec.g), p, spec.g, rng)
    omega = spec.subset_size
    if omega == 1:
        members = np.zeros((n, k), dtype=bool)
        members[np.arange(n), ref_grr_sample(values, p, k, rng)] = True
        return members
    include = rng.random(n) < p
    keys = rng.random((n, k))
    keys[np.arange(n), values] = np.inf
    order = np.argsort(keys, axis=1)
    ranks = np.empty_like(order)
    ranks[np.arange(n)[:, None], order] = np.arange(k)[None, :]
    members = ranks < np.where(include, omega - 1, omega)[:, None]
    members[np.arange(n), values] = include
    return members


def ref_support_set(spec, payload):
    if spec.kind in ("blh", "olh"):
        seeds, reports = payload
        return ref_hash_bucket(np.arange(spec.k)[None, :], seeds[:, None], spec.g) == reports[:, None]
    return np.asarray(payload, dtype=bool)


def ref_uniform_over_mask(mask, rng):
    n, k = mask.shape
    counts = mask.sum(axis=1)
    # one uniform per report: over its members, or over all k symbols
    pick = np.floor(rng.random(n) * np.where(counts > 0, counts, k)).astype(np.int64)
    from_mask = np.argmax(np.cumsum(mask, axis=1) > pick[:, None], axis=1)
    return np.where(counts > 0, from_mask, pick).astype(np.int64)


def ref_decode(spec, payload, rng):
    if spec.kind in ("grr", "exp"):
        return np.asarray(payload, dtype=np.int64)
    if spec.kind != "she":
        return ref_uniform_over_mask(ref_support_set(spec, payload), rng)
    scores = np.clip(np.asarray(payload, dtype=np.float64), 0.0, 1.0)
    return ref_uniform_over_mask(scores == scores.max(axis=1, keepdims=True), rng)


def ref_estimate(spec, payload):
    k = spec.k
    if spec.kind == "she":
        est = np.asarray(payload, dtype=np.float64).mean(axis=0)
    else:
        if spec.kind in ("grr", "exp"):
            support = np.bincount(np.asarray(payload), minlength=k)
        else:
            support = ref_support_set(spec, payload).sum(axis=0)
        n = len(payload[0]) if spec.kind in ("blh", "olh") else len(payload)
        p, q = _support_rates(spec)
        est = np.full(k, 1.0 / k) if p == q else (support / n - q) / (p - q)
    est = np.clip(est, 0.0, 1.0)
    total = est.sum()
    return np.full(k, 1.0 / k) if total <= 0 else est / total


def assert_bitwise(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def grid_specs(kind):
    for epsilon in (0.0, 0.5, 1.0, 3.0, 5.0):
        for k in (1, 2, 4, 7, 33):
            if (kind == "she" and epsilon == 0) or (kind in ("grr", "exp", "ss") and k < 2):
                continue
            yield MechanismSpec(kind, epsilon, k)


SUPPORT_KINDS = ("rappor", "oue", "blh", "olh", "ss")


class TestBitIdenticalToRowMajorKernels:
    @pytest.mark.parametrize("kind", KINDS)
    def test_grid(self, kind):
        for spec in grid_specs(kind):
            seed = (KINDS.index(kind), spec.k, int(spec.epsilon * 10))
            values = derive_rng(*seed, 0).integers(0, spec.k, 3000)
            col = perturb_column(spec, values, derive_rng(*seed, 1))
            want = ref_perturb(spec, values, derive_rng(*seed, 1))
            assert_bitwise(col.payload, want)
            assert_bitwise(decode_column(spec, col, derive_rng(*seed, 2)),
                           ref_decode(spec, want, derive_rng(*seed, 2)))
            assert_bitwise(estimate_frequencies(spec, col), ref_estimate(spec, want))

    @pytest.mark.parametrize("kind", SUPPORT_KINDS)
    def test_decode_and_estimate_in_either_order(self, kind):
        spec = spec_for(kind, epsilon=1.0, k=5)
        values = derive_rng(19, 0).integers(0, 5, 4000)
        payload = perturb_column(spec, values, derive_rng(19, 1)).payload
        want_decoded = ref_decode(spec, payload, derive_rng(19, 2))
        want_est = ref_estimate(spec, payload)
        first = PerturbedColumn(spec, payload)
        assert_bitwise(decode_column(spec, first, derive_rng(19, 2)), want_decoded)
        assert_bitwise(estimate_frequencies(spec, first), want_est)
        second = PerturbedColumn(spec, payload)
        assert_bitwise(estimate_frequencies(spec, second), want_est)
        assert_bitwise(decode_column(spec, second, derive_rng(19, 2)), want_decoded)

    @pytest.mark.parametrize("kind", SUPPORT_KINDS)
    def test_support_set_built_once_per_column(self, kind, monkeypatch):
        # blh/olh build it in perturbation, from the hash table they share
        built = []
        real = mechanisms._support_set
        monkeypatch.setattr(mechanisms, "_support_set",
                            lambda column, *args: built.append(column) or real(column, *args))
        spec = spec_for(kind, epsilon=1.0, k=4)
        col = perturb_column(spec, np.arange(4).repeat(10), derive_rng(20, 0))
        decode_column(spec, col, derive_rng(20, 1))
        estimate_frequencies(spec, col)
        decode_column(spec, col, derive_rng(20, 2))
        assert built == [col]
        assert col._support.shape == (4, 40)

    @pytest.mark.parametrize("k", [1, 2, 7, 33])
    def test_all_zero_rows_take_the_fallback(self, k):
        spec = spec_for("oue", epsilon=1.0, k=k)
        bits = (derive_rng(21, k).random((3000, k)) < 0.3).astype(np.uint8)
        bits[::3] = 0
        for payload in (bits, np.zeros_like(bits)):
            assert_bitwise(decode_column(spec, PerturbedColumn(spec, payload), derive_rng(21, 1)),
                           ref_decode(spec, payload, derive_rng(21, 1)))

    def test_hash_bucket_matches_on_every_block_layout(self):
        seeds = _random_seeds(derive_rng(23, 0), 40_000)  # 2 to 49 blocks
        values = derive_rng(23, 1).integers(0, 9, 40_000)
        # blh; olh at eps 1, 3, 5 and its limit; powers of two take their
        # remainder through a mask, the others by division
        for g in (2, 4, 7, 8, 21, 149, 2 ** 62, 2 ** 63):
            for k in (1, 3, 40):
                symbols = np.arange(k)[:, None]
                assert_bitwise(mechanisms._hash_bucket(symbols, seeds[None, :], g),
                               ref_hash_bucket(symbols, seeds[None, :], g))
            assert_bitwise(mechanisms._hash_bucket(values, seeds, g),
                           ref_hash_bucket(values, seeds, g))

    def test_she_counts_add_rows_in_order(self):
        # the estimate clips a one-symbol column to [1.0], so only the counts
        # show how its rows were added
        for spec in grid_specs("she"):
            seed = (27, spec.k, int(spec.epsilon * 10))
            values = derive_rng(*seed, 0).integers(0, spec.k, 3000)
            col = perturb_column(spec, values, derive_rng(*seed, 1))
            assert_bitwise(support_counts(spec, col), col.payload.sum(axis=0))

    def test_ss_with_one_member_is_one_hot_grr(self):
        for spec in grid_specs("ss"):
            if spec.subset_size != 1:
                continue
            grr = MechanismSpec("grr", spec.epsilon, spec.k)
            seed = (26, spec.k, int(spec.epsilon * 10))
            values = derive_rng(*seed, 0).integers(0, spec.k, 3000)
            col = perturb_column(spec, values, derive_rng(*seed, 1))
            report = perturb_column(grr, values, derive_rng(*seed, 1)).payload
            assert_bitwise(col.payload, np.eye(spec.k, dtype=bool)[report])
            assert_bitwise(decode_column(spec, col, derive_rng(*seed, 2)), report)

