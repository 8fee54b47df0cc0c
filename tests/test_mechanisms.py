import math
import sys

import numpy as np
import pytest

from cpl_kit import (
    InputError,
    MechanismSpec,
    PerturbedColumn,
    UnsupportedMechanismError,
    decode_column,
    estimate_frequencies,
    perturb_column,
    transition_matrix,
)
from cpl_kit.mechanisms import KINDS
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
        s = MechanismSpec("grr", math.log(sys.float_info.max), 4)
        assert s.keep_probability() == 1.0

    def test_json_round_trip(self):
        s = MechanismSpec("olh", 2.0, 8)
        assert MechanismSpec.from_json(s.to_json()) == s


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

    @pytest.mark.parametrize("kind", ["rappor", "oue", "blh", "olh", "she", "ss"])
    def test_intractable_kinds_refused(self, kind):
        with pytest.raises(UnsupportedMechanismError, match="no tractable"):
            transition_matrix(spec_for(kind))


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

    def test_out_of_range_value_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            perturb_column(spec_for("grr"), np.array([4]), derive_rng(0, 0))

    def test_nonzero_delta_rejected(self):
        spec = MechanismSpec("grr", 1.0, 4, delta=0.3)
        with pytest.raises(InputError, match="delta"):
            perturb_column(spec, np.array([0, 1]), derive_rng(0, 1))


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

    def test_she_zero_budget_rejected(self):
        spec = MechanismSpec("she", 0.0, 4)
        col = PerturbedColumn(spec, np.zeros((1, 4)))
        with pytest.raises(InputError, match="epsilon"):
            decode_column(spec, col, derive_rng(9, 1))

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

    def test_non_column_rejected(self):
        with pytest.raises(InputError, match="PerturbedColumn"):
            estimate_frequencies(spec_for("grr"), [0, 1, 2])
