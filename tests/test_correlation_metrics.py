import math

import numpy as np
import pytest

from cpl_kit import JointDistribution, metrics


class TestWorkedJoint:
    def test_reference_nmi_and_pcc(self, maxleak_joint):
        rep = metrics(maxleak_joint)
        assert rep.nmi == pytest.approx(0.164, abs=1e-3)
        assert rep.pcc == pytest.approx(0.357, abs=1e-3)

    def test_joint_entropy_normalization_selected(self, maxleak_joint):
        """The chosen normalization (joint entropy) is pinned by the reference
        value 0.164; the sqrt/min/max/mean-entropy variants all land far away."""
        rep = metrics(maxleak_joint)
        variants = {
            "sqrt": rep.mi / math.sqrt(rep.h_a * rep.h_b),
            "min": rep.mi / min(rep.h_a, rep.h_b),
            "max": rep.mi / max(rep.h_a, rep.h_b),
            "mean": rep.mi / ((rep.h_a + rep.h_b) / 2),
        }
        assert variants["sqrt"] == pytest.approx(0.286, abs=1e-3)
        assert variants["min"] == pytest.approx(0.333, abs=1e-3)
        assert variants["max"] == pytest.approx(0.246, abs=1e-3)
        assert variants["mean"] == pytest.approx(0.283, abs=1e-3)
        for value in variants.values():
            assert abs(value - rep.nmi) > 0.05


class TestClosedForms:
    def test_independent_product_joint(self):
        pa = np.array([0.3, 0.7])
        pb = np.array([0.25, 0.25, 0.5])
        j = JointDistribution(("a", "b"), ("x", "y", "z"), np.outer(pa, pb))
        rep = metrics(j)
        assert rep.mi == pytest.approx(0.0, abs=1e-12)
        assert rep.nmi == pytest.approx(0.0, abs=1e-12)
        assert rep.pcc == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_uniform_two_by_two(self):
        # Perfect copy: the joint has two cells of mass 0.5, so
        # H(A,B) = ln 2 = MI and the normalized value is 1.
        j = JointDistribution(("a", "b"), ("x", "y"), np.diag([0.5, 0.5]))
        rep = metrics(j)
        assert rep.mi == pytest.approx(math.log(2))
        assert rep.h_joint == pytest.approx(math.log(2))
        assert rep.nmi == pytest.approx(1.0)
        assert rep.pcc == pytest.approx(1.0)

    def test_degenerate_marginal_flags_pcc(self):
        j = JointDistribution(("a",), ("x", "y"), np.array([[0.4, 0.6]]))
        rep = metrics(j)
        assert not rep.pcc_defined
        assert rep.nmi == pytest.approx(0.0)

    def test_mi_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            mat = rng.random((3, 4))
            mat /= mat.sum()
            rep = metrics(JointDistribution(("a", "b", "c"), ("w", "x", "y", "z"), mat))
            assert rep.mi <= min(rep.h_a, rep.h_b) + 1e-9
            assert 0.0 <= rep.nmi <= 1.0


class TestSymmetryAndCoding:
    def test_symmetric_under_transpose(self, maxleak_joint):
        rep = metrics(maxleak_joint)
        rep_t = metrics(maxleak_joint.transpose())
        assert rep_t.mi == pytest.approx(rep.mi, abs=1e-12)
        assert rep_t.nmi == pytest.approx(rep.nmi, abs=1e-12)
        assert abs(rep_t.pcc) == pytest.approx(abs(rep.pcc), abs=1e-12)
