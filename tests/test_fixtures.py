import json

import numpy as np
import pytest

from cpl_kit import empirical_joint, load_csv, metrics
from cpl_kit.benchmarks import pairwise_abs_pcc, pairwise_conditionals
from cpl_kit.fixtures import (
    FIXTURES,
    MAXLEAK_JOINT,
    generate_fixtures,
    independent_pair,
    maxleak_pair,
    mixed_five,
    perfect_copy,
    weak_ten,
)
from conftest import cpl_limit


class TestFixtureContracts:
    def test_maxleak_pair_concentrates_on_source_joint(self):
        d = maxleak_pair(n=100_000, seed=0)
        j = empirical_joint(d, 0, 1)
        assert np.abs(j.matrix - MAXLEAK_JOINT).max() < 0.01
        # zero cells of the source stay exactly zero in the sample
        assert (j.matrix[MAXLEAK_JOINT == 0] == 0).all()

    def test_perfect_copy_has_unit_nmi(self):
        d = perfect_copy(n=20_000, seed=1)
        rep = metrics(empirical_joint(d, 0, 1))
        assert rep.nmi == pytest.approx(1.0)
        assert rep.pcc == pytest.approx(1.0)

    def test_independent_pair_near_zero_pcc(self):
        d = independent_pair(n=100_000, seed=2)
        rep = metrics(empirical_joint(d, 0, 1))
        assert abs(rep.pcc) < 0.02

    def test_weak_ten_all_saturation_limits_small(self):
        d = weak_ten(n=30_000, seed=0)
        conds = pairwise_conditionals(d)
        assert max(cpl_limit(c) for c in conds.values()) < 0.1

    def test_mixed_five_pcc_structure(self):
        d = mixed_five(n=40_000, seed=0)
        pcc = pairwise_abs_pcc(d)
        assert pcc[0, 1] > 0.4          # strong binary pair
        assert 0.2 <= pcc[0, 2] < 0.4   # moderate pair, split by the thresholds
        assert pcc[3, 4] < 0.05         # dependent pair invisible to PCC

    def test_deterministic_given_seed(self):
        a = maxleak_pair(n=5_000, seed=9)
        b = maxleak_pair(n=5_000, seed=9)
        c = maxleak_pair(n=5_000, seed=10)
        assert (a.records == b.records).all()
        assert (a.records != c.records).any()


class TestGenerateFixtures:
    def test_writes_all_files_with_manifest(self, tmp_path):
        overrides = {name: 500 for name in FIXTURES}
        manifest = generate_fixtures(tmp_path, seed=4, samples=overrides)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        for name in FIXTURES:
            d = load_csv(tmp_path / f"{name}.csv")
            assert d.n_records == 500
            assert manifest["files"][name]["attributes"] == list(d.attribute_names)
