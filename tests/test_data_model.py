import numpy as np
import pytest

from cpl_kit import (
    Alphabet,
    Dataset,
    InputError,
    bin_numeric,
    conditional_from_joint,
    empirical_joint,
    expand_dataset,
    load_csv,
    write_csv,
)
from cpl_kit.fixtures import MAXLEAK_JOINT, independent_pair, sample_pair_from_joint
from cpl_kit.rng import derive_rng


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_small_file_read_back(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["u,v", "a,x", "b,y", "a,x"])
        d = load_csv(p)
        assert d.n_records == 3
        assert d.attribute_names == ("u", "v")
        assert d.alphabet(0).symbols == ("a", "b")
        assert d.alphabet(1).symbols == ("x", "y")
        assert d.records.tolist() == [[0, 0], [1, 1], [0, 0]]

    def test_numeric_hint_routes_through_binning(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["age,city", "0,a", "1,b", "2,a", "3,b"])
        d = load_csv(p, schema_hints={"age": 2})
        assert d.column(0).tolist() == [0, 0, 1, 1]
        assert d.alphabet(0).size == 2

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["u,v", "a,x", "b"])
        with pytest.raises(InputError, match="expected 2 fields"):
            load_csv(p)

    def test_unknown_declared_symbol_named(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["u", "b", "zz", "a", "qq"])
        with pytest.raises(InputError, match="^symbol 'zz' not in alphabet$"):
            load_csv(p, schema_hints={"u": ["a", "b"]})

    def test_bad_numeric_cell_named(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["u,v", "1,a", "x,b"])
        with pytest.raises(InputError, match="^column 'u' declared numeric: .*'x'$"):
            load_csv(p, schema_hints={"u": 2})

    def test_codes_match_row_by_row_coding(self, tmp_path):
        from cpl_kit.fixtures import latent_five
        p = tmp_path / "d.csv"
        write_csv(latent_five(n=3000, seed=4), p)
        d = load_csv(p)
        lines = p.read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        for j, name in enumerate(header):
            alphabet: dict[str, int] = {}
            codes = [alphabet.setdefault(row[j], len(alphabet)) for row in rows]
            assert d.schema[j] == (name, Alphabet(tuple(alphabet)))
            assert d.column(j).tolist() == codes

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_declared_alphabet_order(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["u", "b", "a"])
        d = load_csv(p, schema_hints={"u": ["a", "b"]})
        assert d.alphabet(0).symbols == ("a", "b")
        assert d.column(0).tolist() == [1, 0]

    def test_round_trip_identity(self, tmp_path):
        src = tmp_path / "src.csv"
        write_lines(src, ["u,v", "a,x", "b,y", "a,z", "b,x"])
        d = load_csv(src)
        back = tmp_path / "back.csv"
        write_csv(d, back)
        d2 = load_csv(back)
        assert d2.schema == d.schema
        assert (d2.records == d.records).all()


class TestBinNumeric:
    def test_equal_width(self):
        idx, alphabet = bin_numeric([0, 1, 2, 3], 2)
        assert idx.tolist() == [0, 0, 1, 1]
        assert alphabet.size == 2

    def test_degenerate_all_equal(self):
        idx, alphabet = bin_numeric([5, 5, 5], 3)
        assert idx.tolist() == [0, 0, 0]
        assert alphabet.size == 1

    def test_endpoints(self):
        idx, _ = bin_numeric([0.0, 10.0], 4)
        assert idx.tolist() == [0, 3]


class TestExpand:
    def test_record_count(self):
        d = independent_pair(n=3, seed=1)
        assert expand_dataset(d, 50).n_records == 150

    def test_identity_at_one(self):
        d = independent_pair(n=10, seed=1)
        assert expand_dataset(d, 1) is d

    def test_each_record_repeated(self):
        d = independent_pair(n=4, seed=2)
        e = expand_dataset(d, 3)
        assert (e.records == np.repeat(d.records, 3, axis=0)).all()

    def test_joint_exactly_invariant(self):
        d = independent_pair(n=500, seed=3)
        j1 = empirical_joint(d, 0, 1)
        j2 = empirical_joint(expand_dataset(d, 7), 0, 1)
        assert (j1.matrix == j2.matrix).all()


class TestEmpiricalJoint:
    def test_sampled_joint_close_to_source(self):
        rng = derive_rng(42, 9)
        d = sample_pair_from_joint(MAXLEAK_JOINT, 100_000, rng)
        j = empirical_joint(d, 0, 1)
        assert np.abs(j.matrix - MAXLEAK_JOINT).max() < 0.01

    def test_bijective_copy_is_diagonal(self):
        a = np.arange(4).repeat(10)
        d = Dataset((("a", Alphabet(("w", "x", "y", "z"))),
                     ("b", Alphabet(("w", "x", "y", "z")))),
                    np.column_stack([a, a]))
        j = empirical_joint(d, 0, 1)
        assert (j.matrix == np.diag(np.full(4, 0.25))).all()

    def test_independent_uniform_near_quarter(self):
        d = independent_pair(n=200_000, seed=11, k=2)
        j = empirical_joint(d, 0, 1)
        sigma = np.sqrt(0.25 * 0.75 / d.n_records)
        assert np.abs(j.matrix - 0.25).max() < 4 * sigma + 1e-12


class TestConditional:
    def test_row_from_worked_joint(self, maxleak_cond_fwd):
        row = maxleak_cond_fwd.matrix[2]
        assert row == pytest.approx([1 / 3, 1 / 2, 0.1, 1 / 15])

    def test_direction_asymmetry(self, maxleak_cond_fwd, maxleak_cond_rev):
        assert maxleak_cond_fwd.matrix.shape == maxleak_cond_rev.matrix.shape
        assert not np.allclose(maxleak_cond_fwd.matrix, maxleak_cond_rev.matrix)

    def test_uniform_joint_gives_uniform_rows(self):
        from cpl_kit import JointDistribution
        j = JointDistribution(("a", "b"), ("x", "y"), np.full((2, 2), 0.25))
        c = conditional_from_joint(j)
        assert (c.matrix == 0.5).all()

    def test_zero_mass_row_flagged(self):
        from cpl_kit import JointDistribution
        j = JointDistribution(("a", "b", "c"), ("x", "y"),
                              np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]))
        c = conditional_from_joint(j)
        assert c.valid.tolist() == [True, True, False]
        assert c.valid_rows().tolist() == [0, 1]

    def test_rows_sum_to_one(self):
        rng = derive_rng(7, 3)
        for _ in range(20):
            mat = rng.random((3, 4))
            mat /= mat.sum()
            from cpl_kit import JointDistribution
            j = JointDistribution(("a", "b", "c"), ("w", "x", "y", "z"), mat)
            c = conditional_from_joint(j)
            assert np.abs(c.matrix[c.valid].sum(axis=1) - 1).max() <= 1e-9
