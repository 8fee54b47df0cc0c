import csv
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpl_kit import (
    Alphabet,
    BudgetParams,
    ConditionalDistribution,
    Dataset,
    DimensionMismatchError,
    InputError,
    JointDistribution,
    TransitionMatrix,
    bin_numeric,
    calibrate,
    conditional_from_joint,
    empirical_joint,
    load_csv,
    pairwise_conditionals,
    write_csv,
)
from cpl_kit.fixtures import (
    FIXTURES,
    MAXLEAK_JOINT,
    generate_fixtures,
    independent_pair,
    sample_pair_from_joint,
)
from cpl_kit.data_model import _read_distinct_lines
from cpl_kit.rng import derive_rng
from cpl_kit.statistical import EstimationConfig, _expanded_blocks


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ref_load_csv(path, schema_hints=None):
    """Row-list loader: every row held as a list of strings, then each column
    coded in record order. The reference `load_csv` must match."""
    path = Path(path)
    hints = dict(schema_hints or {})
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
    if not rows:
        raise InputError(f"{path}: no data rows")
    unknown = set(hints) - set(header)
    if unknown:
        raise InputError(f"schema hints for unknown columns: {sorted(unknown)}")
    columns, schema = [], []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        hint = hints.get(name)
        if isinstance(hint, int):
            try:
                numeric = [float(c) for c in cells]
            except ValueError as exc:
                raise InputError(f"column {name!r} declared numeric: {exc}") from None
            idx, alphabet = bin_numeric(numeric, hint)
        else:
            alphabet = Alphabet(tuple(dict.fromkeys(cells) if hint is None else hint))
            idx = alphabet.indices(cells)
        columns.append(idx)
        schema.append((name, alphabet))
    return Dataset(tuple(schema), np.column_stack(columns))


def load_outcome(loader, path, hints=None):
    try:
        d = loader(path, hints)
    except InputError as exc:
        return type(exc), str(exc)
    return d.schema, d.records.dtype, d.records.tolist()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx")
    generate_fixtures(out, seed=1, samples={name: 4000 for name in FIXTURES})
    return out


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


class TestLoadCsvMatchesRowListLoader:
    """Schema, records and error text equal the row-list reference loader."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture(self, fixture_dir, name):
        path = fixture_dir / f"{name}.csv"
        assert load_outcome(load_csv, path) == load_outcome(ref_load_csv, path)

    @pytest.mark.parametrize("text, hints", [
        pytest.param("u,v\n" + "a,x\n" * 5 + "b\na,x\nc,y,z\n", None, id="ragged-after-repeats"),
        pytest.param("u,v\n" + "1,x\n2,y\n" * 4 + "q,x\n2,y\nr,y\n", {"u": 3},
                     id="bad-numeric-cell-late"),
        pytest.param("u,v\n" + "1,x\n3,y\n" * 4, {"u": 3}, id="numeric-repeats"),
        pytest.param("u,v\nb,x\na,x\nb,x\nzz,y\nqq,y\n", {"u": ["a", "b"]},
                     id="unknown-declared-symbol"),
        pytest.param("u,v\nb,x\na,x\n", {"u": ["a", "b", "c"], "v": ["x"]},
                     id="declared-alphabets"),
        pytest.param("u,v\na,x\n", {"w": 2}, id="hint-for-unknown-column"),
        pytest.param('u,v\n"a,1","l1\nl2"\nÄé,"q""t"\n"a,1","l1\nl2"\nÄé,z\nb,"l1\nl2"\n', None,
                     id="quotes-newlines-unicode"),
        pytest.param("u,v\n" + "".join(f"{i},{i % 3}\n" for i in range(300)), None,
                     id="all-distinct"),
        pytest.param("u,v\n" + "".join(f"{i / 7},{i % 3}\n" for i in range(300)), {"u": 4},
                     id="all-distinct-numeric"),
        pytest.param("u,v\n", None, id="header-only"),
        pytest.param("", None, id="empty"),
        pytest.param("u,v\r\na,x\r\nb,y\r\na,x\r\n", None, id="crlf"),
        pytest.param("u,v\ra,x\rb,y\ra,x\r", None, id="bare-cr"),
        pytest.param("u,v\na,x\nb,y\n\na,x\n", None, id="blank-line-mid-file"),
        pytest.param("u,v\na,x\nb,y\na,x", None, id="no-trailing-newline"),
        pytest.param("u,v\na,x\nb,y\r\na,x\r\nb,y\nc,z\n", None, id="row-with-lf-and-crlf"),
        pytest.param("u,v\na\rx\nb,y\n", None, id="cr-inside-a-row"),
        pytest.param('u,v\nab"c,x\na,y\nab"c,x\n', None, id="quote-inside-unquoted-field"),
        pytest.param('"u",v\na,x\nb,y\na,x\n', None, id="quote-in-header-only"),
        pytest.param("u,v\na,x\n" + ("x" * 131_073 + ",z\n" + "a,x\n") * 2, None,
                     id="oversized-field-on-a-repeated-line"),
        pytest.param("u," + "v" * 131_073 + "\na,x\n", None, id="oversized-field-in-header"),
    ])
    def test_edge_file(self, tmp_path, text, hints):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert load_outcome(load_csv, path, hints) == load_outcome(ref_load_csv, path, hints)

    @pytest.mark.parametrize("text, by_line", [
        ("u,v\na,x\nb,y\na,x\n", True),
        ('u,v\nab"c,x\na,y\n', False),
        ('"u",v\na,x\n', False),
    ])
    def test_file_with_a_quote_read_record_by_record(self, tmp_path, text, by_line):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert (_read_distinct_lines(path) is not None) == by_line

    def test_peak_memory_bounded_by_records(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = derive_rng(31, 0)
        distinct = [f"s{a},t{b}\n" for a in range(4) for b in range(4)]
        path.write_text("u,v\n" + "".join(np.array(distinct)[rng.integers(0, 16, 200_000)]),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            d = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n_records == 200_000
        assert peak <= 6 * d.records.nbytes


class TestUnreadableCsv:
    def test_invalid_utf8_named_with_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\nx,y\n\xff\xfe,z\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: not UTF-8 text: invalid start byte$"):
            load_csv(path)

    def test_invalid_utf8_past_the_first_read_block(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n" + b"x,y\n" * 5000 + b"x,\xc3\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:5002: not UTF-8 text"):
            load_csv(path)

    @pytest.mark.parametrize("raw, line, reason", [
        (b'u,v\n"a",x\nb,\xff\n', 3, "invalid start byte"),
        (b'u,v\na,x\nb,y\xc3\n"a,1","l1\nl2"\n', 3, "invalid continuation byte"),
    ])
    def test_invalid_utf8_in_a_file_with_a_quote(self, tmp_path, raw, line, reason):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:{line}: not UTF-8 text: {reason}$"):
            load_csv(path)

    @pytest.mark.parametrize("head", [b"", b'"q",y\n'], ids=["no-quote", "quote"])
    def test_invalid_utf8_reported_before_an_earlier_parse_error(self, tmp_path, head):
        # The whole file is decoded before any line is parsed, so the answer
        # does not depend on how far the decoder reads ahead of the parser.
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n" + head + b"x" * 131_073 + b",z\n"
                         + b"x,y\n" * 50_000 + b"\xff,z\n")
        line = 50_003 + bool(head)
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:{line}: not UTF-8 text"):
            load_csv(path)

    def test_oversized_field_named_with_line(self, tmp_path):
        path = tmp_path / "d.csv"
        # by distinct lines, and record by record in a file with a quote
        for header in ("a,b", '"a",b'):
            write_lines(path, [header, "x,y", "x" * 131_073 + ",z"])
            with pytest.raises(InputError,
                               match=rf"^{re.escape(str(path))}:3: field larger than field limit"):
                load_csv(path)

    def test_repeated_header_name_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["a,b,a", "x,y,z"])
        with pytest.raises(InputError, match=r"header repeats column names \['a'\]$"):
            load_csv(path)

    def test_header_without_fields_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InputError, match="header row has no fields"):
            load_csv(path)


class TestWriteCsv:
    def test_bytes_match_row_by_row_writer(self, tmp_path):
        labels = Alphabet(("a,b", 'q"t', "l1\nl2", "Äé", " "))
        d = Dataset((("u", labels), ("v", labels), ("w", Alphabet(("s0", "s1")))),
                    np.column_stack([np.arange(500) % 5, np.arange(500) // 100,
                                     np.arange(500) % 2]))
        write_csv(d, tmp_path / "by_column.csv")
        with (tmp_path / "by_row.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(d.attribute_names)
            for row in d.records:
                writer.writerow([d.alphabet(j).symbols[v] for j, v in enumerate(row)])
        assert (tmp_path / "by_column.csv").read_bytes() == (tmp_path / "by_row.csv").read_bytes()


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


def expand(d: Dataset, r: int) -> Dataset:
    """The expanded dataset that the statistical path walks block by block."""
    return Dataset(d.schema, np.concatenate(list(_expanded_blocks(d.records, r))))


class TestExpand:
    def test_record_count(self):
        d = independent_pair(n=3, seed=1)
        assert expand(d, 50).n_records == 150

    def test_identity_at_one(self):
        d = independent_pair(n=10, seed=1)
        assert (expand(d, 1).records == d.records).all()

    def test_each_record_repeated(self):
        d = independent_pair(n=4, seed=2)
        e = expand(d, 3)
        assert (e.records == np.repeat(d.records, 3, axis=0)).all()

    def test_joint_exactly_invariant(self):
        d = independent_pair(n=500, seed=3)
        j1 = empirical_joint(d, 0, 1)
        j2 = empirical_joint(expand(d, 7), 0, 1)
        assert (j1.matrix == j2.matrix).all()


class TestDatasetRecords:
    SCHEMA = (("a", Alphabet(("x", "y"))), ("b", Alphabet(("x", "y"))))

    def test_writable_array_is_copied(self):
        rec = np.array([[0, 1], [1, 0]], dtype=np.int64)
        d = Dataset(self.SCHEMA, rec)
        rec[0, 0] = 1
        assert d.records.tolist() == [[0, 1], [1, 0]]
        assert not d.records.flags.writeable

    def test_read_only_view_is_copied(self):
        base = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int64)
        base.setflags(write=False)
        d = Dataset(self.SCHEMA, base[1:])
        assert d.records.base is None and d.records.tolist() == [[1, 0], [1, 1]]

    def test_locked_owned_array_taken_as_is(self):
        rec = np.array([[0, 1], [1, 0]], dtype=np.int64)
        rec.setflags(write=False)
        assert Dataset(self.SCHEMA, rec).records is rec

    def test_loaded_records_locked_in_place(self, fixture_dir):
        rec = load_csv(fixture_dir / "maxleak_pair.csv").records
        assert rec.base is None and not rec.flags.writeable


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


class TestNonFiniteTables:
    # every comparison with NaN is false, so only an explicit check sees it
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_joint_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            JointDistribution(("a", "b"), ("x", "y"), np.array([[bad, 0.5], [0.25, 0.25]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_conditional_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            ConditionalDistribution(("a", "b"), ("x", "y"), np.array([[bad, 1.0], [0.5, 0.5]]))

    def test_conditional_rejected_in_flagged_row(self):
        with pytest.raises(InputError, match="finite"):
            ConditionalDistribution(("a", "b"), ("x", "y"), np.array([[0.5, 0.5], [np.nan, 0.0]]),
                                    np.array([True, False]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_transition_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            TransitionMatrix(("a", "b"), ("u", "v"), np.array([[bad, 1.0], [0.5, 0.5]]), 1.0)


class TestConditional:
    def test_row_from_worked_joint(self, maxleak_cond_fwd):
        row = maxleak_cond_fwd.matrix[2]
        assert row == pytest.approx([1 / 3, 1 / 2, 0.1, 1 / 15])

    def test_direction_asymmetry(self, maxleak_cond_fwd, maxleak_cond_rev):
        assert maxleak_cond_fwd.matrix.shape == maxleak_cond_rev.matrix.shape
        assert not np.allclose(maxleak_cond_fwd.matrix, maxleak_cond_rev.matrix)

    def test_uniform_joint_gives_uniform_rows(self):
        j = JointDistribution(("a", "b"), ("x", "y"), np.full((2, 2), 0.25))
        c = conditional_from_joint(j)
        assert (c.matrix == 0.5).all()

    def test_zero_mass_row_flagged(self):
        j = JointDistribution(("a", "b", "c"), ("x", "y"),
                              np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]))
        c = conditional_from_joint(j)
        assert c.valid.tolist() == [True, True, False]
        assert c.valid_rows().tolist() == [0, 1]

    def test_zero_columns_rejected(self):
        # an (m, 0) table has no entries, yet each of its m rows sums to 0
        with pytest.raises(InputError, match="sum to 1"):
            ConditionalDistribution(("a", "b"), (), np.zeros((2, 0)))

    @pytest.mark.parametrize("mask", [["false", "true", "true"], [0.5, True, True], [2, 1, 1],
                                      [None, True, True], [1, 0, 1]])
    def test_valid_mask_takes_booleans_only(self, mask):
        # a cast to bool would read "false", 0.5, 2 and null as a usable row
        table = {"row_labels": ["a", "b", "c"], "col_labels": ["u", "v"],
                 "matrix": [[0.0, 0.0], [0.2, 0.8], [0.5, 0.5]], "valid": mask}
        with pytest.raises(InputError, match="every valid mask entry must be true or false"):
            ConditionalDistribution.from_json(table)
        with pytest.raises(InputError, match="every valid mask entry must be true or false"):
            ConditionalDistribution(("a", "b", "c"), ("u", "v"), np.array(table["matrix"]),
                                    np.array(mask, dtype=object))
        table["valid"] = [False, True, True]
        assert ConditionalDistribution.from_json(table).valid_rows().tolist() == [1, 2]

    def test_rows_sum_to_one(self):
        rng = derive_rng(7, 3)
        for _ in range(20):
            mat = rng.random((3, 4))
            mat /= mat.sum()
            j = JointDistribution(("a", "b", "c"), ("w", "x", "y", "z"), mat)
            c = conditional_from_joint(j)
            assert np.abs(c.matrix[c.valid].sum(axis=1) - 1).max() <= 1e-9


TWO = Alphabet(("x", "y"))
PAIR = (("a", TWO), ("b", TWO))
QUARTER = JointDistribution(("x", "y"), ("u", "v"), np.full((2, 2), 0.25))
EMPTY = Dataset(PAIR, np.zeros((0, 2), dtype=np.int64))


class TestInputChecks:
    """Each typed-input check of the data model, by its error type and message."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Alphabet(()), InputError, "alphabet must contain at least one symbol"),
        (lambda: Alphabet(("x", "y", "x")), InputError, "alphabet contains duplicate symbols"),
        (lambda: Alphabet((["a"],)), InputError, "alphabet symbols must be hashable"),
        (lambda: JointDistribution(("x", "y"), ("u",), np.full((2, 2), 0.25)),
         DimensionMismatchError, "joint matrix shape does not match labels"),
        (lambda: JointDistribution(("x", "y"), ("u", "v"), [[0.5, -0.25], [0.5, 0.25]]),
         InputError, "joint probabilities must be nonnegative"),
        (lambda: JointDistribution(("x", "y"), ("u", "v"), np.full((2, 2), 0.125)),
         InputError, "joint probabilities sum to 0.5, expected 1"),
        (lambda: JointDistribution(("x", "x"), ("u", "v"), np.full((2, 2), 0.25)),
         InputError, "joint labels must be distinct and hashable"),
        (lambda: JointDistribution(("x", "y"), (["u"], "v"), np.full((2, 2), 0.25)),
         InputError, "joint labels must be distinct and hashable"),
        (lambda: ConditionalDistribution(("x", "y"), ("u", "u"), np.full((2, 2), 0.5)),
         InputError, "conditional labels must be distinct and hashable"),
        (lambda: TransitionMatrix(("0", "0"), ("0", "1"), np.full((2, 2), 0.5), 1.0),
         InputError, "transition labels must be distinct and hashable"),
        (lambda: ConditionalDistribution(("x", "y"), ("u", "v"), np.full((2, 2), 0.5),
                                         np.array([True, True, False])),
         DimensionMismatchError, "valid mask length does not match row count"),
        (lambda: Dataset(PAIR, np.zeros(4, dtype=np.int64)),
         InputError, "records must be a 2-d array of symbol indices"),
        (lambda: Dataset(PAIR, np.zeros((4, 3), dtype=np.int64)),
         DimensionMismatchError, "records have 3 columns, schema has 2"),
        (lambda: Dataset(PAIR, np.array([[0.0, 1.0], [1.7, 0.0]])),
         InputError, "records must be integer symbol indices, got dtype float64"),
        (lambda: Dataset(PAIR, [["0", "1"], ["1", "0"]]),
         InputError, "records must be integer symbol indices, got dtype <U1"),
        (lambda: Dataset(PAIR, [[True, False], [False, True]]),
         InputError, "records must be integer symbol indices, got dtype bool"),
        (lambda: Dataset(PAIR, [[0, 1], [2, 0]]),
         InputError, "column 'a' has indices outside its alphabet"),
        (lambda: Dataset(PAIR, [[0, -1], [1, 0]]),
         InputError, "column 'b' has indices outside its alphabet"),
        (lambda: bin_numeric([0.5, 1.5], 0), InputError, "bin count must be >= 1, got 0"),
        (lambda: bin_numeric([0.5, np.nan], 2),
         InputError, "binning requires at least one value and all values finite"),
        (lambda: bin_numeric([], 2),
         InputError, "binning requires at least one value and all values finite"),
        (lambda: empirical_joint(Dataset(PAIR, [[0, 1]]), 1, 1),
         InputError, "joint distribution requires two distinct attributes"),
        (lambda: empirical_joint(EMPTY, 0, 1), InputError, "empty dataset"),
        (lambda: pairwise_conditionals(EMPTY), InputError, "empty dataset"),
        (lambda: conditional_from_joint(QUARTER, given="both"),
         InputError, "given must be 'rows' or 'cols', got 'both'"),
        (lambda: calibrate({(0, 1): QUARTER, (1, 0): QUARTER}, 10 ** 400),
         InputError, "total budget must be a real number in float range, got 1" + "0" * 400),
    ], ids=["alphabet-empty", "alphabet-repeat", "alphabet-unhashable", "table-shape",
            "table-negative", "joint-sum", "joint-repeat", "joint-unhashable", "conditional-repeat",
            "transition-repeat", "mask-length", "records-1d", "records-width", "records-float",
            "records-string", "records-bool", "records-above", "records-negative", "bins-zero",
            "bins-nan", "bins-empty", "joint-same-attribute", "joint-empty",
            "conditionals-empty", "given", "real-past-float"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("name, labels", [
        ("row_labels", "abc"), ("row_labels", ["a", 2, "c"]), ("col_labels", [1, 2]),
        ("col_labels", None), ("row_labels", {"a": 0, "b": 1, "c": 2}),
    ])
    def test_conditional_json_labels_are_a_list_of_strings(self, name, labels):
        # a string was split into one label a character, and numbers taken
        table = {"row_labels": ["a", "b", "c"], "col_labels": ["u", "v"],
                 "matrix": [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]], name: labels}
        with pytest.raises(InputError, match=rf"^{name} must be a list of strings$"):
            ConditionalDistribution.from_json(table)


class TestTypedNumbers:
    """A public entry point takes a number only as a real number or an
    integer of the right kind. A bool, a string or a float where an integer
    is due raises ``InputError``; none is coerced or left to a bare
    ``TypeError``."""

    @staticmethod
    def joints():
        table = JointDistribution(("x", "y"), ("u", "v"), np.full((2, 2), 0.25))
        return {(0, 1): table, (1, 0): table}

    @pytest.mark.parametrize("call", [
        lambda path, joints: calibrate(joints, True),
        lambda path, joints: calibrate(joints, 2.0, step=True),
        lambda path, joints: calibrate(joints, "2"),
        lambda path, joints: BudgetParams(1.0, "0.1"),
        lambda path, joints: BudgetParams(1.0, True),
        lambda path, joints: EstimationConfig(alpha="0.1"),
        lambda path, joints: load_csv(path, {"a": True}),
        lambda path, joints: load_csv(path, {"a": 2.5}),
        lambda path, joints: load_csv(path, {"b": "xy"}),
        lambda path, joints: bin_numeric([0.5, 1.5, 2.5], 2.0),
        lambda path, joints: bin_numeric([0.5, 1.5, 2.5], True),
    ], ids=["calibrate-budget-bool", "calibrate-step-bool", "calibrate-budget-str",
            "budget-delta-str", "budget-delta-bool", "estimation-alpha-str",
            "csv-bins-bool", "csv-bins-float", "csv-labels-str", "bins-float", "bins-bool"])
    def test_rejected_with_input_error(self, tmp_path, call):
        path = tmp_path / "t.csv"
        write_lines(path, ["a,b", "0.5,x", "1.5,y", "2.5,x"])
        with pytest.raises(InputError):
            call(path, self.joints())

    def test_numpy_numbers_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["a,b", "0.5,x", "1.5,y", "2.5,x"])
        assert load_csv(path, {"a": np.int64(2), "b": ("y", "x")}).alphabet(0).size == 2
        assert BudgetParams(np.float32(1.0), np.float64(0.1)).delta == np.float64(0.1)
        assert calibrate(self.joints(), np.float64(2.0), step=np.float32(0.5)).iterations >= 0
