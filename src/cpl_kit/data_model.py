"""Discrete-attribute datasets and their empirical distributions.

Tables of categorical columns are the input to every analysis in the
package: CSV ingestion, equal-width binning of numeric columns, and
empirical joint/conditional tables.
All types are immutable after construction and all operations are pure.
"""
from __future__ import annotations

import csv
import itertools
import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, InputError, InsufficientDataError

#: Tolerance used when checking that probability tables are normalized.
PROB_TOL = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct category labels with a stable label->index map."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise InputError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet contains duplicate symbols")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def indices(self, symbols) -> np.ndarray:
        """int64 index of every symbol in a sequence of labels."""
        try:
            return np.fromiter(map(self._index.__getitem__, symbols), dtype=np.int64,
                               count=len(symbols))
        except KeyError as exc:
            raise InputError(f"symbol {exc.args[0]!r} not in alphabet") from None


def _integer(value, what: str) -> int:
    """``value``, a Python or numpy integer, as an int; any other value,
    a bool or a float included, is an ``InputError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value``, a Python or numpy real number, as a float; anything else, a
    bool, a string or an int past the float range included, is an ``InputError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InputError(f"{what} must be a real number in float range, got {value!r}")


def _locked(a: np.ndarray) -> np.ndarray:
    """A read-only array with the contents of ``a``. An array that is already
    read-only and owns its data is taken as is; a writable array or a view
    is copied, so no caller's array can change the result."""
    if not a.flags.writeable and a.base is None:
        return a
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _lock(a: np.ndarray) -> np.ndarray:
    """Make a freshly built array read-only in place, so that ``_locked``
    takes it without a copy."""
    a.setflags(write=False)
    return a


def _probability_table(matrix, row_labels, col_labels, what: str) -> np.ndarray:
    """``matrix`` as float64, checked to be finite, nonnegative and labelled."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.shape != (len(row_labels), len(col_labels)):
        raise DimensionMismatchError(f"{what} matrix shape does not match labels")
    # Every comparison with NaN is false, so the checks below cannot see it.
    if not np.isfinite(mat).all():
        raise InputError(f"{what} probabilities must be finite")
    if (mat < 0).any():
        raise InputError(f"{what} probabilities must be nonnegative")
    return mat


@dataclass(frozen=True)
class Dataset:
    """N records of per-attribute symbol indices plus the attribute schema."""

    schema: tuple[tuple[str, Alphabet], ...]
    records: np.ndarray  # shape (N, n_attributes), integer indices

    def __post_init__(self):
        rec = np.asarray(self.records, dtype=np.int64)
        if rec.ndim != 2:
            raise InputError("records must be a 2-d array of symbol indices")
        if rec.shape[1] != len(self.schema):
            raise DimensionMismatchError(
                f"records have {rec.shape[1]} columns, schema has {len(self.schema)}"
            )
        for j, (name, alphabet) in enumerate(self.schema):
            col = rec[:, j]
            if col.size and (col.min() < 0 or col.max() >= alphabet.size):
                raise InputError(f"column {name!r} has indices outside its alphabet")
        object.__setattr__(self, "records", _locked(rec))

    @property
    def n_records(self) -> int:
        return self.records.shape[0]

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.schema)

    def alphabet(self, i: int) -> Alphabet:
        return self.schema[i][1]

    def column(self, i: int) -> np.ndarray:
        return self.records[:, i]


@dataclass(frozen=True)
class JointDistribution:
    """Empirical joint table of two attributes; entries sum to one."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: np.ndarray  # shape (m, t), nonnegative, sums to 1

    def __post_init__(self):
        mat = _probability_table(self.matrix, self.row_labels, self.col_labels, "joint")
        if abs(mat.sum() - 1.0) > PROB_TOL:
            raise InputError(f"joint probabilities sum to {mat.sum()}, expected 1")
        object.__setattr__(self, "matrix", _locked(mat))

    def transpose(self) -> "JointDistribution":
        return JointDistribution(self.col_labels, self.row_labels, self.matrix.T)

    def row_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


@dataclass(frozen=True)
class ConditionalDistribution:
    """Row-stochastic table P(col symbol | row symbol).

    Rows whose conditioning symbol had zero marginal mass are flagged in
    ``valid`` (all-zero row, excluded from every supremum) rather than
    fabricated; inventing such a row would invent leakage the data cannot
    witness.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: np.ndarray  # shape (m, t)
    valid: np.ndarray = None  # shape (m,), bool; None means all rows usable

    def __post_init__(self):
        mat = _probability_table(self.matrix, self.row_labels, self.col_labels, "conditional")
        valid = self.valid
        if valid is None:
            valid = np.ones(mat.shape[0], dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (mat.shape[0],):
            raise DimensionMismatchError("valid mask length does not match row count")
        rows = mat[valid]
        if len(rows) and np.abs(rows.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise InputError("every non-flagged conditional row must sum to 1")
        object.__setattr__(self, "matrix", _locked(mat))
        object.__setattr__(self, "valid", _locked(valid))

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def valid_rows(self) -> np.ndarray:
        return np.flatnonzero(self.valid)

    def usable_rows(self) -> np.ndarray:
        """``valid_rows()``, of which every leakage needs at least two."""
        rows = self.valid_rows()
        if rows.size < 2:
            raise InsufficientDataError("need at least 2 usable conditioning symbols")
        return rows

    def to_json(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "matrix": self.matrix.tolist(),
            "valid": self.valid.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConditionalDistribution":
        if not isinstance(obj, dict):
            raise InputError(f"top level must be a JSON object, got {type(obj).__name__}")
        valid = obj.get("valid")
        return cls(
            tuple(obj["row_labels"]),
            tuple(obj["col_labels"]),
            np.asarray(obj["matrix"], dtype=np.float64),
            None if valid is None else np.asarray(valid, dtype=bool),
        )


def bin_numeric(values, bin_count: int) -> tuple[np.ndarray, Alphabet]:
    """Equal-width binning of real values over [min, max].

    The maximum value maps to the last bin. If all values are equal the
    result degenerates to a single bin regardless of ``bin_count``.
    """
    if _integer(bin_count, "bin count") < 1:
        raise InputError(f"bin count must be >= 1, got {bin_count}")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0 or not np.isfinite(vals).all():
        raise InputError("binning requires at least one value and all values finite")
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        labels = (f"[{lo:.6g},{hi:.6g}]",)
        return np.zeros(vals.shape, dtype=np.int64), Alphabet(labels)
    edges = np.linspace(lo, hi, bin_count + 1)
    idx = np.minimum(np.digitize(vals, edges[1:-1], right=False), bin_count - 1)
    labels = tuple(
        f"[{edges[i]:.6g},{edges[i + 1]:.6g}" + (")" if i < bin_count - 1 else "]")
        for i in range(bin_count)
    )
    return idx.astype(np.int64), Alphabet(labels)


def load_csv(path, schema_hints: dict | None = None) -> Dataset:
    """Read a header-bearing CSV into a Dataset.

    Categorical alphabets use first-appearance order. ``schema_hints`` maps a
    column name to an int (numeric: equal-width bin into that many bins) or
    to a list or tuple of labels (declared alphabet and ordering).

    Each distinct line is parsed and each distinct row coded once, and
    repeats are not kept, so time and memory scale with the number of
    distinct lines, plus one int64 per record; a file that contains a quote
    character is read record by record. A file that is not UTF-8 text, that
    ``csv`` cannot parse, whose rows differ in width or whose header repeats
    a name raises ``InputError`` naming the file, and the line where a row
    is at fault.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    hints = dict(schema_hints or {})
    header, rows, ordinal = _read_distinct_lines(path) or _read_distinct_records(path)
    if header is None:
        raise InputError(f"{path}: empty file, header row required")
    if set(map(len, rows)) - {len(header)}:
        i, row = next((i, row) for i, row in enumerate(rows) if len(row) != len(header))
        lineno = int(np.argmax(ordinal == i)) + 2
        raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    if not rows:
        raise InputError(f"{path}: no data rows")
    if not header:
        raise InputError(f"{path}: header row has no fields")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise InputError(f"{path}: header repeats column names {repeated}")
    unknown = set(hints) - set(header)
    if unknown:
        raise InputError(f"schema hints for unknown columns: {sorted(unknown)}")

    codes = np.empty((len(rows), len(header)), dtype=np.int64)
    schema: list[tuple[str, Alphabet]] = []
    for j, name in enumerate(header):
        cells = list(map(itemgetter(j), rows))
        hint = hints.get(name)
        if hint is None or isinstance(hint, (list, tuple)):
            # Without a declared alphabet, symbols take first-appearance order.
            alphabet = Alphabet(tuple(dict.fromkeys(cells) if hint is None else hint))
            codes[:, j] = alphabet.indices(cells)
        else:
            bins = _integer(hint, f"schema hint for column {name!r} (a bin count, or a list "
                                  f"or tuple of labels)")
            try:
                numeric = np.fromiter(map(float, cells), np.float64, len(cells))
            except ValueError as exc:
                raise InputError(f"column {name!r} declared numeric: {exc}") from None
            # Binning edges depend only on min and max, which the distinct
            # rows share with the records.
            codes[:, j], alphabet = bin_numeric(numeric, bins)
        schema.append((name, alphabet))
    return Dataset(tuple(schema), _lock(codes.take(ordinal, axis=0)))


def _read_distinct_lines(path: Path):
    """Header, distinct rows in order of first appearance, and each record's
    index into those rows, parsing each distinct line of the file once; None
    if the file has a quote character. The whole file is read first, so
    bytes that are not UTF-8 raise ``InputError`` here, for any file.

    Taken in this order the distinct rows meet every symbol and every bad
    cell in record order. ``csv.reader`` pulls one line at a time from a
    file opened with ``newline=""``, and a line without a quote character
    is exactly one record. So parsing each distinct line gives the rows, the
    line numbers and the errors of reading the file record by record.
    """
    first: dict[str, int] = {}  # distinct line -> index of its first record
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(fh, None)
            record_first = np.fromiter(map(first.setdefault, fh, itertools.count()), np.int64)
    except UnicodeDecodeError as exc:
        # The decoder reads ahead of the lines: find the bad bytes in the raw file.
        raise InputError(f"{path}:{_undecodable_line(path)}: not UTF-8 text: "
                         f"{exc.reason}") from None
    if header is None:
        return None, [], record_first
    lines = [header, *first]
    if any('"' in line for line in lines):
        return None
    firsts = np.fromiter(first.values(), np.int64, len(first))
    reader = csv.reader(lines)
    try:
        header, *rows = reader
    except csv.Error as exc:
        # Line k > 1 of ``lines`` is the first record of its text.
        k = reader.line_num
        raise InputError(f"{path}:{1 if k == 1 else firsts[k - 2] + 2}: {exc}") from None
    return header, rows, np.searchsorted(firsts, record_first)


def _read_distinct_records(path: Path) -> tuple[list[str] | None, list, np.ndarray]:
    """``_read_distinct_lines`` record by record, for any UTF-8 file. The row
    -> index dict is dropped on return, so it and its int values never
    coexist with the coded columns."""
    first: dict[tuple[str, ...], int] = {}  # distinct row -> index of its first record
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            record_first = np.fromiter(
                map(first.setdefault, map(tuple, reader), itertools.count()), np.int64)
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    firsts = np.fromiter(first.values(), np.int64, len(first))
    return header, list(first), np.searchsorted(firsts, record_first)


def _undecodable_line(path: Path) -> int:
    """1-based line of the first bytes in ``path`` that are not UTF-8."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw.count(b"\n", 0, exc.start) + 1
    return raw.count(b"\n") + 1


def write_csv(d: Dataset, path) -> None:
    """Write a Dataset back to CSV with symbol labels."""
    path = Path(path)
    columns = [np.array(alphabet.symbols, dtype=object)[d.column(j)].tolist()
               for j, (_, alphabet) in enumerate(d.schema)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(d.attribute_names)
        writer.writerows(zip(*columns))


def empirical_joint(d: Dataset, i: int, j: int) -> JointDistribution:
    """Empirical joint distribution of attributes i (rows) and j (cols)."""
    if i == j:
        raise InputError("joint distribution requires two distinct attributes")
    if d.n_records == 0:
        raise InputError("empty dataset")
    return _counted_joint(d, i, j, d.column(i), d.column(j))


def count_table(target: np.ndarray, w_codes: np.ndarray, m: int, n_w: int) -> np.ndarray:
    """(m, n_w) counts of the (target symbol, neighbor code) pairs of aligned rows."""
    return np.bincount(target * n_w + w_codes, minlength=m * n_w).reshape(m, n_w)


def _counted_joint(d: Dataset, i: int, j: int, rows: np.ndarray,
                   cols: np.ndarray) -> JointDistribution:
    """Joint of attributes i and j from their columns ``rows`` and ``cols``,
    of any integer dtype that holds m * t, counted by ``count_table``."""
    counts = count_table(rows, cols, d.alphabet(i).size, d.alphabet(j).size)
    return JointDistribution(d.alphabet(i).symbols, d.alphabet(j).symbols,
                             counts.astype(np.float64) / d.n_records)


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """Row-major ordered attribute pairs (i, j), i != j; the canonical order
    of every per-pair dict and list in the package."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def pairwise_conditionals(d: Dataset) -> dict[tuple[int, int], ConditionalDistribution]:
    """Empirical P(attr j | attr i) for every ordered pair (i, j), i != j, in
    row-major order.

    Each unordered pair is counted once, on contiguous copies of the columns
    in the narrowest unsigned dtype that holds every pair's m * t: (j, i)
    takes the transpose of the joint of (i, j), copied to C order first, as
    its own joint would be, since a row sum over an F-ordered array can
    round differently.
    """
    n = d.n_attributes
    if n < 2:
        return {}
    if d.n_records == 0:
        raise InputError("empty dataset")
    sizes = [d.alphabet(j).size for j in range(n)]
    m, t = sorted(sizes)[-2:]
    dtype = next(dt for dt in (np.uint8, np.uint16, np.uint32, np.int64)
                 if m * t <= np.iinfo(dt).max)
    columns = [d.column(j).astype(dtype) for j in range(n)]
    conds = {}
    joints: dict[tuple[int, int], JointDistribution] = {}
    for i, j in ordered_pairs(n):
        if i < j:
            joint = joints[(i, j)] = _counted_joint(d, i, j, columns[i], columns[j])
        else:
            rev = joints.pop((j, i))
            joint = JointDistribution(rev.col_labels, rev.row_labels,
                                      np.ascontiguousarray(rev.matrix.T))
        conds[(i, j)] = conditional_from_joint(joint, given="rows")
    return conds


def conditional_from_joint(joint: JointDistribution, given: str = "rows") -> ConditionalDistribution:
    """Condition a joint table on one of its variables.

    ``given="rows"`` returns P(col | row); ``given="cols"`` returns
    P(row | col) with the conditioning symbols as output rows. Conditioning
    symbols with zero marginal mass are flagged, not smoothed.
    """
    if given == "cols":
        return conditional_from_joint(joint.transpose(), given="rows")
    if given != "rows":
        raise InputError(f"given must be 'rows' or 'cols', got {given!r}")
    mass = joint.row_marginal()
    valid = mass > 0
    matrix = np.zeros_like(joint.matrix)
    matrix[valid] = joint.matrix[valid] / mass[valid, None]
    return ConditionalDistribution(joint.row_labels, joint.col_labels, matrix, valid)


def load_conditional_json(path) -> ConditionalDistribution:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        return ConditionalDistribution.from_json(obj)
    # ValueError covers a ragged matrix and bytes that are not UTF-8
    # (JSONDecodeError and UnicodeDecodeError are both ValueErrors).
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: not a valid conditional table: {exc}") from None
