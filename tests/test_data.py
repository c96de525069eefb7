import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrlog import data
from corrlog.cli import main
from corrlog.data import (
    TOY_ETA1,
    TOY_ETA2,
    DatasetSpec,
    ToySpec,
    add_bias_column,
    compute_feature_scale,
    generate_toy,
    load_dataset,
    scale_features,
    write_dense_csv,
)
from corrlog.errors import DataError, ParseError
from corrlog.inference import sample_from_model
from corrlog.model import CsrRows, ModelParams, MultilabelDataset
from corrlog.objective import RegularizationConfig
from corrlog.serialize import save_model

DENSE_SAMPLE = """f1,f2|l1,l2
0.5,0.5,1,0
-0.25,0.75,-1,+1
"""

SPARSE_SAMPLE = """2,5 1:0.3 7:-1.2
1 2:0.5
3:1.0 7:2.0
"""


class TestDenseLoader:
    def test_documented_example_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DENSE_SAMPLE)
        ds = load_dataset(path, DatasetSpec(format="dense-csv"))
        assert ds.num_features == 2
        assert ds.num_labels == 2
        assert ds.label_names == ("l1", "l2")
        assert np.allclose(ds.features[0], [0.5, 0.5])
        assert np.array_equal(ds.labels[0], [1, -1])
        assert np.array_equal(ds.labels[1], [-1, 1])

    def test_ragged_row_gives_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\n0.5,1\n0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path, DatasetSpec())

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\noops,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, DatasetSpec())

    def test_unknown_label_symbol(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\n0.5,2\n")
        with pytest.raises(ParseError, match="label symbol"):
            load_dataset(path, DatasetSpec())

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\nnan,1\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_dataset(path, DatasetSpec())

    def test_header_needs_single_pipe(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,l1\n0.5,1\n")
        with pytest.raises(ParseError, match="'\\|'"):
            load_dataset(path, DatasetSpec())

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_file_without_a_header_line(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="^file contains no header line$"):
            load_dataset(path, DatasetSpec())

    @pytest.mark.parametrize("header", ["f1,f2|", "| l1", " , |l1"])
    def test_header_must_name_a_feature_and_a_label(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(f"\n{header}\n0.5,1\n")
        with pytest.raises(ParseError, match="^line 2: header must name at least one feature"):
            load_dataset(path, DatasetSpec())

    @pytest.mark.parametrize("field,value", [("format", "parquet"),
                                             ("normalization", "unit-norm")])
    def test_spec_rejects_unknown_choices(self, field, value):
        with pytest.raises(DataError, match=f"^unknown .*{value!r}$"):
            DatasetSpec(**{field: value})


class TestSparseLoader:
    def test_documented_example_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(SPARSE_SAMPLE)
        ds = load_dataset(path, DatasetSpec(format="sparse-multilabel"))
        assert ds.num_labels == 5  # inferred from max positive index
        assert ds.num_features == 7
        assert np.array_equal(ds.labels[0], [-1, 1, -1, -1, 1])
        assert ds.feature_matrix[0, 0] == 0.3
        assert ds.feature_matrix[0, 6] == -1.2
        assert np.count_nonzero(ds.feature_matrix[0]) == 2
        # third line has no label list at all
        assert np.all(ds.labels[2] == -1)

    def test_explicit_dimensions(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 1:0.5\n")
        ds = load_dataset(
            path, DatasetSpec(format="sparse-multilabel", num_labels=4, num_features=9)
        )
        assert ds.num_labels == 4
        assert ds.num_features == 9

    def test_label_index_beyond_count(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("7 1:0.5\n")
        with pytest.raises(ParseError, match="exceeds"):
            load_dataset(path, DatasetSpec(format="sparse-multilabel", num_labels=3))

    def test_duplicate_feature_index(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 2:0.5 2:0.7\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_dataset(path, DatasetSpec(format="sparse-multilabel"))

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 0:0.5\n")
        with pytest.raises(ParseError, match="1-based"):
            load_dataset(path, DatasetSpec(format="sparse-multilabel"))


SPARSE = "sparse-multilabel"
# every bad line sits on line 4, after a good row, a comment and a blank line
SPARSE_HEAD = "1,2 1:0.5 3:-1\n# comment\n\n"


class TestSparseErrors:
    """Every positioned ParseError of the sparse loader, with its exact text."""

    @pytest.mark.parametrize("bad_line,message", [
        ("1,,2 1:0.5", "empty entry in label list"),
        (",1 1:0.5", "empty entry in label list"),
        ("1, 1:0.5", "empty entry in label list"),
        ("x 1:0.5", "bad label index 'x'"),
        ("0 1:0.5", "label indices are 1-based, got 0"),
        ("2,00 1:0.5", "label indices are 1-based, got 0"),
        ("1 1:2:3", "bad feature token '1:2:3'"),
        ("1 1:0.5 5", "bad feature token '5'"),
        ("1 :5", "bad feature index ''"),
        ("1 5:", "non-numeric feature ''"),
        ("1 a:5", "bad feature index 'a'"),
        ("1 0:5", "feature indices are 1-based, got 0"),
        ("1 2:0.5 2:0.7", "duplicate feature index 2"),
        ("2:0.5 1:1 02:0.7", "duplicate feature index 2"),
        ("1 2:abc", "non-numeric feature 'abc'"),
        ("1 2:nan", "non-finite feature 'nan'"),
        ("1 2:-inf", "non-finite feature '-inf'"),
        ("1 2:1e400", "non-finite feature '1e400'"),
    ])
    def test_line_error(self, tmp_path, bad_line, message):
        path = tmp_path / "s.txt"
        path.write_text(SPARSE_HEAD + bad_line + "\n1 1:1\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path, DatasetSpec(format=SPARSE))
        assert str(exc.value) == f"line 4: {message}"
        assert exc.value.line == 4

    @pytest.mark.parametrize("bad_line,message", [
        ("+3 1:0.5", "bad label index '+3'"),
        ("0_2 1:0.5", "bad label index '0_2'"),
        ("١ 1:0.5", "bad label index '١'"),
        ("-3 1:0.5", "bad label index '-3'"),
        ("1 +3:0.5", "bad feature index '+3'"),
        ("1 0_2:0.5", "bad feature index '0_2'"),
        ("1 ١:0.5", "bad feature index '١'"),
        ("1 -2:0.5", "bad feature index '-2'"),
        ("1 ３:0.5", "bad feature index '３'"),
    ])
    def test_indices_are_ascii_decimal_digits(self, tmp_path, bad_line, message):
        path = tmp_path / "s.txt"
        path.write_text(SPARSE_HEAD + bad_line + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path, DatasetSpec(format=SPARSE))
        assert str(exc.value) == f"line 4: {message}"

    @pytest.mark.parametrize("bad_line,counts,message", [
        ("7 1:0.5", {"num_labels": 3}, "label index 7 exceeds label count 3"),
        ("1 9:0.5", {"num_features": 3}, "feature index 9 exceeds feature count 3"),
        ("3 3:0.5", {"num_labels": 3, "num_features": 3}, None),
    ])
    def test_index_beyond_explicit_count(self, tmp_path, bad_line, counts, message):
        path = tmp_path / "s.txt"
        path.write_text(SPARSE_HEAD + bad_line + "\n")
        if message is None:
            ds = load_dataset(path, DatasetSpec(format=SPARSE, **counts))
            assert ds.labels[1, 2] == 1 and ds.feature_matrix[1, 2] == 0.5
            return
        with pytest.raises(ParseError) as exc:
            load_dataset(path, DatasetSpec(format=SPARSE, **counts))
        assert str(exc.value) == f"line 4: {message}"
        assert exc.value.line == 4

    @pytest.mark.parametrize("text,message", [
        ("", "file contains no data rows"),
        ("# only a comment\n\n  \t\n", "file contains no data rows"),
        ("1:0.5\n3:1\n",
         "cannot infer the label count: no positive labels and no num_labels given"),
        ("1\n2\n", "cannot infer the feature count: no features and no num_features given"),
    ])
    def test_file_error(self, tmp_path, text, message):
        path = tmp_path / "s.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_dataset(path, DatasetSpec(format=SPARSE))
        assert str(exc.value) == message
        assert exc.value.line is None

    @pytest.mark.parametrize("field", ["num_labels", "num_features"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_spec_rejects_counts_below_one(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be at least 1, got {value}$"):
            DatasetSpec(format=SPARSE, **{field: value})


VALUE_TEXTS = ["0", "-0", "-0.0", "+1.5", ".5", "5.", "1e-3", "-2E+2", "1_000", "-7",
               "4.9e-324", "1.7976931348623157e308"]
SEPARATORS = [" ", "\t", "  ", " \t "]


@st.composite
def sparse_files(draw):
    """A well-formed sparse file as (rows of tokens, num_labels, num_features, newline).

    Rows may lack labels or features; a row with neither is a blank line.
    Counts are inferred or explicit and at least the largest index.
    """
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        labels = draw(st.lists(st.integers(1, 5), max_size=3))
        features = draw(st.dictionaries(
            st.integers(1, 12),
            st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(VALUE_TEXTS)),
            max_size=5))
        tokens = [",".join(map(str, labels))] if labels else []
        for idx, text in features.items():
            zeros = "0" * draw(st.integers(0, 1) if idx % 3 == 0 else st.just(0))
            tokens.append(f"{zeros}{idx}:{text}")
        rows.append(tokens)
    if not any(rows):
        rows[0] = ["1:1"]
    max_label = max((int(i) for r in rows for t in r if ":" not in t for i in t.split(",")),
                    default=0)
    max_feature = max((int(t.split(":")[0]) for r in rows for t in r if ":" in t), default=0)
    num_labels = draw(st.none() if max_label else st.just(3)) if draw(st.booleans()) else (
        max(max_label, 1) + draw(st.integers(0, 2)))
    num_features = draw(st.none() if max_feature else st.just(4)) if draw(st.booleans()) else (
        max(max_feature, 1) + draw(st.integers(0, 2)))
    return rows, num_labels, num_features, draw(st.sampled_from(["\n", "\r\n"]))


def render_sparse(draw, rows, newline) -> list[str]:
    """The file's lines as ``_read_text`` gives them, with blank and comment lines mixed in."""
    text = []
    for tokens in rows:
        if draw(st.booleans()):
            text.append(draw(st.sampled_from(["", "  \t", "# note", "\t#1 2:3 x"])))
        sep = draw(st.sampled_from(SEPARATORS))
        text.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens)
                    + draw(st.sampled_from(["", " ", "\t "])))
    return newline.join(text).splitlines()


def arrays_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def must_not_fall_back(lines, spec, first_line=1):
    raise AssertionError("the block parser fell back on a well-formed block")


def reference_arrays(lines, spec):
    """Dense features and labels filled row by row from the per-line parser's entries."""
    sizes, cols, values, label_sizes, label_idx = data._load_sparse_lines(lines, spec)
    if not len(sizes):  # a corrupt first token "#:1" can leave only comment lines
        raise ParseError("file contains no data rows")
    # each count inferred as _load_sparse infers it, with its errors
    m = spec.num_labels if spec.num_labels is not None else int(label_idx.max(initial=-1)) + 1
    d = spec.num_features if spec.num_features is not None else int(cols.max(initial=-1)) + 1
    if m < 1:
        raise ParseError("cannot infer the label count: no positive labels and no num_labels given")
    if d < 1:
        raise ParseError("cannot infer the feature count: no features and no num_features given")
    features, labels = np.zeros((len(sizes), d)), np.full((len(sizes), m), -1, np.int8)
    k = j = 0
    for r, (size, count) in enumerate(zip(sizes.tolist(), label_sizes.tolist())):
        features[r, cols[k:k + size]] = values[k:k + size]
        labels[r, label_idx[j:j + count]] = 1
        k, j = k + size, j + count
    return features, labels


BAD_FEATURE_TOKENS = ["1:2:3", "5", ":5", "5:", "+3:1", "0_2:1", "\u0661:1", "\uff13:1", "0:1",
                      "-2:1", "1:nan", "1:inf", "1:abc", "1:1e400", "1:0x1p0", "99:1",
                      "123456789012345678901:1", "9223372036854775808:1", "#:1"]
BAD_LABEL_TOKENS = ["1,,2", ",", "+1", "0", "x", "\u0661", "-1", "9", "1,00",
                    "99999999999999999999"]


def corrupt(draw, rows):
    """The rows with one bad label token, repeated feature index or bad feature token."""
    rows = [list(r) for r in rows]
    r = draw(st.integers(0, len(rows) - 1))
    has_labels = bool(rows[r]) and ":" not in rows[r][0]
    if has_labels and draw(st.booleans()):
        rows[r][0] = draw(st.sampled_from(BAD_LABEL_TOKENS))
    elif draw(st.booleans()) and len(rows[r]) > has_labels:
        # repeat an index of this row under another value
        pos = draw(st.integers(has_labels, len(rows[r]) - 1))
        rows[r].append(rows[r][pos].split(":")[0] + ":0.25")
    else:
        pos = draw(st.integers(has_labels, len(rows[r])))
        rows[r].insert(pos, draw(st.sampled_from(BAD_FEATURE_TOKENS)))
    return rows


class Scripted:
    """Stands in for ``st.data()`` in an explicit example: hands out the given draws in order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


def parse_outcome(lines, spec):
    """The CSR arrays, shape and labels ``_load_sparse`` gives, or its ParseError text and line."""
    try:
        ds = data._load_sparse(lines, spec)
    except ParseError as exc:
        return str(exc), exc.line
    f = ds.features
    return f.indptr.tobytes(), f.indices.tobytes(), f.data.tobytes(), f.shape, ds.labels.tobytes()


class TestBlockParser:
    """The vectorised block parser against the per-line parser it falls back to."""

    @settings(max_examples=120, deadline=None)
    @given(sparse_files(), st.data())
    def test_matches_per_line_parser_without_falling_back(self, file, draw):
        rows, num_labels, num_features, newline = file
        lines = render_sparse(draw.draw, rows, newline)
        spec = DatasetSpec(format=SPARSE, num_labels=num_labels, num_features=num_features)
        expected = data._load_sparse_lines(lines, spec)
        got = data._sparse_entries(lines, spec)
        assert all(arrays_identical(a, b) for a, b in zip(got, expected, strict=True))
        with mock.patch.object(data, "_load_sparse_lines", must_not_fall_back):
            ds = data._load_sparse(lines, spec)
        features, labels = reference_arrays(lines, spec)
        assert isinstance(ds.features, CsrRows)
        assert arrays_identical(ds.feature_matrix, features)
        assert arrays_identical(ds.labels, labels)
        assert ds.label_names == tuple(f"label{i + 1}" for i in range(labels.shape[1]))

    @settings(max_examples=200, deadline=None)
    @given(sparse_files(), st.data())
    # the corrupt "#:1" turns the only feature line into a comment: no feature count to infer
    @example(file=([["1:0.0"], ["1"]], 1, None, "\n"),
             draw=Scripted(0, False, 0, "#:1", *[False, " ", "", ""] * 2))
    def test_one_corrupt_token_gives_the_same_error(self, file, draw):
        rows, num_labels, num_features, newline = file
        lines = render_sparse(draw.draw, corrupt(draw.draw, rows), newline)
        spec = DatasetSpec(format=SPARSE, num_labels=num_labels, num_features=num_features)
        try:
            expected = reference_arrays(lines, spec)
        except ParseError as exc:
            # only an error on a line makes the block parser fall back
            assert exc.line is None or data._sparse_entries(lines, spec) is None
            with pytest.raises(ParseError) as got:
                data._load_sparse(lines, spec)
            assert str(got.value) == str(exc) and got.value.line == exc.line
            return
        got = data._load_sparse(lines, spec)
        assert arrays_identical(got.feature_matrix, expected[0])
        assert arrays_identical(got.labels, expected[1])

    @settings(max_examples=120, deadline=None)
    @given(sparse_files(), st.data(), st.integers(1, 3))
    def test_blocks_of_a_few_lines_parse_like_one_block(self, file, draw, block_lines):
        rows, num_labels, num_features, newline = file
        if draw.draw(st.booleans()):
            rows = corrupt(draw.draw, rows)
        lines = render_sparse(draw.draw, rows, newline)
        spec = DatasetSpec(format=SPARSE, num_labels=num_labels, num_features=num_features)
        whole = parse_outcome(lines, spec)
        with mock.patch.object(data, "_BLOCK_LINES", block_lines):
            assert parse_outcome(lines, spec) == whole

    @pytest.mark.parametrize("line", ["1 2:0.5 3:4:5 6", "1 2:0.5 6 3:4:5", "1 2:0.5 \ud800:1"])
    def test_misplaced_colons_give_the_per_line_error(self, line):
        # the first two hold one colon per token in total, but not one in every token
        lines = ["1 1:0.5", line]
        spec = DatasetSpec(format=SPARSE)
        with pytest.raises(ParseError) as expected:
            data._load_sparse_lines(lines, spec)
        assert data._sparse_entries(lines, spec) is None
        with pytest.raises(ParseError) as got:
            data._load_sparse(lines, spec)
        assert str(got.value) == str(expected.value) and got.value.line == expected.value.line == 2

    @pytest.mark.parametrize("line,message", [
        ("1 0000000000000000000012:0.5", None),
        ("1 9223372036854775807:0.5", None),
        ("2,00000000000000000003 3:1 9223372036854775807:0.5 0000000000000000000012:2", None),
        ("1 3:1 9223372036854775808:0.5", "feature index 9223372036854775808 is too large"),
        ("1 18446744073709551617:0.5", "feature index 18446744073709551617 is too large"),
        ("2,9223372036854775808 1:0.5", "label index 9223372036854775808 is too large"),
        ("99999999999999999999 1:0.5", "label index 99999999999999999999 is too large"),
        pytest.param("1 " + "0" * 4999 + "7:0.5", None, id="feature-5000-digits-worth-7"),
        pytest.param("1 " + "7" * 5000 + ":0.5", "feature index of 5000 digits is too large",
                     id="feature-5000-digits"),
        pytest.param("2," + "9" * 5001 + " 1:0.5", "label index of 5001 digits is too large",
                     id="label-5001-digits"),
    ])
    def test_index_conversion_edges(self, line, message):
        spec = DatasetSpec(format=SPARSE)
        if message is None:
            expected = data._load_sparse_lines([line], spec)
            got = data._sparse_entries([line], spec)
            assert all(arrays_identical(a, b) for a, b in zip(got, expected, strict=True))
            with mock.patch.object(data, "_load_sparse_lines", must_not_fall_back):
                data._load_sparse([line], spec)
            return
        # one data row, so the guard on the row keys' overflow cannot fall back first
        lines = ["# note", line]
        assert data._sparse_entries(lines, spec) is None
        with pytest.raises(ParseError) as exc:
            data._load_sparse(lines, spec)
        assert str(exc.value) == f"line 2: {message}" and exc.value.line == 2

    def test_an_error_in_a_later_block_keeps_its_file_line_number(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_LINES", 2)
        lines = ["1 1:0.5", "# note", "2 2:1", "", "1 3:x"]
        with pytest.raises(ParseError) as exc:
            data._load_sparse(lines, DatasetSpec(format=SPARSE))
        assert str(exc.value) == "line 5: non-numeric feature 'x'"

    @settings(max_examples=80, deadline=None)
    @given(sparse_files(), st.data(),
           st.one_of(st.none(), st.floats(min_value=1e-300, max_value=1e300)),
           st.booleans())
    def test_prepared_rows_equal_the_prepared_dense_array(self, file, draw, scale, add_bias):
        rows, num_labels, num_features, newline = file
        lines = render_sparse(draw.draw, rows, newline)
        spec = DatasetSpec(format=SPARSE, num_labels=num_labels, num_features=num_features)
        sparse = data._load_sparse(lines, spec)
        dense = MultilabelDataset(sparse.feature_matrix.copy(), sparse.labels, sparse.label_names)
        assert compute_feature_scale(sparse) == compute_feature_scale(dense)
        try:
            expected = data._prepare(dense, scale, add_bias)
        except DataError as exc:
            # a scale so small that a quotient overflows: both are refused alike
            with pytest.raises(DataError) as got:
                data._prepare(sparse, scale, add_bias)
            assert str(got.value) == str(exc)
            return
        got = data._prepare(sparse, scale, add_bias)
        assert isinstance(got.features, CsrRows)
        assert arrays_identical(got.feature_matrix, expected.features)
        assert arrays_identical(got.labels, expected.labels)

    def test_prepared_load_makes_no_dense_array(self, tmp_path):
        rng = np.random.default_rng(5)
        n, d = 1000, 8000
        lines = []
        for _ in range(n):
            cols = np.sort(rng.choice(d, size=20, replace=False)) + 1
            lines.append("1,3 " + " ".join(f"{c}:{v!r}" for c, v in
                                           zip(cols.tolist(), rng.normal(size=20).tolist())))
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(lines) + "\n")
        dense_bytes = n * (d + 1) * 8  # 64 MB
        # a scale is found from dense blocks of DECODE_CHUNK_FLOATS (8 MiB) and their squares
        for scale, bound in ((None, 0.4 * dense_bytes), (7.5, 0.15 * dense_bytes)):
            tracemalloc.start()
            try:
                if scale is None:
                    spec = DatasetSpec(format=SPARSE, normalization="global-max-norm",
                                       add_bias=True)
                    ds = load_dataset(path, spec)
                else:
                    raw = load_dataset(path, DatasetSpec(format=SPARSE))
                    ds = add_bias_column(scale_features(raw, scale))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ds.features.shape == (n, d + 1)
            assert peak <= bound, (scale, peak)

    def test_rows_read_like_the_dense_matrix(self):
        rows = CsrRows(np.array([0, 2, 2, 3]), np.array([3, 0, 1]), np.array([1.5, -0.0, 2.0]),
                       (3, 4))
        dense = rows[:]
        assert dense.tolist() == [[-0.0, 0.0, 0.0, 1.5], [0.0] * 4, [0.0, 2.0, 0.0, 0.0]]
        assert np.signbit(dense[0, 0]) and not np.signbit(dense[1, 0])
        assert arrays_identical(rows[1:9], dense[1:])
        assert arrays_identical(rows[-1:], dense[2:]) and arrays_identical(rows[-2:2], dense[1:2])
        for empty in (rows[2:1], rows[3:], rows[5:9]):
            assert empty.shape == (0, 4)
        # each slice is a fresh array
        rows[0:1][0, 3] = 9.0
        assert rows[:1][0, 3] == 1.5 and rows[:] is not rows[:]
        for key in (0, -1, (0, 3), slice(None, None, 2), slice(None, None, -1), [0, 1]):
            with pytest.raises(TypeError, match="step-1 row slice"):
                rows[key]
        biased = rows.with_column(0.5)
        assert arrays_identical(biased[:], np.column_stack([dense, np.full(3, 0.5)]))


DENSE_CELLS = ["0", "-0", "-0.0", "+1.5", ".5", "5.", "1e-3", "-2E+2", "-7", "4.9e-324",
               "1.7976931348623157e308", " 2.5", "2.5\t", " -3 ", " 3", "3 "]
LABEL_CELLS = ["0", "1", "-1", "+1", " 1", "0 ", "\t+1", "-1 "]
# float() reads "1_0" and "\u0661" (as 10.0 and 1.0), numpy does not; numpy skips "\x1f"
BAD_DENSE_CELLS = ["1_0", "\u0661", "\x1f1.5", "1.5\x1f", "nan", "-inf", "1e400", "x", "",
                   "0x1p0", "1.5\x00", "\ufeff1", "1,5", "\u200b1", "1.0", "2", "+0", "-0",
                   "1e0", "true"]


@st.composite
def dense_files(draw):
    """A well-formed dense file as (header, rows of cells, newline)."""
    n_feat, n_lab = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    header = (",".join(f"f{i + 1}" for i in range(n_feat)) + "|"
              + ",".join(f"l{i + 1}" for i in range(n_lab)))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(DENSE_CELLS))
    rows = [[draw(value) for _ in range(n_feat)]
            + [draw(st.sampled_from(LABEL_CELLS)) for _ in range(n_lab)]
            for _ in range(draw(st.integers(1, 6)))]
    return header, rows, draw(st.sampled_from(["\n", "\r\n"]))


def render_dense(draw, header, rows, newline) -> list[str]:
    """The file's lines as ``_read_text`` gives them, with blank lines mixed in."""
    text = [draw(st.sampled_from(["", " "])) if draw(st.booleans()) else None, header]
    for cells in rows:
        if draw(st.booleans()):
            text.append(draw(st.sampled_from(["", "  \t", "\x1f"])))
        text.append(",".join(cells))
    return newline.join(t for t in text if t is not None).splitlines()


def dense_outcome(lines):
    """The arrays and names ``_load_dense`` gives, or its ParseError text and line."""
    try:
        features, labels, names = data._load_dense(lines)
    except ParseError as exc:
        return str(exc), exc.line
    return (features.tobytes(), features.shape, features.dtype, features.flags.c_contiguous,
            labels.tobytes(), labels.shape, labels.dtype, names)


def per_line_outcome(lines):
    """``dense_outcome`` with the whole-file path switched off."""
    with mock.patch.object(data, "_dense_rows", lambda rows, n_feat, n_lab: None):
        return dense_outcome(lines)


def whole_file_path_taken(lines) -> bool:
    """Whether ``_load_dense`` got its arrays from the whole-file path."""
    results, real = [], data._dense_rows
    with mock.patch.object(data, "_dense_rows", lambda *a: results.append(real(*a))):
        dense_outcome(lines)
    return bool(results) and results[0] is not None


class TestWholeFileDenseParser:
    """The one-call dense parser against the per-line parser it falls back to."""

    @settings(max_examples=150, deadline=None)
    @given(dense_files(), st.data())
    def test_matches_per_line_parser_without_falling_back(self, file, draw):
        lines = render_dense(draw.draw, *file)
        expected = per_line_outcome(lines)
        assert len(expected) == 8
        # every data row of a valid file sends its feature cells through _parse_float
        with mock.patch.object(data, "_parse_float", must_not_fall_back):
            assert dense_outcome(lines) == expected

    @settings(max_examples=200, deadline=None)
    @given(dense_files(), st.data())
    def test_one_corrupt_cell_gives_the_same_error(self, file, draw):
        header, rows, newline = file
        rows = [list(r) for r in rows]
        r = draw.draw(st.integers(0, len(rows) - 1))
        c = draw.draw(st.integers(0, len(rows[r]) - 1))
        if draw.draw(st.booleans()):
            rows[r][c] = draw.draw(st.sampled_from(BAD_DENSE_CELLS))
        else:
            del rows[r][c]  # a ragged row
        lines = render_dense(draw.draw, header, rows, newline)
        expected = per_line_outcome(lines)
        assert dense_outcome(lines) == expected
        if len(expected) == 2:  # an error names its line
            assert expected[1] is not None

    @pytest.mark.parametrize("text,whole_file,error", [
        pytest.param("f1,f2|l1\n1_0,2,1\n", False, None, id="underscore"),
        pytest.param("f1,f2|l1\n\x1f1.5,2,1\n", False, "line 2: non-numeric feature '1.5'",
                     id="unit-separator"),
        pytest.param("f1,f2|l1\n 1.5 ,\t2\t,1\n", True, None, id="padded"),
        pytest.param("f1|l1,l2\n1,+1,0\n2, -1 ,1\n", True, None, id="label-symbols"),
        pytest.param("f1|l1\n1,1\n2,1.0\n", False, "line 3: unknown label symbol '1.0'",
                     id="float-label"),
        pytest.param("f1|l1\n1,1\nnan,0\n", False, "line 3: non-finite feature 'nan'", id="nan"),
        pytest.param("f1,f2|l1\n1,2,1\n1,1\n", False, "line 3: expected 3 columns, found 2",
                     id="ragged"),
        pytest.param("f1|l1\r\n1,1\r\n2,0\r\n", True, None, id="crlf"),
        pytest.param("\n  \nf1|l1\n\n1,1\n \t\n2,0\n\n", True, None, id="blank-lines"),
        pytest.param("\ufefff1|l1\n1,1\n", True, None, id="byte-order-mark"),
        pytest.param("f1,f2|l1\n0.5,-0.25,+1\n", True, None, id="single-row"),
        pytest.param("f1|l1\n\n", False, "file contains no data rows", id="header-only"),
        pytest.param("\n  \nf1,f2|l1\n\n1,2,1\n1,1\n", False,
                     "line 6: expected 3 columns, found 2", id="ragged-after-blank-lines"),
    ])
    def test_named_edge_cells(self, tmp_path, text, whole_file, error):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        lines = data._read_text(path)
        expected = per_line_outcome(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on input with no rows
            assert dense_outcome(lines) == expected
            assert whole_file_path_taken(lines) == whole_file
        if error is None:
            assert len(expected) == 8
        else:
            assert expected[0] == error


class TestReadText:
    @pytest.mark.parametrize("fmt,text", [
        (SPARSE, "1 1:0.5\n# note\n2,3 2:1\n"),
        ("dense-csv", "\n" + DENSE_SAMPLE),
    ])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, fmt, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(("\ufeff" + text).encode())
        spec = DatasetSpec(format=fmt)
        expected, got = load_dataset(plain, spec), load_dataset(marked, spec)
        assert arrays_identical(got.feature_matrix, expected.feature_matrix)
        assert arrays_identical(got.labels, expected.labels)
        assert got.label_names == expected.label_names

    @pytest.mark.parametrize("raw,position", [(b"ab\xff", 2), (b"\xef\xbb\xbfab\xff", 5)])
    def test_a_decoding_error_gives_the_offset_in_the_file(self, tmp_path, raw, position):
        path = tmp_path / "bad.txt"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=f"byte 0xff in position {position}:"):
            data._read_text(path)

    def test_the_file_is_held_at_most_two_and_a_half_times(self, tmp_path):
        line = "1,3 " + " ".join(f"{i}:0.{i:04d}" for i in range(1, 50))
        path = tmp_path / "big.txt"
        path.write_text("\n".join([line] * (2**20 // len(line) + 1)) + "\n")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            lines = data._read_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size >= 2**20 and lines[0] == line
        assert peak <= 2.5 * size, peak / size


class TestFeaturePreparation:
    def test_global_max_norm_hits_one_exactly(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2|l1\n3,4,1\n0.3,0.4,0\n")
        ds = load_dataset(path, DatasetSpec(normalization="global-max-norm"))
        norms = np.linalg.norm(ds.feature_matrix, axis=1)
        assert norms.max() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(ds.features[0], [0.6, 0.8])

    def test_labels_unchanged_by_scaling(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1,l2\n5,1,0\n")
        ds = load_dataset(path, DatasetSpec(normalization="global-max-norm"))
        assert np.array_equal(ds.labels[0], [1, -1])

    def test_reused_scale_constant(self, tmp_path):
        train_path = tmp_path / "train.csv"
        train_path.write_text("f1|l1\n4,1\n2,0\n")
        test_path = tmp_path / "test.csv"
        test_path.write_text("f1|l1\n8,1\n")
        train = load_dataset(train_path, DatasetSpec(normalization="global-max-norm"))
        scale = 4.0
        test = scale_features(load_dataset(test_path, DatasetSpec()), scale)
        # test vector scaled by the training constant, exceeding 1 is allowed
        assert test.features[0, 0] == pytest.approx(2.0)
        assert train.features[0, 0] == pytest.approx(1.0)

    def test_add_bias_keeps_norm_bound(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2|l1\n3,4,1\n1,0,0\n")
        ds = load_dataset(
            path, DatasetSpec(normalization="global-max-norm", add_bias=True)
        )
        assert ds.num_features == 3
        norms = np.linalg.norm(ds.feature_matrix, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        # bias appended after normalization, then the 1/sqrt(2) rescale
        assert ds.features[0, -1] == pytest.approx(1 / np.sqrt(2))

    def test_scale_must_be_positive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1|l1\n1,1\n")
        ds = load_dataset(path, DatasetSpec())
        with pytest.raises(DataError):
            scale_features(ds, 0.0)

    @pytest.mark.parametrize("scale", [np.inf, np.nan])
    def test_scale_must_be_finite_and_positive(self, scale):
        ds = MultilabelDataset(np.ones((1, 1)), np.ones((1, 1)), ("l1",))
        with pytest.raises(DataError, match="positive and finite"):
            scale_features(ds, scale)

    def test_overflowing_row_norm_gives_a_refused_scale(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2|l1\n1e300,1e300,1\n")
        raw = load_dataset(path, DatasetSpec())
        assert compute_feature_scale(raw) == np.inf
        with pytest.raises(DataError, match="got inf"):
            load_dataset(path, DatasetSpec(normalization="global-max-norm"))

    @pytest.mark.parametrize("text,fmt", [("f1,f2|l1\n0.5,0,1\n", "dense-csv"),
                                          ("1 1:0.5\n", SPARSE)])
    def test_scale_whose_quotient_overflows_is_refused(self, tmp_path, text, fmt):
        path = tmp_path / "d.txt"
        path.write_text(text)
        raw = load_dataset(path, DatasetSpec(format=fmt))
        with pytest.raises(DataError, match="overflows"):
            add_bias_column(scale_features(raw, 5e-324))
        # a quotient that stays finite is kept, however large
        ds = add_bias_column(scale_features(raw, 1e-300))
        assert ds.feature_matrix[0, 0] == 0.5 / 1e-300 * (1.0 / np.sqrt(2.0))


    @pytest.mark.parametrize("text,fmt", [("f1,f2|l1\n3,4,1\n", "dense-csv"),
                                          ("1 1:3 2:4\n", SPARSE)])
    @pytest.mark.parametrize("scale", [np.nan, -2.0])
    def test_reused_scale_that_is_not_positive_is_refused(self, tmp_path, text, fmt, scale):
        path = tmp_path / "d.txt"
        path.write_text(text)
        raw = load_dataset(path, DatasetSpec(format=fmt))
        with pytest.raises(DataError, match=f"positive and finite, got {scale!r}"):
            scale_features(raw, scale)

    @pytest.mark.parametrize("text,fmt", [("f1,f2|l1\n3,4,1\n", "dense-csv"),
                                          ("1 1:3 2:4\n", SPARSE)])
    def test_reused_scale_of_zero_leaves_features_unscaled(self, tmp_path, text, fmt):
        # a zero scale comes from all-zero training features
        path = tmp_path / "d.txt"
        path.write_text(text)
        raw = load_dataset(path, DatasetSpec(format=fmt))
        assert data._prepare(raw, 0.0, False).feature_matrix.tolist() == [[3.0, 4.0]]
        # predict leaves the data of a model whose feature scale is 0 unscaled too
        params = ModelParams(np.array([[1.0, -1.0]]), np.zeros((1, 1)), 1, 2)
        model, out = tmp_path / "m.json", tmp_path / "p.txt"
        model.write_text(save_model(params, RegularizationConfig(), {"feature_scale": 0.0}))
        assert main(["predict", str(model), str(path), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == "-1\n"  # sign(3 - 4); the refused scale 0 would exit 3


class TestGenerateToy:
    def test_label_rule_examples(self):
        # evaluate the labeling rule on chosen points
        assert (TOY_ETA1, TOY_ETA2) == ((1.0, 1.0, -0.5), (-1.0, 1.0, -0.5))
        eta1, eta2 = np.array(TOY_ETA1), np.array(TOY_ETA2)
        for x, expected in [
            (np.array([0.5, 0.5]), (1, 1)),
            (np.array([-0.5, -0.4]), (-1, -1)),
            (np.array([-0.5, 0.5]), (-1, 1)),
        ]:
            xt = np.append(x, 1.0)
            y1 = 1 if eta1 @ xt >= 0 else -1
            y2 = 1 if (y1 == 1 or eta2 @ xt >= 0) else -1
            assert (y1, y2) == expected

    @pytest.mark.parametrize("split", [{"n_train": 0}, {"n_test": 0}])
    def test_empty_split_is_refused(self, split):
        with pytest.raises(DataError, match="^toy splits must contain at least one example$"):
            ToySpec(**split)

    @pytest.mark.parametrize("eta1,eta2", [
        ((1.0, 1.0, -0.5), (-1.0, 1.0, -0.5)),
        ((0.0, 0.0, 0.0), (0.3, -2.0, 0.1)),  # every first label is a tie: +1
        ((0.3, -2.0, 0.1), (0.0, 0.0, 0.0)),  # every second label is a tie: +1
    ])
    def test_labels_follow_the_rule_row_by_row(self, monkeypatch, eta1, eta2):
        monkeypatch.setattr(data, "TOY_ETA1", eta1)
        monkeypatch.setattr(data, "TOY_ETA2", eta2)
        train, test = generate_toy(ToySpec(n_train=200, n_test=50, seed=11))
        for ds in (train, test):
            assert ds.labels.dtype == np.int8
            for x, labels in zip(ds.features, ds.labels):
                xt = np.append(x, 1.0)
                y1 = 1 if np.asarray(eta1) @ xt >= 0 else -1
                y2 = 1 if (y1 == 1 or np.asarray(eta2) @ xt >= 0) else -1
                assert tuple(labels) == (y1, y2)

    def test_split_sizes_and_dimensions(self):
        train, test = generate_toy(ToySpec(n_train=120, n_test=80, seed=3))
        assert len(train) == 120 and len(test) == 80
        assert train.num_features == 2 and train.num_labels == 2

    def test_instances_on_unit_disc(self):
        train, test = generate_toy(ToySpec(n_train=300, n_test=10, seed=4))
        norms = np.linalg.norm(train.feature_matrix, axis=1)
        assert norms.max() <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_impossible_combination_never_appears(self, seed):
        train, test = generate_toy(ToySpec(n_train=60, n_test=60, seed=seed))
        for ds in (train, test):
            labels = ds.label_matrix
            assert not np.any((labels[:, 0] == 1) & (labels[:, 1] == -1))

    def test_deterministic_per_seed(self):
        a_train, a_test = generate_toy(ToySpec(n_train=50, n_test=50, seed=7))
        b_train, b_test = generate_toy(ToySpec(n_train=50, n_test=50, seed=7))
        assert np.array_equal(a_train.feature_matrix, b_train.feature_matrix)
        assert np.array_equal(a_test.label_matrix, b_test.label_matrix)


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        train, _ = generate_toy(ToySpec(n_train=40, n_test=1, seed=5))
        path = tmp_path / "toy.csv"
        write_dense_csv(train, path)
        loaded = load_dataset(path, DatasetSpec())
        assert np.array_equal(loaded.feature_matrix, train.feature_matrix)
        assert np.array_equal(loaded.label_matrix, train.label_matrix)
        assert loaded.label_names == train.label_names

    def test_written_files_deterministic(self, tmp_path):
        train, _ = generate_toy(ToySpec(n_train=20, n_test=1, seed=7))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dense_csv(train, p1)
        write_dense_csv(train, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFuzzLoaders:
    @pytest.mark.parametrize("fmt,content", [
        ("dense-csv", DENSE_SAMPLE),
        ("sparse-multilabel", SPARSE_SAMPLE),
    ])
    def test_random_byte_mutations_never_crash(self, tmp_path, fmt, content):
        rng = np.random.default_rng(2024)
        base = content.encode("utf-8")
        path = tmp_path / "fuzz.dat"
        for _ in range(200):
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(data)))
                data[pos] = int(rng.integers(0, 256))
            path.write_bytes(bytes(data))
            try:
                load_dataset(path, DatasetSpec(format=fmt))
            except (ParseError, DataError):
                pass  # positioned rejection is the contract; crashes are not


class TestSampleFromModel:
    def test_matches_enumerated_distribution(self):
        # beta = 0 makes the label law independent of x; frequencies must
        # approach the enumerated probabilities
        params = ModelParams(np.zeros((2, 2)), {(0, 1): 0.5}, 2, 2)
        ds = sample_from_model(params, n=4000, seed=0)
        labels = ds.label_matrix
        p_equal = np.mean(labels[:, 0] == labels[:, 1])
        e = np.exp(0.5)
        expected = 2 * e / (2 * e + 2 * np.exp(-0.5))
        assert p_equal == pytest.approx(expected, abs=0.03)

    def test_deterministic_and_in_unit_ball(self):
        params = ModelParams(np.ones((2, 3)) * 0.2, {(0, 1): -0.3}, 2, 3)
        a = sample_from_model(params, n=50, seed=9)
        b = sample_from_model(params, n=50, seed=9)
        assert np.array_equal(a.feature_matrix, b.feature_matrix)
        assert np.array_equal(a.label_matrix, b.label_matrix)
        assert np.linalg.norm(a.feature_matrix, axis=1).max() <= 1.0

    def test_a_model_without_features_is_refused(self):
        # the radius u ** (1 / d) has no meaning at d = 0
        with pytest.raises(DataError, match=r"^sampling x from the unit ball needs at least one feature, got 0$"):
            sample_from_model(ModelParams.zeros(2, 0), 3, 0)
