"""Matrix file formats, preprocessing, and result serialization."""

import csv
import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from bayesid import io
from bayesid.errors import ConfigurationError, InputError, ParseError
from bayesid.io import (
    FORMAT_MATRIX_MARKET,
    PreprocessConfig,
    load_matrix,
    preprocess,
    preprocess_in_place,
    read_trace_csv,
    save_matrix,
    save_result,
    write_trace_csv,
)
from bayesid.model import Hyperparameters, ObservedMatrix
from bayesid.sampler import GibbsTrace, run_gibbs


class TestCsvFormat:
    def test_empty_field_means_unobserved(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,\n")
        data = load_matrix(p)
        npt.assert_array_equal(data.values, [[1.0, 2.0], [3.0, 0.0]])
        npt.assert_array_equal(data.mask, [[True, True], [True, False]])

    def test_header_skipped_on_request(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("colA,colB\n1.5,-2\n")
        data = load_matrix(p, has_header=True)
        npt.assert_array_equal(data.values, [[1.5, -2.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2

    def test_non_numeric_field_location_reported(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_non_finite_field_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,inf\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError):
            load_matrix(tmp_path / "nope.csv")

    def test_round_trip_preserves_extreme_values(self, tmp_path):
        values = np.array([[1e-300, np.pi], [-1e300, 0.1]])
        mask = np.array([[True, True], [True, False]])
        data = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
        p = tmp_path / "a.csv"
        save_matrix(p, data)
        back = load_matrix(p)
        npt.assert_array_equal(back.values, data.values)
        npt.assert_array_equal(back.mask, mask)


# (id, file bytes, has_header)
_CSV_CASES = [
    ("lf", b"1,2\n3,4\n", False),
    ("crlf", b"1,2\r\n3,4\r\n", False),
    ("lone-cr", b"1,2\r3,4\r", False),
    ("no-final-newline", b"1,2\n3,4", False),
    ("mixed-line-ends", b"1,2\r\n3,4\n5,6\r7,8", False),
    ("blank-line-mid-file", b"1,2\n\n3,4\n", False),
    ("blank-line-at-end", b"1,2\n3,4\n\n", False),
    ("empty-fields", b",1,,,2,\n3,,4,5,6,\n,,,,,\n", False),
    ("one-column-blank-line", b"1\n\n3\n", False),
    ("one-column-empty-field", b'1\n""\n3\n', False),
    ("one-column-spaces-field", b"1\n  \n3\n", False),
    ("one-column", b"1\n-2.5\n3e2\n", False),
    ("one-row", b"1,2,3", False),
    ("quoted-numbers", b'"1.5",2\n3,"-4e1"\n', False),
    ("quoted-empty-field", b'1,""\n3,4\n', False),
    ("spaces-only-fields", b"1,  ,3\n4,5, \n", False),
    ("surrounding-spaces", b" 1.5 , -2 \n3,  4\n", False),
    ("tab-around-field", b"1,\t2\n3,4\n", False),
    ("tab-only-field", b"1,\t\n\t 3 \t,4\n", False),
    ("tab-inside-field", b"1,2\t3\n4,5\n", False),
    ("space-inside-field", b"1,2 3\n4,5\n", False),
    ("nan", b"1,nan\n3,4\n", False),
    ("inf", b"inf,2\n3,4\n", False),
    ("overflow", b"1,2\n3,1e999\n", False),
    ("negative-overflow", b"1,-1e999\n3,4\n", False),
    ("underflow", b"1e-999,2\n", False),
    ("underscore", b"1_0,2\n3,4\n", False),
    ("lone-sign-and-point", b"1,-\n.,4\n", False),
    ("signs-and-points", b"+.5,1.,-0,+0e-0\n", False),
    ("letters", b"1,2\n3,oops\n", False),
    ("ragged", b"1,2,3\n4,5\n", False),
    ("ragged-empty-tail", b"1,2,3\n4,5,\n6,7\n", False),
    ("empty-file", b"", False),
    ("bom", b"\xef\xbb\xbf1,2\n3,4\n", False),
    ("bom-in-header", b"\xef\xbb\xbfa,b\n1,2\n", True),
    ("invalid-utf8", b"1,2\n\xff,4\n", False),
    ("invalid-utf8-late", b"1,2\n" * 3000 + b"\xff,4\n", False),
    ("invalid-utf8-in-header", b"a\xff,b\n1,2\n", True),
    ("header", b"colA,colB\n1.5,-2\n", True),
    ("header-only", b"colA,colB\n", True),
    ("header-crlf-with-empty-fields", b"a,b,c\r\n1,,3\r\n,5,\r\n", True),
    ("quoted-header", b'"a","b"\n1,2\n', True),
    ("quoted-header-two-lines", b'"col\nA",colB\n1,2\n', True),
    ("quoted-header-two-lines-then-letters", b'"col\nA",colB\n1,x\n', True),
    ("quoted-field-two-lines-then-ragged", b'1,"2\n"\n3\n', False),
    ("unclosed-quote-header", b'"a\n1,2\n3,4\n', True),
    ("hard-rounding", b"2.2250738585072011e-308,9007199254740993,5e-324,2.4703282292062328e-324\n"
     b"1.00000000000000011102230246251565404236316680908203125,0.30000000000000001665,"
     b"9007199254740991.5,4.9406564584124654e-324\n", False),
    ("halfway-17-digit", b"1.0000000000000001,0.10000000000000001,123456789012345678,"
     b"1.7976931348623157e308\n", False),
    ("quoted-field-last-line", b'1,,2\n3,4,\n"5",6,\n', False),
    ("nan-beside-empty-field", b"1,,nan\n3,4,5\n", False),
    ("unicode-digits", "\u0661\u0662,\uff13\n4,5\n".encode(), False),
    ("no-break-space-field", "1,\u00a0\n3,4\n".encode(), False),
    ("control-whitespace-around-field", b"\x1c1\x1c,2\n3,4\n", False),
    ("nul-in-field", b"1\x00,2\n3,4\n", False),
    ("quoted-comma", b'1,"2,5"\n3,4\n', False),
    ("blank-first-line", b"\n1,2\n3,4\n", False),
]


def _reference_read(path, has_header):
    """The csv-module reader, field by field: csv.reader rows of one width,
    each field stripped and read by ``float``, an empty one unobserved; a
    fault's line is the physical line its row ends on."""
    values, mask, width = [], [], None
    with io.open_input(path) as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            line_no = reader.line_num
            if has_header and row_no == 1:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"expected {width} fields, found {len(row)}", line=line_no)
            if not row:
                raise ParseError("empty row", line=line_no)
            for col_no, field in enumerate(row, start=1):
                field = field.strip()
                if field == "":
                    values.append(0.0)
                    mask.append(False)
                    continue
                try:
                    v = float(field)
                except ValueError:
                    raise ParseError(f"not a number: {field!r}", line=line_no, column=col_no) from None
                if not math.isfinite(v):
                    raise ParseError(f"non-finite value {field!r}", line=line_no, column=col_no)
                values.append(v)
                mask.append(True)
    if width is None:
        raise ParseError("file contains no data rows", line=1)
    return ObservedMatrix(values=np.array(values).reshape(-1, width),
                          mask=np.array(mask, dtype=bool).reshape(-1, width))


def _count_opens(monkeypatch):
    """Record the path of every file ``io`` opens for reading from now on."""
    opened = []
    open_input = io.open_input
    monkeypatch.setattr(io, "open_input", lambda path: opened.append(path) or open_input(path))
    return opened


class TestCsvReaderEquivalence:
    """Every CSV gives what the field-by-field reference gives: the same
    value bits and mask, or the same error, message and location."""

    @staticmethod
    def _outcome(read, path, has_header):
        try:
            data = read(path, has_header=has_header)
        except (ParseError, InputError) as exc:
            return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
        return data.values.view(np.uint64).tolist(), data.mask.tolist()

    @pytest.mark.parametrize("text, has_header", [c[1:] for c in _CSV_CASES], ids=[c[0] for c in _CSV_CASES])
    def test_same_result_as_csv_module_reader(self, tmp_path, text, has_header):
        p = tmp_path / "a.csv"
        p.write_bytes(text)
        assert self._outcome(load_matrix, p, has_header) == self._outcome(_reference_read, p, has_header)

    def test_reads_each_file_once(self, tmp_path, monkeypatch):
        opened = _count_opens(monkeypatch)
        for name, text, has_header in _CSV_CASES:
            p = tmp_path / f"{name}.csv"
            p.write_bytes(text)
            self._outcome(load_matrix, p, has_header)
            assert opened == [p], name
            opened.clear()

    def test_fault_after_a_two_line_header_is_located_on_its_physical_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b'"col\nA",colB\n1,x\n')
        with pytest.raises(ParseError) as exc:
            load_matrix(p, has_header=True)
        assert (exc.value.line, exc.value.column) == (3, 2)

    def test_workload_shaped_file_reads_no_row_field_by_field(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(331)
        mask = rng.uniform(size=(50, 40)) >= 0.1
        values = np.where(mask, rng.normal(size=mask.shape) * 10.0 ** rng.integers(-5, 5, mask.shape), 0.0)
        p = tmp_path / "a.csv"
        p.write_text("".join(",".join("%.17g" % v if o else "" for v, o in zip(vals, obs)) + "\n"
                             for vals, obs in zip(values.tolist(), mask.tolist())))
        slow = []
        field_values = io._field_values
        monkeypatch.setattr(io, "_field_values", lambda *args: slow.append(args) or field_values(*args))
        data = load_matrix(p)
        assert slow == []
        npt.assert_array_equal(data.values.view(np.uint64), values.view(np.uint64))
        npt.assert_array_equal(data.mask, mask)


def _reference_csv_bytes(path, data):
    """The bytes of ``data`` written row by row through csv.writer, floats at %.17g."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for vals, obs in zip(data.values.tolist(), data.mask.tolist()):
            row = [v if o else None for v, o in zip(vals, obs)]
            writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])
    return path.read_bytes()


class TestCsvWriterBytes:
    @pytest.mark.parametrize("values, mask", [
        pytest.param([[1.5, -2.0, 3.0], [4.0, 0.0, 6.0], [0.0, 0.0, 0.0]],
                     [[True, True, True], [True, False, True], [False, False, False]], id="masked-rows"),
        pytest.param([[1.0], [0.0], [-3.5]], [[True], [False], [True]], id="one-column-unobserved"),
        pytest.param([[-0.0, 5e-324, 1e-300, 1e300], [np.pi, -1e300, 0.1, 2.0 ** 53 + 2]],
                     [[True] * 4, [True] * 4], id="extreme-values"),
    ])
    def test_bytes_equal_csv_writer_reference(self, tmp_path, values, mask):
        mask = np.array(mask)
        data = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
        save_matrix(tmp_path / "a.csv", data)
        assert (tmp_path / "a.csv").read_bytes() == _reference_csv_bytes(tmp_path / "ref.csv", data)
        back = load_matrix(tmp_path / "a.csv")
        npt.assert_array_equal(back.values.view(np.uint64), data.values.view(np.uint64))
        npt.assert_array_equal(back.mask, data.mask)

    def test_one_column_unobserved_entry_written_quoted_empty(self, tmp_path):
        data = ObservedMatrix(values=[[1.0], [0.0]], mask=[[True], [False]])
        save_matrix(tmp_path / "a.csv", data)
        assert (tmp_path / "a.csv").read_bytes() == b'1\r\n""\r\n'

    def test_random_matrices_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(337)
        for shape in ((200, 20), (20, 100)):
            data = ObservedMatrix.fully_observed(rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape))
            save_matrix(tmp_path / "a.csv", data)
            assert (tmp_path / "a.csv").read_bytes() == _reference_csv_bytes(tmp_path / "ref.csv", data)
            back = load_matrix(tmp_path / "a.csv")
            npt.assert_array_equal(back.values.view(np.uint64), data.values.view(np.uint64))
            assert back.mask.all()


class TestMatrixMarketFormat:
    def _write(self, tmp_path, body):
        p = tmp_path / "a.mtx"
        p.write_text(body)
        return p

    def test_coordinate_round_trip(self, tmp_path):
        rng = np.random.default_rng(113)
        mask = rng.uniform(size=(4, 3)) > 0.3
        mask[0, 0] = True
        values = np.where(mask, rng.normal(size=(4, 3)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        p = tmp_path / "a.mtx"
        save_matrix(p, data, fmt=FORMAT_MATRIX_MARKET)
        back = load_matrix(p)
        npt.assert_array_equal(back.values, data.values)
        npt.assert_array_equal(back.mask, data.mask)

    def test_extension_detection_and_comments(self, tmp_path):
        p = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% free-form comment\n"
            "2 2 2\n1 1 5.0\n2 2 -1.0\n",
        )
        data = load_matrix(p)
        npt.assert_array_equal(data.values, [[5.0, 0.0], [0.0, -1.0]])
        assert data.mask[0, 1] == False  # noqa: E712

    def test_integer_field_accepted(self, tmp_path):
        p = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer general\n2 1 1\n2 1 7\n",
        )
        data = load_matrix(p)
        npt.assert_array_equal(data.values, [[0.0], [7.0]])

    def test_bad_header_rejected(self, tmp_path):
        p = self._write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_duplicate_entry_rejected(self, tmp_path):
        p = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n1 1 6.0\n",
        )
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_out_of_range_index_rejected(self, tmp_path):
        p = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n",
        )
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_wrong_entry_count_rejected(self, tmp_path):
        p = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n",
        )
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_unknown_format_name_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1\n")
        with pytest.raises(ConfigurationError):
            load_matrix(p, fmt="parquet")


class TestPreprocess:
    def _full(self, values):
        return ObservedMatrix.fully_observed(np.asarray(values, dtype=float))

    def test_cap_clamps_large_values_from_above(self):
        data = self._full([[150.0, -2.0, 0.5], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        cfg = PreprocessConfig(standardize=False, duplicate_columns=False, min_observed_per_vector=0)
        out = preprocess(data, cfg)
        assert out.values[0, 0] == 100.0
        assert out.values[0, 1] == -2.0

    def test_undo_log_runs_before_cap(self):
        data = self._full([[np.log(200.0)]])
        cfg = PreprocessConfig(
            undo_log=True, standardize=False, duplicate_columns=False, min_observed_per_vector=0
        )
        out = preprocess(data, cfg)
        assert out.values[0, 0] == 100.0

    def test_undo_log_overflow_without_cap_rejected(self):
        data = self._full([[1e4]])
        cfg = PreprocessConfig(
            undo_log=True,
            cap_value=None,
            standardize=False,
            duplicate_columns=False,
            min_observed_per_vector=0,
        )
        with pytest.raises(InputError):
            with np.errstate(over="ignore"):
                preprocess(data, cfg)

    def test_sparse_rows_and_columns_dropped(self):
        mask = np.ones((5, 4), dtype=bool)
        mask[0, :] = [True, False, False, False]  # row 0: 1 observed
        mask[:, 3] = [False, False, False, True, True]  # col 3 short after row drop
        rng = np.random.default_rng(127)
        values = np.where(mask, rng.normal(size=(5, 4)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        cfg = PreprocessConfig(
            standardize=False, duplicate_columns=False, min_observed_per_vector=3
        )
        out = preprocess(data, cfg)
        assert out.shape == (4, 3)
        npt.assert_array_equal(out.values, values[1:, :3])
        npt.assert_array_equal(out.mask, mask[1:, :3])

    def test_everything_dropped_rejected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        data = ObservedMatrix(values=np.where(mask, 1.0, 0.0), mask=mask)
        with pytest.raises(InputError):
            preprocess(data, PreprocessConfig(duplicate_columns=False))

    def test_standardize_uses_observed_entries_only(self):
        rng = np.random.default_rng(131)
        mask = rng.uniform(size=(30, 4)) > 0.2
        values = np.where(mask, rng.normal(2.0, 3.0, size=(30, 4)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        cfg = PreprocessConfig(duplicate_columns=False, min_observed_per_vector=3)
        out = preprocess(data, cfg)
        for col in range(out.shape[1]):
            obs = out.values[:, col][out.mask[:, col]]
            npt.assert_allclose(obs.mean(), 0.0, atol=1e-12)
            npt.assert_allclose(obs.std(), 1.0, atol=1e-12)

    def test_unobserved_entries_zero_after_standardize(self):
        mask = np.ones((5, 4), dtype=bool)
        mask[3, 1] = False
        values = np.where(mask, np.random.default_rng(141).normal(size=(5, 4)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        out = preprocess(data, PreprocessConfig(duplicate_columns=False, min_observed_per_vector=3))
        assert out.values[3, 1] == 0.0

    def test_zero_variance_column_names_original_index(self):
        # column 0 is too sparse and gets dropped; the constant column sits
        # at original index 3 and must be reported under that index
        mask = np.ones((5, 4), dtype=bool)
        mask[1:, 0] = False
        rng = np.random.default_rng(137)
        values = np.where(mask, rng.normal(size=(5, 4)), 0.0)
        values[:, 3] = 2.5
        data = ObservedMatrix(values=values, mask=mask)
        with pytest.raises(InputError, match="column 3"):
            preprocess(data, PreprocessConfig(duplicate_columns=False, min_observed_per_vector=3))

    def test_duplication_doubles_columns_with_identical_twins(self):
        rng = np.random.default_rng(139)
        data = self._full(rng.normal(size=(6, 3)))
        out = preprocess(data, PreprocessConfig(standardize=False, min_observed_per_vector=0))
        assert out.shape == (6, 6)
        npt.assert_array_equal(out.values[:, 3:], out.values[:, :3])
        npt.assert_array_equal(out.values[:, :3], data.values)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PreprocessConfig(cap_value=np.nan)
        with pytest.raises(ConfigurationError):
            PreprocessConfig(min_observed_per_vector=-1)


    def test_undo_log_overflow_warns_nothing(self):
        data = self._full([[1000.0, 1.0], [2.0, 3.0]])
        cfg = PreprocessConfig(undo_log=True, cap_value=None, standardize=False,
                               duplicate_columns=False, min_observed_per_vector=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="non-finite"):
                preprocess(data, cfg)

    def test_column_without_observed_entries_stays_zero_and_warns_nothing(self):
        rng = np.random.default_rng(143)
        mask = np.ones((6, 3), dtype=bool)
        mask[:, 1] = False
        data = ObservedMatrix(values=np.where(mask, rng.normal(size=(6, 3)), 0.0), mask=mask)
        cfg = PreprocessConfig(duplicate_columns=False, min_observed_per_vector=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = preprocess(data, cfg)
        npt.assert_array_equal(out.values[:, 1], 0.0)
        npt.assert_array_equal(out.mask, mask)
        for col in (0, 2):
            npt.assert_allclose(out.values[:, col].mean(), 0.0, atol=1e-12)

    @pytest.mark.parametrize("undo_log", [False, True])
    def test_peak_below_1_6_float_arrays(self, undo_log):
        # the result itself is one copy of the values and one of the mask
        m, n = 400, 300
        rng = np.random.default_rng(149)
        mask = rng.uniform(size=(m, n)) < 0.9
        data = ObservedMatrix(values=np.where(mask, rng.normal(size=(m, n)), 0.0), mask=mask)
        cfg = PreprocessConfig(undo_log=undo_log, duplicate_columns=False)
        tracemalloc.start()
        try:
            preprocess(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * m * n * 8, f"peak {peak / (m * n * 8):.2f} M x N float arrays"

    @staticmethod
    def _peak_arrays(data, cfg):
        m, n = data.shape
        tracemalloc.start()
        try:
            preprocess(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (m * n * 8)

    @staticmethod
    def _masked(rng, m, n):
        mask = rng.uniform(size=(m, n)) < 0.9
        return np.where(mask, rng.normal(size=(m, n)), 0.0), mask

    def test_duplication_peak_below_2_4_float_arrays(self):
        # the 2N-wide result is 2.25 M x N float arrays; preprocessing a copy
        # and then concatenating it with itself peaks at 3.13
        values, mask = self._masked(np.random.default_rng(157), 400, 300)
        peak = self._peak_arrays(ObservedMatrix(values=values, mask=mask), PreprocessConfig())
        assert peak < 2.4, f"peak {peak:.2f} M x N float arrays"

    def test_row_drop_peak_below_1_5_float_arrays(self):
        # a row selection and then a column selection of the copy peak at 2.26
        values, mask = self._masked(np.random.default_rng(163), 400, 300)
        mask[7] = False
        mask[7, :2] = True
        values[~mask] = 0.0
        peak = self._peak_arrays(ObservedMatrix(values=values, mask=mask),
                                 PreprocessConfig(duplicate_columns=False))
        assert peak < 1.5, f"peak {peak:.2f} M x N float arrays"


def _gather_preprocess(data, cfg):
    """Preprocessing by gathering the observed entries at every step: the
    formulas ``preprocess`` computes in place, kept as its oracle."""
    values = data.values.copy()
    mask = data.mask.copy()
    with np.errstate(over="ignore"):
        if cfg.undo_log:
            values[mask] = np.exp(values[mask])
    if cfg.cap_value is not None:
        values[mask] = np.minimum(values[mask], cfg.cap_value)
    if not np.all(np.isfinite(values[mask])):
        raise InputError("preprocessing produced non-finite values (undo_log overflow without a cap?)")
    keep_rows = mask.sum(axis=1) >= cfg.min_observed_per_vector
    values, mask = values[keep_rows], mask[keep_rows]
    col_origin = np.flatnonzero(mask.sum(axis=0) >= cfg.min_observed_per_vector)
    values, mask = values[:, col_origin], mask[:, col_origin]
    if cfg.standardize:
        for col in range(values.shape[1]):
            obs = mask[:, col]
            seen = values[obs, col]
            sd = float(seen.std())
            if sd == 0.0:
                raise InputError(f"column {int(col_origin[col])} has zero observed variance")
            values[obs, col] = (seen - seen.mean()) / sd
    values[~mask] = 0.0
    if cfg.duplicate_columns:
        values = np.concatenate([values, values], axis=1)
        mask = np.concatenate([mask, mask], axis=1)
    return np.ascontiguousarray(values), np.ascontiguousarray(mask)


# rows and columns each drop case removes under min_observed_per_vector=3
_DROPS = {"none": (0, 0), "row": (1, 0), "column": (0, 1), "both": (1, 2)}
_ORACLE_CASES = list(itertools.product([False, True], [None, 2.0, -0.5], list(_DROPS), [False, True],
                                       [False, True]))


class TestPreprocessMatchesGatherOracle:
    @pytest.mark.parametrize("undo_log, cap, drops, standardize, duplicate", _ORACLE_CASES)
    def test_bit_identical(self, undo_log, cap, drops, standardize, duplicate):
        self._check(preprocess, undo_log, cap, drops, standardize, duplicate)

    @pytest.mark.parametrize("undo_log, cap, drops, standardize, duplicate", _ORACLE_CASES)
    def test_in_place_bit_identical(self, undo_log, cap, drops, standardize, duplicate):
        self._check(preprocess_in_place, undo_log, cap, drops, standardize, duplicate)

    @staticmethod
    def _check(pipeline, undo_log, cap, drops, standardize, duplicate):
        rng = np.random.default_rng(151)
        m, n = 37, 23
        mask = rng.uniform(size=(m, n)) < 0.85
        mask[:, 0] = True  # every row keeps at least 3 observed entries
        mask[:3, 1:] = True  # every column keeps at least 3 observed entries
        rows_dropped, cols_dropped = _DROPS[drops]
        if cols_dropped:
            mask[:, 9] = False
            mask[[4, 11], 9] = True
        if rows_dropped:
            mask[5] = False
            mask[5, [2, 7]] = True
        if drops == "both":
            # column 13 falls below 3 observed entries only once row 5 is dropped
            mask[5, 7] = False
            mask[:, 13] = False
            mask[[5, 8, 12], 13] = True
        values = np.where(mask, rng.normal(0.5, 1.5, size=(m, n)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        cfg = PreprocessConfig(cap_value=cap, undo_log=undo_log, standardize=standardize,
                               duplicate_columns=duplicate, min_observed_per_vector=3)
        try:
            want = _gather_preprocess(data, cfg)
        except InputError as exc:
            with pytest.raises(InputError, match=re.escape(str(exc))):
                pipeline(data, cfg)
            return
        out = pipeline(data, cfg)
        assert out.values.tobytes() == want[0].tobytes()
        npt.assert_array_equal(out.mask, want[1])
        # the layout decides how the matrix products downstream round
        assert (out.values.strides, out.mask.strides) == (want[0].strides, want[1].strides)
        assert out.shape == (m - rows_dropped, (n - cols_dropped) * (1 + duplicate))
        if pipeline is preprocess or duplicate:
            npt.assert_array_equal(data.values, values)  # the input is not modified
            npt.assert_array_equal(data.mask, mask)
        else:
            # the result lies at the front of the input's own buffers
            assert np.shares_memory(out.values, data.values)
            assert np.shares_memory(out.mask, data.mask)

    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("pipeline", [preprocess, preprocess_in_place], ids=["copy", "in_place"])
    def test_bit_identical_across_row_blocks(self, pipeline, duplicate):
        # the mask alone spans several of the blocks that the drop and the
        # duplication copy at a time, and the values many more
        m, n = 3000, 50
        assert m * n > 2 * io._BLOCK_BYTES
        rng = np.random.default_rng(173)
        mask = rng.uniform(size=(m, n)) < 0.9
        mask[[3, 1400, m - 1]] = False  # rows dropped in the first, a middle and the last block
        mask[:, 17] = False
        mask[:2, 17] = True
        values = np.where(mask, rng.normal(size=(m, n)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        cfg = PreprocessConfig(duplicate_columns=duplicate)
        want = _gather_preprocess(data, cfg)
        out = pipeline(data, cfg)
        assert out.values.tobytes() == want[0].tobytes()
        npt.assert_array_equal(out.mask, want[1])
        assert out.shape == (m - 3, (n - 1) * (1 + duplicate))

    def test_in_place_copies_a_column_major_input(self):
        rng = np.random.default_rng(167)
        mask = rng.uniform(size=(9, 6)) < 0.8
        values = np.asfortranarray(np.where(mask, rng.normal(size=(9, 6)), 0.0))
        data = ObservedMatrix(values=values, mask=np.asfortranarray(mask))
        cfg = PreprocessConfig(duplicate_columns=False, min_observed_per_vector=0)
        want = preprocess(data, cfg)
        out = preprocess_in_place(data, cfg)
        assert out.values.tobytes() == want.values.tobytes()
        assert not np.shares_memory(out.values, data.values)
        npt.assert_array_equal(data.values, values)


class TestSaveResult:
    def test_three_files_round_trip(self, tmp_path):
        rng = np.random.default_rng(149)
        c = rng.normal(size=(5, 2))
        w = rng.uniform(-1, 1, size=(2, 4))
        meta = {"method": "gbt", "k": 2, "mse": 0.125}
        save_result(tmp_path, c, w, meta)
        npt.assert_array_equal(load_matrix(tmp_path / "C.csv").values, c)
        npt.assert_array_equal(load_matrix(tmp_path / "W.csv").values, w)
        loaded = json.loads((tmp_path / "metadata.json").read_text())
        assert loaded == meta

    def test_metadata_is_stable_bytes(self, tmp_path):
        meta = {"b": 1, "a": [1, 2]}
        save_result(tmp_path / "x", np.ones((1, 1)), np.ones((1, 1)), meta)
        save_result(tmp_path / "y", np.ones((1, 1)), np.ones((1, 1)), dict(reversed(meta.items())))
        assert (tmp_path / "x" / "metadata.json").read_bytes() == (
            tmp_path / "y" / "metadata.json"
        ).read_bytes()


class TestTraceCsv:
    def _trace(self):
        rng = np.random.default_rng(151)
        data = ObservedMatrix.fully_observed(rng.normal(size=(6, 5)))
        hp = Hyperparameters(k=2, iterations=12, burn_in=3, thinning=1)
        _, trace = run_gibbs(data, hp, rng)
        return trace

    def test_round_trip(self, tmp_path):
        trace = self._trace()
        p = tmp_path / "trace.csv"
        write_trace_csv(p, trace)
        back = read_trace_csv(p)
        assert isinstance(back, GibbsTrace)
        npt.assert_array_equal(back.mse_per_iter, trace.mse_per_iter)
        npt.assert_array_equal(back.mse_observed_per_iter, trace.mse_observed_per_iter)
        npt.assert_array_equal(back.sigma2_chain, trace.sigma2_chain)
        assert sorted(back.y_entry_chains) == sorted(trace.y_entry_chains)
        for pos, chain in trace.y_entry_chains.items():
            npt.assert_array_equal(back.y_entry_chains[pos], chain)
        # the file does not record swaps
        assert back.accepted_swaps is None
        # the iteration column is written 1-based but not returned
        npt.assert_array_equal(np.loadtxt(p, delimiter=",", skiprows=1, usecols=0), np.arange(1, 13))

    def test_reads_the_file_once(self, tmp_path, monkeypatch):
        p = tmp_path / "trace.csv"
        write_trace_csv(p, self._trace())
        opened = _count_opens(monkeypatch)
        read_trace_csv(p)
        assert opened == [p]

    def test_write_is_deterministic(self, tmp_path):
        trace = self._trace()
        write_trace_csv(tmp_path / "a.csv", trace)
        write_trace_csv(tmp_path / "b.csv", trace)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("step,mse\n1,0.5\n")
        with pytest.raises(ParseError):
            read_trace_csv(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("iteration,mse,mse_observed,sigma2,y_r0_c0\n1,0.5,0.5\n")
        with pytest.raises(ParseError):
            read_trace_csv(p)

    def test_empty_trace_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("iteration,mse,mse_observed,sigma2,y_r0_c0\n")
        with pytest.raises(ParseError):
            read_trace_csv(p)

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputError):
            read_trace_csv(tmp_path / "nope.csv")

    def test_empty_field_rejected_at_its_location(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("iteration,mse,mse_observed,sigma2,y_r0_c0\n1,0.5,0.5,0.1,0.2\n2,0.4,,0.1,0.3\n")
        with pytest.raises(ParseError) as exc:
            read_trace_csv(p)
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_empty_field_after_a_two_line_row_is_located_on_its_physical_line(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text('iteration,mse,mse_observed,sigma2,y_r0_c0\n1,0.5,0.5,"0.1\n",0.2\n2,0.4,,0.1,0.3\n')
        with pytest.raises(ParseError) as exc:
            read_trace_csv(p)
        assert (exc.value.line, exc.value.column) == (4, 3)
