import json
import math

import numpy as np
import pytest

from fstest.dataio import (
    Dataset,
    MalformedTable,
    format_cell,
    read_dataset,
    read_rows,
    write_json,
    write_rows,
)


class TestFormatCell:
    def test_floats_use_repr(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(1.0) == "1.0"
        assert format_cell(math.inf) == "inf"
        assert format_cell(-math.inf) == "-inf"
        assert format_cell(5e-324) == "5e-324"

    def test_numpy_scalars(self):
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(np.int64(7)) == "7"

    def test_bools_and_ints(self):
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"
        assert format_cell(42) == "42"

    def test_strings_pass_through(self):
        assert format_cell("t1") == "t1"

    def test_none_is_an_empty_cell(self):
        assert format_cell(None) == ""


class TestRowsRoundTrip:
    def test_floats_survive_exactly(self, tmp_path):
        path = tmp_path / "vals.csv"
        rows = [[0.1, 1 / 3, math.pi], [math.inf, 1e-300, -0.0]]
        write_rows(path, rows, header=["a", "b", "c"])
        header, back = read_rows(path)
        assert header == ["a", "b", "c"]
        parsed = [[float(cell) for cell in row] for row in back]
        assert parsed == rows

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        header, rows = read_rows(path)
        assert header == ["x", "y"]
        assert rows == [["1", "2"], ["3", "4"]]

    def test_headerless_numeric_first_row(self, tmp_path):
        path = tmp_path / "nohead.csv"
        path.write_text("1.5,2.5\n3,4\n")
        header, rows = read_rows(path)
        assert header is None
        assert rows == [["1.5", "2.5"], ["3", "4"]]

    def test_inf_counts_as_numeric(self, tmp_path):
        # a leading row of inf cells is data, not a header
        path = tmp_path / "inf.csv"
        path.write_text("inf,2\n3,4\n")
        header, rows = read_rows(path)
        assert header is None
        assert len(rows) == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        _, rows = read_rows(path)
        assert len(rows) == 2

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "out" / "clean.csv"
        write_rows(path, [[1.0]], header=["v"])
        leftovers = [p for p in path.parent.iterdir() if p.name != "clean.csv"]
        assert leftovers == []

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            write_json(path, {"v": math.inf})
        assert list(tmp_path.iterdir()) == []


class TestReadDataset:
    def test_reads_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        write_rows(path, [[1.0, 2.0], [3.0, 4.0]], header=["x1", "x2"])
        ds = read_dataset(path)
        assert ds.columns == ("x1", "x2")
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "cell", ["2", " 1.5", "\t-2.5\t", " 3e2 ", "-7.25E-3", "1e+2", "-0", "1e-320", "1_000"]
    )
    def test_headerless(self, tmp_path, cell):
        # every cell reads bit-equal to float of its stripped text, the sign of -0 too
        path = tmp_path / "m.csv"
        path.write_text(f"1,{cell}\n3,4\n")
        ds = read_dataset(path)
        assert ds.columns is None
        assert ds.values.shape == (2, 2)
        want = np.array([[1.0, float(cell.strip())], [3.0, 4.0]])
        assert np.array_equal(ds.values.view(np.int64), want.view(np.int64))

    @staticmethod
    def table(path, faults):
        """A header and 99 rows of 2 cells (file rows 2-100), with ``faults``
        mapping a 1-based file row to its text."""
        lines = ["x,y"] + [f"{r}.5,-{r}" for r in range(2, 101)]
        for row, text in faults.items():
            lines[row - 1] = text
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "faults, row",
        [
            ({3: "3,apple"}, 3),
            ({57: "1,two"}, 57),
            ({57: "1, two", 80: "1"}, 57),
            ({57: "1,", 80: "x,y"}, 57),
        ],
    )
    def test_non_numeric_cell_reports_position(self, tmp_path, faults, row):
        path = self.table(tmp_path / "bad.csv", faults)
        with pytest.raises(MalformedTable, match=rf"row {row}, column 2: "):
            read_dataset(path)

    @pytest.mark.parametrize("faults, row", [({3: "3"}, 3), ({80: "1"}, 80), ({80: "1,2,3", 90: "1,x"}, 80)])
    def test_ragged_rows_rejected(self, tmp_path, faults, row):
        path = self.table(tmp_path / "ragged.csv", faults)
        with pytest.raises(MalformedTable, match=rf"row {row} has \d cells, expected 2"):
            read_dataset(path)

    @pytest.mark.parametrize("short_row", [False, True])
    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf", "1e400", " -1E400", "NaN"])
    def test_non_finite_rejected(self, tmp_path, cell, short_row):
        # every row has the right width, or a later row is short and the first fault wins
        faults = {57: f"1,{cell}", 80: "1"} if short_row else {57: f"1,{cell}"}
        path = self.table(tmp_path / "inf.csv", faults)
        with pytest.raises(MalformedTable, match=rf"row 57, column 2: {cell.strip()!r} is not a finite real"):
            read_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedTable):
            read_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "headonly.csv"
        path.write_text("x,y\n")
        with pytest.raises(MalformedTable):
            read_dataset(path)

    @pytest.mark.parametrize("text", ["0.1,0.2\n0.3,0.4\n0.5,0.6\n", "x,y\n0.1,0.2\n0.3,0.4\n"])
    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, text):
        # a spreadsheet's "CSV UTF-8" starts with a BOM; the first row stays data, the header clean
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = read_dataset(plain), read_dataset(marked)
        assert got.columns == want.columns
        assert np.array_equal(got.values, want.values)

    def test_text_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("caf\xe9,y\n1,2\n".encode("latin-1"))
        with pytest.raises(MalformedTable, match=r"latin1\.csv: not UTF-8 text$"):
            read_dataset(path)

    def test_unterminated_quote_names_itself(self, tmp_path):
        # without strict quoting the open quote swallows the rest of the file, leaving one header row
        path = tmp_path / "quote.csv"
        path.write_text('1,"2\n3,4\n')
        with pytest.raises(MalformedTable, match=r'quote\.csv: line 2: unexpected end of data$'):
            read_dataset(path)


class TestDataset:
    def test_values_read_only(self):
        ds = Dataset(np.ones((2, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 5.0

    def test_column_count_must_match(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 3)), ("a", "b"))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), None)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            Dataset(np.ones(4), None)


class TestWriteJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {"alpha": 0.05, "rates": [0.1, 0.2], "label": "t1"}
        write_json(path, payload)
        assert json.loads(path.read_text()) == payload

    def test_nested_directories_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "r.json"
        write_json(path, {"ok": 1})
        assert path.exists()
