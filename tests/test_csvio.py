"""Tests for the fixed-dialect CSV layer."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import comment_lines, peak_allocation

from loopfwm.config import default_config_text, parse_config
from loopfwm.csvio import (
    _BLOCK_LINES,
    CsvParseError,
    _cell_fields,
    format_float,
    read_table,
    write_grid,
    write_table,
)
from loopfwm.jsd import simulate_jsd_scan
from loopfwm.ring import linewidth_ghz


class TestRoundTrip:
    def test_preserves_values_and_header(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "table.csv"
        xs = np.sort(rng.uniform(1540.0, 1560.0, size=50))
        ys = rng.uniform(0.0, 1.0, size=50)
        write_table(path, ("wavelength_nm", "through"), (xs, ys))
        header, data = read_table(path)
        assert header == ("wavelength_nm", "through")
        assert comment_lines(path) == ()
        np.testing.assert_allclose(data[:, 0], xs, rtol=1e-11)
        np.testing.assert_allclose(data[:, 1], ys, rtol=1e-11, atol=1e-14)

    def test_comments_survive(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(
            path,
            ("x", "y"),
            (np.array([1.0]), np.array([2.0])),
            comments=("grid metadata",),
            trailer_comments=("loglog_slope = 2",),
        )
        assert comment_lines(path) == ("grid metadata", "loglog_slope = 2")

    def test_lf_line_endings_and_dialect(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ("x", "y"), (np.array([1.5, 2.5]), np.array([0.25, 0.75])))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x,y\n1.5,0.25\n2.5,0.75\n"

    def test_identical_arrays_serialize_identically(self, tmp_path):
        values = np.linspace(0.0, 1.0, 101) * np.pi
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_table(first, ("v",), (values,))
        write_table(second, ("v",), (values,))
        assert first.read_bytes() == second.read_bytes()


class TestMalformedInput:
    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="line 3"):
            read_table(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="line 3"):
            read_table(path)

    def test_field_over_csv_limit_names_line(self, tmp_path):
        # The header is split by csv.reader, which limits a field's length;
        # numpy reads the same field in a data row as a number (inf).
        path = tmp_path / "big.csv"
        path.write_text('# exported\n"' + "x" * 131073 + '",y\n1.0,2.0\n', encoding="utf-8")
        with pytest.raises(CsvParseError) as caught:
            read_table(path)
        assert str(caught.value) == "line 2: field larger than field limit (131072)"

    @pytest.mark.parametrize("field", ["1_000", "\uff11"], ids=["underscore", "full_width"])
    def test_python_only_float_names_line(self, tmp_path, field):
        # Python's float() reads both; numpy's parser, which reads every row,
        # does not, and the re-read that names the line parses rows the same way.
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1.0,2.0\n{field},2.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as caught:
            read_table(path)
        assert str(caught.value) == (
            f"line 3: could not convert string '{field}' to float64 at column 1."
        )

    def test_rows_wider_than_header_name_first_row(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x,y\n# note\n\n1,2,3\n4,5,6\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as caught:
            read_table(path)
        assert str(caught.value) == "line 4: expected 2 fields, got 3"

    def test_malformed_row_past_numpy_chunk_names_line(self, tmp_path):
        # np.loadtxt reads a file in chunks of 50,000 lines.
        lines = ["x,y"] + [f"{i},{0.5 * i!r}" for i in range(60000)]
        lines[55000] = "55000,oops"
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as caught:
            read_table(path)
        assert str(caught.value) == (
            "line 55001: could not convert string 'oops' to float64 at column 2."
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ('x\n"1\n#"\n', "could not convert string '1\\n#' to float64 at column 1."),
            ('x,y\n"1\n#",2\n', "could not convert string '1\\n#' to float64 at column 1."),
            # Line 3 alone would quote its own fragment, '2"'.
            ('x,y\n"1\n2",3\n', "could not convert string '1\\n2' to float64 at column 1."),
        ],
        ids=["one_column", "two_columns", "fragment_parses_apart"],
    )
    def test_quoted_field_spanning_lines_names_its_last_line(self, tmp_path, text, message):
        # numpy reads a quoted field on past its newline, so the "#" is no
        # comment and the row ends on line 3.
        path = tmp_path / "quoted.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvParseError) as caught:
            read_table(path)
        assert str(caught.value) == f"line 3: {message}"

    def test_latin1_header_names_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("# exported\nwavelength_nm,drop µW\n1.0,0.5\n".encode("latin-1"))
        with pytest.raises(CsvParseError) as caught:
            read_table(path)
        assert str(caught.value) == (
            "line 2: 'utf-8' codec can't decode byte 0xb5 in position 19: invalid start byte"
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CsvParseError, match="no header"):
            read_table(path)

    def test_header_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("x,y\n", encoding="utf-8")
        header, data = read_table(path)
        assert header == ("x", "y")
        assert data.shape == (0, 2)


class TestForeignInput:
    def test_quotes_line_endings_and_interleaved_comments(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_bytes(
            b"# exported\r\n"
            b'"current, mA", power_mw ,"tap"\r\n'
            b'80,"1.5", 2e-3\r\n'
            b"\r\n"
            b"# mid-table note\r"
            b'"80.5",1.75,"-0"\r'
            b"\n"
            b" 81 ,2,inf\n"
            b"#\n"
            b"\r\n"
        )
        header, data = read_table(path)
        assert header == ("current, mA", "power_mw", "tap")
        np.testing.assert_array_equal(
            data, [[80.0, 1.5, 2e-3], [80.5, 1.75, -0.0], [81.0, 2.0, np.inf]]
        )
        assert np.signbit(data[1, 2])
        assert comment_lines(path) == ("exported", "mid-table note", "")

    @pytest.mark.parametrize("comments", [(), ("exported",)], ids=["header_first", "comment_first"])
    def test_byte_order_mark_is_dropped(self, tmp_path, comments):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        columns = (np.array([1555.8, 1555.9]), np.array([0.25, 0.5]))
        write_table(plain, ("wavelength_nm", "drop"), columns, comments, ("fit below",))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        header, data = read_table(marked)
        expected = read_table(plain)
        assert header == expected[0] == ("wavelength_nm", "drop")
        assert data.tobytes() == expected[1].tobytes()
        assert comment_lines(marked) == comment_lines(plain)


# Lines per block of the tables below, whose block edges hold the odd lines.
BLOCK = 1 << 10


def block_edge_lines(seed: int) -> list[str]:
    """Lines of a two-column table over three blocks of ``BLOCK`` lines and a
    remainder, each ending "\\n", "\\r\\n" or "\\r".  The last and first line
    of each pair of neighbouring blocks are two of: a ``#`` line, a blank line
    and a quoted row."""
    rng = np.random.default_rng(seed)
    shape = (3 * BLOCK + 41, 2)
    values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-30, 30, shape)
    lines = ["# exported\r\n", "x, y \n"]
    endings = ("\n", "\r\n", "\r")
    lines += [f"{x!r},{y!r}{endings[i % 3]}" for i, (x, y) in enumerate(values.tolist())]
    edges = (("# edge\r\n", "\r\n"), ("\n", '"-0", 1.5e-3 \r\n'), ('"inf","2"\n', "#\r\n"))
    for block, (last, first) in enumerate(edges, start=1):
        lines[block * BLOCK - 1 : block * BLOCK + 1] = [last, first]
        # A row ended by "\r" must not precede a blank line ended by "\n".
        lines[block * BLOCK - 2] = "1,2\n"
    return lines


def line_at_a_time(path):
    """The reference reader: one line at a time, every row through csv.reader."""
    header, rows, comments = None, [], []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for line in handle:
            line = line.rstrip("\r\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif line:
                fields = next(csv.reader([line]))
                if header is None:
                    header = tuple(field.strip() for field in fields)
                else:
                    rows.append([float(field) for field in fields])
    return header, np.array(rows), tuple(comments)


class TestBlockParse:
    def test_block_edges_match_line_at_a_time(self, tmp_path):
        path = tmp_path / "blocks.csv"
        lines = block_edge_lines(4)
        path.write_bytes("".join(lines).encode("utf-8"))
        header, data = read_table(path)
        expected = line_at_a_time(path)
        assert len(lines) > 3 * BLOCK
        assert header == expected[0] == ("x", "y")
        assert data.shape == expected[1].shape
        assert data.tobytes() == expected[1].tobytes()
        assert comment_lines(path) == expected[2] == ("exported", "edge", "")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,2,3", "expected 2 fields, got 3"),
            ('"1",oops', "could not convert string 'oops' to float64 at column 2."),
        ],
    )
    @pytest.mark.parametrize("offset", [1, 17], ids=["first_line", "inside"])
    def test_malformed_row_in_third_block_names_its_line(self, tmp_path, row, message, offset):
        path = tmp_path / "blocks.csv"
        lines = block_edge_lines(5)
        bad = 2 * BLOCK + offset
        lines[bad - 1] = row + "\r\n"
        lines[bad + 3] = "not,a,row\n"
        path.write_bytes("".join(lines).encode("utf-8"))
        with pytest.raises(CsvParseError) as raised:
            read_table(path)
        assert str(raised.value) == f"line {bad}: {message}"

    @pytest.mark.parametrize(
        "table, message",
        [
            ("x,,y\n1,2,3\n", "line 1025: empty column name in header"),
            ('x,y\n1,2\n"3",4\n5,6,7\n8,oops\n', "line 1028: expected 2 fields, got 3"),
        ],
        ids=["empty_name", "malformed_row"],
    )
    def test_header_in_second_block(self, tmp_path, table, message):
        path = tmp_path / "late_header.csv"
        preamble = "".join("# preamble\n" if i % 2 else "\n" for i in range(BLOCK))
        path.write_text(preamble + table, encoding="utf-8")
        with pytest.raises(CsvParseError) as raised:
            read_table(path)
        assert str(raised.value) == message

    def test_trace_reads_in_one_loadtxt_call(self, noisy_drop, tmp_path, monkeypatch):
        # A good table is one call on the open file, numpy's fastest source;
        # a bad last row costs two more, not one per line.
        calls = []
        loadtxt = np.loadtxt

        def counted(lines, *args, **kwargs):
            calls.append(lines)
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        assert read_table(noisy_drop)[1].shape == (60001, 2)
        assert len(calls) == 1
        assert isinstance(calls[0], io.TextIOWrapper) and calls[0].name == str(noisy_drop)
        text = noisy_drop.read_text(encoding="utf-8")
        bad = tmp_path / "bad_last_row.csv"
        bad.write_text(text[: text.rindex(",")] + ",oops\n", encoding="utf-8")
        calls.clear()
        with pytest.raises(CsvParseError) as caught:
            read_table(bad)
        assert len(calls) <= 3
        assert str(caught.value) == (
            "line 60002: could not convert string 'oops' to float64 at column 2."
        )

    def test_trace_peaks_below_one_and_a_half_arrays(self, noisy_drop):
        (header, data), peak = peak_allocation(lambda: read_table(noisy_drop))
        assert header == ("wavelength_nm", "drop")
        assert data.shape == (60001, 2)
        assert peak <= 1.5 * data.nbytes


class TestWriterValidation:
    def test_header_column_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            write_table(tmp_path / "t.csv", ("x",), (np.array([1.0]), np.array([2.0])))

    def test_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="equally long"):
            write_table(
                tmp_path / "t.csv", ("x", "y"), (np.array([1.0]), np.array([2.0, 3.0]))
            )

    def test_format_float_is_stable(self):
        assert format_float(np.pi) == format_float(3.141592653589793)
        assert format_float(2.0) == "2"


def per_cell_text(header, columns, trailer=(), comments=()) -> bytes:
    """Reference bytes: every cell through ``format_float``, joined by commas."""
    lines = [f"# {comment}" for comment in comments] + [",".join(header)]
    lines += [",".join(format_float(value) for value in row) for row in zip(*columns)]
    lines += [f"# {comment}" for comment in trailer]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestRowFormatting:
    """Rows are formatted with one call each; the bytes must equal the
    per-cell ``format_float`` text."""

    EDGE_VALUES = np.array(
        [
            -0.0,
            0.0,
            np.nan,
            np.inf,
            -np.inf,
            5e-324,
            1e-300,
            1e21,
            123456789012345.0,
            # Needs all 12 significant digits.
            0.123456789012,
            -1554.98765432101,
            np.pi,
        ]
    )

    def test_edge_values_match_per_cell_text(self, tmp_path):
        path = tmp_path / "edge.csv"
        columns = (self.EDGE_VALUES, self.EDGE_VALUES[::-1].copy(), -self.EDGE_VALUES)
        write_table(path, ("a", "b", "c"), columns)
        assert path.read_bytes() == per_cell_text(("a", "b", "c"), columns)

    def test_single_column(self, tmp_path):
        path = tmp_path / "single.csv"
        write_table(path, ("v",), (self.EDGE_VALUES,))
        assert path.read_bytes() == per_cell_text(("v",), (self.EDGE_VALUES,))
        assert path.read_text(encoding="utf-8").split("\n")[1:-1] == [
            "-0", "0", "nan", "inf", "-inf", "4.94065645841e-324", "1e-300", "1e+21",
            "1.23456789012e+14", "0.123456789012", "-1554.98765432", "3.14159265359",
        ]

    def test_zero_rows_keep_header_and_trailer(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = np.array([])
        write_table(path, ("x", "y"), (empty, empty), trailer_comments=("n = 0",))
        assert path.read_bytes() == b"x,y\n# n = 0\n"
        assert path.read_bytes() == per_cell_text(("x", "y"), (empty, empty), ("n = 0",))

    def test_random_table_matches_per_cell_text(self, tmp_path):
        rng = np.random.default_rng(5)
        columns = (
            rng.uniform(1540.0, 1570.0, 500),
            rng.normal(0.0, 1.0, 500) * 10.0 ** rng.integers(-300, 300, 500),
        )
        path = tmp_path / "random.csv"
        write_table(path, ("x", "y"), columns, trailer_comments=("done",))
        assert path.read_bytes() == per_cell_text(("x", "y"), columns, ("done",))

    def test_rows_across_blocks(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = 2 * _BLOCK_LINES + 37
        columns = (
            np.linspace(1545.0, 1551.0, rows),
            rng.normal(0.0, 1.0, rows) * 10.0 ** rng.integers(-40, 60, rows),
            rng.choice(self.EDGE_VALUES, rows),
        )
        path = tmp_path / "blocks.csv"
        write_table(path, ("x", "y", "z"), columns, ("head",), ("tail",))
        assert path.read_bytes() == per_cell_text(("x", "y", "z"), columns, ("tail",), ("head",))


def cell_texts(values: np.ndarray) -> list[str]:
    """The texts of the bulk cell formatter, one per value."""
    fields = _cell_fields(np.asarray(values, dtype=float), "\n")
    return fields.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def percent_texts(values: np.ndarray) -> list[str]:
    return ["%.12g" % value for value in np.asarray(values, dtype=float).tolist()]


def nudged(values: np.ndarray, ulps: np.ndarray) -> np.ndarray:
    """Each finite ``values[i]`` moved by ``ulps[i]`` units in the last place
    away from zero (towards it when negative)."""
    bits = np.abs(values).view(np.int64) + ulps
    return np.copysign(bits.view(np.float64), values)


@st.composite
def near_ties(draw) -> float:
    """A 12-digit decimal followed by a 5, times 10**-30..10**30, nudged by
    up to 4 ulps: the values whose 12th digit float arithmetic cannot settle."""
    digits = draw(st.integers(10**11, 10**12 - 1))
    exponent = draw(st.integers(-30, 30))
    value = draw(st.sampled_from([1.0, -1.0])) * float(f"{digits}5e{exponent - 12}")
    return float(nudged(np.array([value]), np.array([draw(st.integers(-4, 4))]))[0])


class TestCellFormatter:
    """The bulk cell formatter against ``'%.12g' % v``, cell by cell."""

    @settings(deadline=None, max_examples=300)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert cell_texts(values) == percent_texts(values)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_any_float(self, values):
        assert cell_texts(np.array(values)) == percent_texts(np.array(values))

    @settings(deadline=None, max_examples=150)
    @given(st.lists(near_ties(), min_size=1, max_size=64))
    def test_near_ties(self, values):
        assert cell_texts(np.array(values)) == percent_texts(np.array(values))

    def test_near_ties_scaled_in_two_steps(self):
        # Past 10**22 the scaling takes two rounded steps, which can carry a
        # value across a tie: without the ulp margin 21 of these 30,000 cells
        # get a wrong last digit.
        rng = np.random.default_rng(9)
        digits = rng.integers(10**11, 10**12, 30_000)
        exponents = rng.choice(np.r_[-33:-11, 34:56], digits.size)
        ties = np.array([float(f"{d}5e{e - 12}") for d, e in zip(digits.tolist(), exponents.tolist())])
        values = nudged(ties, rng.integers(-4, 5, ties.size)) * rng.choice([-1.0, 1.0], ties.size)
        assert cell_texts(values) == percent_texts(values)

    def test_powers_of_ten_and_notation_switches(self):
        points = np.concatenate([10.0 ** np.arange(-40, 61), [1e-5, 1e-4, 1e11, 1e12]])
        points = np.concatenate([points, -points])
        values = np.concatenate([nudged(points, np.full(points.size, step)) for step in (-1, 0, 1)])
        assert cell_texts(values) == percent_texts(values)

    def test_empty(self):
        assert cell_texts(np.array([])) == []


def drawn_axis(size: int) -> st.SearchStrategy[np.ndarray]:
    """Axis values from the edge set or of random sign and magnitude."""
    value = st.one_of(
        st.sampled_from(TestRowFormatting.EDGE_VALUES.tolist()),
        st.floats(allow_nan=True, allow_infinity=True),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
    )
    return st.lists(value, min_size=size, max_size=size).map(np.array)


@st.composite
def grids(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drawn axes and a seeded random matrix of their shape, a tenth of its
    cells edge values; a drawn list of 1,600 cells would overrun hypothesis."""
    shape = draw(st.sampled_from([(1, 1), (1, 7), (7, 1), (0, 3), (3, 0), (40, 40)])
                 | st.tuples(st.integers(1, 40), st.integers(1, 40)))
    rows, columns = draw(drawn_axis(shape[0])), draw(drawn_axis(shape[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    edges = rng.random(shape) < 0.1
    matrix[edges] = rng.choice(TestRowFormatting.EDGE_VALUES, np.count_nonzero(edges))
    return rows, columns, matrix


class TestGridWriter:
    """``write_grid`` writes the long-form bytes of ``write_table``."""

    HEADER = ("signal_nm", "idler_nm", "intensity")

    @settings(deadline=None, max_examples=150)
    @given(grid=grids(), comments=st.sampled_from([(), ("axis: 1 to 2 nm", "pump: 3 GHz")]))
    def test_matches_long_form_write_table(self, tmp_path_factory, grid, comments):
        rows, columns, matrix = grid
        scratch = tmp_path_factory.mktemp("grid")
        write_grid(scratch / "grid.csv", self.HEADER, rows, columns, matrix, comments)
        long_form = (np.repeat(rows, columns.size), np.tile(columns, rows.size), matrix.ravel())
        assert (scratch / "grid.csv").read_bytes() == per_cell_text(
            self.HEADER, long_form, comments=comments
        )

    def test_rows_across_blocks(self, tmp_path):
        # 97 x 181 cells: block edges fall inside rows, and the last block is short.
        rng = np.random.default_rng(8)
        rows, columns = np.linspace(1560.0, 1566.0, 97), np.linspace(1545.36, 1551.36, 181)
        matrix = rng.normal(size=(97, 181)) * 10.0 ** rng.integers(-13, 3, size=(97, 181))
        write_grid(tmp_path / "grid.csv", self.HEADER, rows, columns, matrix)
        long_form = (np.repeat(rows, 181), np.tile(columns, 97), matrix.ravel())
        assert matrix.size % _BLOCK_LINES != 0 and matrix.size > _BLOCK_LINES
        assert (tmp_path / "grid.csv").read_bytes() == per_cell_text(self.HEADER, long_form)

    def test_edge_axes(self, tmp_path):
        edges = TestRowFormatting.EDGE_VALUES
        matrix = np.array([np.roll(edges, shift) for shift in range(edges.size)])
        write_grid(tmp_path / "grid.csv", self.HEADER, edges, -edges, matrix)
        columns = (np.repeat(edges, edges.size), np.tile(-edges, edges.size), matrix.ravel())
        assert (tmp_path / "grid.csv").read_bytes() == per_cell_text(self.HEADER, columns)

    def test_default_scan_peaks_at_its_blocks(self, tmp_path):
        # The writer holds one block's line and work arrays and its text,
        # 2.02 MB at its peak; the fields of the whole 601 x 601 scan at once
        # would take 8.7 MB alone.
        config = parse_config(default_config_text())
        grid, triplet = config.jsd_grid, config.triplet
        matrix = simulate_jsd_scan(
            grid, triplet, config.pump_linewidth_ghz,
            linewidth_ghz(triplet.signal_nm, config.geometry, config.coupling),
            linewidth_ghz(triplet.idler_nm, config.geometry, config.coupling),
            config.jsd_resolution_pm,
        )
        axes = grid.signal.wavelengths_nm(), grid.idler.wavelengths_nm()
        _, peak = peak_allocation(
            lambda: write_grid(tmp_path / "jsd_scan.csv", self.HEADER, *axes, matrix)
        )
        assert (tmp_path / "jsd_scan.csv").stat().st_size > 12_000_000
        assert peak <= 3_000_000

    @pytest.mark.parametrize(
        "header, rows, columns, matrix",
        [
            (("x", "y"), np.ones(2), np.ones(3), np.ones((2, 3))),
            (("x", "y", "z", "w"), np.ones(2), np.ones(3), np.ones((2, 3))),
            (HEADER, np.ones((2, 1)), np.ones(3), np.ones((2, 3))),
            (HEADER, np.ones(2), np.ones((1, 3)), np.ones((2, 3))),
            (HEADER, np.ones(2), np.ones(3), np.ones((3, 2))),
            (HEADER, np.ones(2), np.ones(3), np.ones(6)),
        ],
        ids=["two_names", "four_names", "2d_rows", "2d_columns", "transposed", "raveled"],
    )
    def test_rejects_mismatched_shapes(self, tmp_path, header, rows, columns, matrix):
        with pytest.raises(ValueError, match="3 header names, 1-D axes"):
            write_grid(tmp_path / "grid.csv", header, rows, columns, matrix)
        assert not (tmp_path / "grid.csv").exists()
