"""CSV reading and writing with a fixed, locale-independent dialect.

All tables use comma separators, ``.`` decimals, one header row, LF
line endings, and UTF-8.  Floats are written with 12 significant
digits, so identical arrays always serialize to identical bytes —
the property golden-file regression tests rely on.  Lines starting
with ``#`` are comments; writers place them before the header, and
summary lines may be appended after the data.  :func:`write_table` writes
named columns, :func:`write_grid` a matrix over two axes in long form.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

#: Printf-style float format shared by :func:`format_float` and the row
#: writer, so single values and table cells always print alike.
_FLOAT_FORMAT = "%.12g"


class CsvParseError(ValueError):
    """Raised for malformed CSV input; the message names the line."""


def format_float(value: float) -> str:
    return _FLOAT_FORMAT % float(value)


def write_table(
    path: str | Path,
    header: tuple[str, ...],
    columns: tuple[np.ndarray, ...],
    comments: tuple[str, ...] = (),
    trailer_comments: tuple[str, ...] = (),
) -> None:
    """Write named columns as CSV, with optional ``#`` comment lines.

    ``comments`` go above the header, ``trailer_comments`` after the
    last data row (used for summary lines).
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    arrays = [np.asarray(column, dtype=float) for column in columns]
    length = arrays[0].size
    if any(array.ndim != 1 or array.size != length for array in arrays):
        raise ValueError("all columns must be 1-D and equally long")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        # One format call per row rather than per cell; the cells need no
        # quoting, so this writes the same bytes as csv.writer would.
        row_format = ",".join([_FLOAT_FORMAT] * len(arrays)) + "\n"
        for row in zip(*[array.tolist() for array in arrays]):
            handle.write(row_format % row)
        for comment in trailer_comments:
            handle.write(f"# {comment}\n")


def write_grid(
    path: str | Path,
    header: tuple[str, ...],
    row_axis: np.ndarray,
    column_axis: np.ndarray,
    matrix: np.ndarray,
    comments: tuple[str, ...] = (),
) -> None:
    """Write ``matrix[i, j]`` as ``row_axis[i],column_axis[j],value`` lines: the
    bytes of :func:`write_table` on the repeated row axis, the tiled column axis
    and the raveled matrix, written one row at a time."""
    shape = (row_axis.size, column_axis.size)
    if len(header) != 3 or row_axis.ndim != 1 or column_axis.ndim != 1 or matrix.shape != shape:
        raise ValueError("write_grid takes 3 header names, 1-D axes and a matrix shaped by them")
    # Each column value is formatted once; a row joins them with its own value
    # into one template for its cells.  A %.12g text never holds a "%".
    pieces = [""] + [f",{format_float(value)},{_FLOAT_FORMAT}\n" for value in column_axis.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(f"# {comment}\n" for comment in comments)
        csv.writer(handle, lineterminator="\n").writerow(header)
        for value, cells in zip(row_axis.tolist(), matrix):
            handle.write(format_float(value).join(pieces) % tuple(cells.tolist()))


def read_table(path: str | Path) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
    """Read a CSV table written by :func:`write_table`.

    Returns
    -------
    (header, data, comments)
        ``data`` has one column per header name and may be empty;
        ``comments`` collects every ``#`` line regardless of position.

    Raises
    ------
    CsvParseError
        Naming the 1-based line number of the first malformed row.
    """
    header: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    comments: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.rstrip("\n").rstrip("\r")
            if not stripped:
                continue
            if stripped.startswith("#"):
                comments.append(stripped[1:].strip())
                continue
            fields = next(csv.reader([stripped]))
            if header is None:
                header = tuple(field.strip() for field in fields)
                if any(not name for name in header):
                    raise CsvParseError(f"line {number}: empty column name in header")
                continue
            if len(fields) != len(header):
                raise CsvParseError(
                    f"line {number}: expected {len(header)} fields, got {len(fields)}"
                )
            try:
                rows.append([float(field) for field in fields])
            except ValueError as exc:
                raise CsvParseError(f"line {number}: {exc}") from exc
    if header is None:
        raise CsvParseError("line 1: file has no header row")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return header, data, tuple(comments)
