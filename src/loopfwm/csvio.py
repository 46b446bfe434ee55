"""CSV reading and writing with a fixed, locale-independent dialect.

All tables use comma separators, ``.`` decimals, one header row, LF
line endings, and UTF-8.  Floats are written as ``'%.12g' % v``: 12
significant digits, so identical arrays always serialize to identical
bytes — the property golden-file regression tests rely on.  Lines starting
with ``#`` are comments; writers place them before the header, and
summary lines may be appended after the data.  :func:`write_table` writes
named columns, :func:`write_grid` a matrix over two axes in long form.

Both writers format every cell with one bulk formatter,
:class:`_CellFormatter`, in blocks of ``_BLOCK_LINES`` lines.  Per block it
takes the decimal exponent ``e`` of each ``|v|`` from ``log10``, scales
``|v|`` by ``10**(11 - e)`` in two multiplies by powers of ten, and rounds
the result ``s`` to an integer: the 12 digits.  Each multiply rounds once,
and so does each power of ten that is not exact: ``n`` roundings, one to
four, put ``s`` within ``n * 2**-13`` of the exact product.  A cell whose
``s`` lies outside ``[1e11, 1e12 - 1/2)`` or that near a rounding tie goes
to ``%`` instead, and every other cell gets exactly ``%``'s digits.  Zeros,
subnormals, non-finite and out-of-range values go to ``%`` too.  The digits
are laid out by ``%g``'s rules: fixed notation for exponents -4 to 11, else
``d.ddde±XX``, trailing zeros cut.  Table rows do the rest: the exponent's
row, signed by the value, holds the scale factors, the tie bound and the
frame of sign, ``0.0…`` prefix, ``e±XX`` suffix and separator; groups of
four digits give their text; and one row of masks, chosen by the exponent
and the count of significant digits, cuts the zeros and moves the point in.
Every step writes through ``out=`` to work arrays made once per write, and
the words of each line go straight into one reused line array, a view of
the ``bytearray`` whose NUL bytes ``translate`` deletes.
:func:`format_float` formats single values with ``%`` itself, and the
tests hold the bulk formatter to it.

:func:`read_table` splits the header with ``csv.reader`` and hands every
later line to one ``np.loadtxt`` call, numpy's C parser, so ``#`` starts a
comment anywhere outside quotes and a read allocates little beyond the array
it returns.  A failed read is repeated on numbered lines to name the last one taken.
"""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

#: Printf-style float format of :func:`format_float`, which the bulk cell
#: formatter reproduces byte for byte.
_FLOAT_FORMAT = "%.12g"

#: Lines formatted and written per block; bounds a write's working memory.
_BLOCK_LINES = 1 << 13

# Clamps of |v| before its log10.  Zeros, NaN, infinities and |v| past them
# become one of the two, whose scaled values fall just outside
# [1e11, 1e12 - 1/2) whatever exponent log10 gives them, so they go to ``%``.
# Between them the decimal exponent e is -34..56.
_CLAMPS = (9.99999999999999e-34, 9.999999999999999e55)
# Scaled values in [1e11, 1e12 - 1/2), as the unsigned distance of their bits
# from those of 1e11.
_SCALED_FROM = np.array(1e11).view(np.uint64)
_SCALED_SPAN = np.array(1e12 - 0.5).view(np.uint64) - _SCALED_FROM


def _scaling(e: int) -> tuple[float, float, float, float]:
    """For exponent ``e``: the two factors of ``10**(11 - e)``, each an exact
    power of ten up to ``10**22`` or else correctly rounded; the most a scaled
    value may lie from its nearest integer and still round as the exact
    product, ``1/2 - n * 2**-13`` for its ``n`` roundings, each off by under
    ``2**-53`` of an ``s`` below ``2**40``; and 13 times the count of digits
    before the point, plus 12.  %g writes fixed notation for exponents -4 to 11."""
    first = max(-22, min(11 - e, 22))
    second = 11 - e - first
    roundings = 1 + (first < 0) + (second != 0) + (not 0 <= second <= 22)
    before = 0 if -4 <= e < 0 else e + 1 if 0 <= e < 12 else 1
    return (float(f"1e{first}"), float(f"1e{second}"), 0.5 - roundings * 2.0**-13,
            13.0 * before + 12.0)


def _frame(e: int) -> tuple[int, int]:
    """The first and last words of a cell without its sign or digits: the
    "0.0…" prefix of fixed notation from byte 1, the "e±XX" suffix at byte 19."""
    prefix = b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
    suffix = b"" if -4 <= e < 12 else b"e%+03d" % e
    return int.from_bytes(prefix, "little"), int.from_bytes(suffix, "little") << 24


def _signed(rows: np.ndarray) -> np.ndarray:
    """Rows by exponent e = -40..59 at row k = e + 40, then the same rows in
    reverse order: ``take(mode="wrap")`` reads row -k, a value's row when its
    sign bit is set, as row 200 - k."""
    return np.concatenate([rows, rows[:1], rows[:0:-1]])


_SCALING = _signed(np.array([_scaling(e) for e in range(-40, 60)]))
_FRAME = _signed(np.array([_frame(e) for e in range(-40, 60)], dtype=np.uint64))
_FRAME[100:, 0] |= np.uint64(ord("-"))

# The four ASCII digits of 0..9999 as little-endian words, and how many of
# them are trailing zeros (4 for 0000), both laid out by indexing alone.
_QUAD_BYTES = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
_QUAD_BYTES[..., 0] = np.arange(48, 58)[:, None, None, None]
_QUAD_BYTES[..., 1] = np.arange(48, 58)[:, None, None]
_QUAD_BYTES[..., 2] = np.arange(48, 58)[:, None]
_QUAD_BYTES[..., 3] = np.arange(48, 58)
_QUAD_TEXT = _QUAD_BYTES.view("<u4").ravel().astype(np.uint64)
_QUAD_ZEROS = np.zeros((10, 10, 10, 10), dtype=np.intp)
_QUAD_ZEROS[..., 0] = 1
_QUAD_ZEROS[..., 0, 0] = 2
_QUAD_ZEROS[..., 0, 0, 0] = 3
_QUAD_ZEROS[0, 0, 0, 0] = 4
_QUAD_ZEROS = _QUAD_ZEROS.ravel()


def _point_masks() -> np.ndarray:
    """Per row ``13 * before + significant`` (both 0..12), masks on the 12
    digits as a 16-byte little-endian string, each as a low and a high word:
    the bytes that stay, the bytes that move up one to make room for the
    point, and the point.  Zeros after the last ``significant`` digit are cut
    unless they come before the point; a point follows the first ``before``
    digits where a digit is left after them."""
    rows = bytearray()
    for before in range(13):
        for significant in range(13):
            kept = max(significant, before)
            point = before if significant > before else 0
            ahead = point or kept
            rows += (b"\xff" * ahead).ljust(16, b"\0")
            rows += (bytes(ahead) + b"\xff" * (kept - ahead)).ljust(16, b"\0")
            rows += (bytes(point) + b"." if point else b"").ljust(16, b"\0")
    return np.frombuffer(bytes(rows), dtype=np.uint64).reshape(169, 6)


_POINT_MASKS = _point_masks()


class CsvParseError(ValueError):
    """Raised for malformed CSV input; the message names the line."""


def format_float(value: float) -> str:
    return _FLOAT_FORMAT % float(value)


class _CellFormatter:
    """The bulk cell formatter, for up to ``size`` values a call.  Its work
    arrays are made once and every step writes to one of them through
    ``out=``, so block after block faults in no fresh memory."""

    def __init__(self, size: int) -> None:
        self._floats = np.empty((2, size))
        self._ints = np.empty((5, size), dtype=np.intp)
        self._words = np.empty((4, size), dtype=np.uint64)
        self._flags = np.empty((2, size), dtype=bool)
        # Up to six words a value, for the rows of one table after another.
        self._rows = np.empty(6 * size, dtype=np.uint64)

    def __call__(self, values: np.ndarray, fields: np.ndarray, separator: str) -> None:
        """Write three little-endian words per float64 value to ``fields``, an
        ``(n, 3)`` word array whose rows may lie apart: the text of
        ``'%.12g' % value`` with NUL bytes inside and after it, and
        ``separator`` as the last byte.

        Byte layout: sign, "0.0…" prefix (1-5), digits and point (6-18),
        exponent (19-22), separator (23).  Deleting the NULs leaves the text.
        """
        n = values.size
        clamped, scaled = self._floats[:, :n]
        row, digits, top, middle, low = self._ints[:, :n]
        lo, hi, word, spare = self._words[:, :n]
        exact, flag = self._flags[:, :n]
        scaling, masks, frame = (self._rows[: width * n].reshape(n, width) for width in (4, 6, 2))
        scaling = scaling.view(float)
        # The row of the exponent e, truncated from log10 and signed, and
        # s = |v| * 10**(11 - e).  rint(s) is exact where s is in
        # [1e11, 1e12 - 1/2) and nearer an integer than the row's bound.
        np.fmin(np.fmax(np.abs(values, out=clamped), _CLAMPS[0], out=clamped), _CLAMPS[1],
                out=clamped)
        np.add(np.log10(clamped, out=scaled), 40.0, out=scaled)
        np.copyto(row, np.copysign(scaled, values, out=scaled), casting="unsafe")
        _SCALING.take(row, axis=0, out=scaling, mode="wrap")
        np.multiply(clamped, scaling[:, 0], out=scaled)
        np.multiply(scaled, scaling[:, 1], out=scaled)
        np.less(np.subtract(scaled.view(np.uint64), _SCALED_FROM, out=word), _SCALED_SPAN,
                out=exact)
        rounded = np.rint(scaled, out=clamped)
        np.copyto(digits, rounded, casting="unsafe")
        np.abs(np.subtract(scaled, rounded, out=scaled), out=scaled)
        exact &= np.less(scaled, scaling[:, 2], out=flag)
        # The 12 digits as three groups of four, and their trailing zeros.
        np.floor_divide(digits, 10**8, out=top)
        np.subtract(digits, np.multiply(top, 10**8, out=low), out=digits)
        np.floor_divide(digits, 10**4, out=middle)
        np.subtract(digits, np.multiply(middle, 10**4, out=low), out=low)
        zeros = _QUAD_ZEROS.take(low, out=digits, mode="clip")
        whole = np.flatnonzero(np.equal(low, 0, out=flag))
        if whole.size:
            zeros[whole] += _QUAD_ZEROS.take(middle[whole])
            empty = whole[middle[whole] == 0]
            zeros[empty] += _QUAD_ZEROS.take(top[empty], mode="clip")
        # Their text, a 16-byte string in the words lo and hi, cut and with
        # the point moved in by one row of masks: stay, move and point, each
        # a low and a high word.
        _QUAD_TEXT.take(top, out=lo, mode="clip")
        np.left_shift(_QUAD_TEXT.take(middle, out=word, mode="clip"), 32, out=word)
        np.bitwise_or(lo, word, out=lo)
        _QUAD_TEXT.take(low, out=hi, mode="clip")
        _POINT_MASKS.take(np.subtract(scaling[:, 3], zeros, out=top, casting="unsafe"), axis=0,
                          out=masks, mode="clip")
        np.bitwise_and(lo, masks[:, 2], out=word)
        np.bitwise_and(lo, masks[:, 0], out=lo)
        np.bitwise_or(lo, masks[:, 4], out=lo)
        np.bitwise_or(lo, np.left_shift(word, 8, out=spare), out=lo)
        np.bitwise_and(hi, masks[:, 3], out=spare)
        np.bitwise_or(np.right_shift(word, 56, out=word), np.left_shift(spare, 8, out=spare),
                      out=word)
        np.bitwise_and(hi, masks[:, 1], out=hi)
        np.bitwise_or(hi, masks[:, 5], out=hi)
        np.bitwise_or(hi, word, out=hi)
        # The frame of sign and prefix, and of suffix and separator, around the
        # text from byte 6 on; then the values that go to ``%``.
        (_FRAME | np.array([0, ord(separator) << 56], dtype=np.uint64)).take(
            row, axis=0, out=frame, mode="wrap")
        np.bitwise_or(frame[:, 0], np.left_shift(lo, 48, out=word), out=fields[:, 0])
        np.bitwise_or(np.right_shift(lo, 16, out=lo), np.left_shift(hi, 48, out=word),
                      out=fields[:, 1])
        np.bitwise_or(np.right_shift(hi, 16, out=hi), frame[:, 1], out=fields[:, 2])
        fallback = np.flatnonzero(np.logical_not(exact, out=flag))
        if fallback.size:
            fields.view(np.uint8)[fallback, :23] = (
                np.array([_FLOAT_FORMAT % value for value in values[fallback].tolist()],
                         dtype="S23").view(np.uint8).reshape(-1, 23)
            )


def _cell_fields(values: np.ndarray, separator: str) -> np.ndarray:
    """Three little-endian words (24 bytes) per value, written by
    :class:`_CellFormatter`."""
    values = np.asarray(values, dtype=float).ravel()
    fields = np.empty((values.size, 3), dtype=np.uint64)
    _CellFormatter(values.size)(values, fields, separator)
    return fields


def _packed(fields: np.ndarray) -> np.ndarray:
    """Rows of words with each row's NUL bytes moved to its end, cut to the
    fewest words that hold the longest row."""
    text = fields.view(np.uint8)
    text = np.take_along_axis(text, np.argsort(text == 0, axis=1, kind="stable"), axis=1)
    words = -(-np.count_nonzero(text, axis=1).max(initial=0) // 8)
    return np.ascontiguousarray(text[:, : 8 * words]).view("<u8")


def _write_file(
    path: str | Path, header: tuple[str, ...], comments: tuple[str, ...], count: int,
    width: int, fill: Callable[[int, np.ndarray], None], trailer_comments: tuple[str, ...] = (),
) -> None:
    """Write a table file: ``# `` ``comments``, the header, ``count`` data
    lines and ``# `` ``trailer_comments``.  The data lines go to the file's
    byte layer ``_BLOCK_LINES`` at a time, through one array of ``width``
    words per line: ``fill(start, lines)`` writes the words of the lines from
    ``start`` on to ``lines``, which make up those lines once their NUL bytes
    are deleted.  The array is a view of a ``bytearray`` whose ``translate``
    deletes them, with no copy in between; the unused lines of a short last
    block are zeroed, so they vanish with the NULs."""
    text = bytearray(8 * width * min(count, _BLOCK_LINES))
    lines = np.frombuffer(text, dtype=np.uint64).reshape(-1, width)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(f"# {comment}\n" for comment in comments)
        csv.writer(handle, lineterminator="\n").writerow(header)
        handle.flush()
        for start in range(0, count, _BLOCK_LINES):
            block = lines[: count - start]
            fill(start, block)
            lines[len(block):] = 0
            handle.buffer.write(text.translate(None, b"\0"))
        handle.writelines(f"# {comment}\n" for comment in trailer_comments)


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
    separators = [","] * (len(arrays) - 1) + ["\n"]
    cells = _CellFormatter(min(length, _BLOCK_LINES))

    def fill(start: int, lines: np.ndarray) -> None:
        for place, (array, separator) in enumerate(zip(arrays, separators)):
            cells(array[start:start + len(lines)], lines[:, 3 * place:3 * place + 3], separator)

    _write_file(path, header, comments, length, 3 * len(arrays), fill, trailer_comments)


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
    and the raveled matrix."""
    shape = (row_axis.size, column_axis.size)
    if len(header) != 3 or row_axis.ndim != 1 or column_axis.ndim != 1 or matrix.shape != shape:
        raise ValueError("write_grid takes 3 header names, 1-D axes and a matrix shaped by them")
    # Each axis value is formatted once, packed to the axis's longest text.
    row_text = _packed(_cell_fields(row_axis, ","))
    column_text = _packed(_cell_fields(column_axis, ","))
    cells = np.asarray(matrix, dtype=float).ravel()
    block = min(cells.size, _BLOCK_LINES)
    # A block that starts at column c of row r takes the lines from c on of
    # these, one matrix row longer than a block: the column texts in turn,
    # and the rows after r.
    width = max(shape[1], 1)
    span = np.arange(block + shape[1])
    column_lines, rows_on = column_text[span % width], span // width
    row_words = row_text.shape[1]
    axis_words = row_words + column_text.shape[1]
    formatter = _CellFormatter(block)

    def fill(start: int, lines: np.ndarray) -> None:
        row, column = divmod(start, width)
        count = len(lines)
        np.take(row_text, rows_on[column:column + count] + row, axis=0, out=lines[:, :row_words])
        lines[:, row_words:axis_words] = column_lines[column:column + count]
        formatter(cells[start:start + count], lines[:, axis_words:], "\n")

    _write_file(path, header, comments, cells.size, axis_words + 3, fill)


def _header(lines: Iterator[str]) -> tuple[str, ...]:
    """The stripped ``csv.reader`` fields of the first of ``lines`` not blank or ``#``."""
    line = next((line for line in lines if line[:1] not in ("\n", "#")), "")
    names = tuple(field.strip() for field in next(csv.reader([line])))
    if not (names and all(names)):
        raise ValueError("empty column name in header" if names else "file has no header row")
    return names


def _rows(lines: Iterable[str], width: int) -> np.ndarray:
    """The rows of ``lines`` as ``width`` float64 columns, read by one ``np.loadtxt`` call."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(lines, delimiter=",", quotechar='"', comments="#", ndmin=2)
    if data.size and data.shape[1] != width:
        raise ValueError(f"expected {width} fields, got {data.shape[1]}")
    return data.reshape(-1, width)


#: numpy's place of a value it could not convert; its row counts rows, not lines.
_AT_ROW = re.compile(r" at row \d+, (column \d+\.)$")


def _fault(path: str | Path, cause: Exception) -> CsvParseError:
    """The error naming the line where reading ``path`` failed with ``cause``:
    the last line taken when :func:`_header` and :func:`_rows` read it again,
    lines numbered and checked as UTF-8, data rows after one of the header's
    width.  That line parsed alone gives the message, unless it parses or numpy
    could not convert a value: numpy quotes the field as read, even across lines."""
    number, line, width = 0, "", 0

    def numbered(handle: Iterable[str]) -> Iterator[str]:
        nonlocal number, line
        for number, line in enumerate(handle, 1):
            line.encode("utf-8", "surrogateescape").decode("utf-8")
            yield line

    try:
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
            lines = numbered(handle)
            width = len(_header(lines))
            _rows(itertools.chain([",".join("0" * width)], lines), width)
    except (ValueError, csv.Error) as exc:
        cause = exc
        if width and not isinstance(exc, UnicodeDecodeError) and not _AT_ROW.search(str(exc)):
            try:
                _rows([line], width)
            except ValueError as alone:
                cause = alone
    message = _AT_ROW.sub(r" at \1", str(cause))
    return CsvParseError(f"line {max(number, 1)}: {message}")


def read_table(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a CSV table written by :func:`write_table`, or one like it.

    The header is the first line that is neither blank nor starts with
    ``#``, split by ``csv.reader``.  Every later line goes to one
    ``np.loadtxt`` call: commas, ``"`` quotes, ``#`` comments.  A UTF-8
    byte-order mark is dropped.  A read that fails reads the file again by
    the same two steps, its lines numbered, to name the line it stops at.

    Returns
    -------
    (header, data)
        ``data`` has one column per header name and may be empty.

    Raises
    ------
    CsvParseError
        Naming the 1-based line number of the first malformed line: bytes
        that are not UTF-8, a header with an empty name or a quoted field
        longer than ``csv.field_size_limit()``, or a data row that
        ``np.loadtxt`` cannot parse or whose width is not the header's.  A
        quoted field that spans lines is named by the last line of its row.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            header = _header(handle)
            return header, _rows(handle, len(header))
    except (ValueError, csv.Error) as exc:
        raise _fault(path, exc) from exc
