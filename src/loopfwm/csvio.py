"""CSV reading and writing with a fixed, locale-independent dialect.

All tables use comma separators, ``.`` decimals, one header row, LF
line endings, and UTF-8.  Floats are written as ``'%.12g' % v``: 12
significant digits, so identical arrays always serialize to identical
bytes — the property golden-file regression tests rely on.  Lines starting
with ``#`` are comments; writers place them before the header, and
summary lines may be appended after the data.  :func:`write_table` writes
named columns, :func:`write_grid` a matrix over two axes in long form.

Both writers format every cell with one bulk formatter, in blocks of
``_BLOCK_LINES`` lines.  For a finite ``v`` with ``1e-33 <= |v| < 1e56`` it
takes the decimal exponent ``e`` from ``log10|v|``, scales ``|v|`` by
``10**(11 - e)`` with at most two multiplies or divides by exact powers of
ten, and rounds the result ``s`` to an integer: the 12 digits.  The exponent
is corrected once when ``s`` falls outside ``[1e11, 1e12)``.  Each step is
correctly rounded, so ``s`` is within 2 ulp of the exact product, and a cell
whose ``s`` lies within 4 ulp of a rounding tie goes to ``%`` instead; every
other cell gets exactly ``%``'s digits.  Zeros, subnormals, non-finite and
out-of-range values go to ``%`` too.  The digits are laid out by ``%g``'s
rules: fixed notation for exponents -4 to 11, else ``d.ddde±XX``, trailing
zeros cut.  :func:`format_float` formats single values with ``%`` itself,
and the tests hold the bulk formatter to it.

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

# Two powers of ten, each an exact double (10**22 is the largest), whose
# product is 10**|shift| for shift = -44..44 (index shift + 44).
_FIRST_POWER = np.array([float(10 ** min(abs(shift), 22)) for shift in range(-44, 45)])
_SECOND_POWER = np.array([float(10 ** max(abs(shift) - 22, 0)) for shift in range(-44, 45)])

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


def _words(numbers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as their low and high 64-bit words."""
    return (
        np.array([n & (2**64 - 1) for n in numbers], dtype=np.uint64),
        np.array([n >> 64 for n in numbers], dtype=np.uint64),
    )


# The 12 digits are a 16-byte little-endian string held in two words.  _KEEP[k]
# masks its first k bytes; _STAY[p] and _DOT[p] insert "." after byte p, and
# p = 0 means no point.
_KEEP_LO, _KEEP_HI = _words([2 ** (8 * k) - 1 for k in range(13)])
_STAY_LO, _STAY_HI = _words([2**128 - 1] + [2 ** (8 * p) - 1 for p in range(1, 13)])
_DOT_LO, _DOT_HI = _words([0] + [ord(".") << (8 * p) for p in range(1, 13)])

# Per decimal exponent -64..63 (index exponent + 64): the "0.0…" prefix at
# byte 1 of a cell, the digits before the point, and the "e±XX" suffix at
# byte 19.  %g writes fixed notation for exponents -4 to 11.
_EXPONENTS = range(-64, 64)
_PREFIX = np.array(
    [int.from_bytes(b"0." + b"0" * (-e - 1), "little") << 8 if -4 <= e < 0 else 0
     for e in _EXPONENTS], dtype=np.uint64,
)
_BEFORE_POINT = np.array([0 if -4 <= e < 0 else e + 1 if 0 <= e < 12 else 1 for e in _EXPONENTS])
_SUFFIX = np.array(
    [0 if -4 <= e < 12 else int.from_bytes(b"e%+03d" % e, "little") << 24 for e in _EXPONENTS],
    dtype=np.uint64,
)


class CsvParseError(ValueError):
    """Raised for malformed CSV input; the message names the line."""


def format_float(value: float) -> str:
    return _FLOAT_FORMAT % float(value)


def _scaled(magnitude: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``magnitude * 10**(11 - exponent)`` in at most two correctly rounded
    multiplies, or divides where ``exponent > 11``, each by an exact power of
    ten while ``|11 - exponent| <= 44``."""
    shift = np.clip(11 - exponent, -44, 44) + 44
    first, second = _FIRST_POWER[shift], _SECOND_POWER[shift]
    scaled = magnitude * first * second
    down = np.flatnonzero(exponent > 11)
    scaled[down] = magnitude[down] / first[down] / second[down]
    return scaled


def _significands(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(digits, exponent, exact)``: ``|value|`` rounded to 12 significant
    digits as ``digits * 10**(exponent - 11)``, and where those are the digits
    ``%`` prints; elsewhere they are meaningless."""
    magnitude = np.abs(np.where(np.isfinite(values), values, 0.0))
    exact = (magnitude >= 1e-33) & (magnitude < 1e56)
    magnitude[~exact] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = _scaled(magnitude, exponent)
    off = np.flatnonzero((scaled < 1e11) | (scaled >= 1e12))
    exponent[off] += np.where(scaled[off] < 1e11, -1, 1)
    scaled[off] = _scaled(magnitude[off], exponent[off])
    # A computed s in [1e11, 1e12] is within 2.5e-4 of the exact one, so even
    # when the exact one sits just across a decade edge, rounding s and then
    # carrying 10**12 gives the exact value's digits.
    exact &= (scaled >= 1e11) & (scaled <= 1e12) & (np.abs(11 - exponent) <= 44)
    # Two steps of relative error u = 2**-53 put s within (2u + u**2)·s, under
    # 2.01 ulp(s), of the exact product.  4 ulp from every tie k + 1/2 keeps
    # both on the same side of it, so rint(s) is the correct rounding.
    exact &= np.abs(scaled - np.floor(scaled) - 0.5) > 4 * np.spacing(scaled)
    digits = np.rint(np.where(exact, scaled, 1e11)).astype(np.int64)
    carry = digits == 10**12
    digits[carry] = 10**11
    exponent += carry
    return digits, exponent, exact


def _digit_words(digits: np.ndarray, before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 12 ``digits`` as text with trailing zeros cut, and a point after
    the first ``before`` of them where a fraction digit is left (``before`` 0:
    no point), as the low and high words of a 13-byte string."""
    high, rest = np.divmod(digits, 10**8)
    middle, low = np.divmod(rest, 10**4)
    zeros = _QUAD_ZEROS[low]
    whole = np.flatnonzero(low == 0)
    zeros[whole] = 4 + np.where(middle[whole] != 0, _QUAD_ZEROS[middle[whole]],
                                4 + _QUAD_ZEROS[high[whole]])
    significant = 12 - zeros
    # Without fraction digits there is no point, and integer zeros stay.
    point = np.where(significant > before, before, 0)
    kept = np.maximum(significant, before)
    lo = (_QUAD_TEXT[high] | _QUAD_TEXT[middle] << 32) & _KEEP_LO[kept]
    hi = _QUAD_TEXT[low] & _KEEP_HI[kept]
    stay_lo, stay_hi = _STAY_LO[point], _STAY_HI[point]
    moved = lo & ~stay_lo
    return (
        lo & stay_lo | _DOT_LO[point] | moved << 8,
        hi & stay_hi | _DOT_HI[point] | (hi & ~stay_hi) << 8 | moved >> 56,
    )


def _cell_fields(values: np.ndarray, separator: str) -> np.ndarray:
    """Three little-endian words (24 bytes) per value: the text of
    ``'%.12g' % value`` with NUL bytes inside and after it, and ``separator``
    as the last byte.

    Byte layout: sign, "0.0…" prefix (1-5), digits and point (6-18),
    exponent (19-22), separator (23).  Deleting the NULs leaves the text.
    """
    values = np.asarray(values, dtype=float)
    digits, exponent, exact = _significands(values)
    row = np.clip(exponent, -64, 63) + 64
    lo, hi = _digit_words(digits, _BEFORE_POINT[row])
    fields = np.empty((values.size, 3), dtype="<u8")
    fields[:, 0] = _PREFIX[row] | np.signbit(values).astype(np.uint64) * ord("-") | lo << 48
    fields[:, 1] = lo >> 16 | hi << 48
    fields[:, 2] = hi >> 16 | _SUFFIX[row]
    text = fields.view(np.uint8)
    fallback = np.flatnonzero(~exact)
    text[fallback, :23] = (
        np.array([_FLOAT_FORMAT % value for value in values[fallback].tolist()], dtype="S23")
        .view(np.uint8).reshape(-1, 23)
    )
    text[:, 23] = ord(separator)
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
    block: Callable[[int, int], list[np.ndarray]], trailer_comments: tuple[str, ...] = (),
) -> None:
    """Write a table file: ``# `` ``comments``, the header, ``count`` data
    lines and ``# `` ``trailer_comments``.  The data lines go to the file's
    byte layer ``_BLOCK_LINES`` at a time; ``block(start, stop)`` gives the
    fields of those lines as rows of words, left to right, which make up the
    lines once their NUL bytes are deleted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(f"# {comment}\n" for comment in comments)
        csv.writer(handle, lineterminator="\n").writerow(header)
        handle.flush()
        for start in range(0, count, _BLOCK_LINES):
            lines = np.hstack(block(start, min(start + _BLOCK_LINES, count)))
            handle.buffer.write(lines.tobytes().translate(None, b"\0"))
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
    _write_file(path, header, comments, length, lambda start, stop: [
        _cell_fields(array[start:stop], separator)
        for array, separator in zip(arrays, separators)
    ], trailer_comments)


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
    rows = _packed(_cell_fields(row_axis, ","))
    columns = _packed(_cell_fields(column_axis, ","))
    cells = matrix.ravel()

    def block(start: int, stop: int) -> list[np.ndarray]:
        row, column = np.divmod(np.arange(start, stop), shape[1])
        return [rows.take(row, axis=0), columns.take(column, axis=0),
                _cell_fields(cells[start:stop], "\n")]

    _write_file(path, header, comments, cells.size, block)


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
