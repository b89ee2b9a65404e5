"""Chunked reader/writer helpers shared by every ASCII table format.

All the whitespace-separated formats (xyz family, pts, ascii ply/pcd) reduce
to "N numeric columns per line".  This module does the buffered parsing once,
keeps physical line numbers attached to every parsed row so errors can point
at the offending line, and formats outgoing rows deterministically.

Files are read in blocks of whole lines, at most ``BLOCK_BYTES`` each
(longer only for a longer line).  A block's end is found in its last few
KiB before the block is read, so each block is read once, into bytes of
its own size.  Every block takes one path: a byte scan finds each line end
and which lines hold data (a character other than whitespace before any
``#``), and one ``np.loadtxt`` call parses the block, its rows being the
data lines in order.  Line ends and invalid UTF-8 read as in text mode.
``np.loadtxt`` is the only number rule, and when it rejects a block a
bisection finds the first bad row in file order, the one reported.  A
chunk is a view of at most ``chunk_size`` rows of one block: no chunk
spans two blocks, and no row is copied to make one.

Rows are written by ``rows_to_text``, the bytes ``np.savetxt`` gives: a
``%.6f`` value correctly rounded, half-to-even on its exact binary value,
as ``printf("%.6f")`` prints it.  Each part of ``FORMAT_ROWS`` rows is
built in numpy from integer digits, a fixed-width record per row whose
unused leading characters are NUL and deleted at the end.  A value whose
scaled millionths are a float64 half takes its digits from Python's
``%``, and a part holding NaN, ±inf or a value too large for exact
integer digits is formatted by ``%`` as a whole.
"""

from __future__ import annotations

import functools
import io
import os
import re
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ParseError
from ._base import DEFAULT_CHUNK_POINTS

#: the most bytes a block takes unless one line is longer: 1 MiB holds
#: about 26,000 rows of xyzrgb, whose text, scan and float64 values are
#: each about 1 MB
BLOCK_BYTES = 1 << 20

#: bytes searched at a time, from a block's end back, for its last line end
_TAIL_BYTES = 4096

#: rows per part that ``rows_to_text`` formats at once: 8,192 rows of six
#: columns take about 0.4 MB as float64, and as much again as records and
#: as text
FORMAT_ROWS = 8_192

#: 1 for an ASCII byte that is not whitespace as ``str.split`` takes it
_SIGNIFICANT = bytes(byte < 128 and not chr(byte).isspace()
                     for byte in range(256))


def _blocks(fh) -> Iterator[bytes]:
    """The rest of binary ``fh`` as blocks of whole lines (one ``\\n`` is
    added to a last line that has none).  A block ends after its last
    ``\\n`` within ``BLOCK_BYTES``, or after its last ``\\r`` before the
    final byte there, since that one may be half of a ``\\r\\n``; a line
    longer than that is extended by ``BLOCK_BYTES`` at a time.  Each block
    is read once, at its own size, and no frame of the iterator holds it
    once it is returned, so the caller decides how long it lives."""
    start = fh.tell()
    size = os.fstat(fh.fileno()).st_size
    while start < size:
        stop = min(start + BLOCK_BYTES, size)
        end = _line_end(fh, start, stop)
        while end is None and stop < size:  # a line longer than a block
            low, stop = stop - 1, min(stop + BLOCK_BYTES, size)
            end = _line_end(fh, low, stop)
        fh.seek(start)
        if end is None:  # the last line, which has no line end
            start = size
            yield fh.read() + b"\n"
        else:
            yield fh.read(end - start)
            start = end


def _line_end(fh, low: int, stop: int) -> int | None:
    """The offset after the last line end in bytes ``[low, stop)`` of
    ``fh``, a ``\\r`` at ``stop - 1`` not counted; None if there is none.
    Searched ``_TAIL_BYTES`` at a time from ``stop`` back."""
    high = stop
    while high > low:
        lo = max(low, high - _TAIL_BYTES)
        fh.seek(lo)
        tail = fh.read(high - lo)
        cut = max(tail.rfind(b"\n"), tail.rfind(b"\r", 0, stop - 1 - lo))
        if cut >= 0:
            return lo + cut + 1
        high = lo
    return None


def _text(block: bytes) -> bytes:
    """``block`` as text mode reads it: invalid UTF-8 as U+FFFD, and every
    line end as ``\\n`` if a lone ``\\r`` ends a line (if none does, the
    ``\\r`` of a ``\\r\\n`` is whitespace to the scan and the parse)."""
    if b"\r" in block and block.count(b"\r") > block.count(b"\r\n"):
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not block.isascii():
        block = block.decode("utf-8", "replace").encode("utf-8")
    return block


def _scan(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Where the data of each line of ``_text`` output ends (at its first
    ``#``, else at its ``\\n``), and a mask of the lines that hold data: a
    character other than whitespace before that end."""
    buf = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if b"#" in text:
        hashes = np.append(np.flatnonzero(buf == ord("#")), len(text))
        ends = np.minimum(hashes[np.searchsorted(hashes, starts)], ends)
    # reduced over [start, end) and [end, next start) of each line; an
    # empty span gives its first byte, so empty lines are masked out
    spans = np.stack((starts, ends), axis=1).ravel()
    full = starts < ends
    data = full & np.logical_or.reduceat(
        np.frombuffer(text.translate(_SIGNIFICANT), bool), spans)[::2]
    if not text.isascii():  # non-ASCII characters: the decoded text decides
        high = full & np.logical_or.reduceat(buf >= 128, spans)[::2]
        for line in np.flatnonzero(high & ~data):
            data[line] = bool(text[starts[line]:ends[line]].decode().split())
    return ends, data


class TableChunks:
    """Iterate the numeric rows of a text file, each block's rows in
    batches of at most ``chunk_size``.

    Yields ``(values, lines)`` pairs where ``values`` is float64 of shape
    ``(k, n_columns)`` and ``lines`` holds the 1-based physical line number
    of each row; both are views of one block's parsed rows, and a block's
    bytes, text and scan are gone before the first of them is yielded.
    Rows start after ``header``, the bytes a format's header parser
    consumed; line numbers go on from the header's lines as text mode
    counts them.  Blank lines and ``#`` comments are skipped but still
    count toward line numbers.  After exhaustion ``rows_read`` and
    ``line_no`` hold the totals.

    Reading stops at the first failure in file order: a row ``np.loadtxt``
    rejects or with the wrong column count, a row past ``max_rows`` when
    ``forbid_extra_rows`` is set, or an end before ``max_rows`` rows (a
    ParseError that starts with ``declared``).  Every good row before it
    is yielded first, so the error does not depend on ``chunk_size``.
    """

    def __init__(self, path, n_columns: int, *, header: bytes = b"",
                 max_rows: int | None = None, declared: str = "",
                 forbid_extra_rows: bool = False,
                 chunk_size: int = DEFAULT_CHUNK_POINTS):
        self.path = Path(path)
        self.n_columns = n_columns
        self.header = header
        self.max_rows = max_rows
        self.declared = declared
        self.forbid_extra_rows = forbid_extra_rows
        self.chunk_size = chunk_size
        self.rows_read = 0
        self.line_no = 0

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        self.rows_read = 0
        self.line_no = len(self.header.splitlines())  # as text mode counts
        with open(self.path, "rb") as fh:
            fh.seek(len(self.header))
            for block in _blocks(fh):
                values, lines, end = self._block_rows(_text(block))
                del block  # its text and scan went with _block_rows
                for lo in range(0, len(values), self.chunk_size):
                    yield (values[lo:lo + self.chunk_size],
                           lines[lo:lo + self.chunk_size])
                del values, lines  # not alive while the next block is read
                if isinstance(end, ParseError):
                    raise end  # after the good rows before the failure
                if end:
                    return  # max_rows reached: the rest is not read
        if self.max_rows is not None and self.rows_read < self.max_rows:
            raise ParseError(f"{self.declared} but file ends after "
                             f"{self.rows_read}", path=self.path,
                             line=self.line_no + 1)

    def _block_rows(self, text: bytes
                    ) -> tuple[np.ndarray, np.ndarray, bool | ParseError]:
        """The good rows of one ``_text`` block as ``(values, lines)``
        arrays, and what ends the read after them: the ParseError of the
        first failure (its row's bytes cut out of ``text``), True when a
        row past ``max_rows`` was met, else False."""
        ends, data = _scan(text)
        first = self.line_no + 1  # the line number of the block's first line
        rows = np.flatnonzero(data)  # the data lines, counted in the block
        room = len(rows) if self.max_rows is None \
            else self.max_rows - self.rows_read
        rows, extra = rows[:room], rows[room:]  # extra: past max_rows
        values = self._parse(text, len(rows))
        good = len(values)
        self.rows_read += good
        lines = rows[:good] + first
        if good < len(rows):
            end = ends[rows[good]]
            return values, lines, self._row_error(
                text[text.rfind(b"\n", 0, end) + 1:end],
                first + int(rows[good]))
        if not len(extra):
            self.line_no += len(ends)
            return values, lines, False
        self.line_no = first + int(extra[0])
        if self.forbid_extra_rows:
            return values, lines, ParseError(
                f"expected {self.max_rows} data rows, found extra data",
                path=self.path, line=self.line_no)
        return values, lines, True

    def _parse(self, text: bytes, rows: int) -> np.ndarray:
        """The values of the first ``rows`` data lines of ``text`` up to the
        first bad one.  Whether a prefix of them parses is monotone in its
        length, so after all of them a bisection finds the longest one in
        O(n log n)."""
        good = np.empty((0, self.n_columns))
        lo, hi = 0, rows + 1  # [:lo] parse, [:hi] do not
        mid = rows
        while lo < mid:
            values = _floats(text, mid, self.n_columns)
            if values is None:
                hi = mid
            else:
                lo, good = mid, values
            mid = (lo + hi) // 2
        return good

    def _row_error(self, line: bytes, number: int) -> ParseError:
        """Name what is wrong with a row ``np.loadtxt`` rejects, from the
        text before its ``#``."""
        text = line.decode("utf-8", errors="replace").strip()
        tokens = text.split()
        if len(tokens) != self.n_columns:
            return ParseError(
                f"expected {self.n_columns} columns, found {len(tokens)}",
                path=self.path, line=number)
        bad = next((tok for tok in tokens
                    if _floats(tok.encode(), 1, 1) is None), text)
        return ParseError(f"invalid number {bad!r}", path=self.path,
                          line=number)


def _floats(text: bytes, rows: int, width: int) -> np.ndarray | None:
    """The first ``rows`` data lines of ``text`` as a float64 ``(rows,
    width)`` array; None when ``np.loadtxt`` rejects a token in them or
    finds another shape."""
    try:
        with warnings.catch_warnings():  # on lines that max_rows skips
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(io.BytesIO(text), dtype=np.float64,
                                comments="#", encoding="utf-8", ndmin=2,
                                max_rows=rows)
    except ValueError:
        return None
    return values if values.shape == (rows, width) else None


def count_data_rows(path) -> int:
    """Count the lines that hold data, as ``TableChunks`` finds them,
    without parsing numbers."""
    count = 0
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            count += int(np.count_nonzero(_scan(_text(block))[1]))
            del block  # not alive while the next block is read
    return count


def rows_to_text(matrix: np.ndarray, fmt: str) -> bytes:
    """Format a numeric matrix as encoded lines (one row per line).

    The bytes ``np.savetxt`` would write, which applies ``fmt % tuple(row)``
    to each row: a ``%.6f`` value is correctly rounded to 6 decimals,
    half-to-even on its exact binary value, as ``printf("%.6f")`` prints
    it, with a ``-`` whenever its sign bit is set (``-0.000000``); ``%d``
    and ``%u`` print the value truncated to an integer.  Each part of
    ``FORMAT_ROWS`` rows is built as text in numpy (``_format_part``); a
    part it cannot build (NaN, ±inf, a value too large for exact integer
    digits, another conversion) goes through ``%``, which writes ``nan``
    and ``inf`` as Python does."""
    pieces = _CONVERSION.split(fmt + "\n")
    literals, conversions = pieces[::2], pieces[1::2]
    known = (matrix.shape[1:] == (len(conversions),)
             and matrix.dtype.kind in "biuf"
             and all(text.isascii() and not set(text) & set("%\0")
                     for text in literals))
    parts = []
    for lo in range(0, len(matrix), FORMAT_ROWS):
        rows = matrix[lo:lo + FORMAT_ROWS]
        text = _format_part(rows, literals, conversions) if known else None
        if text is None:
            text = (((fmt + "\n") * len(rows))
                    % tuple(rows.ravel().tolist())).encode("ascii")
        parts.append(text)
    return b"".join(parts)


#: a ``rows_to_text`` conversion that ``_format_part`` builds
_CONVERSION = re.compile(r"%(\.6f|[du])")

#: below this, every float64 integer is exact
_EXACT = 2.0 ** 53


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """4-character texts as little-endian uint32, for an index ``i`` below
    10,000: ``i`` zero-padded at ``i``; ``i`` NUL-padded at ``10_000 + i``
    (``0`` for 0); and four NULs at 20,000.  Then the 2-digit zero-padded
    texts as uint16, the last half of the first 100 groups.  Built on first
    use, so a process that writes no text does not hold them."""
    n = np.arange(10_000, dtype=np.int16)[:, None]
    digits = (n // np.array([1000, 100, 10, 1], np.int16) % 10
              + ord("0")).astype(np.uint8)
    padded = np.where(n >= np.array([1000, 100, 10, 0], np.int16), digits,
                      np.uint8(0))
    groups = np.concatenate([digits, padded, np.zeros((1, 4), np.uint8)]) \
        .view("<u4").ravel()
    return groups, groups[:100].view("<u2")[1::2].copy()


def _units(values: np.ndarray, fixed: bool) -> np.ndarray | None:
    """|values| as the integer a conversion prints: millionths rounded as
    ``%.6f`` rounds them when ``fixed``, else truncated as ``%d``.  None
    when one of them is not finite or not below 2**53, where float64
    integers stop being exact."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6 if fixed else np.abs(np.trunc(values))
        if not (scaled < _EXACT).all():  # NaN compares False too
            return None
    units = np.rint(scaled)
    if fixed:
        # scaled is |value|·10**6 rounded to the nearest float64.  Below
        # 2**52 every half integer is a float64, so the exact product lies
        # on the same side of each half as scaled and rint rounds it as
        # ``%`` does, unless scaled is a half itself: there Python's ``%``
        # decides.  From 2**52 on, float64 holds only integers, and the
        # product's rounding to one (half-to-even) is the one ``%`` makes.
        for i in np.flatnonzero(np.abs(scaled - units) == 0.5).tolist():
            units[i] = int(("%.6f" % values[i]).replace(".", "")
                           .lstrip("-"))
    return units.astype(np.int64)


def _integer_text(units: np.ndarray) -> np.ndarray:
    """Non-negative int64 ``units`` as right-aligned decimal text, one
    ``S`` string per value as wide as the largest, NUL for each leading
    zero (a zero keeps one ``0``).  Built from groups of 4 digits."""
    digits = len(str(int(units.max(initial=0))))
    width = -(-digits // 4)
    text = np.empty((len(units), width), np.uint32)
    groups, _ = _digit_groups()
    for g in range(width - 1, -1, -1):  # the last group first
        rest = units // 10_000 if g else 0  # the digits above this group
        # NUL-padded when no digit is above it, and all NUL when it is 0
        # too, unless it is the last group
        index = units - rest * 10_000 + 10_000 * (rest == 0)
        if g < width - 1:
            index += 10_000 * (units == 0)
        text[:, g] = groups[index]
        units = rest
    return text.view(np.uint8)[:, 4 * width - digits:].view(f"S{digits}")


def _format_part(rows: np.ndarray, literals: list[str],
                 conversions: list[str]) -> bytes | None:
    """The text of ``rows`` with one conversion per column between the
    ``literals``, or None when a value has no exact integer digits.

    Every row is one record of fixed-width fields: each literal, and per
    column a sign (when one is negative), the integer digits and, for
    ``%.6f``, ``.`` and 6 decimals.  A field's unused leading characters
    are NUL, so one ``translate`` that deletes NUL joins the records into
    the text."""
    values = rows.astype(np.float64, copy=False)
    fields: list[tuple[str, object, object]] = []  # (name, type, content)

    def add(kind, content):
        fields.append((f"f{len(fields)}", kind, content))

    for column, conversion in enumerate(conversions):
        if literals[column]:
            add(f"S{len(literals[column])}", literals[column].encode())
        x = values[:, column]
        fixed = conversion == ".6f"
        units = _units(x, fixed)
        if units is None:
            return None
        # %.6f signs -0.0 and -1e-7; %d truncates -0.5 to 0, unsigned
        negative = np.signbit(x) if fixed else x <= -1
        if negative.any():
            add("u1", negative.view(np.uint8) * np.uint8(ord("-")))
        whole = units // 1_000_000 if fixed else units
        text = _integer_text(whole)
        add(text.dtype, text[:, 0])
        if fixed:
            decimals = units - whole * 1_000_000
            high = decimals // 10_000
            add("u1", ord("."))
            groups, pairs = _digit_groups()
            add("<u2", pairs[high])
            add("<u4", groups[decimals - high * 10_000])
    add(f"S{len(literals[-1])}", literals[-1].encode())
    records = np.empty(len(values), [(name, kind) for name, kind, _ in fields])
    for name, _, content in fields:
        records[name] = content
    return records.tobytes().translate(None, b"\0")


def check_colors(values: np.ndarray, lines: np.ndarray, top: int, path,
                 bottom: int = 0):
    """Fail at the first row with a color value outside bottom..top."""
    bad = ~((values >= bottom) & (values <= top))
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise ParseError(
            f"color value {values[row][bad[row]][0]:g} outside "
            f"{bottom}..{top}", path=path, line=int(lines[row]))
