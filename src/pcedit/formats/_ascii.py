"""Chunked reader/writer helpers shared by every ASCII table format.

All the whitespace-separated formats (xyz family, pts, ascii ply/pcd) reduce
to "N numeric columns per line".  This module does the buffered parsing once,
keeps physical line numbers attached to every parsed row so errors can point
at the offending line, and formats outgoing rows deterministically.

Files are read in blocks of whole lines, and every block takes one path:
a byte scan finds each line end and which lines hold data (a character
other than whitespace before any ``#``), and one ``np.loadtxt`` call parses
the block, its rows being the data lines in order.  Line ends and invalid
UTF-8 read as in text mode.  ``np.loadtxt`` is the only number rule, and
when it rejects a block a bisection finds the first bad row in file order,
the one reported.
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ParseError
from ._base import DEFAULT_CHUNK_POINTS

#: bytes read at a time; a block ends after the last line end read so far
BLOCK_BYTES = 8 << 20

#: rows per ``%`` call in ``rows_to_text``
FORMAT_ROWS = 32_768

#: 1 for an ASCII byte that is not whitespace as ``str.split`` takes it
_SIGNIFICANT = bytes(byte < 128 and not chr(byte).isspace()
                     for byte in range(256))


def _blocks(fh) -> Iterator[bytes]:
    """The rest of binary ``fh`` as blocks of whole lines (one ``\\n`` is
    added to a last line that has none).  A block ends after its last
    ``\\n``, or after its last ``\\r`` that is not the final byte read,
    since that one may be half of a ``\\r\\n``."""
    carry = b""
    while data := fh.read(BLOCK_BYTES):
        data = carry + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        block, carry = data[:cut], data[cut:]
        del data  # one copy of the block is alive while it is parsed
        if block:
            yield block
        del block  # and none while the next one is read
    if carry:
        yield carry + b"\n"


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
    """Iterate the numeric rows of a text file in fixed-size batches.

    Yields ``(values, lines)`` pairs where ``values`` is float64 of shape
    ``(k, n_columns)`` and ``lines`` holds the 1-based physical line number
    of each row.  Rows start after ``header``, the bytes a format's header
    parser consumed; line numbers go on from the header's lines as text mode
    counts them.  Blank lines and ``#`` comments are skipped but still count
    toward line numbers.  After exhaustion ``rows_read`` and ``line_no`` hold
    the totals.

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
        parts: list = []  # (values, lines) arrays of the chunk being built
        filled = 0
        try:
            for values, lines in self._rows():
                while len(values):
                    take = self.chunk_size - filled
                    parts.append((values[:take], lines[:take]))
                    filled += len(parts[-1][0])
                    values, lines = values[take:], lines[take:]
                    if filled == self.chunk_size:
                        yield _join(parts)
                        parts, filled = [], 0
                del values, lines  # an empty view keeps its block alive
        except ParseError:
            if filled:
                yield _join(parts)  # the good rows before the failure
            raise
        if filled:
            yield _join(parts)

    def _rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The good rows of each block as ``(values, lines)`` arrays; raises
        after the last of them at the first failure."""
        self.rows_read = 0
        self.line_no = len(self.header.splitlines())  # as text mode counts
        with open(self.path, "rb") as fh:
            fh.seek(len(self.header))
            for block in _blocks(fh):
                if (yield from self._block_rows(_text(block))):
                    return  # max_rows reached: the rest is not read
                del block  # not alive while the next block is read
        if self.max_rows is not None and self.rows_read < self.max_rows:
            raise ParseError(f"{self.declared} but file ends after "
                             f"{self.rows_read}", path=self.path,
                             line=self.line_no + 1)

    def _block_rows(self, text: bytes):
        """The good rows of one ``_text`` block, as ``_rows`` yields them;
        returns True when a row past ``max_rows`` was met."""
        ends, data = _scan(text)
        first = self.line_no + 1  # the line number of the block's first line
        rows = np.flatnonzero(data)  # the data lines, counted in the block
        room = len(rows) if self.max_rows is None \
            else self.max_rows - self.rows_read
        rows, extra = rows[:room], rows[room:]  # extra: past max_rows
        values = self._parse(text, len(rows))
        good = len(values)
        self.rows_read += good
        yield values, rows[:good] + first
        if good < len(rows):
            end = ends[rows[good]]
            raise self._row_error(text[text.rfind(b"\n", 0, end) + 1:end],
                                  first + int(rows[good]))
        if not len(extra):
            self.line_no += len(ends)
            return False
        self.line_no = first + int(extra[0])
        if self.forbid_extra_rows:
            raise ParseError(f"expected {self.max_rows} data rows, found "
                             f"extra data", path=self.path, line=self.line_no)
        return True

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


def _join(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """One chunk from its ``(values, lines)`` parts."""
    if len(parts) == 1:
        return parts[0]
    return (np.concatenate([values for values, _ in parts]),
            np.concatenate([lines for _, lines in parts]))


def count_data_rows(path) -> int:
    """Count the lines that hold data, as ``TableChunks`` finds them,
    without parsing numbers."""
    with open(path, "rb") as fh:
        return sum(int(np.count_nonzero(_scan(_text(block))[1]))
                   for block in _blocks(fh))


def rows_to_text(matrix: np.ndarray, fmt: str) -> bytes:
    """Format a numeric matrix as encoded lines (one row per line).

    The bytes ``np.savetxt`` would write: it applies ``fmt % tuple(row)``
    to each float64 row, and this applies the same format to the same
    values, ``FORMAT_ROWS`` rows per ``%`` call."""
    line = fmt + "\n"
    parts = []
    for lo in range(0, len(matrix), FORMAT_ROWS):
        rows = matrix[lo:lo + FORMAT_ROWS]
        parts.append((line * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(parts).encode("ascii")


def check_colors(values: np.ndarray, lines: np.ndarray, top: int, path,
                 bottom: int = 0):
    """Fail at the first row with a color value outside bottom..top."""
    bad = ~((values >= bottom) & (values <= top))
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise ParseError(
            f"color value {values[row][bad[row]][0]:g} outside "
            f"{bottom}..{top}", path=path, line=int(lines[row]))
