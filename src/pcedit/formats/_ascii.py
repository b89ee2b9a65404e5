"""Chunked reader/writer helpers shared by every ASCII table format.

All the whitespace-separated formats (xyz family, pts, ascii ply/pcd) reduce
to "N numeric columns per line".  This module does the buffered parsing once,
keeps physical line numbers attached to every parsed row so errors can point
at the offending line, and formats outgoing rows deterministically.

Files are read in blocks of whole lines, each parsed into rows at once.  A
*plain* block -- number bytes only, no comment, carriage return or blank
line -- is parsed with one ``np.loadtxt`` call; any other block is parsed
line by line up to its first bad row.  ``np.loadtxt`` is the only number
rule either way, and the first bad row in file order is the one reported.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ParseError
from ._base import DEFAULT_CHUNK_POINTS

#: bytes read at a time; a block ends after the last line end read so far
BLOCK_BYTES = 8 << 20

#: rows per ``%`` call in ``rows_to_text``
FORMAT_ROWS = 32_768

_NUMBER_BYTES = b"0123456789eE.+- \t\n"
_BLANK_START = re.compile(rb"[ \t]*\n")
_BLANK_LINE = re.compile(rb"\n[ \t]*\n")


def _strip(line: str) -> str:
    """Drop inline comments and surrounding whitespace."""
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    return line.strip()


def _plain(block: bytes) -> bool:
    """True when each line of ``block`` is number bytes with at least one
    that is not a space or tab."""
    return not (block.translate(None, _NUMBER_BYTES)
                or _BLANK_START.match(block) or _BLANK_LINE.search(block))


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


def _text_lines(block: bytes):
    """The lines of ``block`` as text mode reads them."""
    return io.TextIOWrapper(io.BytesIO(block), encoding="utf-8",
                            errors="replace")


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
        self.line_no = sum(1 for _ in _text_lines(self.header))
        with open(self.path, "rb") as fh:
            fh.seek(len(self.header))
            for block in _blocks(fh):
                if (yield from self._block_rows(block)):
                    return  # max_rows reached: the rest is not read
                del block  # not alive while the next block is read
        if self.max_rows is not None and self.rows_read < self.max_rows:
            raise ParseError(f"{self.declared} but file ends after "
                             f"{self.rows_read}", path=self.path,
                             line=self.line_no + 1)

    def _block_rows(self, block: bytes):
        """The good rows of one block, as ``_rows`` yields them; returns
        True when a row past ``max_rows`` was met."""
        values = self._load(block)
        if values is not None:
            first = self.line_no + 1
            self.line_no += len(values)
            self.rows_read += len(values)
            yield values, np.arange(first, self.line_no + 1, dtype=np.int64)
            return False
        texts, numbers = [], []  # data rows, their line numbers
        full = False  # a row past max_rows was met
        for raw in _text_lines(block):
            self.line_no += 1
            text = _strip(raw)
            if not text:
                continue
            if self.rows_read + len(texts) == self.max_rows:
                full = True
                break
            texts.append(text)
            numbers.append(self.line_no)
        values = self._parse(texts)
        good = len(values)
        self.rows_read += good
        yield values, np.array(numbers[:good], dtype=np.int64)
        if good < len(texts):
            raise self._row_error(texts[good], numbers[good])
        if full and self.forbid_extra_rows:
            raise ParseError(f"expected {self.max_rows} data rows, found "
                             f"extra data", path=self.path, line=self.line_no)
        return full

    def _load(self, block: bytes) -> np.ndarray | None:
        """The rows of a plain block, one per line, parsed at once; None
        when the block must go through the per-line path."""
        lines = block.count(b"\n")
        if not lines or (self.max_rows is not None
                         and lines > self.max_rows - self.rows_read):
            return None
        if not _plain(block):
            return None
        # number bytes only, so the bytes parse as their text does, without
        # a 4-byte-per-character str
        return _floats(io.BytesIO(block), lines, self.n_columns)

    def _parse(self, texts: list[str]) -> np.ndarray:
        """The values of ``texts`` up to the first bad row.  Whether a
        prefix parses is monotone in its length, so after the whole list a
        bisection finds the longest one in O(n log n)."""
        good = np.empty((0, self.n_columns))
        lo, hi = 0, len(texts) + 1  # texts[:lo] parse, texts[:hi] do not
        mid = len(texts)
        while lo < mid:
            values = _floats(io.StringIO("\n".join(texts[:mid])), mid,
                             self.n_columns)
            if values is None:
                hi = mid
            else:
                lo, good = mid, values
            mid = (lo + hi) // 2
        return good

    def _row_error(self, text: str, line: int) -> ParseError:
        """Name what is wrong with a row ``np.loadtxt`` rejects."""
        tokens = text.split()
        if len(tokens) != self.n_columns:
            return ParseError(
                f"expected {self.n_columns} columns, found {len(tokens)}",
                path=self.path, line=line)
        bad = next((tok for tok in tokens
                    if _floats(io.StringIO(tok), 1, 1) is None), text)
        return ParseError(f"invalid number {bad!r}", path=self.path,
                          line=line)


def _floats(text: io.StringIO | io.BytesIO, rows: int,
            width: int) -> np.ndarray | None:
    """``text`` as a float64 ``(rows, width)`` array; None when
    ``np.loadtxt`` rejects a token or finds another shape.  Taking a
    stream lets the caller's ``str`` go before the parse."""
    try:
        values = np.loadtxt(text, dtype=np.float64, comments=None, ndmin=2)
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
    """Count non-blank, non-comment lines without parsing numbers."""
    rows = 0
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            if _plain(block):
                rows += block.count(b"\n")
            else:
                rows += sum(1 for raw in _text_lines(block) if _strip(raw))
    return rows


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
