"""Chunked reader/writer helpers shared by every ASCII table format.

All the whitespace-separated formats (xyz family, pts, ascii ply/pcd) reduce
to "N numeric columns per line".  This module does the buffered parsing once,
keeps physical line numbers attached to every parsed row so errors can point
at the offending line, and formats outgoing rows deterministically.

Files are read in blocks of whole lines.  A *plain* block -- number bytes
only, no comment, carriage return or blank line -- is parsed with one
``np.loadtxt`` call; any other block goes through the per-line path, which
strips comments and names the line of a bad row.  Either way a chunk holds
the same rows and fails with the same error as if every line had gone
through the per-line path.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ParseError
from ._base import DEFAULT_CHUNK_POINTS

#: bytes read at a time; a block ends after the last newline read so far
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
    """The rest of binary ``fh`` as blocks of whole lines, each ending in
    ``\\n`` (one is added to a last line that has none)."""
    carry = b""
    while data := fh.read(BLOCK_BYTES):
        data = carry + data
        cut = data.rfind(b"\n") + 1
        carry = data[cut:]
        if cut:
            yield data[:cut]
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
    the totals.  A file with fewer than ``max_rows`` rows fails with a
    ParseError that starts with ``declared`` (what promised the rows).
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
        # the chunk being built, in row order: (values, lines) arrays from
        # plain blocks and (texts, line numbers) lists from the per-line path
        parts: list = []
        filled = 0
        self.rows_read = 0
        self.line_no = sum(1 for _ in _text_lines(self.header))
        with open(self.path, "rb") as fh:
            fh.seek(len(self.header))
            for block in _blocks(fh):
                values = self._load(block)
                if values is not None:
                    first = self.line_no + 1
                    self.line_no += len(values)
                    self.rows_read += len(values)
                    lines = np.arange(first, self.line_no + 1, dtype=np.int64)
                    lo = 0
                    while lo < len(values):
                        hi = min(len(values), lo + self.chunk_size - filled)
                        parts.append((values[lo:hi], lines[lo:hi]))
                        filled += hi - lo
                        lo = hi
                        if filled == self.chunk_size:
                            yield self._join(parts)
                            parts, filled = [], 0
                    continue
                buffer: list[str] = []
                numbers: list[int] = []
                parts.append((buffer, numbers))
                for raw in _text_lines(block):
                    self.line_no += 1
                    text = _strip(raw)
                    if not text:
                        continue
                    if (self.max_rows is not None
                            and self.rows_read >= self.max_rows):
                        if self.forbid_extra_rows:
                            raise ParseError(
                                f"expected {self.max_rows} data rows, "
                                f"found extra data",
                                path=self.path, line=self.line_no)
                        break
                    buffer.append(text)
                    numbers.append(self.line_no)
                    self.rows_read += 1
                    filled += 1
                    if filled == self.chunk_size:
                        yield self._join(parts)
                        buffer, numbers = [], []
                        parts, filled = [(buffer, numbers)], 0
                else:
                    continue
                break  # max_rows reached: the rest is not read
        if filled:
            yield self._join(parts)
        if self.max_rows is not None and self.rows_read < self.max_rows:
            raise ParseError(f"{self.declared} but file ends after "
                             f"{self.rows_read}", path=self.path,
                             line=self.line_no + 1)

    def _load(self, block: bytes) -> np.ndarray | None:
        """The rows of a plain block, one per line, parsed at once; None
        when the block must go through the per-line path."""
        lines = block.count(b"\n")
        if not lines or (self.max_rows is not None
                         and lines > self.max_rows - self.rows_read):
            return None
        if not _plain(block):
            return None
        try:
            values = np.loadtxt(io.StringIO(block.decode("ascii")),
                                dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
        return values if values.shape == (lines, self.n_columns) else None

    def _join(self, parts: list) -> tuple[np.ndarray, np.ndarray]:
        """One chunk from its parts.  Text parts are parsed together; rows
        from plain blocks are valid, so a bad text row fails exactly as it
        would if the whole chunk had been read line by line."""
        parts = [part for part in parts if len(part[1])]
        texts = [part for part in parts if isinstance(part[1], list)]
        if texts:
            buffer = [text for part in texts for text in part[0]]
            numbers = [number for part in texts for number in part[1]]
            mixed = len(texts) < len(parts)
            parsed = self._parse(buffer, numbers,
                                 int(parts[0][1][0]) if mixed else None)
            at = 0
            for i, (_, lines) in enumerate(parts):
                if isinstance(lines, list):
                    parts[i] = (parsed[at:at + len(lines)],
                                np.asarray(lines, dtype=np.int64))
                    at += len(lines)
        if len(parts) == 1:
            return parts[0]
        return (np.concatenate([values for values, _ in parts]),
                np.concatenate([lines for _, lines in parts]))

    def _parse(self, buffer: list[str], numbers: list[int],
               first_line: int | None = None) -> np.ndarray:
        """Parse text rows.  ``first_line`` is where their chunk starts when
        it also holds rows from plain blocks; None when these are all."""
        try:
            values = np.loadtxt(io.StringIO("\n".join(buffer)),
                                dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None:
            if values.shape[1] == self.n_columns:
                return values
            if first_line is None:
                raise ParseError(
                    f"expected {self.n_columns} columns, "
                    f"found {values.shape[1]}",
                    path=self.path, line=numbers[0])
        self._locate_bad_row(buffer, numbers)
        raise ParseError("malformed numeric data", path=self.path,
                         line=numbers[0] if first_line is None
                         else first_line)  # pragma: no cover

    def _locate_bad_row(self, buffer: list[str], numbers: list[int]):
        """Re-scan a failed block line by line to name the culprit."""
        for text, line_no in zip(buffer, numbers):
            tokens = text.split()
            if len(tokens) != self.n_columns:
                raise ParseError(
                    f"expected {self.n_columns} columns, found {len(tokens)}",
                    path=self.path, line=line_no)
            for tok in tokens:
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"invalid number {tok!r}",
                                     path=self.path, line=line_no) from None


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


def check_colors(values: np.ndarray, lines: np.ndarray, top: int, path):
    """Fail at the first row whose color values are not all in 0..top."""
    bad = ~((values >= 0) & (values <= top))
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise ParseError(
            f"color value {values[row][bad[row]][0]:g} outside 0..{top}",
            path=path, line=int(lines[row]))
