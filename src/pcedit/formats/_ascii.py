"""Chunked reader/writer helpers shared by every ASCII table format.

All the whitespace-separated formats (xyz family, pts, ascii ply/pcd) reduce
to "N numeric columns per line".  This module does the buffered parsing once,
keeps physical line numbers attached to every parsed row so errors can point
at the offending line, and formats outgoing rows deterministically.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import ParseError
from ._base import DEFAULT_CHUNK_POINTS


def _strip(line: str) -> str:
    """Drop inline comments and surrounding whitespace."""
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    return line.strip()


class TableChunks:
    """Iterate the numeric rows of a text file in fixed-size batches.

    Yields ``(values, lines)`` pairs where ``values`` is float64 of shape
    ``(k, n_columns)`` and ``lines`` holds the 1-based physical line number
    of each row.  Blank lines and ``#`` comments are skipped but still count
    toward line numbers.  After exhaustion ``rows_read`` and ``line_no`` hold
    the totals.  A file with fewer than ``max_rows`` rows fails with a
    ParseError that starts with ``declared`` (what promised the rows).
    """

    def __init__(self, path, n_columns: int, *, skip_header_lines: int = 0,
                 max_rows: int | None = None, declared: str = "",
                 forbid_extra_rows: bool = False,
                 chunk_size: int = DEFAULT_CHUNK_POINTS):
        self.path = Path(path)
        self.n_columns = n_columns
        self.skip_header_lines = skip_header_lines
        self.max_rows = max_rows
        self.declared = declared
        self.forbid_extra_rows = forbid_extra_rows
        self.chunk_size = chunk_size
        self.rows_read = 0
        self.line_no = 0

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        buffer: list[str] = []
        numbers: list[int] = []
        self.rows_read = 0
        self.line_no = 0
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            for _ in range(self.skip_header_lines):
                if not fh.readline():
                    break
                self.line_no += 1
            for raw in fh:
                self.line_no += 1
                text = _strip(raw)
                if not text:
                    continue
                if self.max_rows is not None and self.rows_read >= self.max_rows:
                    if self.forbid_extra_rows:
                        raise ParseError(
                            f"expected {self.max_rows} data rows, found extra data",
                            path=self.path, line=self.line_no)
                    break
                buffer.append(text)
                numbers.append(self.line_no)
                self.rows_read += 1
                if len(buffer) >= self.chunk_size:
                    yield self._parse(buffer, numbers)
                    buffer, numbers = [], []
        if buffer:
            yield self._parse(buffer, numbers)
        if self.max_rows is not None and self.rows_read < self.max_rows:
            raise ParseError(f"{self.declared} but file ends after "
                             f"{self.rows_read}", path=self.path,
                             line=self.line_no + 1)

    def _parse(self, buffer: list[str], numbers: list[int]):
        try:
            values = np.loadtxt(io.StringIO("\n".join(buffer)),
                                dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            self._locate_bad_row(buffer, numbers)
            raise ParseError("malformed numeric data", path=self.path,
                             line=numbers[0])  # pragma: no cover
        if values.shape[1] != self.n_columns:
            raise ParseError(
                f"expected {self.n_columns} columns, found {values.shape[1]}",
                path=self.path, line=numbers[0])
        return values, np.asarray(numbers, dtype=np.int64)

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


def count_data_rows(path, *, skip_header_lines: int = 0) -> int:
    """Count non-blank, non-comment lines without parsing numbers."""
    rows = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for _ in range(skip_header_lines):
            if not fh.readline():
                return 0
        for raw in fh:
            if _strip(raw):
                rows += 1
    return rows


def rows_to_text(matrix: np.ndarray, fmt: str) -> bytes:
    """Format a numeric matrix as encoded lines (one row per line)."""
    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt=fmt, newline="\n")
    return buf.getvalue().encode("ascii")


def check_colors(values: np.ndarray, lines: np.ndarray, top: int, path):
    """Fail at the first row whose color values are not all in 0..top."""
    bad = ~((values >= 0) & (values <= top))
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise ParseError(
            f"color value {values[row][bad[row]][0]:g} outside 0..{top}",
            path=path, line=int(lines[row]))
