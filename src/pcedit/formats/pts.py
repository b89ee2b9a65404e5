"""Leica-style .pts: a count line followed by ``x y z intensity r g b`` rows.

The intensity column is read past and written as 0; colors are bytes.
The row count declared on line 1 is enforced both ways — short files fail
at the line where the missing row should start, long files fail at the
first surplus row.
"""

from __future__ import annotations

import re
from itertools import starmap
from pathlib import Path

import numpy as np

from ..cloud import PointCloud, quantize_colors
from ..errors import ParseError
from ._ascii import TableChunks, check_colors
from ._base import ASCII, DEFAULT_CHUNK_POINTS, FormatDescriptor
from ._records import (COLORS, HEADER_LINE_BYTES, POSITIONS, FileWriter,
                       record_encoder)

FAMILY = None

_COLUMNS = 7  # x y z intensity r g b

_LINE_END = re.compile(rb"\r\n|\r|\n")

_DESCRIPTOR = FormatDescriptor(kind="pts", encoding=ASCII, has_color=True,
                               has_normals=False)

#: intensity is not kept, so every row carries a literal 0 in its place
_ENCODE = record_encoder(ASCII,
                         [POSITIONS, COLORS._replace(fmt="0 %d %d %d")])


def _read_count(path) -> tuple[int, bytes]:
    """The declared point count and the bytes of its line, which ends where
    text mode ends a line: at ``\\r\\n``, ``\\r`` or ``\\n``.  The line
    must end within ``HEADER_LINE_BYTES``, so a file whose lines end in a
    lone ``\\r`` is not read whole to find it."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_LINE_BYTES + 1)
    if not head:
        raise ParseError("missing point-count header", path=path, line=1)
    end = _LINE_END.search(head)
    header = head[:end.end()] if end else head
    if len(header) > HEADER_LINE_BYTES:
        raise ParseError(f"point-count line is longer than "
                         f"{HEADER_LINE_BYTES} bytes", path=path, line=1)
    text = header.decode("utf-8", errors="replace").strip()
    try:
        count = int(text)
    except ValueError:
        raise ParseError(f"point-count header is not an integer: {text!r}",
                         path=path, line=1) from None
    if count < 0:
        raise ParseError(f"negative point count {count}", path=path, line=1)
    return count, header


class PtsReader:
    def __init__(self, path):
        self.path = Path(path)
        self.descriptor = _DESCRIPTOR
        self.count, self._header = _read_count(path)

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_POINTS):
        table = TableChunks(self.path, _COLUMNS, header=self._header,
                            max_rows=self.count, forbid_extra_rows=True,
                            declared=f"header declares {self.count} points",
                            chunk_size=chunk_size)
        # starmap holds no chunk's values while the caller has its cloud
        yield from starmap(self._decode, table)

    def _decode(self, values, lines) -> PointCloud:
        check_colors(values[:, 4:7], lines, 255, self.path)
        return PointCloud(np.ascontiguousarray(values[:, :3]),
                          quantize_colors(values[:, 4:7]))


def open_reader(path, kind: str) -> PtsReader:
    return PtsReader(path)


def open_writer(path, descriptor: FormatDescriptor, count: int | None, *,
                las_scale, las_offset) -> FileWriter:
    if count is None:
        raise ValueError("pts writer requires the point count up front")
    return FileWriter(path, descriptor, f"{count}\n".encode("ascii"), _ENCODE)
