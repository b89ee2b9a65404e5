"""The whitespace-table family: .xyz, .xyzn, .xyzrgb.

.xyz      x y z
.xyzn     x y z nx ny nz
.xyzrgb   x y z r g b   -- colors are either bytes 0..255 or floats 0..1;
                           if every color value in the file is <= 1.0 the
                           float convention applies and values scale by 255.
                           Either way a value outside the range (or NaN)
                           is a ParseError at its line.
"""

from __future__ import annotations

from functools import partial
from itertools import starmap
from pathlib import Path

import numpy as np

from ..cloud import PointCloud, quantize_colors
from ._ascii import TableChunks, check_colors, count_data_rows
from ._base import ASCII, DEFAULT_CHUNK_POINTS, FormatDescriptor
from ._records import FileWriter, record_encoder, record_fields

FAMILY = None

_COLUMNS = {"xyz": 3, "xyzn": 6, "xyzrgb": 6}


class XyzReader:
    def __init__(self, path, kind: str):
        self.path = Path(path)
        self.kind = kind
        self.descriptor = FormatDescriptor(kind=kind, encoding=ASCII,
                                           has_color=kind == "xyzrgb",
                                           has_normals=kind == "xyzn")
        self._count: int | None = None
        self._colors_are_floats: bool | None = None

    @property
    def count(self) -> int:
        if self._count is None:
            if self.kind == "xyzrgb":
                self._float_convention()  # counts the rows as it scans
            else:
                self._count = count_data_rows(self.path)
        return self._count

    def _float_convention(self) -> bool:
        """True when every color value in the file other than NaN is <= 1.0
        (NaN is out of range in either convention).

        The scan fails at the first color that neither convention accepts,
        naming 0..1 if every color up to its row is <= 1.0 and 0..255
        otherwise, so the first bad row in file order is the one reported.
        """
        if self._colors_are_floats is None:
            peak = 0.0
            table = TableChunks(self.path, 6)
            for values, lines in table:
                block = values[:, 3:6]
                if not (block.min() >= 0 and block.max() <= 255):  # or NaN
                    rejected = ~((block >= 0) & (block <= 255)).all(axis=1)
                    head = block[:int(rejected.argmax()) + 1]
                    peak = max(peak, float(np.fmax.reduce(head, axis=None)))
                    check_colors(head, lines, 1 if peak <= 1.0 else 255,
                                 self.path)
                peak = max(peak, float(np.fmax.reduce(block, axis=None)))
                del values, lines, block  # before the next chunk is read
            self._colors_are_floats = peak <= 1.0
            self._count = table.rows_read
        return self._colors_are_floats

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_POINTS):
        table = TableChunks(self.path, _COLUMNS[self.kind],
                            chunk_size=chunk_size)
        scale_colors = self.kind == "xyzrgb" and self._float_convention()
        # starmap holds no chunk's values while the caller has its cloud
        yield from starmap(partial(self._decode, scale_colors=scale_colors),
                           table)
        self._count = table.rows_read

    def _decode(self, values, lines, scale_colors: bool) -> PointCloud:
        positions = np.ascontiguousarray(values[:, :3])
        colors = normals = None
        if self.kind == "xyzn":
            normals = np.ascontiguousarray(values[:, 3:6])
        elif self.kind == "xyzrgb":
            raw = values[:, 3:6]
            check_colors(raw, lines, 1 if scale_colors else 255, self.path)
            colors = quantize_colors(raw * 255.0 if scale_colors else raw)
        return PointCloud(positions, colors, normals)


def open_reader(path, kind: str) -> XyzReader:
    return XyzReader(path, kind)


def open_writer(path, descriptor: FormatDescriptor, count: int | None, *,
                las_scale, las_offset) -> FileWriter:
    return FileWriter(path, descriptor, b"",
                      record_encoder(ASCII, record_fields(descriptor)))
