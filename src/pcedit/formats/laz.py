"""LAZ support, delegated to laspy + a LAZ backend when installed.

Compression is the one piece of the format layer that leans on an external
codec; everything else in this package reads and writes bytes directly.
Install the ``laz`` extra (``pip install pcedit[laz]``) to enable it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cloud import PointCloud
from ..errors import CodecUnavailable, HeaderMismatch, UnsupportedPointRecord
from ._base import (BINARY, DEFAULT_CHUNK_POINTS, DEFAULT_LAS_SCALE,
                    FormatDescriptor, narrow_16bit, widen_8bit)
from .las import _COLOR_FORMATS, check_finite, check_scale, read_header

FAMILY = "las"

_MISSING = ("LAZ compression requires the optional laspy codec; install "
            "the 'laz' extra (pip install pcedit[laz])")


def _require_laspy():
    try:
        import laspy
    except ImportError:
        raise CodecUnavailable(_MISSING) from None
    try:
        backends = laspy.LazBackend.detect_available()
    except Exception:  # pragma: no cover - defensive
        backends = ()
    if not backends:
        raise CodecUnavailable(_MISSING)
    return laspy


class LazReader:
    """Everything but the points comes from the LAS header, so a LAZ file
    opens and counts without laspy; ``chunks`` needs it."""

    def __init__(self, path):
        self.path = Path(path)
        self.header = header = read_header(path)
        if not header.compressed:
            raise HeaderMismatch(
                f"{path}: .laz extension but the data is uncompressed LAS")
        if header.point_format not in (0, 1, 2, 3):
            raise UnsupportedPointRecord(
                f"LAS point record format {header.point_format} is not "
                f"supported (supported: 0-3)")
        self.descriptor = FormatDescriptor(
            kind="laz", encoding=BINARY,
            has_color=header.point_format in _COLOR_FORMATS,
            has_normals=False)
        self.count = header.count
        self.narrows_colors = self.descriptor.has_color

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_POINTS):
        with _require_laspy().open(str(self.path)) as fh:
            for points in fh.chunk_iterator(chunk_size):
                yield self._decode(points)
                del points  # the caller's chunk goes before the next

    def _decode(self, points) -> PointCloud:
        positions = np.column_stack([np.asarray(points.x),
                                     np.asarray(points.y),
                                     np.asarray(points.z)])
        colors = None
        if self.descriptor.has_color:
            colors = np.column_stack([narrow_16bit(np.asarray(points[c]))
                                      for c in ("red", "green", "blue")])
        return PointCloud(positions, colors)


class LazWriter:
    def __init__(self, path, descriptor: FormatDescriptor, *,
                 scale: float = DEFAULT_LAS_SCALE,
                 offset=(0.0, 0.0, 0.0)):
        scale = check_scale(scale)
        laspy = _require_laspy()
        check_finite(np.asarray(offset, dtype=np.float64))
        self.path = Path(path)
        self.descriptor = descriptor
        fmt = 2 if descriptor.has_color else 0
        header = laspy.LasHeader(version="1.2", point_format=fmt)
        header.scales = np.asarray([scale] * 3, dtype=np.float64)
        header.offsets = np.asarray(offset, dtype=np.float64)
        self._laspy = laspy
        self._header = header
        self._writer = laspy.open(str(path), mode="w", header=header)

    def write(self, chunk: PointCloud):
        n = chunk.count
        if n == 0:
            return
        check_finite(chunk.positions)
        record = self._laspy.ScaleAwarePointRecord.zeros(
            n, header=self._header)
        record.x = chunk.positions[:, 0]
        record.y = chunk.positions[:, 1]
        record.z = chunk.positions[:, 2]
        if self.descriptor.has_color:
            record.red = widen_8bit(chunk.colors[:, 0])
            record.green = widen_8bit(chunk.colors[:, 1])
            record.blue = widen_8bit(chunk.colors[:, 2])
        self._writer.write_points(record)

    def close(self) -> int:
        self._writer.close()
        return self.path.stat().st_size


def open_reader(path, kind: str) -> LazReader:
    return LazReader(path)


def open_writer(path, descriptor: FormatDescriptor, count: int | None, *,
                las_scale, las_offset) -> LazWriter:
    return LazWriter(path, descriptor, scale=las_scale, offset=las_offset)
