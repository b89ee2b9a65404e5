"""The laspy calls behind LAZ: decompressing points for ``las.LasReader``
and compressing them in ``LazWriter``.

Compression is the one piece of the format layer that leans on an external
codec; everything else in this package, the LAZ header included, reads and
writes bytes directly.  ``las.py`` imports this module only when LAZ points
are read or written.  Install the ``laz`` extra (``pip install pcedit[laz]``)
to enable it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cloud import PointCloud, check_chunk_size
from ..errors import CodecUnavailable
from ._base import DEFAULT_LAS_SCALE, FormatDescriptor, widen_8bit
from .las import check_finite, check_scale

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


def read_points(path, chunk_size: int):
    """laspy's points of ``path``, ``chunk_size`` at a time."""
    check_chunk_size(chunk_size)
    with _require_laspy().open(str(path)) as fh:
        yield from fh.chunk_iterator(chunk_size)


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
