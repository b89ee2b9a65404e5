"""Native LAS reader/writer built on struct + numpy.

Reading handles LAS 1.0-1.4 point record formats 0-3 (anything beyond the
standard record length is skipped as opaque extra bytes); writing emits
LAS 1.2 with point format 0 (no color) or 2 (RGB).  Colors widen to 16 bit
on write (x257) and narrow on read (>>8), matching common LAS tooling.

File creation day/year are written as 0 so output bytes depend only on the
point data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cloud import PointCloud
from ..errors import HeaderMismatch, ParseError, RangeError, UnsupportedPointRecord
from ._base import (BINARY, DEFAULT_CHUNK_POINTS, DEFAULT_LAS_SCALE,
                    FormatDescriptor, narrow_16bit, widen_8bit)
from ._records import FileWriter, read_records

FAMILY = "las"

_MAGIC = b"LASF"
_HEADER_FMT = "<4sHHIHH8sBB32s32sHHHIIBHI5I3d3d6d"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
assert _HEADER_SIZE == 227

_LEGACY_COUNT_OFFSET = 107
_SCALE_OFFSET = 131
_OFFSET_OFFSET = 155
_MINMAX_OFFSET = 179
_EXTENDED_COUNT_OFFSET = 247

_BASE_FIELDS = [("X", "<i4"), ("Y", "<i4"), ("Z", "<i4"),
                ("intensity", "<u2"), ("flags", "u1"),
                ("classification", "u1"), ("scan_angle", "i1"),
                ("user_data", "u1"), ("point_source", "<u2")]
_GPS_FIELD = [("gps_time", "<f8")]
_RGB_FIELDS = [("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]

_FORMAT_FIELDS = {
    0: _BASE_FIELDS,
    1: _BASE_FIELDS + _GPS_FIELD,
    2: _BASE_FIELDS + _RGB_FIELDS,
    3: _BASE_FIELDS + _GPS_FIELD + _RGB_FIELDS,
}

_COLOR_FORMATS = (2, 3)


@dataclass
class _Header:
    version: tuple[int, int]
    point_format: int
    compressed: bool
    record_length: int
    offset_to_points: int
    count: int
    scales: tuple[float, float, float]
    offsets: tuple[float, float, float]


def read_header(path) -> _Header:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_SIZE)
        if len(raw) < _HEADER_SIZE:
            raise ParseError("file shorter than a LAS header", path=path,
                             offset=len(raw))
        fields = struct.unpack(_HEADER_FMT, raw)
        if fields[0] != _MAGIC:
            raise ParseError("missing LASF signature", path=path, offset=0)
        ver_major, ver_minor = fields[7], fields[8]
        header_size, offset_to_points = fields[13], fields[14]
        point_format_raw, record_length = fields[16], fields[17]
        legacy_count = fields[18]
        scales = fields[24:27]
        offsets = fields[27:30]
        if header_size < _HEADER_SIZE:
            raise ParseError(f"header size {header_size} below LAS minimum",
                             path=path, offset=94)
        _check_grid(scales, offsets, path)
        count = legacy_count
        if (ver_major, ver_minor) >= (1, 4) and header_size >= 255:
            fh.seek(_EXTENDED_COUNT_OFFSET)
            extended = struct.unpack("<Q", fh.read(8))[0]
            if extended:
                count = extended
    compressed = bool(point_format_raw & 0x80)
    point_format = point_format_raw & 0x3F
    return _Header(version=(ver_major, ver_minor), point_format=point_format,
                   compressed=compressed, record_length=record_length,
                   offset_to_points=offset_to_points, count=count,
                   scales=scales, offsets=offsets)


def _check_grid(scales, offsets, path) -> None:
    """Fail at the first x/y/z scale that is not finite and > 0, then at
    the first offset that is not finite: either would turn every position
    on that axis into NaN, infinity or the offset."""
    for axis, scale in enumerate(scales):
        if not (math.isfinite(scale) and scale > 0):
            raise ParseError(f"{'xyz'[axis]} scale must be finite and > 0, "
                             f"got {scale:g}", path=path,
                             offset=_SCALE_OFFSET + 8 * axis)
    for axis, offset in enumerate(offsets):
        if not math.isfinite(offset):
            raise ParseError(f"{'xyz'[axis]} offset must be finite, got "
                             f"{offset:g}", path=path,
                             offset=_OFFSET_OFFSET + 8 * axis)


def _record_dtype(point_format: int, record_length: int,
                  path) -> np.dtype:
    fields = _FORMAT_FIELDS.get(point_format)
    if fields is None:
        raise UnsupportedPointRecord(
            f"LAS point record format {point_format} is not supported "
            f"(supported: 0-3)")
    dtype = np.dtype(fields)
    if record_length < dtype.itemsize:
        raise ParseError(
            f"record length {record_length} too small for point format "
            f"{point_format}", path=path, offset=105)
    if record_length > dtype.itemsize:
        fields = fields + [("extra", f"V{record_length - dtype.itemsize}")]
        dtype = np.dtype(fields)
    return dtype


class LasReader:
    def __init__(self, path):
        self.path = Path(path)
        self.header = read_header(path)
        if self.header.compressed:
            raise HeaderMismatch(
                f"{path}: data is LAZ-compressed; use the .laz format")
        self._dtype = _record_dtype(self.header.point_format,
                                    self.header.record_length, path)
        self.descriptor = FormatDescriptor(
            kind="las", encoding=BINARY,
            has_color=self.header.point_format in _COLOR_FORMATS,
            has_normals=False)
        self.count = self.header.count
        self.narrows_colors = self.descriptor.has_color

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_POINTS):
        for records in read_records(self.path, self._dtype,
                                    self.header.offset_to_points, self.count,
                                    chunk_size):
            yield self._decode(records)
            del records  # the caller's chunk goes before the next is read

    def _decode(self, records: np.ndarray) -> PointCloud:
        positions = np.empty((records.shape[0], 3))
        for axis, name in enumerate("XYZ"):
            positions[:, axis] = records[name]
            positions[:, axis] *= self.header.scales[axis]
            positions[:, axis] += self.header.offsets[axis]
        colors = None
        if self.descriptor.has_color:
            colors = np.column_stack(
                [narrow_16bit(records[c]) for c in ("red", "green", "blue")])
        return PointCloud(positions, colors)


def check_finite(values: np.ndarray) -> None:
    """LAS stores positions as integers on a grid: NaN and infinity have no
    place on it, so they fail instead of spreading through an axis."""
    if not np.isfinite(values).all():
        raise RangeError("LAS cannot store NaN or infinite coordinates")


def check_scale(scale) -> float:
    """The LAS grid step as a float: finite and > 0, or every position
    would be stored as (and read back as) NaN, infinity or nonsense."""
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise RangeError(f"LAS scale must be finite and > 0, got {scale:g}")
    return scale


def _pack_header(count: int, point_format: int, record_length: int,
                 scales, offsets, mins, maxs) -> bytes:
    return struct.pack(
        _HEADER_FMT,
        _MAGIC,
        0,                  # file source id
        0,                  # global encoding
        0, 0, 0, b"",       # project GUID
        1, 2,               # version 1.2
        b"pcedit".ljust(32, b"\0"),
        b"pcedit".ljust(32, b"\0"),
        0, 0,               # creation day/year: fixed for determinism
        _HEADER_SIZE,
        _HEADER_SIZE,       # points start right after the header
        0,                  # no VLRs
        point_format,
        record_length,
        count,
        count, 0, 0, 0, 0,  # points by return: all first-return
        scales[0], scales[1], scales[2],
        offsets[0], offsets[1], offsets[2],
        maxs[0], mins[0], maxs[1], mins[1], maxs[2], mins[2])


class LasWriter(FileWriter):
    """Streaming LAS 1.2 writer; count and bounds are patched on close."""

    def __init__(self, path, descriptor: FormatDescriptor, *,
                 scale: float = DEFAULT_LAS_SCALE,
                 offset: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        self.point_format = 2 if descriptor.has_color else 0
        self._dtype = np.dtype(_FORMAT_FIELDS[self.point_format])
        self._scale = check_scale(scale)
        self._offset = np.asarray(offset, dtype=np.float64)
        check_finite(self._offset)
        self._count = 0
        self._int_min = np.full(3, np.iinfo(np.int64).max, dtype=np.int64)
        self._int_max = np.full(3, np.iinfo(np.int64).min, dtype=np.int64)
        super().__init__(path, descriptor,
                         _pack_header(0, self.point_format,
                                      self._dtype.itemsize,
                                      (self._scale,) * 3, self._offset,
                                      (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                         self._records)

    def _records(self, chunk: PointCloud) -> list[np.ndarray]:
        n = chunk.count
        if n == 0:
            return []
        check_finite(chunk.positions)
        # grid steps from the offset, whole numbers kept in float64 until
        # they are stored
        ints = chunk.positions - self._offset
        ints /= self._scale
        np.rint(ints, out=ints)
        # one reduction per column, as in formats._minimum_pass
        lows = np.array([column.min() for column in ints.T])
        highs = np.array([column.max() for column in ints.T])
        limit = np.iinfo(np.int32)
        if lows.min() < limit.min or highs.max() > limit.max:
            raise RangeError(
                f"coordinates span more than the int32 LAS grid at scale "
                f"{self._scale:g}; increase the scale or adjust the offset")
        self._int_min = np.minimum(self._int_min, lows.astype(np.int64))
        self._int_max = np.maximum(self._int_max, highs.astype(np.int64))
        records = np.zeros(n, dtype=self._dtype)
        records["X"] = ints[:, 0]
        records["Y"] = ints[:, 1]
        records["Z"] = ints[:, 2]
        if self.descriptor.has_color:
            records["red"] = widen_8bit(chunk.colors[:, 0])
            records["green"] = widen_8bit(chunk.colors[:, 1])
            records["blue"] = widen_8bit(chunk.colors[:, 2])
        self._count += n
        return [records]

    def close(self) -> int:
        if self._count:
            mins = self._int_min * self._scale + self._offset
            maxs = self._int_max * self._scale + self._offset
        else:
            mins = maxs = np.zeros(3)
        self._fh.seek(_LEGACY_COUNT_OFFSET)
        self._fh.write(struct.pack("<I", self._count))
        self._fh.write(struct.pack("<I", self._count))  # returns[0]
        self._fh.seek(_MINMAX_OFFSET)
        self._fh.write(struct.pack("<6d", maxs[0], mins[0], maxs[1],
                                   mins[1], maxs[2], mins[2]))
        return super().close()


def open_reader(path, kind: str) -> LasReader:
    return LasReader(path)


def open_writer(path, descriptor: FormatDescriptor, count: int | None, *,
                las_scale, las_offset) -> LasWriter:
    return LasWriter(path, descriptor, scale=las_scale, offset=las_offset)
