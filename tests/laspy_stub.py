"""A stand-in for laspy with only the calls pcedit makes, for tests.

``tests/test_formats.py`` puts it into ``sys.modules["laspy"]`` with a
fixture, so the LAZ point path runs without the optional codec.  Its
"compressed" files are plain LAS 1.2 records behind a header whose point
format byte has the compression bit (0x80) set: the header pcedit reads is
real, and only the point bytes are not LAZ.
"""

from __future__ import annotations

import builtins
import struct

import numpy as np

_HEADER_FMT = "<4sHHIHH8sBB32s32sHHHIIBHI5I3d3d6d"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_COLOR_AT = {2: 20, 3: 28}  # byte of red in a point record, by format


def _dtype(point_format: int, record_length: int) -> np.dtype:
    names, formats, offsets = ["X", "Y", "Z"], ["<i4"] * 3, [0, 4, 8]
    if point_format in _COLOR_AT:
        names += ["red", "green", "blue"]
        formats += ["<u2"] * 3
        offsets += [_COLOR_AT[point_format] + 2 * i for i in range(3)]
    return np.dtype({"names": names, "formats": formats,
                     "offsets": offsets, "itemsize": record_length})


class LazBackend:
    @staticmethod
    def detect_available():
        return ("stub",)


class LasHeader:
    def __init__(self, *, version, point_format):
        self.version = version
        self.point_format = point_format
        self.scales = np.full(3, 0.01)
        self.offsets = np.zeros(3)


def _scaled(axis: int):
    name = "XYZ"[axis]

    def get(self):
        return self.array[name] * self.scales[axis] + self.offsets[axis]

    def set(self, values):
        self.array[name] = np.round(
            (np.asarray(values) - self.offsets[axis]) / self.scales[axis])
    return property(get, set)


def _field(name: str):
    def set(self, values):
        self.array[name] = values
    return property(lambda self: self.array[name], set)


class ScaleAwarePointRecord:
    def __init__(self, array, scales, offsets):
        self.array, self.scales, self.offsets = array, scales, offsets

    @classmethod
    def zeros(cls, n, *, header):
        length = 26 if header.point_format in _COLOR_AT else 20
        return cls(np.zeros(n, _dtype(header.point_format, length)),
                   header.scales, header.offsets)

    x, y, z = _scaled(0), _scaled(1), _scaled(2)
    red, green, blue = _field("red"), _field("green"), _field("blue")

    def __len__(self):
        return len(self.array)

    def __getitem__(self, name):
        return self.array[name]


class _Reader:
    def __init__(self, path):
        with builtins.open(path, "rb") as fh:
            data = fh.read()
        fields = struct.unpack_from(_HEADER_FMT, data)
        start, raw_format, length = fields[14], fields[16], fields[17]
        self.count = fields[18]
        self.scales, self.offsets = fields[24:27], fields[27:30]
        self.records = np.frombuffer(
            data, _dtype(raw_format & 0x3F, length), self.count, start)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def chunk_iterator(self, chunk_size):
        for start in range(0, self.count, chunk_size):
            yield ScaleAwarePointRecord(
                self.records[start:start + chunk_size], self.scales,
                self.offsets)


class _Writer:
    def __init__(self, path, header):
        self.path, self.header, self.parts = path, header, []

    def write_points(self, record):
        self.parts.append(record.array.copy())

    def close(self):
        header = self.header
        length = ScaleAwarePointRecord.zeros(0, header=header).array.itemsize
        count = sum(map(len, self.parts))
        packed = struct.pack(
            _HEADER_FMT, b"LASF", 0, 0, 0, 0, 0, b"", 1, 2, b"stub", b"stub",
            0, 0, _HEADER_SIZE, _HEADER_SIZE, 0, header.point_format | 0x80,
            length, count, count, 0, 0, 0, 0, *header.scales,
            *header.offsets, *[0.0] * 6)  # the bounds are not read
        with builtins.open(self.path, "wb") as fh:
            fh.write(packed)
            for part in self.parts:
                fh.write(part.tobytes())


def open(path, mode="r", header=None):
    return _Writer(path, header) if mode == "w" else _Reader(path)
