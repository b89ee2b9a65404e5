"""PCD v0.7 reader/writer (ascii and binary; binary_compressed rejected).

Color travels as the usual packed ``rgb`` scalar (0x00RRGGBB).  Files
written here use double-precision position/normal fields and an unsigned
``rgb`` field, so binary round trips preserve positions exactly and ascii
output never loses color bits to float packing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cloud import PointCloud
from ..errors import ParseError
from ._ascii import check_colors
from ._base import ASCII, BINARY, DEFAULT_CHUNK_POINTS, FormatDescriptor
from ._records import (NORMALS, FileWriter, Fields, RecordLayout,
                       read_header_lines, record_columns, record_encoder,
                       record_fields)

FAMILY = "pcd"

_TYPE_CODES = {("I", 1): "i1", ("I", 2): "i2", ("I", 4): "i4", ("I", 8): "i8",
               ("U", 1): "u1", ("U", 2): "u2", ("U", 4): "u4", ("U", 8): "u8",
               ("F", 4): "f4", ("F", 8): "f8"}

_XYZ = ("x", "y", "z")
_NORMAL_NAMES = ("normal_x", "normal_y", "normal_z")


def _is_data_line(line: str) -> bool:
    tokens = line.split()
    return bool(tokens) and tokens[0].upper() == "DATA"


def _parse_header(path) -> RecordLayout:
    lines, header = read_header_lines(path, _is_data_line, 100,
                                      "missing DATA line")
    entries: dict[str, list[str]] = {}
    for line in lines:
        if line and not line.startswith("#"):
            tokens = line.split()
            entries[tokens[0].upper()] = tokens[1:]

    def fail(message):
        return ParseError(message, path=path, line=len(lines))

    for key in ("FIELDS", "SIZE", "TYPE", "WIDTH", "HEIGHT", "DATA"):
        if key not in entries:
            raise fail(f"missing {key} line")
    names = entries["FIELDS"]
    sizes = entries["SIZE"]
    types = entries["TYPE"]
    counts = entries.get("COUNT", ["1"] * len(names))
    if not (len(names) == len(sizes) == len(types) == len(counts)):
        raise fail("FIELDS/SIZE/TYPE/COUNT lengths differ")

    fields = []
    for name, size, type_char, count in zip(names, sizes, types, counts):
        try:
            code = _TYPE_CODES[(type_char, int(size))]
        except (KeyError, ValueError):
            raise fail(f"unsupported field type {type_char}{size}") from None
        if not count.isdigit() or int(count) < 1:
            raise fail(f"bad COUNT {count!r} for field {name!r}")
        fields.append((name, code, int(count)))

    mode = entries["DATA"][0] if entries["DATA"] else ""
    if mode == "ascii":
        encoding = ASCII
    elif mode == "binary":
        encoding = BINARY
    elif mode == "binary_compressed":
        raise fail("binary_compressed PCD is not supported")
    else:
        raise fail(f"unknown DATA mode {mode!r}")

    try:
        width = int(entries["WIDTH"][0])
        height = int(entries["HEIGHT"][0])
        count = int(entries["POINTS"][0]) if "POINTS" in entries \
            else width * height
    except (ValueError, IndexError):
        raise fail("bad WIDTH/HEIGHT/POINTS value") from None
    if min(width, height, count) < 0:
        raise fail(f"negative WIDTH/HEIGHT/POINTS value "
                   f"{min(width, height, count)}")

    layout = RecordLayout(encoding=encoding, count=count, fields=fields,
                          header=header)
    for axis in _XYZ:
        if layout.first(axis) is None or layout.code(axis)[0] != "f":
            raise fail(f"missing float field {axis!r}")
    for name in _XYZ + _NORMAL_NAMES + ("rgb", "rgba"):
        at = layout.first(name)
        if at is not None and fields[at][2] != 1:
            raise fail(f"field {name!r} must have COUNT 1")
    return layout


def _unpack_rgb(packed: np.ndarray) -> np.ndarray:
    """0x00RRGGBB uint32 column -> (n, 3) uint8."""
    colors = np.empty((len(packed), 3), dtype=np.uint8)
    for channel, shift in enumerate((16, 8, 0)):
        colors[:, channel] = packed >> shift   # keeps the low 8 bits
    return colors


def _pack_rgb(colors: np.ndarray) -> np.ndarray:
    c = colors.astype(np.uint32)
    return (c[:, 0] << 16) | (c[:, 1] << 8) | c[:, 2]


_NORMALS = NORMALS._replace(names=_NORMAL_NAMES)
_RGB = Fields(("rgb",), "<u4", "%u",
              lambda cloud: _pack_rgb(cloud.colors)[:, None])


class PcdReader:
    def __init__(self, path):
        self.path = Path(path)
        self._layout = _parse_header(path)
        present = self._layout.first
        self._rgb = next((name for name in ("rgb", "rgba")
                          if present(name) is not None), None)
        self.descriptor = FormatDescriptor(
            kind="pcd", encoding=self._layout.encoding,
            has_color=self._rgb is not None,
            has_normals=all(present(n) is not None for n in _NORMAL_NAMES))
        self.count = self._layout.count

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_POINTS):
        declared = f"POINTS declares {self.count} rows"
        yield from record_columns(self.path, self._layout, chunk_size,
                                  declared, "points", self._decode)

    def _decode(self, block, lines) -> PointCloud:
        colors = None if self._rgb is None \
            else self._colors(block((self._rgb,)), lines)
        normals = block(_NORMAL_NAMES) if self.descriptor.has_normals else None
        return PointCloud(block(_XYZ), colors, normals)  # as float64

    def _colors(self, raw: np.ndarray, lines) -> np.ndarray:
        """Unpack one packed-rgb column: float bits or an integer value,
        whose low 32 bits hold the color."""
        code = self._layout.code(self._rgb)
        if code[0] == "f":
            return _unpack_rgb(np.ascontiguousarray(
                raw[:, 0], dtype=np.float32).view(np.uint32))
        if lines is not None:  # text: in range, round half-to-even
            limits = np.iinfo(code)
            check_colors(raw, lines, limits.max, self.path,
                         bottom=limits.min)
            # the low 32 bits: casting a negative float to unsigned is not
            # portable
            raw = np.mod(np.rint(raw), 2.0 ** 32)
        return _unpack_rgb(raw[:, 0].astype(np.uint64).astype(np.uint32))


def _header(descriptor: FormatDescriptor, count: int, groups) -> bytes:
    names = [name for group in groups for name in group.names]
    types = [np.dtype(group.dtype) for group in groups for _ in group.names]
    mode = "ascii" if descriptor.encoding == ASCII else "binary"
    lines = ["# .PCD v0.7 - Point Cloud Data file format",
             "VERSION 0.7",
             "FIELDS " + " ".join(names),
             "SIZE " + " ".join(str(t.itemsize) for t in types),
             "TYPE " + " ".join(t.kind.upper() for t in types),
             "COUNT " + " ".join(["1"] * len(names)),
             f"WIDTH {count}",
             "HEIGHT 1",
             "VIEWPOINT 0 0 0 1 0 0 0",
             f"POINTS {count}",
             f"DATA {mode}"]
    return ("\n".join(lines) + "\n").encode("ascii")


def open_reader(path, kind: str) -> PcdReader:
    return PcdReader(path)


def open_writer(path, descriptor: FormatDescriptor, count: int | None, *,
                las_scale, las_offset) -> FileWriter:
    if count is None:
        raise ValueError("pcd writer requires the point count up front")
    groups = record_fields(descriptor, _NORMALS, _RGB)
    return FileWriter(path, descriptor, _header(descriptor, count, groups),
                      record_encoder(descriptor.encoding, groups))
