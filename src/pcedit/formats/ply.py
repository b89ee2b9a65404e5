"""PLY reader/writer (ascii and binary_little_endian).

Reading accepts float or double coordinates, uchar or ushort colors
(ushort narrows to 8 bits via >> 8), optional nx/ny/nz normals, and skips
any other vertex property.  Vertex must be the first element and appear
once; list properties inside the vertex element and big-endian files are
rejected.  ASCII colors round half-to-even, as in the other text formats.

Writing always emits double positions, double normals (when present) and
uchar red/green/blue, so positions survive a round trip bit-exactly in
binary mode.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cloud import PointCloud
from ..errors import ParseError
from ._ascii import check_colors
from ._base import (ASCII, BINARY, DEFAULT_CHUNK_POINTS, FormatDescriptor,
                    narrow_16bit)
from ._records import (FileWriter, RecordLayout, read_header_lines,
                       record_columns, record_encoder, record_fields)

FAMILY = "ply"

_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

#: the PLY type written for each field type this writer emits
_TYPE_NAMES = {"<f8": "double", "u1": "uchar"}

_XYZ = ("x", "y", "z")
_NORMALS = ("nx", "ny", "nz")
_RGB = ("red", "green", "blue")


def _parse_header(path) -> RecordLayout:
    lines, header = read_header_lines(path, lambda line: line == "end_header",
                                      1000, "missing end_header")

    if not lines or lines[0] != "ply":
        raise ParseError("not a PLY file (missing 'ply' magic)",
                         path=path, line=1)

    encoding = None
    elements: list[tuple[str, int]] = []
    props: list[tuple[str, str, int]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] in ("comment", "obj_info", "end_header"):
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise ParseError("malformed format line", path=path,
                                 line=line_no)
            if tokens[1] == "ascii":
                encoding = ASCII
            elif tokens[1] == "binary_little_endian":
                encoding = BINARY
            elif tokens[1] == "binary_big_endian":
                raise ParseError("big-endian PLY is not supported",
                                 path=path, line=line_no)
            else:
                raise ParseError(f"unknown PLY format {tokens[1]!r}",
                                 path=path, line=line_no)
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element line", path=path,
                                 line=line_no)
            if not tokens[2].isdigit():
                raise ParseError(f"bad element count {tokens[2]!r}",
                                 path=path, line=line_no)
            if tokens[1] == "vertex" and any(
                    name == "vertex" for name, _ in elements):
                raise ParseError("repeated 'element vertex' line",
                                 path=path, line=line_no)
            elements.append((tokens[1], int(tokens[2])))
        elif tokens[0] == "property":
            if len(tokens) < 3:
                raise ParseError("malformed property line", path=path,
                                 line=line_no)
            if not elements:
                raise ParseError("property before any element", path=path,
                                 line=line_no)
            if elements[-1][0] != "vertex":
                continue
            if tokens[1] == "list":
                raise ParseError("list property inside vertex element",
                                 path=path, line=line_no)
            if len(tokens) != 3 or tokens[1] not in _TYPES:
                raise ParseError(f"unsupported property type {tokens[1]!r}",
                                 path=path, line=line_no)
            props.append((tokens[2], _TYPES[tokens[1]], 1))
        else:
            raise ParseError(f"unknown header keyword {tokens[0]!r}",
                             path=path, line=line_no)

    if encoding is None:
        raise ParseError("missing format line", path=path, line=2)
    vertex = [(name, n) for name, n in elements if name == "vertex"]
    if not vertex:
        raise ParseError("no vertex element", path=path, line=len(lines))
    for name, n in elements:
        if name == "vertex":
            break
        if n > 0:
            raise ParseError(f"element {name!r} precedes vertex", path=path,
                             line=len(lines))
    layout = RecordLayout(encoding=encoding, count=vertex[0][1],
                          fields=props, header=header)
    for axis in _XYZ:
        if layout.first(axis) is None:
            raise ParseError(f"vertex element lacks property {axis!r}",
                             path=path, line=len(lines))
        if layout.code(axis) not in ("f4", "f8"):
            raise ParseError(f"property {axis!r} must be float or double",
                             path=path, line=len(lines))
    color_types = {layout.code(c) for c in _RGB
                   if layout.first(c) is not None}
    if color_types and color_types not in ({"u1"}, {"u2"}):
        raise ParseError("red/green/blue must all be uchar or all ushort",
                         path=path, line=len(lines))
    return layout


class PlyReader:
    def __init__(self, path):
        self.path = Path(path)
        self._layout = _parse_header(path)
        present = self._layout.first
        has_color = all(present(c) is not None for c in _RGB)
        self.descriptor = FormatDescriptor(
            kind="ply", encoding=self._layout.encoding, has_color=has_color,
            has_normals=all(present(c) is not None for c in _NORMALS))
        self.count = self._layout.count
        self.narrows_colors = has_color and self._layout.code("red") == "u2"

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_POINTS):
        declared = f"vertex element declares {self.count} rows"
        yield from record_columns(self.path, self._layout, chunk_size,
                                  declared, "vertices", self._decode)

    def _decode(self, block, lines) -> PointCloud:
        colors = None
        if self.descriptor.has_color:
            raw = block(_RGB)
            if lines is not None:
                check_colors(raw, lines,
                             65535 if self.narrows_colors else 255, self.path)
                raw = np.rint(raw)
            colors = narrow_16bit(raw) if self.narrows_colors \
                else raw.astype(np.uint8, copy=False)
        normals = block(_NORMALS) if self.descriptor.has_normals else None
        return PointCloud(block(_XYZ), colors, normals)  # as float64


def _header(descriptor: FormatDescriptor, count: int, groups) -> bytes:
    fmt = "ascii" if descriptor.encoding == ASCII else "binary_little_endian"
    lines = ["ply", f"format {fmt} 1.0", f"element vertex {count}"]
    lines += [f"property {_TYPE_NAMES[group.dtype]} {name}"
              for group in groups for name in group.names]
    lines.append("end_header")
    return ("\n".join(lines) + "\n").encode("ascii")


def open_reader(path, kind: str) -> PlyReader:
    return PlyReader(path)


def open_writer(path, descriptor: FormatDescriptor, count: int | None, *,
                las_scale, las_offset) -> FileWriter:
    if count is None:
        raise ValueError("ply writer requires the point count up front")
    groups = record_fields(descriptor)
    return FileWriter(path, descriptor, _header(descriptor, count, groups),
                      record_encoder(descriptor.encoding, groups))
