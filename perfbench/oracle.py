"""Independent judges for pcedit's outputs.

Nothing in this module imports pcedit.  Files are decoded from the layouts
the README documents, box containment uses a rotation built from explicit
trig (the style of ``tests/conftest.py``), and sphere radii use integer
nearest-rank.  The implementation and the benchmark can therefore agree
only by computing the same mathematics.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: documented decimals of every ASCII carrier
ASCII_PRECISION = 0.5e-6

#: default LAS quantization step, as documented
LAS_SCALE = 1e-4


def position_precision(path: str | Path, ascii_encoding: bool) -> float:
    """Worst-case position error of writing ``path`` (README format table)."""
    kind = Path(path).suffix.lower().lstrip(".")
    if kind in ("las", "laz"):
        return LAS_SCALE / 2.0
    if ascii_encoding or kind in ("xyz", "xyzn", "xyzrgb", "pts"):
        return ASCII_PRECISION
    return 0.0


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 22):
            digest.update(block)
    return digest.hexdigest()


# --- boxes and containment ---------------------------------------------------

def rotation(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rz @ Ry @ Rx from hand-written trig (degrees, intrinsic z-y'-x'')."""
    ax, ay, az = math.radians(rx), math.radians(ry), math.radians(rz)
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rot_x = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rot_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rot_z = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rot_z @ rot_y @ rot_x


@dataclass(frozen=True)
class Box:
    label: str
    centroid: np.ndarray
    dims: np.ndarray
    rot: np.ndarray

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boundary-inclusive mask; local = R^T (p - c)."""
        local = (self.rot.T @ (positions - self.centroid).T).T
        return np.all(np.abs(local) <= self.dims / 2.0, axis=1)


def load_boxes(path: str | Path) -> list[Box]:
    """Parse the labelCloud box JSON exactly as the program receives it."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    boxes = []
    for obj in doc["objects"]:
        c, d, r = obj["centroid"], obj["dimensions"], obj["rotations"]
        boxes.append(Box(
            label=obj["name"].strip(),
            centroid=np.array([c["x"], c["y"], c["z"]], dtype=np.float64),
            dims=np.array([d["length"], d["width"], d["height"]],
                          dtype=np.float64),
            rot=rotation(r["x"], r["y"], r["z"])))
    return boxes


class BoxRows:
    """Ascending row indices of the points inside each box.

    Points are sorted by x once, so each box tests only the slab its
    bounding sphere can reach.
    """

    def __init__(self, positions: np.ndarray):
        self.positions = positions
        self.order = np.argsort(positions[:, 0], kind="stable")
        self.xs = positions[self.order, 0]

    def rows(self, box: Box) -> np.ndarray:
        reach = float(np.linalg.norm(box.dims)) / 2.0
        lo = np.searchsorted(self.xs, box.centroid[0] - reach, "left")
        hi = np.searchsorted(self.xs, box.centroid[0] + reach, "right")
        candidates = np.sort(self.order[lo:hi])
        inside = box.contains(self.positions[candidates])
        return candidates[inside]


# --- color spheres -----------------------------------------------------------

def nearest_rank(values: np.ndarray, percent: int) -> float:
    """Nearest-rank percentile, integer rank ceil(percent * n / 100)."""
    rank = (percent * values.size + 99) // 100
    return float(np.partition(values, rank - 1)[rank - 1])


def color_distances(colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean color of a selection and each member's Euclidean distance to it."""
    c = colors.astype(np.float64)
    center = c.sum(axis=0) / c.shape[0]
    delta = c - center
    return center, np.sqrt((delta * delta).sum(axis=1))


# --- decoders ----------------------------------------------------------------

_PLY_TYPES = {"char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
              "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
              "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
              "float": "f4", "float32": "f4", "double": "f8",
              "float64": "f8"}


@dataclass
class Decoded:
    """A decoded file: positions f64 (n,3) and raw colors (n,3) or None."""

    positions: np.ndarray
    colors: np.ndarray | None


def _header_lines(path: Path, last: bytes) -> tuple[list[str], int]:
    lines, size = [], 0
    with open(path, "rb") as fh:
        while True:
            raw = fh.readline()
            if not raw:
                raise ValueError(f"{path}: header has no {last!r} line")
            size += len(raw)
            lines.append(raw.decode("ascii").strip())
            if raw.strip().startswith(last):
                return lines, size


def read_ply(path: Path) -> Decoded:
    lines, size = _header_lines(path, b"end_header")
    encoding = lines[1].split()[1]
    count = next(int(ln.split()[2]) for ln in lines
                 if ln.startswith("element vertex"))
    props = [(ln.split()[2], _PLY_TYPES[ln.split()[1]]) for ln in lines
             if ln.startswith("property")]
    names = [name for name, _ in props]
    if encoding == "ascii":
        table = _read_numbers(path, len(lines), len(props), count)
        columns = {name: table[:, i] for i, name in enumerate(names)}
    else:
        dtype = np.dtype([(name, "<" + code) for name, code in props])
        columns = np.fromfile(path, dtype=dtype, count=count, offset=size)
    positions = np.column_stack([columns[a].astype(np.float64)
                                 for a in ("x", "y", "z")])
    colors = None
    if "red" in names:
        colors = np.column_stack([columns[c] for c in ("red", "green",
                                                       "blue")])
        colors = colors.astype(np.int64)
    return Decoded(positions, colors)


def read_pcd(path: Path) -> Decoded:
    lines, size = _header_lines(path, b"DATA")
    header = {ln.split()[0]: ln.split()[1:] for ln in lines
              if ln and not ln.startswith("#")}
    names = header["FIELDS"]
    codes = [("u" if t == "U" else "i" if t == "I" else "f") + s
             for t, s in zip(header["TYPE"], header["SIZE"])]
    if header["DATA"][0] != "binary":
        raise ValueError(f"{path}: only binary PCD is decoded here")
    dtype = np.dtype([(n, "<" + c) for n, c in zip(names, codes)])
    columns = np.fromfile(path, dtype=dtype, count=int(header["POINTS"][0]),
                          offset=size)
    positions = np.column_stack([columns[a].astype(np.float64)
                                 for a in ("x", "y", "z")])
    colors = None
    if "rgb" in names:
        packed = columns["rgb"].astype(np.int64)
        colors = np.column_stack([(packed >> 16) & 0xFF, (packed >> 8) & 0xFF,
                                  packed & 0xFF])
    return Decoded(positions, colors)


def read_las(path: Path) -> Decoded:
    """LAS 1.x point formats 0-3; colors are returned as raw 16-bit values."""
    with open(path, "rb") as fh:
        head = fh.read(227)
    if head[:4] != b"LASF":
        raise ValueError(f"{path}: not a LAS file")
    offset_to_points, = struct.unpack_from("<I", head, 96)
    point_format, record_length = struct.unpack_from("<BH", head, 104)
    count, = struct.unpack_from("<I", head, 107)
    scales = np.array(struct.unpack_from("<3d", head, 131))
    offsets = np.array(struct.unpack_from("<3d", head, 155))
    fields = [("X", "<i4"), ("Y", "<i4"), ("Z", "<i4")]
    rgb_at = {2: 20, 3: 28}.get(point_format)
    if rgb_at is not None:
        fields += [("pad", f"V{rgb_at - 12}"), ("red", "<u2"),
                   ("green", "<u2"), ("blue", "<u2")]
    used = np.dtype(fields).itemsize
    if record_length > used:
        fields.append(("extra", f"V{record_length - used}"))
    records = np.fromfile(path, dtype=np.dtype(fields), count=count,
                          offset=offset_to_points)
    ints = np.column_stack([records["X"], records["Y"], records["Z"]])
    positions = ints.astype(np.float64) * scales + offsets
    colors = None
    if rgb_at is not None:
        colors = np.column_stack([records[c] for c in ("red", "green",
                                                       "blue")])
        colors = colors.astype(np.int64)
    return Decoded(positions, colors)


def _read_numbers(path: Path, skip_lines: int, columns: int,
                  count: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        for _ in range(skip_lines):
            fh.readline()
        text = fh.read()
    values = np.array(text.split(), dtype=np.float64)
    if values.size % columns:
        raise ValueError(f"{path}: {values.size} numbers do not fill "
                         f"{columns} columns")
    table = values.reshape(-1, columns)
    if count is not None and table.shape[0] != count:
        raise ValueError(f"{path}: header says {count} rows, found "
                         f"{table.shape[0]}")
    return table


def read_xyzrgb(path: Path) -> Decoded:
    table = _read_numbers(path, 0, 6)
    return Decoded(table[:, :3].copy(), table[:, 3:6].astype(np.int64))


def read_pts(path: Path) -> Decoded:
    with open(path, "rb") as fh:
        count = int(fh.readline())
    table = _read_numbers(path, 1, 7, count)
    return Decoded(table[:, :3].copy(), table[:, 4:7].astype(np.int64))


_READERS = {"ply": read_ply, "pcd": read_pcd, "las": read_las,
            "xyzrgb": read_xyzrgb, "pts": read_pts}


def read_any(path: str | Path) -> Decoded:
    path = Path(path)
    return _READERS[path.suffix.lower().lstrip(".")](path)
