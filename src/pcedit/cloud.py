"""Core data model: point clouds, oriented boxes, and RGB-space regions.

Conventions fixed here and relied on everywhere else:

* positions are float64 meters, colors are uint8 RGB; all intermediate
  color math runs in float64 and is rounded half-to-even on write-back.
* box rotations are intrinsic Z-Y-X Euler angles in degrees (yaw about z,
  then pitch about the new y, then roll about the new x), applied about
  the box centroid.
* containment is boundary-inclusive on every face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import EmptySelection

__all__ = [
    "PointCloud",
    "OrientedBox",
    "GridIndex",
    "ColorSphere",
    "RgbAabb",
    "PaletteEntry",
    "mean_color",
    "rgb_color_aabb",
    "quantize_colors",
]


def quantize_colors(values: np.ndarray) -> np.ndarray:
    """Round float color math back to uint8, half-to-even, clipped to [0, 255]."""
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def _as_points(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {arr.shape}")
    return arr


@dataclass
class PointCloud:
    """Columnar point store: positions (n,3) float64, colors (n,3) uint8.

    ``normals`` is either None or a parallel (n,3) float64 array.
    ``has_color`` records whether colors were actually present in the
    source; colorless sources get zero colors with has_color=False.
    Point order is meaningful and preserved by every operation.
    """

    positions: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None
    has_color: bool = True

    def __post_init__(self):
        self.positions = _as_points(self.positions, "positions")
        n = len(self.positions)
        if self.colors is None:
            self.colors = np.zeros((n, 3), dtype=np.uint8)
            self.has_color = False
        else:
            colors = np.asarray(self.colors)
            if colors.shape != (n, 3):
                raise ValueError(
                    f"colors shape {colors.shape} does not match {n} points")
            if colors.dtype != np.uint8:
                if colors.size and (colors.min() < 0 or colors.max() > 255):
                    raise ValueError("color channels must lie in [0, 255]")
                colors = colors.astype(np.uint8)
            self.colors = colors
        if self.normals is not None:
            self.normals = _as_points(self.normals, "normals")
            if len(self.normals) != n:
                raise ValueError(
                    f"normals length {len(self.normals)} does not match {n} points")

    @property
    def count(self) -> int:
        return len(self.positions)

    def __len__(self) -> int:
        return self.count

    @classmethod
    def empty(cls, has_color: bool = False, has_normals: bool = False) -> "PointCloud":
        return cls(
            positions=np.empty((0, 3), dtype=np.float64),
            colors=np.empty((0, 3), dtype=np.uint8) if has_color else None,
            normals=np.empty((0, 3), dtype=np.float64) if has_normals else None,
            has_color=has_color,
        )

    def take(self, selector) -> "PointCloud":
        """Sub-cloud for an index array or boolean mask, input order kept."""
        return PointCloud(
            self.positions[selector],
            self.colors[selector],
            None if self.normals is None else self.normals[selector],
            has_color=self.has_color,
        )


def _axis_quat(axis: int, degrees: float) -> list[float]:
    """Quaternion (x, y, z, w) of a turn by ``degrees`` about one axis."""
    half = math.radians(degrees) / 2
    quat = [0.0, 0.0, 0.0, math.cos(half)]
    quat[axis] = math.sin(half)
    return quat


def _compose(p, q) -> tuple[float, float, float, float]:
    """Quaternion product ``p * q`` (apply q, then p)."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    cx, cy, cz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
    return (pw * qx + qw * px + cx, pw * qy + qw * py + cy,
            pw * qz + qw * pz + cz, pw * qw - px * qx - py * qy - pz * qz)


@dataclass(frozen=True)
class OrientedBox:
    """Labeled 3D box: centroid (m), full edge lengths (m), Z-Y-X Euler degrees."""

    label: str
    centroid: tuple[float, float, float]
    dimensions: tuple[float, float, float]
    rotations: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not self.label or not self.label.strip():
            raise ValueError("box label must be non-empty")
        centroid = tuple(float(v) for v in self.centroid)
        dims = tuple(float(v) for v in self.dimensions)
        if len(centroid) != 3 or len(dims) != 3:
            raise ValueError("centroid and dimensions must have 3 components")
        if any(d <= 0 for d in dims):
            raise ValueError(f"box '{self.label}' has non-positive dimension {dims}")
        rots = tuple(float(r) % 360.0 for r in self.rotations)
        object.__setattr__(self, "centroid", centroid)
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "rotations", rots)

    def rotation_matrix(self) -> np.ndarray:
        """World-from-local 3x3 matrix (columns are the box's local axes).

        Elementary quaternions composed z·y·x, then turned into a matrix,
        with every term in the order scipy's
        ``Rotation.from_euler("ZYX", [rz, ry, rx], degrees=True).as_matrix()``
        uses, so the result is bit-identical to it (signed zeros included)."""
        rx, ry, rz = self.rotations
        x, y, z, w = _compose(_compose(_axis_quat(2, rz), _axis_quat(1, ry)),
                              _axis_quat(0, rx))
        x2, y2, z2, w2 = x * x, y * y, z * z, w * w
        xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
        return np.array([
            [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the box, faces inclusive."""
        positions = np.asarray(positions, dtype=np.float64)
        squeeze = positions.ndim == 1
        pts = np.atleast_2d(positions)
        rot = self.rotation_matrix()
        centroid = np.asarray(self.centroid)
        half = np.asarray(self.dimensions) / 2.0
        local = (pts - centroid) @ rot  # row-vector form of R^T (p - c)
        mask = np.abs(local[:, 0]) <= half[0]
        mask &= np.abs(local[:, 1]) <= half[1]
        mask &= np.abs(local[:, 2]) <= half[2]
        return bool(mask[0]) if squeeze else mask

    def world_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """World AABB ``c ± |R|·half`` holding every point ``contains``
        accepts.  Rounding in ``(p - c) @ R`` accepts points a few ulps
        outside it, so the half-extent is padded by 1e-9 of the box size."""
        half = np.asarray(self.dimensions) / 2.0
        centroid = np.asarray(self.centroid)
        with np.errstate(invalid="ignore", over="ignore"):
            reach = np.abs(self.rotation_matrix()) @ half + 1e-9 * half.sum()
            return centroid - reach, centroid + reach


class GridIndex:
    """Uniform-grid index over the finite rows of an (n,3) position array.

    Points are sorted by their cell key, with about ``points_per_cell``
    points to a cell (32 by default).  A grid of at most 65,535 cells keeps
    16-bit keys, which numpy sorts with a radix sort; only a denser grid
    over more points widens them.  ``rows(box)`` gathers the cells under
    ``box.world_bounds()`` and runs the exact predicate,
    ``OrientedBox.contains``, on those candidates only, so it returns
    exactly ``np.flatnonzero(box.contains(positions))``.  ``query(x)``
    gives each query's nearest indexed row.  Rows with a NaN or infinite
    coordinate are never inside a box with finite bounds and are left out
    of the index.
    """

    MAX_CELLS = (1 << 16) - 1
    POINTS_PER_CELL = 32
    #: candidate pairs a query batch measures at once
    BATCH = 1 << 17
    #: relative margin on the stopping distance, far above rounding error
    SLACK = 1e-9

    def __init__(self, positions: np.ndarray,
                 points_per_cell: float = POINTS_PER_CELL):
        self.positions = positions = _as_points(positions, "positions")
        self._finite_rows = None
        if not np.isfinite(positions).all():
            self._finite_rows = np.flatnonzero(
                np.isfinite(positions).all(axis=1))
        m = len(positions) if self._finite_rows is None \
            else self._finite_rows.size

        self._lo = np.zeros(3)
        self._hi = np.zeros(3)
        if m:
            for k in range(3):
                column = self._column(k)
                self._lo[k], self._hi[k] = column.min(), column.max()
        self._counts, self._scale = self._cell_grid(m, points_per_cell)

        cells = int(self._counts.prod())
        key_type = np.uint16 if cells <= self.MAX_CELLS else np.uint32
        key = np.zeros(m, dtype=key_type)
        stride = 1
        for k in range(3):
            if self._counts[k] > 1:
                key += self._cells(self._column(k), k).astype(key_type) \
                    * key_type(stride)
            stride *= int(self._counts[k])
        # numpy radix-sorts 16-bit keys; wider ones sort faster unstably,
        # and no caller needs the order of the rows inside a cell
        order = np.argsort(key, kind="stable" if key_type is np.uint16
                           else "quicksort")
        if self._finite_rows is not None:
            order = self._finite_rows[order]
        self._order = order
        self._starts = np.zeros(cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=cells), out=self._starts[1:])

    def _column(self, k: int) -> np.ndarray:
        if self._finite_rows is None:
            return self.positions[:, k]
        return self.positions[self._finite_rows, k]

    def _cell_grid(self, m: int, points_per_cell: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Cells per axis and the world -> cell scale.

        Cells are near-cubic with edge ``h``; an axis thinner than ``h``
        gets one cell and the others share the cell budget.  Past
        ``MAX_CELLS * POINTS_PER_CELL`` points cells fill up instead of
        multiplying, so the default density never leaves 16-bit keys.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            extent = self._hi - self._lo
        target = max(1, int(min(m, self.MAX_CELLS * self.POINTS_PER_CELL)
                            // points_per_cell))
        # 16-bit keys while the budget allows them; wider keys may pass
        # the budget by the rounding of each axis up to whole cells
        limit = self.MAX_CELLS if target <= self.MAX_CELLS else 2 * target
        active = np.isfinite(extent) & (extent > 0)
        h = math.inf
        while active.any():
            h = max(np.finfo(np.float64).tiny,
                    math.exp((np.log(extent[active]).sum()
                              - math.log(target)) / active.sum()))
            thin = active & (extent < h)
            if not thin.any():
                break
            active &= ~thin
        counts = np.ones(3, dtype=np.int64)
        with np.errstate(over="ignore"):
            while True:
                counts[active] = np.minimum(limit,
                                            np.ceil(extent[active] / h))
                if counts.prod() <= limit:
                    break
                h *= 1.25
            scale = counts / np.where(active, extent, 1.0)
        counts[~np.isfinite(scale)] = 1
        return counts, scale

    def _cells(self, values: np.ndarray, k: int) -> np.ndarray:
        """Cell coordinates along axis ``k``: one monotone formula for points
        and query bounds, so a point between two bounds lies in a cell
        between theirs."""
        cells = values - self._lo[k]
        cells *= self._scale[k]
        np.floor(cells, out=cells)
        return np.clip(cells, 0, self._counts[k] - 1, out=cells)

    def _candidates(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Rows of every cell meeting the world AABB [lo, hi]."""
        if np.any(hi < self._lo) or np.any(lo > self._hi):
            return np.empty(0, dtype=self._order.dtype)
        (x0, x1), (y0, y1), (z0, z1) = (
            self._cells(np.array([lo[k], hi[k]]), k).astype(np.int64)
            for k in range(3))
        nx, ny, _ = self._counts
        # each (y, z) pair is one contiguous run of keys along x
        yz = (np.arange(y0, y1 + 1)[:, None]
              + ny * np.arange(z0, z1 + 1)[None, :]).ravel() * nx
        begin = self._starts[yz + x0]
        return self._order[_runs(begin, self._starts[yz + x1 + 1] - begin)]

    def rows(self, box: OrientedBox) -> np.ndarray:
        """Ascending rows of the indexed positions inside ``box``."""
        lo, hi = box.world_bounds()
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return np.flatnonzero(box.contains(self.positions))
        candidates = self._candidates(lo, hi)
        inside = box.contains(np.take(self.positions, candidates, axis=0))
        return np.sort(candidates[inside])

    def query(self, x: np.ndarray) -> np.ndarray:
        """Row of the indexed position nearest to each finite query point.

        Exact, after Bentley, Weide & Yao (ACM TOMS 1980): distances are
        ``sqrt((dx*dx + dy*dy) + dz*dz)`` and a tie goes to the lowest row.
        A query scans the block of cells within ``r`` of its own, unclipped
        cell, starting from the first ``r >= 1`` that reaches the grid.
        Every point left unscanned lies past a block face with cells beyond
        it, so the query is done once its best distance is below the
        distance to the nearest such face; the others scan again at the
        first ``r`` whose faces all lie beyond their best distance.
        """
        x = _as_points(x, "queries")
        if not np.isfinite(x).all():
            raise ValueError("queries must be finite")
        if not self._order.size:
            raise ValueError("nearest-row query on an empty index")
        n = len(x)
        counts = self._counts[:, None]
        axes = np.flatnonzero(self._counts > 1)
        u = np.zeros((3, n))   # one-cell axes have no inner faces: cell 0
        for k in axes:
            u[k] = (x[:, k] - self._lo[k]) * self._scale[k]
        # far-off cells are moved in, never past the grid, so that ring
        # arithmetic stays in int64; distances still use the true ``u``
        cell = np.clip(np.floor(u), -2.0**40, 2.0**40).astype(np.int64)
        cover = np.maximum(cell, counts - 1 - cell).max(axis=0)
        ring = np.maximum(np.maximum(-cell, cell - counts + 1).max(axis=0), 1)
        best = np.full(n, np.inf)
        rows = np.full(n, -1, dtype=np.int64)
        columns = [np.take(column, self._order) for column in self.positions.T]
        queries = [np.ascontiguousarray(column) for column in x.T]
        finest = self._scale[axes].max(initial=0.0)
        todo = np.arange(n)
        while todo.size:
            r = ring[todo]
            self._scan(queries, columns, todo, cell[:, todo] - r,
                       cell[:, todo] + r, best, rows)
            face = np.full(todo.size, np.inf)
            for k in axes:
                c, uk, s = cell[k, todo], u[k, todo], self._scale[k]
                face = np.minimum(face, np.where(
                    c - r > 0, (uk - (c - r)) / s, np.inf))
                face = np.minimum(face, np.where(
                    c + r + 1 < self._counts[k], (c + r + 1 - uk) / s,
                    np.inf))
            near = best[todo]
            done = near * (1 + self.SLACK) < face
            grow = np.where(np.isfinite(near),
                            np.floor(near * finest * (1 + 2 * self.SLACK))
                            + 1, 2.0 * r)
            ring[todo] = np.minimum(np.maximum(grow, r + 1), cover[todo])
            todo = todo[~done]
        return rows

    def _scan(self, queries, columns, todo, lo, hi, best, rows) -> None:
        """Fold the points of the cells [lo, hi] (clipped to the grid) into
        the running ``best`` distance and ``rows`` of each query in
        ``todo``, at most ``BATCH`` runs or candidates at a time."""
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, self._counts[:, None] - 1)
        nx, ny, _ = self._counts
        span = hi[1] - lo[1] + 1
        pairs = span * (hi[2] - lo[2] + 1)
        for a, b in _batches(pairs, self.BATCH):
            # each (y, z) pair of a block is one contiguous run of keys
            owner = np.repeat(np.arange(a, b), pairs[a:b])
            step = _runs(np.zeros(b - a, dtype=np.int64), pairs[a:b])
            y = lo[1, owner] + step % span[owner]
            z = lo[2, owner] + step // span[owner]
            base = (y + ny * z) * nx
            begin = self._starts[base + lo[0, owner]]
            lengths = self._starts[base + hi[0, owner] + 1] - begin
            for c, d in _batches(lengths, self.BATCH):
                slots = _runs(begin[c:d], lengths[c:d])
                if not slots.size:
                    continue
                who = todo[np.repeat(owner[c:d], lengths[c:d])]
                dx, dy, dz = (columns[k][slots] - queries[k][who]
                              for k in range(3))
                dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
                first = np.empty(who.size, dtype=bool)
                first[0] = True
                np.not_equal(who[1:], who[:-1], out=first[1:])
                seg = np.flatnonzero(first)
                low = np.minimum.reduceat(dist, seg)
                tied = dist == low[np.cumsum(first) - 1]
                pick = np.minimum.reduceat(
                    np.where(tied, self._order[slots], np.iinfo(np.int64).max),
                    seg)
                q = who[seg]
                better = (low < best[q]) | ((low == best[q])
                                            & (pick < rows[q]))
                best[q[better]] = low[better]
                rows[q[better]] = pick[better]


def _runs(begin: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The slots ``begin[i], ..., begin[i] + lengths[i] - 1`` of every run,
    run after run."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(begin - offsets, lengths)


def _batches(sizes: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """``[start, stop)`` ranges of consecutive ``sizes`` that sum to at most
    ``limit``; an item larger than ``limit`` is a range of its own."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + limit, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


@dataclass(frozen=True)
class ColorSphere:
    """Inlier region in RGB space: real-valued center plus Euclidean radius."""

    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        center = tuple(float(v) for v in self.center)
        if any(not (0.0 <= v <= 255.0) for v in center):
            raise ValueError(f"sphere center {center} outside [0, 255]^3")
        if self.radius < 0:
            raise ValueError("sphere radius must be >= 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def distances(self, colors: np.ndarray) -> np.ndarray:
        delta = np.asarray(colors, dtype=np.float64) - np.asarray(self.center)
        return np.linalg.norm(delta, axis=-1)


@dataclass(frozen=True)
class RgbAabb:
    """Axis-aligned RGB box; centroid is always the exact midpoint."""

    min: tuple[float, float, float]
    max: tuple[float, float, float]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.min)
        hi = tuple(float(v) for v in self.max)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"RGB box min {lo} exceeds max {hi}")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    @property
    def centroid(self) -> tuple[float, float, float]:
        return tuple((a + b) / 2.0 for a, b in zip(self.min, self.max))

    @property
    def extent(self) -> tuple[float, float, float]:
        return tuple(b - a for a, b in zip(self.min, self.max))

    def contains(self, colors: np.ndarray) -> np.ndarray:
        """Boundary-inclusive mask over an (n,3) color array."""
        c = np.asarray(colors, dtype=np.float64)
        lo = np.asarray(self.min)
        hi = np.asarray(self.max)
        return np.all((c >= lo) & (c <= hi), axis=-1)


@dataclass(frozen=True)
class PaletteEntry:
    color: tuple[int, int, int]
    enabled: bool = True

    def __post_init__(self):
        color = tuple(int(v) for v in self.color)
        if any(not (0 <= v <= 255) for v in color):
            raise ValueError(f"palette color {color} outside [0, 255]")
        object.__setattr__(self, "color", color)


def mean_color(colors: Iterable) -> np.ndarray:
    """Component-wise arithmetic mean in float64; raises on empty input."""
    arr = np.asarray(colors, dtype=np.float64)
    if arr.size == 0:
        raise EmptySelection("mean_color of an empty color set")
    arr = arr.reshape(-1, 3)
    return arr.mean(axis=0)


def rgb_color_aabb(colors: Iterable) -> RgbAabb:
    """Axis-aligned RGB bounds of a color set."""
    arr = np.asarray(colors)
    if arr.size == 0:
        raise EmptySelection("rgb_color_aabb of an empty color set")
    # one reduction per column: ten times faster than min(axis=0)
    columns = arr.reshape(-1, 3).astype(np.float64).T
    return RgbAabb(min=tuple(column.min() for column in columns),
                   max=tuple(column.max() for column in columns))
