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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptySelection

__all__ = [
    "PointCloud",
    "Selection",
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
    rounded = np.rint(values)
    return np.clip(rounded, 0, 255, out=rounded).astype(np.uint8)


def _as_points(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {arr.shape}")
    return arr


def check_chunk_size(chunk_size: int) -> None:
    """A batch holds at least one row: a reader asked for fewer would
    yield empty batches forever, or none at all."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, not {chunk_size}")


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

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

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
        """Sub-cloud for an index array or boolean mask, input order kept.

        Rows are gathered with ``np.take``, several times faster than
        indexing an (n, 3) array with an index array or a mask."""
        rows = np.asarray(selector)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return PointCloud(
            np.take(self.positions, rows, axis=0),
            np.take(self.colors, rows, axis=0),
            None if self.normals is None
            else np.take(self.normals, rows, axis=0),
            has_color=self.has_color,
        )

    def chunks(self, chunk_size: int) -> Iterator["PointCloud"]:
        """The cloud as consecutive batches of ``chunk_size`` rows, each a
        view into its arrays: the reader protocol of ``formats``."""
        check_chunk_size(chunk_size)
        for lo in range(0, self.count, chunk_size):
            part = slice(lo, lo + chunk_size)
            yield PointCloud(self.positions[part], self.colors[part],
                             None if self.normals is None
                             else self.normals[part],
                             has_color=self.has_color)


class Selection(PointCloud):
    """The rows ``rows`` of ``source`` in source order, gathered when used.

    ``rows`` is either ascending source rows or a boolean mask over them.
    ``chunks`` gathers one batch of rows at a time with ``take``, so that
    writing a selection holds one batch rather than a copy of it.  The
    ``positions``, ``colors`` and ``normals`` arrays are gathered whole on
    first use and kept.
    """

    def __init__(self, source: PointCloud, rows: np.ndarray):
        self.source = source
        self.rows = rows
        self.has_color = source.has_color
        self._count = int(np.count_nonzero(rows)) if rows.dtype == bool \
            else rows.size

    @property
    def count(self) -> int:
        return self._count

    @property
    def positions(self) -> np.ndarray:
        return self._whole.positions

    @property
    def colors(self) -> np.ndarray:
        return self._whole.colors

    @property
    def normals(self) -> np.ndarray | None:
        return self._whole.normals if self.has_normals else None

    @property
    def has_normals(self) -> bool:
        return self.source.has_normals

    @functools.cached_property
    def _whole(self) -> PointCloud:
        return self.source.take(self.rows)

    def indices(self) -> np.ndarray:
        """The ascending source rows of the selection."""
        return np.flatnonzero(self.rows) if self.rows.dtype == bool \
            else self.rows

    def chunks(self, chunk_size: int) -> Iterator[PointCloud]:
        """Batches of at most ``chunk_size`` selected rows, gathered from
        ``chunk_size`` entries of ``rows`` at a time."""
        check_chunk_size(chunk_size)
        for lo in range(0, self.rows.size, chunk_size):
            part = self.rows[lo:lo + chunk_size]
            if part.dtype == bool:
                part = lo + np.flatnonzero(part)
            if part.size:
                yield self.source.take(part)


def gather(source, chunk_size: int, keep=None
           ) -> tuple[PointCloud, np.ndarray | None, int]:
    """The rows of ``source.chunks(chunk_size)``, a reader's or a cloud's,
    that ``keep`` picks, their ascending source rows, and the number of
    rows of the source.

    ``keep(positions)`` gives the ascending rows of one batch that stay;
    without it every row stays and no source rows are kept.  Each batch's
    rows are copied onto the end of arrays that grow in place, and the
    batch is dropped before the next is read, so the peak is what is kept
    plus one batch.  Source rows are int32 while they fit."""
    source_attributes = getattr(source, "descriptor", source)
    has_color = source_attributes.has_color
    columns = {"positions": np.empty((0, 3))}
    if has_color:
        columns["colors"] = np.empty((0, 3), dtype=np.uint8)
    if source_attributes.has_normals:
        columns["normals"] = np.empty((0, 3))
    rows = None if keep is None else np.empty(0, dtype=np.int32)
    n = total = 0
    for chunk in source.chunks(chunk_size):
        k = chunk.count
        pick = None if keep is None else keep(chunk.positions)
        m = k if pick is None else pick.size
        for name, array in columns.items():
            # no view of these arrays exists, so growing in place is safe
            array.resize((n + m, 3), refcheck=False)
            if pick is None:
                array[n:] = getattr(chunk, name)
            else:
                np.take(getattr(chunk, name), pick, axis=0, out=array[n:])
        if rows is not None:
            if total + k > np.iinfo(rows.dtype).max:
                rows = rows.astype(np.int64)
            rows.resize(n + m, refcheck=False)
            np.add(pick, total, out=rows[n:], casting="unsafe")
        n += m
        total += k
        del chunk
    return PointCloud(has_color=has_color, **columns), rows, total


def under_boxes(boxes) -> Callable[[np.ndarray], np.ndarray]:
    """``gather``'s ``keep`` for the rows under the union of the boxes'
    ``world_bounds()``, faces included, which hold every point a box
    contains.  When a box's bounds are not finite, every finite row is
    kept, as ``rows_inside`` tests every finite row for it; a row with a
    NaN or infinite coordinate is otherwise under no box.

    A batch is first cut to the bounds of all the boxes, tested on views
    of its columns, which a scan with few boxed points leaves small; only
    the rows under them are copied, as contiguous columns, and tested box
    by box."""
    bounds = [box.world_bounds() for box in boxes]
    lows = np.array([lo for lo, _ in bounds]).reshape(-1, 3)
    highs = np.array([hi for _, hi in bounds]).reshape(-1, 3)
    if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
        return lambda positions: np.flatnonzero(
            np.isfinite(positions).all(axis=1))
    low = lows.min(axis=0, initial=np.inf)
    high = highs.max(axis=0, initial=-np.inf)

    def keep(positions: np.ndarray) -> np.ndarray:
        rows = np.flatnonzero(_between(positions.T, low, high))
        columns = np.take(positions.T, rows, axis=1)
        under = np.zeros(rows.size, dtype=bool)
        for lo, hi in zip(lows, highs):
            under |= _between(columns, lo, hi)
        return rows[under]

    return keep


def _between(columns: np.ndarray, lo: np.ndarray, hi: np.ndarray
             ) -> np.ndarray:
    """Mask of the points, given as x, y and z rows, in [lo, hi]."""
    inside = columns[0] >= lo[0]
    inside &= columns[0] <= hi[0]
    for k in (1, 2):
        inside &= columns[k] >= lo[k]
        inside &= columns[k] <= hi[k]
    return inside


#: rows tested against one box at once: about 100 bytes a row of scratch
BOX_SLICE = 1 << 14


def rows_inside(positions: np.ndarray, box: OrientedBox, row_type
                ) -> np.ndarray:
    """The ascending rows of ``positions`` that ``box.contains`` accepts,
    in ``row_type``.  Only the rows under ``box.world_bounds()`` are
    tested, or every finite row when those bounds are not finite, so a row
    with a NaN or infinite coordinate is inside no box.  ``BOX_SLICE``
    rows are tested at a time, and the rows inside are copied onto the end
    of an array that grows in place."""
    lo, hi = box.world_bounds()
    bounded = np.isfinite(lo).all() and np.isfinite(hi).all()
    rows = np.empty(0, dtype=row_type)
    for a in range(0, len(positions), BOX_SLICE):
        part = positions[a:a + BOX_SLICE]
        under = np.flatnonzero(_between(part.T, lo, hi) if bounded
                               else np.isfinite(part).all(axis=1))
        inside = under[box.contains(np.take(part, under, axis=0))]
        n = rows.size
        # no view of ``rows`` exists, so growing in place is safe
        rows.resize(n + inside.size, refcheck=False)
        np.add(inside, a, out=rows[n:], casting="unsafe")
    return rows


class Edit(Selection):
    """One edit or split of ``source``, a reader or a cloud, and the
    ``PointCloud`` of the rows it keeps.

    ``gather`` reads the source once for ``subset``, the rows under the
    boxes, and ``members`` holds each distinct box's ascending subset rows
    (``rows_inside``) until ``finish`` drops them.  Steps read and recolor
    ``subset`` (``positions`` and ``colors`` are the output's, gathered
    whole) on ascending subset rows, which ascend in the source too, so
    ties go to the lowest source row.  A deletion clears ``alive``.
    Rows outside the subset are kept while ``outside`` holds; then
    ``chunks`` reads the source again and patches or drops the edited rows
    of each batch, and otherwise it reads only the subset.
    """

    def __init__(self, source, boxes: Iterable[OrientedBox]):
        from . import formats   # formats imports cloud
        boxes = dict.fromkeys(boxes)   # each distinct box once
        self.source = source
        self.subset, self.source_rows, self.total = gather(
            source, formats.DEFAULT_CHUNK_POINTS, under_boxes(boxes))
        self.alive = np.ones(self.subset.count, dtype=bool)
        self.members = {box: rows_inside(self.subset.positions, box,
                                         self.source_rows.dtype)
                        for box in boxes}
        self.outside = True
        self.recolored = False

    def rows_in(self, box: OrientedBox) -> np.ndarray:
        """Ascending ``alive`` subset rows inside ``box``, in the type of
        the source rows, which every subset row fits: 4 bytes a row."""
        rows = self.members[box]
        return rows[self.alive[rows]]

    def claim(self, boxes: Sequence[OrientedBox], free: np.ndarray,
              exclusive: bool = True) -> Iterator[tuple[int, np.ndarray]]:
        """Each box's place in ``boxes`` and its ascending subset rows, in
        turn, cleared from the mask ``free``.  With ``exclusive`` a box
        takes only the rows still free, so a row goes to the first box that
        holds it; otherwise to every such box."""
        for i, box in enumerate(boxes):
            rows = self.members[box]
            if exclusive:
                rows = rows[free[rows]]
            free[rows] = False
            yield i, rows

    def finish(self) -> Edit:
        """Drop the boxes' rows once the steps have run: writing needs
        none."""
        del self.members
        return self

    def recolor(self, rows: np.ndarray, colors: np.ndarray) -> None:
        """Give ``rows`` the uint8 ``colors``, one a row or one for all."""
        # each color as one 3-byte item: numpy moves whole rows faster
        self.subset.colors.view("V3")[rows] = colors.view("V3")
        self.recolored = True

    @property
    def count(self) -> int:
        kept = int(np.count_nonzero(self.alive))
        return kept + self.total - self.alive.size if self.outside else kept

    @property
    def has_color(self) -> bool:
        return self.subset.has_color or self.recolored

    @property
    def has_normals(self) -> bool:
        return self.subset.has_normals

    @functools.cached_property
    def _whole(self) -> PointCloud:
        from . import formats
        return gather(self, formats.DEFAULT_CHUNK_POINTS)[0]

    def indices(self) -> np.ndarray:
        """The ascending source rows that are kept."""
        kept = np.full(self.total, self.outside)
        kept[self.source_rows] = self.alive
        return np.flatnonzero(kept)

    def chunks(self, chunk_size: int) -> Iterator[PointCloud]:
        check_chunk_size(chunk_size)
        if not self.outside or self.alive.size == self.total:
            yield from Selection(self.subset, self.alive).chunks(chunk_size)
            return
        rows, start = self.source_rows, 0
        for chunk in self.source.chunks(chunk_size):
            k = chunk.count
            # bounds in the rows' own type, so that they are not converted
            a, b = np.searchsorted(rows, np.array((start, start + k),
                                                  dtype=rows.dtype))
            if a < b and (self.recolored or not self.alive[a:b].all()):
                chunk = self._patch(chunk, slice(a, b), start)
            start += k
            yield chunk
            del chunk   # not alive while the next batch is read

    def _patch(self, chunk: PointCloud, part: slice, start: int
               ) -> PointCloud:
        """``chunk`` with the subset rows ``part`` recolored or dropped."""
        local = self.source_rows[part] - start
        colors = chunk.colors
        if self.recolored:
            colors = colors.copy()
            colors.view("V3")[local] = self.subset.colors[part].view("V3")
        patched = PointCloud(chunk.positions, colors, chunk.normals,
                             has_color=self.has_color)
        dead = local[~self.alive[part]]
        if not dead.size:
            return patched
        kept = np.ones(chunk.count, dtype=bool)
        kept[dead] = False
        return patched.take(kept)


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
    """Uniform-grid index over the finite rows of an (n,3) position array,
    or over the finite ones of ascending ``rows`` of it, whose ``query(x)``
    gives each query's nearest indexed row.

    Points are sorted by their cell key, with about four cells to a point
    (``POINTS_PER_CELL``), so that the first ring of cells around a query
    settles nearly every query.  A grid of at most 65,535 cells keeps
    16-bit keys, which numpy sorts with a radix sort; a larger grid widens
    them.  Rows with a NaN or infinite coordinate are left out of the
    index.  Indexed rows are read in place, never copied out of
    ``positions``.
    """

    MAX_CELLS = (1 << 16) - 1
    POINTS_PER_CELL = 0.25
    #: past this many points cells fill up instead of multiplying
    MAX_POINTS = MAX_CELLS * 32
    #: query candidate pairs measured at once: 130-150 bytes of scratch a
    #: pair, 1.2 MB a batch
    BATCH = 1 << 13
    #: rows whose cell keys are computed, counted and placed at once: about
    #: 60 bytes a row of scratch, also in an index built during an edit step
    SLICE = 1 << 14
    #: queries searched at once: about 170 bytes a query, 0.35 MB
    QUERIES = 1 << 11
    #: relative margin on the stopping distance, far above rounding error
    SLACK = 1e-9

    def __init__(self, positions: np.ndarray, rows=None):
        self.positions = positions = _as_points(positions, "positions")
        # row numbers, cell starts included, in the narrowest type that
        # holds them: 4 bytes a point below 2**31 rows
        row_type = np.int32 if len(positions) < np.iinfo(np.int32).max \
            else np.int64
        # the indexed rows, when they are not all of 0..n-1; only the
        # build reads them, so the index does not keep them
        subset = None if rows is None else np.asarray(rows)
        m = len(positions) if rows is None else subset.size
        # one pass finds the bounds of the finite rows, and which they are
        lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
        finite = np.ones(m, dtype=bool)
        for a in range(0, m, self.SLICE):
            block = self._block(subset, a, a + self.SLICE)
            ok = np.isfinite(block)
            if not ok.all():
                finite[a:a + self.SLICE] = ok = ok.all(axis=1)
                block = block[ok]
            for k in range(3 if len(block) else 0):
                lo[k] = min(lo[k], block[:, k].min())
                hi[k] = max(hi[k], block[:, k].max())
        if not finite.all():
            subset = np.flatnonzero(finite).astype(row_type) \
                if rows is None else subset[finite]
            m = subset.size
        del finite
        self._lo, self._hi = (lo, hi) if m else (np.zeros(3), np.zeros(3))
        self._counts, self._scale = self._cell_grid(m)

        cells = int(self._counts.prod())
        key_type = np.uint16 if cells <= self.MAX_CELLS else np.uint32
        key = np.zeros(m, dtype=key_type)
        for a in range(0, m, self.SLICE):
            block = self._block(subset, a, a + self.SLICE)
            stride = 1
            for k in range(3):
                if self._counts[k] > 1:
                    key[a:a + self.SLICE] += self._cells(block[:, k], k) \
                        .astype(key_type) * key_type(stride)
                stride *= int(self._counts[k])
        self._starts, self._order = self._sort_rows(key, cells, row_type,
                                                    subset)

    def _sort_rows(self, key: np.ndarray, cells: int, row_type, subset
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The first slot of each cell (and the end of the last), and the
        indexed rows, ``subset`` or all of them, grouped by cell key.

        A counting sort, ``SLICE`` keys at a time, so that no temporary is
        as long as the index or the grid: one pass counts each slice's runs
        of equal keys, the next places them.  ``starts[c + 1]`` begins as
        the first slot of cell ``c`` and, as the cell's next free slot,
        ends as the first slot of cell ``c + 1``."""
        # numpy radix-sorts 16-bit keys; wider ones sort faster unstably,
        # and no caller needs the order of the rows inside a cell
        kind = "stable" if key.dtype == np.uint16 else "quicksort"
        starts = np.zeros(cells + 1, dtype=row_type)
        counts = starts[2:]   # cell c's count; the last cell's is not needed
        for a in range(0, key.size, self.SLICE):
            cell, _, runs = _key_runs(np.sort(key[a:a + self.SLICE],
                                              kind=kind))
            keep = cell < cells - 1
            counts[cell[keep]] += runs[keep].astype(row_type)
        np.cumsum(starts, dtype=row_type, out=starts)
        free = starts[1:]
        order = np.empty(key.size, dtype=row_type)
        for a in range(0, key.size, self.SLICE):
            part = key[a:a + self.SLICE]
            sort = np.argsort(part, kind=kind)
            cell, first, runs = _key_runs(part[sort])
            # each run of equal keys fills its cell's next free slots
            slots = np.repeat(free[cell] - first, runs)
            slots += np.arange(sort.size)
            sort += a
            order[slots] = sort if subset is None else subset[sort]
            free[cell] += runs.astype(row_type)
        return starts, order

    def _block(self, subset, a: int, b: int) -> np.ndarray:
        """The positions of the indexed rows ``a`` to ``b``, of ``subset``
        or of all rows."""
        if subset is None:
            return self.positions[a:b]
        return np.take(self.positions, subset[a:b], axis=0)

    def _cell_grid(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Cells per axis and the world -> cell scale.

        Cells are near-cubic with edge ``h``; an axis thinner than ``h``
        gets one cell and the others share the cell budget.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            extent = self._hi - self._lo
        target = max(1, int(min(m, self.MAX_POINTS) // self.POINTS_PER_CELL))
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
        rows = np.empty(len(x), dtype=np.int64)
        for a in range(0, len(x), self.QUERIES):
            rows[a:a + self.QUERIES] = self._nearest(x[a:a + self.QUERIES])
        return rows

    def _nearest(self, x: np.ndarray) -> np.ndarray:
        """``query`` of one batch of queries."""
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
        queries = [np.ascontiguousarray(column) for column in x.T]
        finest = self._scale[axes].max(initial=0.0)
        todo = np.arange(n)
        while todo.size:
            r = ring[todo]
            self._scan(queries, todo, cell[:, todo] - r,
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

    def _scan(self, queries, todo, lo, hi, best, rows) -> None:
        """Fold the points of the cells [lo, hi] (clipped to the grid) into
        the running ``best`` distance and ``rows`` of each query in
        ``todo``, at most ``BATCH`` runs or candidates at a time."""
        lo = np.maximum(lo, 0, out=lo)
        hi = np.minimum(hi, self._counts[:, None] - 1, out=hi)
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
                found = self._order[slots]
                # whole rows: a column of ``positions`` is strided
                points = np.take(self.positions, found, axis=0)
                dx, dy, dz = (points[:, k] - queries[k][who]
                              for k in range(3))
                dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
                first = np.empty(who.size, dtype=bool)
                first[0] = True
                np.not_equal(who[1:], who[:-1], out=first[1:])
                seg = np.flatnonzero(first)
                low = np.minimum.reduceat(dist, seg)
                tied = dist == low[np.cumsum(first) - 1]
                # the sentinel in the rows' own type: a wider one would wrap
                pick = np.minimum.reduceat(
                    np.where(tied, found, np.iinfo(found.dtype).max), seg)
                q = who[seg]
                better = (low < best[q]) | ((low == best[q])
                                            & (pick < rows[q]))
                best[q[better]] = low[better]
                rows[q[better]] = pick[better]


def _key_runs(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The key, first place and length of each run of equal sorted keys."""
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return keys[first], first, np.diff(first, append=keys.size)


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
        if not self.radius >= 0:   # NaN too
            raise ValueError("sphere radius must be >= 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def distances(self, colors: np.ndarray) -> np.ndarray:
        """Euclidean distance of each color to the center, summed and
        rooted as ``np.linalg.norm(delta, axis=-1)`` does it, with the
        squares made in place."""
        delta = np.asarray(colors, dtype=np.float64) - np.asarray(self.center)
        np.square(delta, out=delta)
        dist = delta.sum(axis=-1)
        return np.sqrt(dist, out=dist)


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
    # one reduction per column, ten times faster than min(axis=0), in the
    # colors' own type: RgbAabb makes each bound a float
    columns = arr.reshape(-1, 3).T
    return RgbAabb(min=tuple(column.min() for column in columns),
                   max=tuple(column.max() for column in columns))
