"""Box membership, the grid index and the edit engine against full-scan
references.

The references here rescan every point with the trig oracle for every box
and copy the cloud after every step, which is how the engine behaved
before it found each box's rows once per command.  The nearest-inlier
search on the grid is checked against scipy's k-d tree, which the tests
keep as an oracle only.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pcedit.cloud
from pcedit import (ColorSphere, EditStep, EmptySelection, OrientedBox,
                    PipelineStepError, PointCloud, RemapParams, RgbAabb,
                    SphereParams, SubstituteStep, apply_pipeline,
                    fit_color_sphere, mean_color, quantize_colors,
                    rgb_color_aabb, split_by_boxes)
from pcedit import recolor
from pcedit.boxfile import JoinedBox
from pcedit.cloud import Edit, GridIndex, Selection, rows_inside
from pcedit.recolor import (NEAREST_INLIER, PROJECT_TO_SURFACE,
                            _nearest_inlier_rows, nearest_rank)

from conftest import oracle_contains, oracle_rotation, random_box, random_cloud

UTM = np.array([5e6, 5e6, 0.0])


def _surface_points(box: OrientedBox, rng, per_face: int) -> np.ndarray:
    """Points on the box's corners, edges and faces (local ±half), placed
    with the oracle rotation; rounding leaves them within ulps of a face."""
    half = np.asarray(box.dimensions) / 2.0
    signs = np.array([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1)
                      for z in (-1, 0, 1) if (x, y, z) != (0, 0, 0)],
                     dtype=np.float64)
    free = rng.uniform(-1, 1, (per_face, 3))
    free[np.arange(per_face), rng.integers(0, 3, per_face)] = \
        rng.choice([-1.0, 1.0], per_face)
    local = np.vstack([signs, free]) * half
    rot = oracle_rotation(*box.rotations)
    return local @ rot.T + np.asarray(box.centroid)


@st.composite
def scenes(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(
        ["volume", "planar", "single", "empty", "nonfinite_only"]))
    offset = UTM if draw(st.booleans()) else np.zeros(3)
    rotated = draw(st.booleans())
    boxes = []
    for i in range(3):
        rotations = tuple(rng.uniform(0, 360, 3)) if rotated else (0, 0, 0)
        boxes.append(OrientedBox(
            label=f"b{i}", centroid=tuple(rng.uniform(-6, 6, 3) + offset),
            dimensions=tuple(rng.uniform(0.5, 8.0, 3)),
            rotations=rotations))
    # a box that misses the cloud entirely
    boxes.append(OrientedBox(label="miss",
                             centroid=tuple(np.array([90.0, -90, 90])
                                            + offset),
                             dimensions=(2, 2, 2),
                             rotations=boxes[0].rotations))

    parts = []
    if layout == "volume":
        parts.append(rng.uniform(-10, 10, (draw(st.integers(1, 400)), 3))
                     + offset)
    elif layout == "planar":
        flat = rng.uniform(-10, 10, (draw(st.integers(1, 400)), 3))
        flat[:, 2] = boxes[0].centroid[2]
        parts.append(flat + offset * [1, 1, 0])
    elif layout == "single":
        parts.append(np.asarray([boxes[0].centroid]))
    if layout in ("volume", "planar"):
        for box in boxes[:3]:
            parts.append(_surface_points(box, rng, per_face=20))
        cloud = np.vstack(parts)
        parts.append(cloud[rng.integers(0, len(cloud), 30)])  # duplicates
    if layout in ("volume", "planar", "nonfinite_only"):
        bad = np.array([[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf],
                        [np.nan, np.nan, np.nan], [np.inf, -np.inf, 1]])
        parts.append(bad + offset)
    positions = np.vstack(parts) if parts else np.empty((0, 3))
    return positions[rng.permutation(len(positions))], boxes


def _near_surface(positions: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Points so close to a face plane that the trig oracle and scipy's
    rotation matrix may round them to opposite sides."""
    rot = oracle_rotation(*box.rotations)
    half = np.asarray(box.dimensions) / 2.0
    with np.errstate(invalid="ignore"):
        local = (positions - np.asarray(box.centroid)) @ rot
        tol = 1e-9 * (1.0 + np.abs(box.centroid).max() + half.max())
        return np.any(np.abs(np.abs(local) - half) <= tol, axis=1)


def _edit_rows(edit: Edit, box: OrientedBox) -> np.ndarray:
    """The source rows of ``edit.rows_in(box)``."""
    return edit.source_rows[edit.rows_in(box)]


class TestGridIndex:
    """Box membership (``cloud.rows_inside`` and ``Edit``'s rows of each
    box), which took over the grid's box query, and the grid itself."""

    @given(scene=scenes(), seed=st.none() | st.integers(0, 2**32 - 1))
    def test_rows_match_full_scan_and_oracle(self, scene, seed):
        """``among`` is None or a random mask of survivors; rows it drops
        are never returned."""
        positions, boxes = scene
        among = None if seed is None else \
            np.random.default_rng(seed).random(len(positions)) < 0.5
        keep = np.ones(len(positions), dtype=bool) if among is None \
            else among
        edit = Edit(PointCloud(positions), boxes)
        edit.alive = keep[edit.source_rows]
        for box in boxes:
            rows = _edit_rows(edit, box)
            with np.errstate(invalid="ignore"):
                full = box.contains(positions)
                want = oracle_contains(positions, box) & keep
            # the same predicate on every point: bit-identical rows
            assert np.array_equal(rows, np.flatnonzero(full & keep))
            assert np.array_equal(rows_inside(positions, box, np.int32),
                                  np.flatnonzero(full))
            lo, hi = box.world_bounds()
            assert np.all((positions[full] >= lo) & (positions[full] <= hi))
            assert edit.rows_in(box).dtype == edit.source_rows.dtype
            if box.rotations == (0.0, 0.0, 0.0):
                # both rotations are the exact identity
                assert np.array_equal(rows, np.flatnonzero(want))
            else:
                firm = ~_near_surface(positions, box)
                got = np.zeros(len(positions), dtype=bool)
                got[rows] = True
                assert np.array_equal(got[firm], want[firm])

    def test_many_cells_match_full_scan(self, rng):
        """A flat cloud of several slices of ``BOX_SLICE`` rows."""
        positions = random_cloud(rng, 50_000, span=40.0).positions
        positions[:, 2] *= 0.05
        assert len(positions) > 3 * pcedit.cloud.BOX_SLICE
        for _ in range(40):
            box = random_box(rng, span=40.0)
            assert np.array_equal(rows_inside(positions, box, np.int32),
                                  np.flatnonzero(box.contains(positions)))

    def test_nonfinite_box_falls_back_to_full_scan(self, monkeypatch, rng):
        """A box without finite world bounds tests every finite row, a
        slice at a time, with the rows deleted or taken left out."""
        monkeypatch.setattr(pcedit.cloud, "BOX_SLICE", 7)
        positions = rng.uniform(-1, 1, (100, 3))
        huge = OrientedBox(label="huge", centroid=(0, 0, 0),
                           dimensions=(np.inf, 1, 1))
        edit = Edit(PointCloud(positions), [huge])
        full = np.flatnonzero(huge.contains(positions))
        assert 0 < full.size < len(positions)
        assert np.array_equal(_edit_rows(edit, huge), full)
        among = rng.random(len(positions)) < 0.5
        (_, rows), = edit.claim([huge], among[edit.source_rows])
        assert np.array_equal(edit.source_rows[rows], full[among[full]])
        edit.alive = among[edit.source_rows]
        assert np.array_equal(_edit_rows(edit, huge), full[among[full]])

    def test_a_nonfinite_row_is_inside_no_box(self):
        """``(inf, 0, 0)`` maps to infinite local coordinates in a rotated
        box of infinite size, which ``contains`` accepts; membership tests
        only finite rows, so no box holds it."""
        positions = np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
                              [1e300, -1e300, 5.0]])
        box = OrientedBox(label="all", centroid=(0, 0, 0),
                          dimensions=(np.inf, np.inf, np.inf),
                          rotations=(30, 40, 50))
        with np.errstate(invalid="ignore"):
            assert box.contains(positions).tolist() == [True, True, True]
        assert rows_inside(positions, box, np.int32).tolist() == [1, 2]
        assert _edit_rows(Edit(PointCloud(positions), [box]),
                          box).tolist() == [1, 2]

    def test_a_row_subset_indexes_only_its_rows(self, rng):
        """An edit of some rows of a cloud claims, for a box finite or not,
        the rows of that subset inside it; ``rows=`` indexes those rows
        where they lie, and a query gives the nearest of its finite rows,
        by row number."""
        positions = rng.uniform(-1, 1, (400, 3))
        positions[::29] = [np.nan, 0.0, np.inf]
        subset = np.flatnonzero(rng.random(400) < 0.5)
        huge = OrientedBox(label="huge", centroid=(0, 0, 0),
                           dimensions=(np.inf, 1, 1))
        boxes = [huge] + [random_box(rng, span=2.0) for _ in range(5)]
        edit = Edit(Selection(PointCloud(positions), subset), boxes)
        rows_of = subset[edit.source_rows]   # the cloud's rows of the edit
        for box in boxes:
            with np.errstate(invalid="ignore"):
                inside = box.contains(positions)
            full = subset[inside[subset]]
            for among in (None, rng.random(400) < 0.5):
                want = full if among is None else full[among[full]]
                free = np.ones(rows_of.size, dtype=bool) if among is None \
                    else among[rows_of]
                (_, rows), = edit.claim([box], free)
                assert np.array_equal(rows_of[rows], want)
        index = GridIndex(positions, rows=subset)
        finite = subset[np.isfinite(positions[subset]).all(axis=1)]
        queries = rng.uniform(-1.5, 1.5, (50, 3))
        dist = np.linalg.norm(queries[:, None] - positions[finite], axis=2)
        assert np.array_equal(index.query(queries),
                              finite[dist.argmin(axis=1)])

    def test_the_point_cap_bounds_the_grid(self, rng):
        """About four cells a point, with 16-bit keys while the grid has at
        most ``MAX_CELLS`` cells; past ``MAX_POINTS`` points the grid stops
        growing."""
        small = GridIndex(rng.uniform(0, 100, (5000, 3)))
        assert small._starts.size - 1 <= GridIndex.MAX_CELLS
        capped, more = (small._cell_grid(m)[0].prod()
                        for m in (GridIndex.MAX_POINTS, 10**7))
        assert capped == more <= \
            2 * GridIndex.MAX_POINTS / GridIndex.POINTS_PER_CELL
        sparse = GridIndex(rng.uniform(0, 100, (50_000, 3)))
        assert sparse._starts.size - 1 > GridIndex.MAX_CELLS
        queries = rng.uniform(0, 100, (20, 3))
        want = [np.linalg.norm(sparse.positions - q, axis=1).argmin()
                for q in queries]
        assert sparse.query(queries).tolist() == want


def scipy_nearest(positions, inlier_rows, outlier_rows) -> np.ndarray:
    """Index into ``inlier_rows`` of each outlier's nearest inlier by
    scipy's k-d tree, asked for every inlier so that the whole tie set at
    the smallest distance shows; ties go to the lowest index."""
    from scipy.spatial import cKDTree
    tree = cKDTree(positions[inlier_rows])
    dist, idx = tree.query(positions[outlier_rows], k=inlier_rows.size)
    dist = dist.reshape(outlier_rows.size, -1)
    idx = idx.reshape(outlier_rows.size, -1)
    return np.where(dist == dist[:, :1], idx, inlier_rows.size).min(axis=1)


@st.composite
def search_scenes(draw):
    """Inliers and outliers interleaved by row: coordinates on an integer
    grid or rounded to 0.1 m (many exact distance ties), optionally 5e6 m
    out, with outliers spread past the inliers' bounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(
        ["grid", "rounded", "single", "duplicates", "planar", "linear",
         "permuted"]))
    n_in = 1 if layout == "single" else draw(st.integers(1, 300))
    n = n_in + draw(st.integers(1, 100))
    if layout == "grid":
        positions = rng.integers(0, 6, (n, 3)).astype(float)
    else:
        positions = np.round(rng.uniform(-4, 4, (n, 3)), 1)
    inlier = rng.permutation(n) < n_in
    positions[~inlier] *= draw(st.sampled_from([1.0, 3.0, 40.0]))
    if layout == "duplicates":
        positions = positions[rng.integers(0, max(1, n // 4), n)]
    elif layout == "planar":      # the inliers' z axis has a single cell
        positions[inlier, 2] = 0.5
    elif layout == "linear":      # so have their y and z axes
        positions[inlier, 1:] = (-1.0, 2.0)
    elif layout == "permuted":
        # inliers at the six axis orders of one offset from an outlier: equal
        # distances in exact arithmetic, whose rounded sums of squares may
        # tell them apart only in the order the squares are added
        offset = np.round(rng.uniform(0.1, 1.0, 3), 1)
        orders = offset[list(itertools.permutations(range(3)))]
        centers = positions[~inlier][rng.integers(0, n - n_in, n_in)]
        positions[inlier] = centers + orders[rng.integers(0, 6, n_in)]
    if draw(st.booleans()):
        positions += UTM
    return positions, np.flatnonzero(inlier), np.flatnonzero(~inlier)


class TestNearestInlierSearch:
    @given(scene=search_scenes())
    def test_matches_scipy_with_lowest_index_ties(self, scene):
        positions, inlier_rows, outlier_rows = scene
        got = _nearest_inlier_rows(positions, inlier_rows, outlier_rows)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, inlier_rows[scipy_nearest(positions, inlier_rows,
                                           outlier_rows)])

    def test_clumped_inliers_far_from_their_outliers(self, rng):
        """A single-level grid has no hierarchy inside a dense clump: the
        outliers at the far end of a 15 m box each scan much of a 0.3 m
        clump of inliers.  Slow for a grid, but still exact."""
        clump = rng.uniform(0, 0.3, (5000, 3))
        far = rng.uniform((14, 0, 0), (15, 15, 15), (1000, 3))
        positions = np.vstack([clump, far])[rng.permutation(6000)]
        inlier_rows = np.flatnonzero(positions[:, 0] <= 0.3)
        outlier_rows = np.flatnonzero(positions[:, 0] > 0.3)
        assert np.array_equal(
            _nearest_inlier_rows(positions, inlier_rows, outlier_rows),
            inlier_rows[scipy_nearest(positions, inlier_rows, outlier_rows)])

    def test_rejects_nonfinite_queries_and_an_empty_index(self, rng):
        index = GridIndex(rng.uniform(0, 1, (10, 3)))
        with pytest.raises(ValueError, match="finite"):
            index.query(np.array([[0.5, np.nan, 0.5]]))
        with pytest.raises(ValueError, match="empty"):
            GridIndex(np.empty((0, 3))).query(np.zeros((1, 3)))


#: every batch size of the engine: ``GridIndex.BATCH`` (query candidates
#: at once), ``GridIndex.SLICE`` (keys computed, counted and placed at
#: once), ``GridIndex.QUERIES`` (queries searched at once),
#: ``recolor.BATCH`` (in-box colors at once) and ``cloud.BOX_SLICE`` (rows
#: tested against a box at once)
BATCH_CONSTANTS = pytest.mark.parametrize(
    "owner, name", [(GridIndex, "BATCH"), (GridIndex, "SLICE"),
                    (GridIndex, "QUERIES"), (recolor, "BATCH"),
                    (pcedit.cloud, "BOX_SLICE")],
    ids=["GridIndex.BATCH", "GridIndex.SLICE", "GridIndex.QUERIES",
         "recolor.BATCH", "cloud.BOX_SLICE"])
BATCH_SIZES = pytest.mark.parametrize("size", [1, 7, None],
                                      ids=["1", "7", "default"])


class TestBatchBoundaries:
    """The batch sizes only cut the work: any size gives the rows of the
    full scan and of scipy, and the colors of the whole-array formulas."""

    @pytest.fixture(scope="class")
    def scene(self):
        rng = np.random.default_rng(23)
        # coordinates on a 0.5 m lattice: many exact distance ties
        positions = np.round(rng.uniform(-4, 4, (400, 3)) * 2) / 2
        positions[::37] = [np.nan, 0.0, 0.0]   # rows in no box or index
        finite = np.isfinite(positions).all(axis=1)
        inlier = finite & (rng.random(400) < 0.8)
        boxes = [random_box(rng, span=8.0) for _ in range(6)]
        return (positions, boxes, np.flatnonzero(inlier),
                np.flatnonzero(finite & ~inlier))

    @BATCH_SIZES
    @pytest.mark.parametrize("name", ["BATCH", "SLICE", "QUERIES"])
    def test_rows_and_nearest_rows(self, monkeypatch, scene, name, size):
        """The grid constant ``name`` and ``cloud.BOX_SLICE`` at ``size``."""
        positions, boxes, inlier_rows, outlier_rows = scene
        if size is not None:
            monkeypatch.setattr(GridIndex, name, size)
            monkeypatch.setattr(pcedit.cloud, "BOX_SLICE", size)
        edit = Edit(PointCloud(positions), boxes)
        for box in boxes:
            with np.errstate(invalid="ignore"):
                want = np.flatnonzero(box.contains(positions))
            assert np.array_equal(_edit_rows(edit, box), want)
        assert np.array_equal(
            _nearest_inlier_rows(positions, inlier_rows, outlier_rows),
            inlier_rows[scipy_nearest(positions, inlier_rows, outlier_rows)])

    @BATCH_SIZES
    @BATCH_CONSTANTS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_steps_match_the_reference(self, owner, name, size, seed):
        """Every step, in-box color math included, equals the full-scan,
        whole-array reference bit for bit."""
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, int(rng.integers(1, 300)))
        steps = _random_steps(rng, 6)
        with pytest.MonkeyPatch.context() as patch:
            if size is not None:
                patch.setattr(owner, name, size)
            try:
                got, report = apply_pipeline(cloud, steps)
            except PipelineStepError as err:
                assert isinstance(err.cause, EmptySelection)
                steps = steps[:err.step_index]
                got, report = apply_pipeline(cloud, steps)
        want, want_reports = _reference_pipeline(cloud, steps)
        _assert_same_cloud(got, want)
        assert json.loads(report.to_json())["steps"] == _json(want_reports)

    @BATCH_SIZES
    @given(dtype=st.sampled_from([np.uint8, np.int64, np.float64]),
           n=st.integers(0, 60), percentile=st.floats(0.01, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_is_the_whole_array_fit(self, size, dtype, n, percentile,
                                        seed):
        """The center from batched int64 column sums is ``mean_color``'s,
        and the radius the element a full sort of all the distances puts
        at the rank, bit for bit, for integer colors of any type."""
        colors = np.random.default_rng(seed).integers(0, 256, (n, 3)) \
            .astype(dtype)
        params = SphereParams(percentile=percentile)
        with pytest.MonkeyPatch.context() as patch:
            if size is not None:
                patch.setattr(recolor, "BATCH", size)
            if n == 0:
                with pytest.raises(EmptySelection):
                    fit_color_sphere(colors, params)
                return
            sphere = fit_color_sphere(colors, params)
        center = mean_color(colors)
        dists = np.sort(ColorSphere(center=tuple(center), radius=0.0)
                        .distances(colors.astype(np.float64)))
        assert np.array_equal(sphere.center, center)
        assert sphere.radius == dists[nearest_rank(percentile, n) - 1]

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_sparse_grid_slices(self, monkeypatch, rng, size):
        """Keys counted in slices of at least one key per cell."""
        positions = rng.uniform(0, 10, (300, 3))
        monkeypatch.setattr(GridIndex, "SLICE", size)
        sparse = GridIndex(positions)
        assert sparse._starts.size - 1 > size   # more cells than a slice
        queries = rng.uniform(0, 10, (20, 3))
        dist = np.linalg.norm(queries[:, None] - positions, axis=2)
        assert np.array_equal(sparse.query(queries), dist.argmin(axis=1))
        starts = np.asarray(sparse._starts)
        assert starts[0] == 0 and starts[-1] == 300
        assert np.all(np.diff(starts) >= 0)

    def test_index_arrays_are_narrow(self, rng):
        index = GridIndex(rng.uniform(0, 10, (5000, 3)))
        assert index._order.dtype == np.int32
        assert index._starts.dtype == np.int32
        assert index.query(rng.uniform(0, 10, (5, 3))).dtype == np.int64

    def test_tie_sentinel_keeps_its_type(self):
        """The tie break takes the lowest row among the tied candidates and
        a sentinel for the others; in int64 the sentinel would wrap to -1
        in the int32 rows and win every minimum."""
        inliers = np.array([[2.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0],
                            [0, 0, 3.0]])
        index = GridIndex(inliers)
        assert index._order.dtype == np.int32
        assert index.query(np.zeros((1, 3))).tolist() == [1]
        assert index.query(np.array([[1.0, 1.0, 0]])).tolist() == [1]


# --- full-scan, copy-per-step reference engine -------------------------------

def _reference_step(cloud: PointCloud, step):
    """One step on a cloud: returns (new cloud, report dict)."""
    if isinstance(step, SubstituteStep):
        assigned = np.zeros(cloud.count, dtype=bool)
        colors = cloud.colors.copy()
        for j in step.joined:
            if not (j.enabled and j.color is not None):
                continue
            mask = oracle_contains(cloud.positions, j.box) & ~assigned
            colors[mask] = j.color
            assigned |= mask
        out = _copy(cloud, colors=colors, has_color=True, keep=assigned)
        return out, {"op": step.op, "box_label": None,
                     "points_examined": cloud.count,
                     "points_recolored": int(assigned.sum()),
                     "points_deleted": int((~assigned).sum()),
                     "sphere_center": None, "sphere_radius": None,
                     "source_min": None, "source_max": None}

    rows = np.flatnonzero(oracle_contains(cloud.positions, step.box))
    if rows.size == 0:
        raise EmptySelection(step.box.label)
    colors_in = cloud.colors[rows].astype(np.float64)
    report = {"op": step.op, "box_label": step.box.label,
              "points_examined": int(rows.size), "points_recolored": 0,
              "points_deleted": 0, "sphere_center": None,
              "sphere_radius": None, "source_min": None,
              "source_max": None}
    keep = np.ones(cloud.count, dtype=bool)
    colors = cloud.colors.copy()
    has_color = cloud.has_color

    if isinstance(step.params, SphereParams):
        sphere = fit_color_sphere(colors_in, step.params)
        report["sphere_center"] = list(sphere.center)
        report["sphere_radius"] = sphere.radius
        dists = np.linalg.norm(colors_in - sphere.center, axis=1)
        outlier = dists > sphere.radius
        out_rows, in_rows = rows[outlier], rows[~outlier]
        if step.delete:
            keep[out_rows] = False
            report["points_deleted"] = int(out_rows.size)
        elif out_rows.size:
            center = np.asarray(sphere.center)
            if step.params.outlier_mode == PROJECT_TO_SURFACE:
                if sphere.radius == 0:
                    colors[out_rows] = quantize_colors(
                        np.tile(center, (out_rows.size, 1)))
                else:
                    colors[out_rows] = quantize_colors(
                        center + (colors_in[outlier] - center)
                        * (sphere.radius / dists[outlier])[:, None])
            elif in_rows.size == 0:
                colors[out_rows] = quantize_colors(
                    np.tile(center, (out_rows.size, 1)))
            else:
                # exhaustive nearest inlier; argmin keeps the lowest row
                gap = np.linalg.norm(cloud.positions[out_rows][:, None]
                                     - cloud.positions[in_rows][None],
                                     axis=2)
                colors[out_rows] = cloud.colors[in_rows[gap.argmin(axis=1)]]
            has_color = True
            report["points_recolored"] = int(out_rows.size)
    else:
        source = rgb_color_aabb(colors_in)
        report["source_min"], report["source_max"] = \
            list(source.min), list(source.max)
        target = step.params.target
        if step.delete:
            inside = np.all((colors_in >= target.min)
                            & (colors_in <= target.max), axis=1)
            keep[rows[~inside]] = False
            report["points_deleted"] = int((~inside).sum())
        else:
            s_ext = np.asarray(source.extent)
            gain = np.divide(np.asarray(target.extent), s_ext,
                             out=np.zeros(3), where=s_ext > 0)
            colors[rows] = quantize_colors(
                np.asarray(target.centroid)
                + (colors_in - source.centroid) * gain)
            has_color = True
            report["points_recolored"] = int(rows.size)
    return _copy(cloud, colors=colors, has_color=has_color, keep=keep), report


def _copy(cloud, *, colors, has_color, keep):
    return PointCloud(cloud.positions[keep].copy(), colors[keep].copy(),
                      None if cloud.normals is None
                      else cloud.normals[keep].copy(),
                      has_color=has_color)


def _reference_pipeline(cloud, steps):
    reports = []
    for step in steps:
        cloud, report = _reference_step(cloud, step)
        reports.append(report)
    return cloud, reports


def _random_steps(rng, count: int):
    sphere_modes = [SphereParams(percentile=80.0),
                    SphereParams(percentile=55.0,
                                 outlier_mode=NEAREST_INLIER),
                    SphereParams(radius_mode="absolute", radius=60.0),
                    SphereParams(radius_mode="absolute", radius=0.0,
                                 outlier_mode=NEAREST_INLIER)]
    target = RemapParams(target=RgbAabb(min=(20, 40, 10),
                                        max=(200, 230, 120)))
    steps = []
    for i in range(count):
        box = OrientedBox(label=f"box{i % 7}",
                          centroid=tuple(rng.uniform(-6, 6, 3)),
                          dimensions=tuple(rng.uniform(4.0, 10.0, 3)),
                          rotations=tuple(rng.uniform(0, 360, 3)))
        kind = i % 5
        params = sphere_modes[int(rng.integers(len(sphere_modes)))]
        if kind == 0:
            steps.append(EditStep(box=box, params=params, delete=True))
        elif kind in (1, 2):
            steps.append(EditStep(box=box, params=params))
        elif kind == 3:
            steps.append(EditStep(box=box, params=target))
        else:
            steps.append(EditStep(box=box, params=target, delete=True))
    return steps


def _assert_same_cloud(got: PointCloud, want: PointCloud):
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.colors, want.colors)
    assert got.has_color == want.has_color
    if want.normals is None:
        assert got.normals is None
    else:
        assert np.array_equal(got.normals, want.normals)


def _json(reports):
    return json.loads(json.dumps(reports))


class TestEngineMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("colored", [True, False])
    def test_random_overlapping_boxes(self, seed, colored):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 3000, normals=True)
        if not colored:
            cloud = PointCloud(cloud.positions, None, cloud.normals)
        steps = _random_steps(rng, 24)
        palette = [JoinedBox(box=s.box, color=tuple(rng.integers(0, 256, 3)),
                             enabled=bool(i % 4)) for i, s in
                   enumerate(steps[:10])]
        steps.append(SubstituteStep(joined=palette))

        got, report = apply_pipeline(cloud, steps)
        want, want_reports = _reference_pipeline(cloud, steps)
        _assert_same_cloud(got, want)
        payload = json.loads(report.to_json())
        assert payload["steps"] == _json(want_reports)
        assert payload["input_count"] == cloud.count
        assert payload["output_count"] == want.count

    def test_recolor_without_outliers_keeps_colorless_source(self, rng):
        cloud = PointCloud(rng.uniform(-1, 1, (50, 3)))
        box = OrientedBox(label="all", centroid=(0, 0, 0),
                          dimensions=(4, 4, 4))
        got, _ = apply_pipeline(cloud, [EditStep(box=box)])
        assert not got.has_color
        remapped, _ = apply_pipeline(cloud, [EditStep(
            box=box, params=RemapParams(target=RgbAabb(min=(0, 0, 0),
                                                       max=(9, 9, 9))))])
        assert remapped.has_color

    def test_input_cloud_is_not_modified(self, rng):
        cloud = random_cloud(rng, 2000, normals=True)
        before = (cloud.positions.copy(), cloud.colors.copy(),
                  cloud.normals.copy())
        apply_pipeline(cloud, _random_steps(rng, 20))
        assert np.array_equal(cloud.positions, before[0])
        assert np.array_equal(cloud.colors, before[1])
        assert np.array_equal(cloud.normals, before[2])

    def test_box_emptied_by_an_earlier_delete_fails_that_step(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0]])
        cloud = PointCloud(positions, [[0, 0, 0], [0, 0, 0], [255, 0, 0]])
        everything = OrientedBox(label="all", centroid=(2.5, 0, 0),
                                 dimensions=(6, 1, 1))
        far = OrientedBox(label="far", centroid=(5, 0, 0),
                          dimensions=(1, 1, 1))
        steps = [EditStep(box=everything, params=SphereParams(
                     radius_mode="absolute", radius=1.0), delete=True),
                 EditStep(box=far)]
        with pytest.raises(PipelineStepError) as err:
            apply_pipeline(cloud, steps)
        assert err.value.step_index == 1
        assert isinstance(err.value.cause, EmptySelection)


class TestSplitMatchesReference:
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_overlapping_boxes(self, rng, duplicates):
        cloud = random_cloud(rng, 5000, normals=True)
        boxes = [OrientedBox(label=f"class{i % 6}",
                             centroid=tuple(rng.uniform(-6, 6, 3)),
                             dimensions=tuple(rng.uniform(3.0, 10.0, 3)),
                             rotations=tuple(rng.uniform(0, 360, 3)))
                 for i in range(24)]
        result = split_by_boxes(cloud, boxes, duplicates=duplicates)

        masks: dict[str, np.ndarray] = {}
        assigned = np.zeros(cloud.count, dtype=bool)
        for box in boxes:
            mask = oracle_contains(cloud.positions, box)
            if not duplicates:
                mask &= ~assigned
            masks[box.label] = masks.get(box.label, False) | mask
            assigned |= mask
        assert [f.label for f in result.fragments] == list(masks)
        for fragment in result.fragments:
            rows = np.flatnonzero(masks[fragment.label])
            assert np.array_equal(fragment.indices, rows)
            _assert_same_cloud(fragment.cloud, cloud.take(rows))
        rest = np.flatnonzero(~assigned)
        assert np.array_equal(result.remainder_indices, rest)
        _assert_same_cloud(result.remainder, cloud.take(rest))
