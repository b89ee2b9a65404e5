"""Core data model: containment, color statistics, validation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from pcedit import (ColorSphere, EmptySelection, OrientedBox, PointCloud,
                    RgbAabb, formats, mean_color, quantize_colors,
                    read_cloud, rgb_color_aabb, write_cloud)
from pcedit.cloud import Selection

from conftest import oracle_contains, random_box

finite = st.floats(-50.0, 50.0, allow_nan=False)
angles = st.floats(0.0, 360.0, exclude_max=True)


def make_box(centroid=(0, 0, 0), dims=(2, 2, 2), rot=(0, 0, 0), label="box"):
    return OrientedBox(label=label, centroid=centroid, dimensions=dims,
                       rotations=rot)


class TestPointInBox:
    def test_interior(self):
        assert make_box().contains((0.5, 0.5, 0.5))

    def test_face_is_inclusive(self):
        assert make_box().contains((1.0, 0.0, 0.0))

    def test_just_outside(self):
        assert not make_box().contains((1.0 + 1e-9, 0.0, 0.0))

    def test_yaw_45_rotates_corner_point_inside(self):
        # (1.2, 0, 0) in the frame of a 45-degree-yawed box sits at
        # roughly (0.849, -0.849, 0): inside the unit half-extents.
        box = make_box(rot=(0, 0, 45))
        assert box.contains((1.2, 0.0, 0.0))
        assert not make_box().contains((1.2, 0.0, 0.0))

    def test_zero_rotation_equals_interval_test(self, rng):
        box = make_box(centroid=(1, -2, 3), dims=(2, 5, 0.5))
        pts = rng.uniform(-5, 5, (500, 3))
        lo = np.array([0, -4.5, 2.75])
        hi = np.array([2, 0.5, 3.25])
        expected = np.all((pts >= lo) & (pts <= hi), axis=1)
        assert np.array_equal(box.contains(pts), expected)

    def test_matches_rotation_oracle_on_random_boxes(self, rng):
        pts = rng.uniform(-15, 15, (2000, 3))
        for _ in range(25):
            box = random_box(rng)
            assert np.array_equal(box.contains(pts),
                                  oracle_contains(pts, box))

    @given(rx=angles, ry=angles, rz=angles,
           px=finite, py=finite, pz=finite)
    def test_oracle_agreement_property(self, rx, ry, rz, px, py, pz):
        box = make_box(centroid=(1, 2, 3), dims=(4, 3, 2), rot=(rx, ry, rz))
        point = np.array([[px, py, pz]])
        assert box.contains(point)[0] == oracle_contains(point, box)[0]

    def test_rotation_full_turn_is_identity(self, rng):
        pts = rng.uniform(-3, 3, (200, 3))
        plain = make_box(rot=(0, 0, 0), dims=(3, 2, 1))
        turned = make_box(rot=(360, 720, -360), dims=(3, 2, 1))
        assert turned.rotations == (0.0, 0.0, 0.0)
        assert np.array_equal(plain.contains(pts),
                              turned.contains(pts))


def scipy_matrices(rotations) -> np.ndarray:
    """scipy's matrices for (rx, ry, rz) triples, the reference that
    ``OrientedBox.rotation_matrix`` reproduces without importing scipy."""
    rx, ry, rz = np.asarray(rotations, dtype=np.float64).T
    return Rotation.from_euler("ZYX", np.column_stack([rz, ry, rx]),
                               degrees=True).as_matrix()


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape == (3, 3)
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64)), \
        (actual, expected)


class TestRotationMatrix:
    any_angle = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=500)
    @given(rx=any_angle, ry=any_angle, rz=any_angle)
    def test_bit_identical_to_scipy(self, rx, ry, rz):
        # inputs outside [0, 360) are normalised by __post_init__ first
        box = make_box(rot=(rx, ry, rz))
        assert_same_bits(box.rotation_matrix(),
                         scipy_matrices([box.rotations])[0])

    def test_bit_identical_to_scipy_on_a_grid(self):
        angles = [45.0 * k for k in range(8)] + [359.999, 1e-12]
        triples = list(itertools.product(angles, repeat=3))
        expected = scipy_matrices(triples)
        for rot, matrix in zip(triples, expected):
            assert_same_bits(make_box(rot=rot).rotation_matrix(), matrix)


class TestOrientedBoxValidation:
    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_non_positive_dimension_rejected(self, dims):
        with pytest.raises(ValueError):
            make_box(dims=dims)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            make_box(label="  ")

    def test_rotations_normalized_to_half_open_range(self):
        box = make_box(rot=(-90, 450, 360))
        assert box.rotations == (270.0, 90.0, 0.0)


class TestColorSphereValidation:
    @pytest.mark.parametrize("radius", [-1e-9, -math.inf, math.nan])
    def test_negative_or_nan_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            ColorSphere(center=(10, 20, 30), radius=radius)

    def test_infinite_radius_keeps_every_color(self):
        sphere = ColorSphere(center=(10, 20, 30), radius=math.inf)
        assert sphere.radius == math.inf


class TestColorStats:
    def test_mean_of_two(self):
        assert np.allclose(mean_color([(10, 10, 10), (20, 20, 20)]),
                           (15, 15, 15))

    def test_mean_singleton_identity(self):
        assert np.allclose(mean_color([(7, 200, 3)]), (7, 200, 3))

    def test_mean_matches_summation_oracle(self, rng):
        colors = rng.integers(0, 256, (1000, 3))
        # independent route: per-channel Python-int accumulation
        sums = [sum(int(c[k]) for c in colors) for k in range(3)]
        expected = [s / 1000 for s in sums]
        assert np.max(np.abs(mean_color(colors) - expected)) < 1e-9

    def test_mean_permutation_invariant(self, rng):
        colors = rng.integers(0, 256, (300, 3))
        shuffled = colors[rng.permutation(300)]
        assert np.array_equal(mean_color(colors), mean_color(shuffled))

    def test_mean_empty_raises(self):
        with pytest.raises(EmptySelection):
            mean_color(np.empty((0, 3)))

    def test_aabb_example(self):
        aabb = rgb_color_aabb([(0, 0, 0), (100, 50, 10)])
        assert aabb.min == (0, 0, 0)
        assert aabb.max == (100, 50, 10)
        assert aabb.centroid == (50, 25, 5)

    def test_aabb_degenerate_singleton(self):
        aabb = rgb_color_aabb([(9, 9, 9)])
        assert aabb.min == aabb.max == aabb.centroid == (9, 9, 9)
        assert aabb.extent == (0, 0, 0)

    def test_aabb_matches_linear_scan(self, rng):
        colors = rng.integers(0, 256, (1000, 3))
        aabb = rgb_color_aabb(colors)
        lo = [min(int(c[k]) for c in colors) for k in range(3)]
        hi = [max(int(c[k]) for c in colors) for k in range(3)]
        assert aabb.min == tuple(lo) and aabb.max == tuple(hi)

    def test_aabb_duplication_invariant(self, rng):
        colors = rng.integers(0, 256, (50, 3))
        doubled = np.vstack([colors, colors[::-1]])
        assert rgb_color_aabb(colors) == rgb_color_aabb(doubled)
        once = np.unique(doubled, axis=0)
        assert rgb_color_aabb(doubled) == rgb_color_aabb(once)

    def test_aabb_empty_raises(self):
        with pytest.raises(EmptySelection):
            rgb_color_aabb(np.empty((0, 3)))


class TestQuantize:
    def test_round_half_to_even(self):
        values = np.array([[0.5, 1.5, 2.5], [254.5, 255.5, -3.0]])
        out = quantize_colors(values)
        assert out.tolist() == [[0, 2, 2], [254, 255, 0]]
        assert out.dtype == np.uint8


class TestPointCloud:
    def test_colorless_cloud_gets_zero_colors(self):
        cloud = PointCloud(np.zeros((4, 3)))
        assert not cloud.has_color
        assert cloud.colors.shape == (4, 3)
        assert not cloud.colors.any()

    def test_mismatched_color_length_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 3)), np.zeros((3, 3), dtype=np.uint8))

    def test_out_of_range_colors_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.array([[0, 256, 0]]))

    def test_take_preserves_order_and_attributes(self, rng):
        cloud = PointCloud(rng.uniform(size=(10, 3)),
                           rng.integers(0, 256, (10, 3)),
                           normals=rng.normal(size=(10, 3)))
        sub = cloud.take(np.array([7, 2, 5]))
        assert np.array_equal(sub.positions, cloud.positions[[7, 2, 5]])
        assert np.array_equal(sub.normals, cloud.normals[[7, 2, 5]])
        assert sub.has_color


class TestSphereAndAabbTypes:
    def test_sphere_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ColorSphere(center=(1, 1, 1), radius=-0.1)

    def test_sphere_rejects_out_of_cube_center(self):
        with pytest.raises(ValueError):
            ColorSphere(center=(0, 0, 300), radius=1.0)

    def test_aabb_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            RgbAabb(min=(10, 0, 0), max=(5, 255, 255))

    def test_aabb_contains_is_inclusive(self):
        aabb = RgbAabb(min=(0, 0, 0), max=(10, 10, 10))
        inside = aabb.contains(np.array([[10, 10, 10], [0, 0, 0],
                                         [10.001, 0, 0]]))
        assert inside.tolist() == [True, True, False]


class TestSelection:
    """A selection is the source rows it names, gathered only when used."""

    @pytest.fixture
    def cloud(self, rng):
        n = 1000
        return PointCloud(rng.uniform(size=(n, 3)),
                          rng.integers(0, 256, (n, 3)),
                          normals=rng.normal(size=(n, 3)), has_color=True)

    @pytest.mark.parametrize("kind", ["mask", "rows"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 333, 5000])
    def test_chunks_and_arrays_match_take(self, cloud, rng, kind,
                                          chunk_size):
        mask = rng.random(cloud.count) < 0.6
        rows = np.flatnonzero(mask)
        selection = Selection(cloud, mask if kind == "mask" else rows)
        assert selection.count == len(selection) == rows.size
        assert selection.has_normals and selection.has_color
        chunks = list(selection.chunks(chunk_size))
        assert all(0 < chunk.count <= chunk_size for chunk in chunks)
        assert "_whole" not in vars(selection)   # nothing gathered whole
        want = cloud.take(rows)
        for name in ("positions", "colors", "normals"):
            assert np.array_equal(
                np.concatenate([getattr(c, name) for c in chunks]),
                getattr(want, name))
            assert np.array_equal(getattr(selection, name),
                                  getattr(want, name))
        assert np.array_equal(selection.indices(), rows)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunks_reject_a_size_below_one(self, cloud, chunk_size):
        for source in (cloud, Selection(cloud, np.arange(3))):
            with pytest.raises(ValueError, match="at least 1"):
                next(source.chunks(chunk_size))

    def test_empty_and_normal_free(self, rng):
        cloud = PointCloud(rng.uniform(size=(5, 3)))
        selection = Selection(cloud, np.zeros(5, dtype=bool))
        assert selection.count == 0 and list(selection.chunks(2)) == []
        assert not selection.has_normals and selection.normals is None
        assert not selection.has_color
        assert selection.positions.shape == (0, 3)

    def test_write_holds_one_batch(self, cloud, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "DEFAULT_CHUNK_POINTS", 50)
        big = PointCloud(np.tile(cloud.positions, (100, 1)),
                         np.tile(cloud.colors, (100, 1)),
                         np.tile(cloud.normals, (100, 1)))
        selection = Selection(big, np.arange(big.count) % 10 != 0)
        tracemalloc.start()
        try:
            write_cloud(selection, tmp_path / "s.ply")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a whole copy would take 51 bytes a point, 4.6 MB here
        assert peak < 2**20, f"writing peaked at {peak / 2**20:.1f} MiB"
        assert "_whole" not in vars(selection)
        back = read_cloud(tmp_path / "s.ply")
        assert np.array_equal(back.positions, selection.positions)
        assert np.array_equal(back.normals, selection.normals)
