"""Recolor engine: sphere fit, projection, remap, substitution, deletion."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcedit import (EditStep, EmptySelection, NoEnabledBoxes, OrientedBox,
                    PipelineStepError, PointCloud, RemapParams, RgbAabb,
                    SphereParams, SubstituteStep, apply_pipeline,
                    delete_rgb_box_outliers, delete_spherical_outliers,
                    fit_color_sphere, recolor_rgb_box_remap,
                    recolor_spherical, recolor_substitute)
from pcedit.boxfile import JoinedBox
from pcedit.recolor import (NEAREST_INLIER, ROUNDING_SLACK,
                            _nearest_inlier_rows, nearest_rank)

from conftest import oracle_contains, oracle_nearest_index, random_box

BIG_BOX = OrientedBox(label="all", centroid=(0, 0, 0),
                      dimensions=(1e6, 1e6, 1e6))


def cloud_from(colors, positions=None):
    colors = np.asarray(colors)
    if positions is None:
        positions = np.zeros((len(colors), 3))
        positions[:, 0] = np.arange(len(colors))
    return PointCloud(np.asarray(positions, dtype=np.float64), colors)


class TestFitColorSphere:
    def test_identical_colors_zero_radius(self):
        sphere = fit_color_sphere(np.tile([40, 50, 60], (9, 1)),
                                  SphereParams())
        assert sphere.center == (40, 50, 60)
        assert sphere.radius == 0

    def test_two_color_percentile_100(self):
        sphere = fit_color_sphere(np.array([[0, 0, 0], [100, 0, 0]]),
                                  SphereParams(percentile=100.0))
        assert sphere.center == (50, 0, 0)
        assert sphere.radius == 50

    def test_two_color_percentile_50_nearest_rank(self):
        sphere = fit_color_sphere(np.array([[0, 0, 0], [100, 0, 0]]),
                                  SphereParams(percentile=50.0))
        assert sphere.radius == 50  # nearest rank of {50, 50}

    def test_absolute_mode(self):
        sphere = fit_color_sphere(np.array([[0, 0, 0], [100, 0, 0]]),
                                  SphereParams(radius_mode="absolute",
                                               radius=7.5))
        assert sphere.radius == 7.5

    @given(q=st.floats(0.01, 100.0), n=st.integers(1, 60),
           seed=st.integers(0, 2**31))
    def test_nearest_rank_matches_sorted_oracle(self, q, n, seed):
        colors = np.random.default_rng(seed).integers(0, 256, (n, 3))
        sphere = fit_color_sphere(colors, SphereParams(percentile=q))
        center = [sum(int(c[k]) for c in colors) / n for k in range(3)]
        dists = sorted(math.dist(center, c) for c in colors.tolist())
        # exact decimal rank: float q / 100 * n is 7.000000000000001 for
        # q=7, n=100
        expect = dists[math.ceil(Decimal(repr(q)) * n / 100) - 1]
        assert math.isclose(sphere.radius, expect, rel_tol=1e-12,
                            abs_tol=1e-9)

    def test_nearest_rank_matches_integer_oracle(self):
        got = [nearest_rank(float(p), n)
               for p in range(1, 101) for n in range(1, 1001)]
        want = [-(-p * n // 100)
                for p in range(1, 101) for n in range(1, 1001)]
        assert got == want

    @given(q=st.floats(allow_nan=False, allow_infinity=False),
           n=st.integers(0, 10**12))
    def test_nearest_rank_matches_fraction_oracle(self, q, n):
        # every finite float, its repr in fixed or exponent notation
        assert nearest_rank(q, n) == math.ceil(Fraction(repr(q)) * n / 100)

    def test_percentile_7_of_100_is_rank_7(self):
        colors = np.zeros((100, 3))
        colors[:, 0] = np.arange(100) ** 2 / 50.0
        sphere = fit_color_sphere(colors, SphereParams(percentile=7.0))
        dists = np.sort(np.abs(colors[:, 0] - colors[:, 0].mean()))
        assert np.all(np.diff(dists) > 0)
        assert sphere.radius == dists[6]

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            fit_color_sphere(np.empty((0, 3)), SphereParams())

    @pytest.mark.parametrize("kwargs", [
        {"percentile": 0.0}, {"percentile": 100.5},
        {"radius_mode": "absolute", "radius": -1},
        {"radius_mode": "median"}, {"outlier_mode": "blur"},
        {"radius_mode": "absolute", "radius": math.nan}])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SphereParams(**kwargs)


class TestRecolorSpherical:
    def test_projection_lands_exactly_on_surface(self):
        # inliers average to (100,0,0); outlier at distance 2r projects to r
        colors = [[90, 0, 0]] * 5 + [[110, 0, 0]] * 5 + [[140, 0, 0]]
        cloud = cloud_from(colors)
        params = SphereParams(radius_mode="absolute", radius=20.0)
        out = recolor_spherical(cloud, BIG_BOX, params)
        # center is the mean over all 11 in-box colors: (103.63..., 0, 0)
        center = np.mean(np.asarray(colors, dtype=float), axis=0)
        moved = out.colors[-1].astype(float)
        assert math.dist(moved, center) <= 20.0 + ROUNDING_SLACK
        assert np.array_equal(out.colors[:10], cloud.colors[:10])

    def test_integer_exact_projection(self):
        # symmetric colors give mean (100,0,0); +-40 outliers land at +-10
        cloud = cloud_from([[90, 0, 0], [110, 0, 0], [140, 0, 0],
                            [60, 0, 0]])
        params = SphereParams(radius_mode="absolute", radius=10.0)
        out = recolor_spherical(cloud, BIG_BOX, params)
        assert out.colors[2].tolist() == [110, 0, 0]
        assert out.colors[3].tolist() == [90, 0, 0]
        # distance exactly 10 is on the boundary, hence untouched
        assert out.colors[0].tolist() == [90, 0, 0]
        assert out.colors[1].tolist() == [110, 0, 0]

    def test_inliers_untouched_byte_for_byte(self, rng):
        cloud = cloud_from(rng.integers(100, 120, (50, 3)))
        out = recolor_spherical(cloud, BIG_BOX,
                                SphereParams(percentile=100.0))
        assert np.array_equal(out.colors, cloud.colors)

    def test_count_positions_order_preserved(self, rng):
        cloud = PointCloud(rng.uniform(-2, 2, (100, 3)),
                           rng.integers(0, 256, (100, 3)),
                           normals=rng.normal(size=(100, 3)))
        box = OrientedBox(label="b", centroid=(0, 0, 0), dimensions=(2, 2, 2))
        out = recolor_spherical(cloud, box, SphereParams())
        assert out.count == cloud.count
        assert np.array_equal(out.positions, cloud.positions)
        assert np.array_equal(out.normals, cloud.normals)

    def test_out_of_box_colors_untouched(self, rng):
        positions = np.vstack([rng.uniform(-1, 1, (30, 3)),
                               rng.uniform(5, 6, (30, 3))])
        cloud = PointCloud(positions, rng.integers(0, 256, (60, 3)))
        box = OrientedBox(label="in", centroid=(0, 0, 0),
                          dimensions=(2, 2, 2))
        out = recolor_spherical(cloud, box, SphereParams(percentile=50.0))
        assert np.array_equal(out.colors[30:], cloud.colors[30:])

    def test_radius_zero_maps_outliers_to_center(self):
        cloud = cloud_from([[10, 10, 10], [10, 10, 10], [90, 90, 90]])
        params = SphereParams(radius_mode="absolute", radius=0.0)
        out = recolor_spherical(cloud, BIG_BOX, params)
        # center = mean of all three = (36.67, ...) -> rounded
        assert out.colors[2].tolist() == [37, 37, 37]

    def test_every_output_color_within_radius_plus_slack(self, rng):
        cloud = cloud_from(rng.integers(0, 256, (500, 3)),
                           rng.uniform(-1, 1, (500, 3)))
        params = SphereParams(percentile=75.0)
        sphere = fit_color_sphere(cloud.colors, params)
        out = recolor_spherical(cloud, BIG_BOX, params)
        dists = sphere.distances(out.colors.astype(float))
        assert dists.max() <= sphere.radius + ROUNDING_SLACK

    def test_empty_box_raises(self, rng):
        cloud = cloud_from(rng.integers(0, 256, (10, 3)))
        far = OrientedBox(label="far", centroid=(999, 999, 999),
                          dimensions=(1, 1, 1))
        with pytest.raises(EmptySelection):
            recolor_spherical(cloud, far, SphereParams())


class TestNearestInlier:
    def params(self, radius):
        return SphereParams(radius_mode="absolute", radius=radius,
                            outlier_mode=NEAREST_INLIER)

    @staticmethod
    def scene(near_positions):
        # 20 distant ballast points pin the mean color near (102, 0, 0) so
        # the two nearby reds are inliers and the white point is not
        positions = near_positions + [[1000 + i, 0, 0] for i in range(20)]
        colors = [[100, 0, 0], [104, 0, 0], [250, 250, 250]]
        colors += [[102, 0, 0]] * 20
        return cloud_from(colors, positions)

    def test_takes_color_of_spatially_nearest_inlier(self):
        cloud = self.scene([[0, 0, 0], [10, 0, 0], [4, 0, 0]])
        out = recolor_spherical(cloud, BIG_BOX, self.params(60.0))
        assert out.colors[2].tolist() == [100, 0, 0]

    def test_distance_tie_prefers_lowest_index(self):
        cloud = self.scene([[3, 0, 0], [5, 0, 0], [4, 0, 0]])
        out = recolor_spherical(cloud, BIG_BOX, self.params(60.0))
        assert out.colors[2].tolist() == [100, 0, 0]

    def test_no_inliers_falls_back_to_center(self):
        cloud = cloud_from([[0, 0, 0], [100, 0, 0]])
        out = recolor_spherical(cloud, BIG_BOX, self.params(1.0))
        # both are outliers; center (50,0,0) is the only sane target
        assert out.colors.tolist() == [[50, 0, 0], [50, 0, 0]]

    def test_single_inlier(self, rng):
        """One inlier: every query asks for k == 1 neighbour."""
        positions = rng.uniform(-5, 5, (9, 3))
        inlier_rows = np.array([4])
        outlier_rows = np.array([0, 1, 2, 3, 5, 6, 7, 8])
        nearest = _nearest_inlier_rows(positions, inlier_rows, outlier_rows)
        assert nearest.dtype == np.int64 and nearest.shape == (8,)
        for row, pick in zip(outlier_rows, nearest):
            assert pick == oracle_nearest_index(positions, inlier_rows,
                                                positions[row])

    def test_matches_brute_force_oracle_with_grid_ties(self, rng):
        # integer grid positions force repeated exact distances
        positions = rng.integers(0, 8, (400, 3)).astype(float)
        colors = np.vstack([rng.integers(95, 106, (370, 3)),
                            rng.integers(200, 256, (30, 3))])
        order = rng.permutation(400)
        cloud = PointCloud(positions[order], colors[order])
        params = self.params(30.0)
        sphere = fit_color_sphere(cloud.colors, params)
        dists = sphere.distances(cloud.colors.astype(float))
        inlier_rows = np.flatnonzero(dists <= sphere.radius)
        outlier_rows = np.flatnonzero(dists > sphere.radius)
        assert inlier_rows.size and outlier_rows.size
        out = recolor_spherical(cloud, BIG_BOX, params)
        for row in outlier_rows:
            expect = oracle_nearest_index(cloud.positions, inlier_rows,
                                          cloud.positions[row])
            assert out.colors[row].tolist() == \
                cloud.colors[expect].tolist(), f"row {row}"


class TestRemap:
    def target(self, lo, hi):
        return RemapParams(target=RgbAabb(min=lo, max=hi))

    def test_hand_evaluated_affine_example(self, rng):
        # S spans [0,100]^3 via its corner colors; T: centered (200,50,50),
        # extents (50,100,100) -> gains (0.5,1,1)
        colors = np.array([[0, 0, 0], [100, 100, 100], [100, 0, 0]])
        cloud = cloud_from(colors)
        params = self.target((175, 0, 0), (225, 100, 100))
        out = recolor_rgb_box_remap(cloud, BIG_BOX, params)
        assert out.colors[2].tolist() == [225, 0, 0]

    def test_identity_remap_is_exact_on_integers(self, rng):
        colors = rng.integers(10, 200, (100, 3))
        cloud = cloud_from(colors)
        lo = tuple(colors.min(axis=0).tolist())
        hi = tuple(colors.max(axis=0).tolist())
        out = recolor_rgb_box_remap(cloud, BIG_BOX, self.target(lo, hi))
        assert np.array_equal(out.colors, cloud.colors)

    def test_degenerate_source_maps_to_target_centroid(self):
        cloud = cloud_from(np.tile([80, 90, 100], (5, 1)))
        out = recolor_rgb_box_remap(cloud, BIG_BOX,
                                    self.target((10, 20, 30), (20, 40, 50)))
        assert np.all(out.colors == np.array([15, 30, 40]), )

    def test_matches_scalar_oracle(self, rng):
        colors = rng.integers(0, 256, (2000, 3))
        cloud = cloud_from(colors)
        lo, hi = (30, 0, 100), (90, 255, 140)
        out = recolor_rgb_box_remap(cloud, BIG_BOX, self.target(lo, hi))
        s_lo = colors.min(axis=0)
        s_hi = colors.max(axis=0)
        for i in rng.choice(2000, 200, replace=False):
            for k in range(3):
                s_c = (int(s_lo[k]) + int(s_hi[k])) / 2
                s_e = int(s_hi[k]) - int(s_lo[k])
                t_c = (lo[k] + hi[k]) / 2
                t_e = hi[k] - lo[k]
                v = t_c if s_e == 0 else t_c + (colors[i, k] - s_c) * (t_e / s_e)
                expect = min(255, max(0, round(v)))
                assert abs(int(out.colors[i, k]) - expect) <= 1

    @given(seed=st.integers(0, 2**31), k=st.integers(0, 2))
    def test_per_channel_order_preserved(self, seed, k):
        rng = np.random.default_rng(seed)
        colors = rng.integers(0, 256, (100, 3))
        cloud = cloud_from(colors)
        lo = tuple(int(v) for v in rng.integers(0, 100, 3))
        hi = tuple(int(l) + int(v) for l, v in
                   zip(lo, rng.integers(0, 100, 3)))
        out = recolor_rgb_box_remap(cloud, BIG_BOX, self.target(lo, hi))
        before = colors[:, k]
        after = out.colors[:, k].astype(int)
        order = np.argsort(before, kind="stable")
        diffs = np.diff(after[order])
        ordered_pairs = np.diff(before[order]) > 0
        assert not (diffs[ordered_pairs] < 0).any()

    def test_target_outside_cube_rejected(self):
        with pytest.raises(ValueError):
            self.target((0, 0, 0), (256, 10, 10))

    @pytest.mark.parametrize("lo, hi", [
        ((math.nan, 0, 0), (10, 10, 10)), ((0, 0, 0), (10, math.nan, 10)),
        ((math.nan,) * 3, (math.nan,) * 3), ((0, 0, -math.inf), (10, 10, 10)),
    ])
    def test_non_finite_target_rejected(self, lo, hi):
        """A NaN bound passes ``<`` and ``>`` checks; the remap would cast
        it to uint8, and a remap delete would drop every in-box point."""
        with pytest.raises(ValueError, match="exceeds"):
            self.target(lo, hi)

    def test_empty_box_raises(self, rng):
        cloud = cloud_from(rng.integers(0, 256, (5, 3)))
        far = OrientedBox(label="far", centroid=(99, 99, 99),
                          dimensions=(1, 1, 1))
        with pytest.raises(EmptySelection):
            recolor_rgb_box_remap(cloud, far,
                                  self.target((0, 0, 0), (10, 10, 10)))


def joined(box, color, enabled=True):
    return JoinedBox(box=box, color=color, enabled=enabled)


class TestSubstitute:
    def boxes(self):
        a = OrientedBox(label="a", centroid=(0, 0, 0), dimensions=(4, 4, 4))
        b = OrientedBox(label="b", centroid=(2, 0, 0), dimensions=(4, 4, 4))
        c = OrientedBox(label="c", centroid=(9, 0, 0), dimensions=(2, 2, 2))
        return a, b, c

    def test_first_box_wins_in_overlap(self, rng):
        a, b, _ = self.boxes()
        cloud = cloud_from([[9, 9, 9]], [[1.0, 0.0, 0.0]])  # inside a and b
        out = recolor_substitute(cloud, [joined(a, (10, 0, 0)),
                                         joined(b, (0, 10, 0))])
        assert out.colors.tolist() == [[10, 0, 0]]

    def test_outside_and_disabled_points_removed(self, rng):
        a, b, c = self.boxes()
        positions = [[0, 0, 0], [9, 0, 0], [50, 0, 0]]
        cloud = cloud_from(rng.integers(0, 256, (3, 3)), positions)
        out = recolor_substitute(
            cloud, [joined(a, (1, 2, 3)), joined(c, (4, 5, 6),
                                                 enabled=False)])
        assert out.count == 1
        assert out.colors.tolist() == [[1, 2, 3]]

    def test_colorless_box_cannot_substitute(self, rng):
        a, b, _ = self.boxes()
        cloud = cloud_from(rng.integers(0, 256, (1, 3)), [[3.5, 0, 0]])
        out = recolor_substitute(cloud, [joined(a, None),
                                         joined(b, (9, 9, 9))])
        assert out.colors.tolist() == [[9, 9, 9]]

    def test_all_disabled_raises(self, rng):
        a, *_ = self.boxes()
        cloud = cloud_from(rng.integers(0, 256, (2, 3)))
        with pytest.raises(NoEnabledBoxes):
            recolor_substitute(cloud, [joined(a, (1, 1, 1), enabled=False)])

    def test_matches_per_point_classifier(self, rng):
        boxes = [random_box(rng, span=5) for _ in range(4)]
        entries = [joined(boxes[0], (255, 0, 0)),
                   joined(boxes[1], None),
                   joined(boxes[2], (0, 255, 0), enabled=False),
                   joined(boxes[3], (0, 0, 255))]
        cloud = cloud_from(rng.integers(0, 256, (800, 3)),
                           rng.uniform(-6, 6, (800, 3)))
        out = recolor_substitute(cloud, entries)
        # oracle: first enabled+colored containing box, else removed
        expected = []
        for i in range(800):
            point = cloud.positions[i:i + 1]
            for entry in entries:
                if entry.enabled and entry.color is not None and \
                        oracle_contains(point, entry.box)[0]:
                    expected.append((i, entry.color))
                    break
        assert out.count == len(expected)
        for (i, color), got_pos, got_col in zip(expected, out.positions,
                                                out.colors):
            assert np.array_equal(got_pos, cloud.positions[i])
            assert tuple(got_col) == color

    def test_idempotent(self, rng):
        a, b, _ = self.boxes()
        entries = [joined(a, (5, 6, 7)), joined(b, (8, 9, 10))]
        cloud = cloud_from(rng.integers(0, 256, (100, 3)),
                           rng.uniform(-3, 5, (100, 3)))
        once = recolor_substitute(cloud, entries)
        twice = recolor_substitute(once, entries)
        assert np.array_equal(once.positions, twice.positions)
        assert np.array_equal(once.colors, twice.colors)


class TestDeletes:
    def test_identical_colors_percentile_100_deletes_nothing(self):
        cloud = cloud_from(np.tile([7, 7, 7], (20, 1)))
        out = delete_spherical_outliers(cloud, BIG_BOX,
                                        SphereParams(percentile=100.0))
        assert out.count == 20

    def test_boundary_color_survives(self):
        # radius exactly 50: the color at distance 50 is NOT outside
        cloud = cloud_from([[0, 0, 0], [100, 0, 0]])
        out = delete_spherical_outliers(cloud, BIG_BOX,
                                        SphereParams(percentile=50.0))
        assert out.count == 2

    def test_constructed_outliers_removed_exactly(self, rng):
        inliers = rng.integers(90, 111, (400, 3))
        outliers = np.tile([255, 255, 255], (40, 1))
        colors = np.vstack([inliers, outliers])
        cloud = cloud_from(colors)
        params = SphereParams(radius_mode="absolute", radius=60.0)
        out = delete_spherical_outliers(cloud, BIG_BOX, params)
        # all-white sits ~257 away from any near-(100,100,100) mean
        assert out.count == 400
        assert out.colors.max() <= 110

    def test_survivors_keep_order(self, rng):
        colors = rng.integers(0, 256, (200, 3))
        cloud = cloud_from(colors)
        params = SphereParams(percentile=60.0)
        out = delete_spherical_outliers(cloud, BIG_BOX, params)
        survivors = out.positions[:, 0].astype(int)  # x encodes the index
        assert np.all(np.diff(survivors) > 0)

    def test_out_of_box_point_with_wild_color_survives(self):
        positions = [[0, 0, 0], [0.5, 0, 0], [50, 0, 0]]
        colors = [[10, 10, 10], [12, 10, 10], [255, 0, 255]]
        cloud = cloud_from(colors, positions)
        box = OrientedBox(label="b", centroid=(0, 0, 0), dimensions=(2, 2, 2))
        out = delete_spherical_outliers(cloud, box,
                                        SphereParams(percentile=100.0))
        assert out.count == 3

    def test_rgb_delete_full_domain_keeps_all(self, rng):
        cloud = cloud_from(rng.integers(0, 256, (100, 3)))
        params = RemapParams(target=RgbAabb(min=(0, 0, 0),
                                            max=(255, 255, 255)))
        assert delete_rgb_box_outliers(cloud, BIG_BOX, params).count == 100

    def test_rgb_delete_degenerate_target(self):
        cloud = cloud_from([[0, 255, 0], [1, 255, 0]])
        params = RemapParams(target=RgbAabb(min=(0, 255, 0),
                                            max=(0, 255, 0)))
        out = delete_rgb_box_outliers(cloud, BIG_BOX, params)
        assert out.count == 1
        assert out.colors.tolist() == [[0, 255, 0]]

    def test_rgb_delete_matches_interval_oracle(self, rng):
        colors = rng.integers(0, 256, (500, 3))
        cloud = cloud_from(colors)
        lo, hi = (40, 0, 60), (200, 128, 255)
        params = RemapParams(target=RgbAabb(min=lo, max=hi))
        out = delete_rgb_box_outliers(cloud, BIG_BOX, params)
        keep = [i for i, c in enumerate(colors.tolist())
                if all(lo[k] <= c[k] <= hi[k] for k in range(3))]
        assert out.count == len(keep)
        assert np.array_equal(out.colors, colors[keep])


class TestPipeline:
    def test_empty_step_list_is_identity(self, rng):
        cloud = cloud_from(rng.integers(0, 256, (10, 3)))
        out, report = apply_pipeline(cloud, [])
        assert out is cloud or np.array_equal(out.colors, cloud.colors)
        assert report.steps == []
        assert report.input_count == report.output_count == 10

    def test_two_stage_delete_then_recolor(self, rng):
        colors = np.vstack([rng.integers(60, 120, (300, 3)),
                            np.tile([255, 255, 255], (30, 1))])
        cloud = cloud_from(colors)
        params = SphereParams(radius_mode="absolute", radius=80.0)
        steps = [EditStep(box=BIG_BOX, params=params, delete=True),
                 EditStep(box=BIG_BOX, params=params)]
        out, report = apply_pipeline(cloud, steps)
        # dual route: run the single-step functions sequentially
        mid = delete_spherical_outliers(cloud, BIG_BOX, params)
        expect = recolor_spherical(mid, BIG_BOX, params)
        assert np.array_equal(out.colors, expect.colors)
        assert report.steps[0].points_deleted == cloud.count - mid.count
        assert report.output_count == expect.count

    def test_failing_step_reports_index(self, rng):
        cloud = cloud_from(rng.integers(0, 256, (10, 3)))
        far = OrientedBox(label="far", centroid=(500, 0, 0),
                          dimensions=(1, 1, 1))
        steps = [EditStep(box=BIG_BOX), EditStep(box=far)]
        with pytest.raises(PipelineStepError) as err:
            apply_pipeline(cloud, steps)
        assert err.value.step_index == 1
        assert isinstance(err.value.cause, EmptySelection)

    def test_report_serialization(self, rng):
        import json
        cloud = cloud_from(rng.integers(0, 256, (50, 3)))
        steps = [EditStep(box=BIG_BOX),
                 EditStep(box=BIG_BOX, params=RemapParams(
                     target=RgbAabb(min=(0, 0, 0), max=(255, 255, 255))),
                     delete=True)]
        _, report = apply_pipeline(cloud, steps)
        payload = json.loads(report.to_json())
        assert [s["op"] for s in payload["steps"]] == \
            ["recolor_spherical", "delete_rgb_box_outliers"]
        assert payload["steps"][0]["sphere_radius"] is not None
        table = report.to_table()
        assert "recolor_spherical" in table and "50 in" in table

    def test_substitute_step_in_pipeline(self, rng):
        box = OrientedBox(label="zone", centroid=(0, 0, 0),
                          dimensions=(10, 10, 10))
        cloud = cloud_from(rng.integers(0, 256, (20, 3)),
                           rng.uniform(-2, 2, (20, 3)))
        out, report = apply_pipeline(
            cloud, [SubstituteStep(joined=(joined(box, (1, 2, 3)),))])
        assert out.count == 20
        assert np.all(out.colors == np.array([1, 2, 3]))
        assert report.steps[0].points_recolored == 20
