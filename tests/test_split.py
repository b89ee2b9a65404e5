"""Splitting clouds into labeled fragments and writing fragment sets."""

import json

import numpy as np
import pytest

from pcedit import (NoBoxes, OrientedBox, PointCloud, read_cloud,
                    split_by_boxes, write_fragments)

from conftest import oracle_contains, random_box


def grid_cloud(rng, n=500, span=6.0):
    return PointCloud(rng.uniform(-span, span, (n, 3)),
                      rng.integers(0, 256, (n, 3)))


def box_at(x, label, size=4.0):
    return OrientedBox(label=label, centroid=(x, 0, 0),
                       dimensions=(size, size, size))


class TestSplitByBoxes:
    def test_no_boxes_raises(self, rng):
        with pytest.raises(NoBoxes):
            split_by_boxes(grid_cloud(rng), [])

    def test_partition_covers_every_point_exactly_once(self, rng):
        cloud = grid_cloud(rng)
        boxes = [random_box(rng, span=5) for _ in range(6)]
        result = split_by_boxes(cloud, boxes)
        seen = np.concatenate([f.indices for f in result.fragments] +
                              [result.remainder_indices])
        assert sorted(seen.tolist()) == list(range(cloud.count))

    def test_assignment_matches_first_box_oracle(self, rng):
        cloud = grid_cloud(rng, n=300)
        boxes = [random_box(rng, span=5) for _ in range(5)]
        result = split_by_boxes(cloud, boxes)
        by_label = {f.label: set(f.indices.tolist())
                    for f in result.fragments}
        for i in range(cloud.count):
            point = cloud.positions[i:i + 1]
            expect = None
            for box in boxes:
                if oracle_contains(point, box)[0]:
                    expect = box.label
                    break
            if expect is None:
                assert i in set(result.remainder_indices.tolist())
            else:
                assert i in by_label[expect], f"point {i}"

    def test_duplicates_enroll_point_in_every_containing_label(self, rng):
        cloud = PointCloud(np.array([[0.0, 0, 0], [10.0, 0, 0]]),
                           np.zeros((2, 3), dtype=np.uint8))
        boxes = [box_at(0, "a"), box_at(1, "b")]  # both contain the origin
        solo = split_by_boxes(cloud, boxes)
        both = split_by_boxes(cloud, boxes, duplicates=True)
        assert [f.cloud.count for f in solo.fragments] == [1, 0]
        assert [f.cloud.count for f in both.fragments] == [1, 1]
        assert both.remainder.count == solo.remainder.count == 1

    def test_same_label_boxes_merge_into_one_fragment(self, rng):
        cloud = PointCloud(np.array([[0.0, 0, 0], [8.0, 0, 0],
                                     [20.0, 0, 0]]),
                           np.zeros((3, 3), dtype=np.uint8))
        result = split_by_boxes(cloud, [box_at(0, "tree"),
                                        box_at(8, "tree")])
        assert len(result.fragments) == 1
        assert result.fragments[0].label == "tree"
        assert result.fragments[0].indices.tolist() == [0, 1]

    def test_duplicate_point_appears_once_per_fragment(self, rng):
        # two same-label boxes both containing the point: still one copy
        cloud = PointCloud(np.array([[0.0, 0, 0]]),
                           np.zeros((1, 3), dtype=np.uint8))
        result = split_by_boxes(cloud, [box_at(0, "t"), box_at(1, "t")],
                                duplicates=True)
        assert result.fragments[0].cloud.count == 1

    def test_fragment_order_follows_first_occurrence(self, rng):
        cloud = grid_cloud(rng, n=50)
        boxes = [box_at(0, "b"), box_at(2, "a"), box_at(4, "b")]
        result = split_by_boxes(cloud, boxes)
        assert [f.label for f in result.fragments] == ["b", "a"]

    def test_remainder_suppressed(self, rng):
        result = split_by_boxes(grid_cloud(rng), [box_at(0, "a")],
                                emit_remainder=False)
        assert result.remainder is None
        assert result.remainder_indices is None

    def test_fragment_points_keep_input_order_and_attributes(self, rng):
        cloud = PointCloud(rng.uniform(-2, 2, (100, 3)),
                           rng.integers(0, 256, (100, 3)),
                           normals=rng.normal(size=(100, 3)))
        result = split_by_boxes(cloud, [box_at(0, "a", size=3.0)])
        frag = result.fragments[0]
        assert np.all(np.diff(frag.indices) > 0)
        assert np.array_equal(frag.cloud.positions,
                              cloud.positions[frag.indices])
        assert np.array_equal(frag.cloud.colors, cloud.colors[frag.indices])
        assert np.array_equal(frag.cloud.normals,
                              cloud.normals[frag.indices])

    def test_appending_far_box_leaves_other_fragments_alone(self, rng):
        cloud = grid_cloud(rng)
        boxes = [random_box(rng, span=5) for _ in range(3)]
        far = OrientedBox(label="nothing", centroid=(1e5, 0, 0),
                          dimensions=(1, 1, 1))
        before = split_by_boxes(cloud, boxes)
        after = split_by_boxes(cloud, boxes + [far])
        for lhs, rhs in zip(before.fragments, after.fragments):
            assert lhs.label == rhs.label
            assert np.array_equal(lhs.indices, rhs.indices)
        assert after.fragments[-1].cloud.count == 0
        assert np.array_equal(before.remainder_indices,
                              after.remainder_indices)


class TestWriteFragments:
    def split(self, rng, labels=("road", "tree")):
        cloud = grid_cloud(rng, n=200)
        boxes = [box_at(2 * i, label) for i, label in enumerate(labels)]
        return cloud, split_by_boxes(cloud, boxes)

    def test_files_round_trip_counts(self, rng, tmp_path):
        cloud, result = self.split(rng)
        paths = write_fragments(result, tmp_path, "ply")
        assert [p.name for p in paths] == ["road.ply", "tree.ply",
                                           "remainder.ply"]
        total = 0
        for path, frag in zip(paths, result.fragments):
            back = read_cloud(path)
            assert back.count == frag.cloud.count
            assert np.array_equal(back.colors, frag.cloud.colors)
            total += back.count
        total += read_cloud(paths[-1]).count
        assert total == cloud.count

    def test_manifest_contents(self, rng, tmp_path):
        cloud, result = self.split(rng)
        write_fragments(result, tmp_path, "xyz")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [f["label"] for f in manifest["fragments"]] == \
            ["road", "tree"]
        assert manifest["fragments"][0]["path"] == "road.xyz"
        assert manifest["fragments"][0]["count"] == \
            result.fragments[0].cloud.count
        assert manifest["remainder"]["count"] == result.remainder.count

    def test_label_sanitization_and_collision_suffix(self, rng, tmp_path):
        cloud = PointCloud(np.array([[0.0, 0, 0], [2.0, 0, 0]]),
                           np.zeros((2, 3), dtype=np.uint8))
        boxes = [box_at(0, "wet road"), box_at(2, "wet/road")]
        result = split_by_boxes(cloud, boxes)
        paths = write_fragments(result, tmp_path, "xyz")
        assert paths[0].name == "wet_road.xyz"
        assert paths[1].name == "wet_road_2.xyz"

    def test_empty_fragment_written_with_warning(self, rng, tmp_path,
                                                 caplog):
        cloud = PointCloud(np.array([[0.0, 0, 0]]),
                           np.zeros((1, 3), dtype=np.uint8))
        result = split_by_boxes(cloud, [box_at(0, "hit"),
                                        box_at(100, "miss")])
        with caplog.at_level("WARNING"):
            paths = write_fragments(result, tmp_path, "ply")
        assert "miss" in caplog.text
        assert read_cloud(paths[1]).count == 0

    def test_no_remainder_file_when_suppressed(self, rng, tmp_path):
        cloud = grid_cloud(rng, n=50)
        result = split_by_boxes(cloud, [box_at(0, "a")],
                                emit_remainder=False)
        paths = write_fragments(result, tmp_path, "xyz")
        assert [p.name for p in paths] == ["a.xyz"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["remainder"] is None

    def test_las_fragments(self, rng, tmp_path):
        cloud, result = self.split(rng)
        paths = write_fragments(result, tmp_path, "las", las_scale=0.001)
        back = read_cloud(paths[0])
        assert back.count == result.fragments[0].cloud.count
        assert np.allclose(back.positions,
                           result.fragments[0].cloud.positions,
                           atol=0.001 / 2 + 1e-12)
