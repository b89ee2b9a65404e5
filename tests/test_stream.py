"""Edits and splits read their source a batch at a time, twice: once for
the rows under the boxes, and again for the rows outside them.  Run from
a reader of the written file, at any batch size, they must give the bytes
they give from the in-memory cloud.

The scenes put points on box faces (integer coordinates and box bounds)
and on the faces of the boxes' world AABBs, NaN and infinite rows, boxes
without finite bounds and overlapping boxes with shared labels, and the
reader is read 1, 7 or 65,536 rows at a time.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pcedit import (EditStep, JoinedBox, OrientedBox, PipelineStepError,
                    PointCloud, RemapParams, RgbAabb, SphereParams,
                    SubstituteStep, apply_pipeline, formats, split_by_boxes,
                    write_cloud, write_fragments)
from pcedit.recolor import NEAREST_INLIER

_TARGET = RemapParams(RgbAabb((20, 40, 10), (200, 230, 120)))

#: each edit as the steps it makes of the boxes
EDITS = {
    "delete-sphere": lambda box: EditStep(box, SphereParams(percentile=75),
                                          delete=True),
    "recolor-project": lambda box: EditStep(box, SphereParams(percentile=60)),
    "recolor-nearest": lambda box: EditStep(
        box, SphereParams(percentile=60, outlier_mode=NEAREST_INLIER)),
    "recolor-remap": lambda box: EditStep(box, _TARGET),
    "delete-remap": lambda box: EditStep(box, _TARGET, delete=True),
}
SPLITS = {"split": {}, "split-duplicates": {"duplicates": True},
          "split-no-remainder": {"emit_remainder": False}}
OPERATIONS = [*EDITS, "segment", *SPLITS]

#: coordinates: whole numbers, so that many points lie on box faces
_COORD = st.integers(-4, 4).map(float)
_ODD = st.sampled_from([np.nan, np.inf, -np.inf])
#: edge lengths: even ones put faces on whole numbers; inf leaves a box
#: without finite bounds
_EDGE = st.sampled_from([1.0, 2.0, 4.0, 6.0, 3.5, np.inf])


@st.composite
def scenes(draw):
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        rotated = draw(st.booleans())
        boxes.append(OrientedBox(
            label=draw(st.sampled_from(["a", "b", "c"])),
            centroid=draw(st.tuples(_COORD, _COORD, _COORD)),
            dimensions=draw(st.tuples(_EDGE, _EDGE, _EDGE)),
            rotations=(0.0, 0.0, draw(st.floats(0, 360))) if rotated
            else (0.0, 0.0, 0.0)))
    n = draw(st.integers(0, 60))
    positions = np.array(draw(st.lists(st.tuples(_COORD, _COORD, _COORD),
                                       min_size=n, max_size=n)),
                         dtype=np.float64).reshape(n, 3)
    row = st.integers(0, max(n - 1, 0))
    # rows on a face, edge or corner of a box, or of its world_bounds()
    for i, box, aabb, sides in draw(st.lists(st.tuples(
            row, st.sampled_from(boxes), st.booleans(),
            st.tuples(*[st.integers(0, 2)] * 3)), max_size=8 if n else 0)):
        centroid = np.asarray(box.centroid)
        half = np.asarray(box.dimensions) / 2
        lo, hi = box.world_bounds() if aabb \
            else (centroid - half, centroid + half)
        face = np.choose(sides, [lo, centroid, hi])
        if np.isfinite(face).all():
            positions[i] = face
    for i, axis, value in draw(st.lists(st.tuples(row, st.integers(0, 2),
                                                  _ODD),
                                        max_size=4 if n else 0)):
        positions[i, axis] = value
    colors = np.array(draw(st.lists(st.integers(0, 255), min_size=3 * n,
                                    max_size=3 * n)),
                      dtype=np.uint8).reshape(n, 3)
    normals = np.arange(3 * n, dtype=np.float64).reshape(n, 3) / 7.0 \
        if draw(st.booleans()) else None
    return PointCloud(positions, colors, normals), boxes


def outputs(source, operation: str, boxes, directory: Path) -> dict:
    """Every byte ``operation`` writes from ``source``, with its report, or
    the error it fails with."""
    directory.mkdir()
    if operation in SPLITS:
        result = split_by_boxes(source, boxes, **SPLITS[operation])
        write_fragments(result, directory)
        report = [(f.label, f.indices.tolist()) for f in result.fragments]
        if result.remainder is not None:
            report.append(result.remainder_indices.tolist())
    else:
        if operation == "segment":
            steps = [SubstituteStep([JoinedBox(box, (9 * i, 200, 30), True)
                                     for i, box in enumerate(boxes)])]
        else:
            steps = [EDITS[operation](box) for box in boxes]
        try:
            result, report = apply_pipeline(source, steps)
        except PipelineStepError as exc:
            return {"error": str(exc)}
        write_cloud(result, directory / "out.ply")
        report = report.to_json()
    files = {path.name: path.read_bytes()
             for path in sorted(directory.iterdir())}
    return {"report": report, **files}


def assigned(cloud: PointCloud, boxes, duplicates: bool = False,
             emit_remainder: bool = True) -> list:
    """A split's fragment rows (and remainder rows) by the exact predicate,
    ``OrientedBox.contains``, over every finite row."""
    finite = np.isfinite(cloud.positions).all(axis=1)
    free = np.ones(cloud.count, dtype=bool)
    masks: dict[str, np.ndarray] = {}
    for box in boxes:
        with np.errstate(invalid="ignore"):
            inside = box.contains(cloud.positions) & finite
        if not duplicates:
            inside &= free
        masks[box.label] = masks.get(box.label, False) | inside
        free &= ~inside
    rows = [(label, np.flatnonzero(mask).tolist())
            for label, mask in masks.items()]
    return rows + [np.flatnonzero(free).tolist()] * emit_remainder


@seed(24)
@settings(max_examples=150)
@given(scene=scenes(), operation=st.sampled_from(OPERATIONS),
       chunk_size=st.sampled_from([1, 7, 65_536]))
def test_a_reader_gives_the_bytes_of_the_cloud(scene, operation, chunk_size):
    cloud, boxes = scene
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() \
            as patch:
        tmp = Path(tmp)
        write_cloud(cloud, tmp / "in.ply")
        want = outputs(cloud, operation, boxes, tmp / "memory")
        patch.setattr(formats, "DEFAULT_CHUNK_POINTS", chunk_size)
        got = outputs(formats.open_reader(tmp / "in.ply"), operation, boxes,
                      tmp / "reader")
    assert got == want
    if operation in SPLITS:
        assert want["report"] == assigned(cloud, boxes, **SPLITS[operation])


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_a_batch_size_below_one_fails(chunk_size, monkeypatch):
    """The engines hand their batch size to the source, which rejects a
    size that would never end or read nothing."""
    cloud = PointCloud(np.zeros((3, 3)))
    box = OrientedBox("a", (0, 0, 0), (1, 1, 1))
    monkeypatch.setattr(formats, "DEFAULT_CHUNK_POINTS", chunk_size)
    with pytest.raises(ValueError, match="at least 1"):
        apply_pipeline(cloud, [EditStep(box)])
    with pytest.raises(ValueError, match="at least 1"):
        split_by_boxes(cloud, [box])
