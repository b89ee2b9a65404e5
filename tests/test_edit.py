"""The one edit engine, ``cloud.Edit``: it finds each box's rows once,
split and segment claim the same rows through it, and neither it nor the
nearest-inlier index keeps what only their construction reads."""

import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pcedit
import pcedit.cloud
import pcedit.formats
from pcedit import (OrientedBox, PointCloud, RemapParams, RgbAabb,
                    read_cloud, recolor_rgb_box_remap, recolor_substitute,
                    split_by_boxes, write_cloud)
from pcedit.boxfile import JoinedBox
from pcedit.cloud import Edit, GridIndex, Selection, _View
from pcedit.formats import open_reader

LABELS = ("a", "b", "c")


@pytest.mark.parametrize("module", [pcedit, pcedit.cloud, pcedit.formats],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_grid_index_keeps_no_rows_it_was_built_over(rng):
    positions = rng.uniform(-1, 1, (2000, 3))
    rows = np.flatnonzero(rng.random(2000) < 0.4)
    want = rows.copy()
    index = GridIndex(positions, rows=rows)
    alive = weakref.ref(rows)
    del rows
    assert alive() is None, "the index still holds the rows it indexed"
    queries = rng.uniform(-1, 1, (20, 3))
    dist = np.linalg.norm(queries[:, None] - positions[want], axis=2)
    assert np.array_equal(index.query(queries), want[dist.argmin(axis=1)])


def test_split_builds_no_fragment_indices_before_they_are_read(rng):
    """For each row under its boxes a split holds its position and color
    (27 bytes), its source row (4), its remainder flag (1) and its
    fragment row (4, one box to a label): 36 bytes.  The fragments'
    original indices, 4 more, are looked up only when read."""
    n = 200_000
    cloud = PointCloud(rng.uniform(0, 100, (n, 3)),
                       rng.integers(0, 256, (n, 3), dtype=np.uint8))
    boxes = [OrientedBox(f"slab_{k}", (12.5 + 25 * k, 50, 50), (25, 100, 100))
             for k in range(3)]
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = split_by_boxes(cloud, boxes)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    boxed = sum(f.cloud.count for f in result.fragments)
    assert boxed > n / 2
    per_row = (held - base) / boxed
    assert per_row <= 38, f"the split holds {per_row:.1f} bytes a boxed row"
    x = cloud.positions[:, 0]
    first = np.flatnonzero((x >= 0) & (x <= 25))
    assert np.array_equal(result.fragments[0].indices, first)


@st.composite
def scenes(draw):
    """A cloud of up to 60 points and up to five overlapping, rotated
    boxes, each with a label and each label with a palette color."""
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(rng.uniform(-4, 4, (n, 3)),
                       rng.integers(0, 256, (n, 3), dtype=np.uint8))
    coordinate = st.floats(-3, 3)
    boxes = draw(st.lists(st.builds(
        OrientedBox, st.sampled_from(LABELS),
        st.tuples(coordinate, coordinate, coordinate),
        st.tuples(*[st.floats(0.5, 6)] * 3),
        st.tuples(*[st.floats(0, 360)] * 3)), min_size=1, max_size=5))
    channel = st.integers(0, 255)
    palette = {label: draw(st.tuples(channel, channel, channel))
               for label in LABELS}
    return cloud, boxes, palette


@pytest.mark.parametrize("source", ["cloud", "reader"])
@given(scene=scenes())
def test_split_and_segment_claim_the_same_rows(source, scene):
    """``segment`` keeps exactly the rows of ``split``'s fragments, each
    in its fragment's label color, and ``split``'s remainder is the rest:
    both run the first-box-wins claim of one ``Edit``."""
    cloud, boxes, palette = scene
    joined = [JoinedBox(box, palette[box.label], True) for box in boxes]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.ply"
        if source == "reader":
            write_cloud(cloud, path)

        def fresh():
            return open_reader(path) if source == "reader" else cloud

        segmented = recolor_substitute(fresh(), joined)
        kept, colors = segmented.indices(), segmented.colors
        split = split_by_boxes(fresh(), boxes)
        remainder = split.remainder_indices
    members = {int(row): f.label for f in split.fragments
               for row in f.indices}
    assert kept.tolist() == sorted(members)
    for row, color in zip(kept.tolist(), colors.tolist()):
        assert tuple(color) == palette[members[row]], f"row {row}"
    assert np.array_equal(np.sort(np.concatenate([kept, remainder])),
                          np.arange(cloud.count))


@st.composite
def member_scenes(draw):
    """Up to 60 points, one to five overlapping rotated boxes (the first
    sometimes given twice, and sometimes an infinite box after them),
    points on each finite box's faces, edges and corners, rows with a NaN
    or infinite coordinate, and a mask of survivors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boxes = [OrientedBox(f"b{k}", tuple(rng.uniform(-2, 2, 3)),
                         tuple(rng.uniform(0.5, 5, 3)),
                         tuple(rng.uniform(0, 360, 3)))
             for k in range(draw(st.integers(1, 5)))]
    parts = [rng.uniform(-4, 4, (draw(st.integers(0, 60)), 3)),
             [[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf]]]
    for box in boxes:
        local = rng.uniform(-1, 1, (8, 3))
        local[np.arange(8), rng.integers(0, 3, 8)] = rng.choice([-1, 1], 8)
        local[:2] = rng.choice([-1, 1], (2, 3))   # corners
        local *= np.asarray(box.dimensions) / 2
        parts.append(local @ box.rotation_matrix().T + box.centroid)
    if draw(st.booleans()):
        boxes.append(boxes[0])
    if draw(st.booleans()):   # its bounds are not finite
        boxes.append(OrientedBox("all", (0, 0, 0), (np.inf,) * 3,
                                 tuple(rng.uniform(0, 360, 3))))
    positions = np.concatenate(parts)
    positions = positions[rng.permutation(len(positions))]
    return positions, boxes, rng.random(len(positions)) < 0.8


@given(scene=member_scenes(), exclusive=st.booleans())
def test_rows_in_and_claim_follow_contains(scene, exclusive):
    """``rows_in`` gives the survivors that ``contains`` accepts, a row
    with a NaN or infinite coordinate never among them; ``claim`` gives
    each row to the first box that holds it, or with ``exclusive`` off to
    every such box, and clears the rows it gives from ``free``."""
    positions, boxes, alive = scene
    edit = Edit(PointCloud(positions), boxes)
    edit.alive = alive[edit.source_rows]
    finite = np.isfinite(positions).all(axis=1)
    free = edit.alive.copy()
    taken = np.zeros(len(positions), dtype=bool)
    claimed = list(edit.claim(boxes, free, exclusive))
    assert [i for i, _ in claimed] == list(range(len(boxes)))
    for box, (_, rows) in zip(boxes, claimed):
        with np.errstate(invalid="ignore"):
            inside = box.contains(positions) & finite
        assert np.array_equal(edit.source_rows[edit.rows_in(box)],
                              np.flatnonzero(inside & alive))
        want = inside & alive & ~taken if exclusive else inside
        assert np.array_equal(edit.source_rows[rows], np.flatnonzero(want))
        taken |= want
    assert np.array_equal(free, edit.alive & ~taken[edit.source_rows])


def _two_boxes(rng):
    cloud = PointCloud(rng.uniform(0, 10, (1000, 3)))
    return cloud, [OrientedBox("a", (3, 3, 3), (4, 4, 4), (10, 20, 30)),
                   OrientedBox("b", (5, 5, 5), (4, 4, 4))]


@pytest.mark.parametrize("exclusive", [True, False])
def test_rows_come_in_the_source_rows_type(rng, exclusive):
    """A box's rows are the source rows' int32, 4 bytes each, from
    ``rows_in`` and ``claim`` alike: no intp copy is made to be narrowed."""
    cloud, boxes = _two_boxes(rng)
    edit = Edit(cloud, boxes)
    assert edit.source_rows.dtype == np.int32
    for box in boxes:
        assert edit.rows_in(box).dtype == np.int32
    for _, rows in edit.claim(boxes, edit.alive.copy(), exclusive):
        assert rows.size and rows.dtype == np.int32


def test_finish_frees_the_rows_of_each_box(rng):
    """Each distinct box's rows are found once, and ``finish`` frees them
    before the output is written."""
    cloud, boxes = _two_boxes(rng)
    edit = Edit(cloud, boxes + boxes[:1])
    assert list(edit.members) == boxes
    held = [weakref.ref(rows) for rows in edit.members.values()]
    for box in boxes:
        edit.rows_in(box)
    assert edit.finish() is edit
    assert all(ref() is None for ref in held), "finish kept a box's rows"


@pytest.mark.parametrize("name", ["positions", "colors", "normals"])
def test_an_edit_is_a_view_not_a_selection(rng, tmp_path, monkeypatch,
                                           name):
    """``Edit`` and ``Selection`` share only the lazy view: an edit's
    arrays are its output's, what ``write_cloud`` writes, copied whole
    from its batches only when one of them is read."""
    assert not issubclass(Edit, Selection)
    assert issubclass(Edit, _View) and issubclass(Selection, _View)
    # several batches, each filling its own rows of the whole arrays
    monkeypatch.setattr(pcedit.formats, "DEFAULT_CHUNK_POINTS", 700)
    n = 3000
    cloud = PointCloud(rng.uniform(0, 10, (n, 3)),
                       rng.integers(0, 256, (n, 3), dtype=np.uint8),
                       rng.normal(size=(n, 3)))
    box = OrientedBox("a", (5, 5, 5), (4, 6, 8), (10, 20, 30))
    edit = recolor_rgb_box_remap(cloud, box, RemapParams(
        target=RgbAabb(min=(20, 60, 20), max=(110, 210, 110))))
    assert isinstance(edit, Edit) and edit.recolored
    path = tmp_path / "edit.ply"
    write_cloud(edit, path, encoding="binary_little_endian")
    assert "_whole" not in vars(edit)
    want = getattr(read_cloud(path), name)
    assert np.array_equal(getattr(edit, name), want)
    assert "_whole" in vars(edit)
