"""The one edit engine, ``cloud.Edit``: split and segment claim the same
rows through it, and neither it nor the index behind it keeps what only
their construction reads."""

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
from pcedit import (OrientedBox, PointCloud, recolor_substitute,
                    split_by_boxes, write_cloud)
from pcedit.boxfile import JoinedBox
from pcedit.cloud import GridIndex
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
