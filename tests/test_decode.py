"""Binary decode: PLY and PCD record fields are copied once into the
decoded arrays, and a batch's raw records are freed before its chunk is
yielded.

The property test writes random binary layouts (float and double axes in
any mix, uchar and ushort colors, packed PCD colors, normals, and extra
fields between them) and reads them at chunk sizes that cut the file
anywhere.  Each chunk must equal the decode that stacked the record fields
with ``np.column_stack``, which is rebuilt here from the written records.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pcedit.formats import las, open_reader
from pcedit.formats._base import narrow_16bit

_PLY_TYPES = {"i1": "char", "u1": "uchar", "i2": "short", "u2": "ushort",
              "i4": "int", "u4": "uint", "f4": "float", "f8": "double"}
_EXTRA_CODES = sorted(_PLY_TYPES)
_AXES = ("x", "y", "z")


@st.composite
def layouts(draw):
    """A binary PLY or PCD layout: (name, numpy code, count) fields in
    file order, the kind, the point count, a chunk size and a value seed."""
    kind = draw(st.sampled_from(["ply", "pcd"]))
    fields = [(axis, draw(st.sampled_from(["f4", "f8"])), 1)
              for axis in _AXES]
    if draw(st.booleans()):
        names = ("nx", "ny", "nz") if kind == "ply" \
            else ("normal_x", "normal_y", "normal_z")
        fields += [(name, draw(st.sampled_from(["f4", "f8"])), 1)
                   for name in names]
    color = draw(st.sampled_from([None, "u1", "u2"] if kind == "ply"
                                 else [None, "u4", "f4"]))
    if color and kind == "ply":
        fields += [(name, color, 1) for name in ("red", "green", "blue")]
    elif color:
        fields.append(("rgb", color, 1))
    for i in range(draw(st.integers(0, 4))):
        count = 1 if kind == "ply" else draw(st.integers(1, 3))
        fields.append((f"extra{i}", draw(st.sampled_from(_EXTRA_CODES)),
                       count))
    fields = draw(st.permutations(fields))
    n = draw(st.integers(0, 90))
    chunk_size = draw(st.integers(1, 100))
    return kind, fields, n, chunk_size, draw(st.integers(0, 2**32 - 1))


def _records(fields, n: int, rng) -> np.ndarray:
    """``n`` packed records of random values; PCD colors keep their top
    byte clear, as a packed 0x00RRGGBB value does."""
    dtype = np.dtype([(name, f"<{code}", (count,) if count > 1 else ())
                      for name, code, count in fields])
    raw = rng.integers(0, 256, n * dtype.itemsize, dtype=np.uint8)
    records = raw.view(dtype)
    for name, code, _ in fields:
        if code[0] == "f":   # finite values, not random bit patterns
            records[name] = rng.uniform(-1e3, 1e3, records[name].shape)
    if "rgb" in dtype.names:
        packed = rng.integers(0, 1 << 24, n, dtype=np.uint32)
        records["rgb"] = packed.view(dtype["rgb"])
    return records


def _write(path: Path, kind: str, fields, records: np.ndarray) -> None:
    n = len(records)
    if kind == "ply":
        lines = ["ply", "format binary_little_endian 1.0",
                 f"element vertex {n}"]
        lines += [f"property {_PLY_TYPES[code]} {name}"
                  for name, code, _ in fields]
        lines.append("end_header")
    else:
        lines = ["# .PCD v0.7", "VERSION 0.7",
                 "FIELDS " + " ".join(name for name, _, _ in fields),
                 "SIZE " + " ".join(code[1] for _, code, _ in fields),
                 "TYPE " + " ".join(code[0].upper() for _, code, _ in fields),
                 "COUNT " + " ".join(str(c) for _, _, c in fields),
                 f"WIDTH {n}", "HEIGHT 1", "VIEWPOINT 0 0 0 1 0 0 0",
                 f"POINTS {n}", "DATA binary"]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii")
                     + records.tobytes())


def _stacked(records: np.ndarray, kind: str):
    """The decode of ``records`` that stacked their fields: positions,
    colors (None without them) and normals (None without them)."""
    names = records.dtype.names

    def stack(group):
        return np.column_stack([records[name] for name in group])

    positions = stack(_AXES).astype(np.float64)
    normals = ("nx", "ny", "nz") if kind == "ply" \
        else ("normal_x", "normal_y", "normal_z")
    normals = stack(normals).astype(np.float64) \
        if normals[0] in names else None
    colors = None
    if "red" in names:
        raw = stack(("red", "green", "blue"))
        colors = narrow_16bit(raw) if raw.dtype == np.uint16 \
            else raw.astype(np.uint8)
    elif "rgb" in names:
        packed = records["rgb"].view(np.uint32) \
            if records["rgb"].dtype == np.float32 else records["rgb"]
        colors = np.column_stack([(packed >> 16) & 0xFF, (packed >> 8) & 0xFF,
                                  packed & 0xFF]).astype(np.uint8)
    return positions, colors, normals


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@seed(25)
@settings(max_examples=200, deadline=None)
@given(layout=layouts())
def test_binary_decode_equals_the_stacked_fields(layout):
    kind, fields, n, chunk_size, value_seed = layout
    records = _records(fields, n, np.random.default_rng(value_seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"cloud.{kind}"
        _write(path, kind, fields, records)
        chunks = list(open_reader(path).chunks(chunk_size))
    starts = range(0, n, chunk_size)
    assert [chunk.count for chunk in chunks] == \
        [min(chunk_size, n - lo) for lo in starts]
    for lo, chunk in zip(starts, chunks):
        positions, colors, normals = _stacked(records[lo:lo + chunk_size],
                                              kind)
        assert _same(chunk.positions, positions)
        assert chunk.has_color == (colors is not None)
        if colors is not None:
            assert _same(chunk.colors, colors)
        assert (chunk.normals is None) == (normals is None)
        if normals is not None:
            assert _same(chunk.normals, normals)


def test_mixed_axis_types_decode_to_float64(tmp_path):
    """A float x with double y and z is read at double precision: the
    fields share their common type, not the first field's."""
    fields = [("x", "f4", 1), ("y", "f8", 1), ("z", "f8", 1)]
    records = _records(fields, 5, np.random.default_rng(1))
    records["y"] = 0.1   # not a float32 value
    _write(tmp_path / "mixed.ply", "ply", fields, records)
    (chunk,) = open_reader(tmp_path / "mixed.ply").chunks(10)
    assert chunk.positions.dtype == np.float64
    assert (chunk.positions[:, 1] == 0.1).all()


#: bytes of padding fields in each PLY/PCD record, so that a batch's raw
#: records take several times its decoded chunk
_PADDING = [(f"pad{i}", "f8", 1) for i in range(12)]


def _wide_file(tmp_path: Path, kind: str, n: int) -> tuple[Path, int]:
    """A colored cloud of ``n`` points whose records are wide; returns its
    path and the size of one record."""
    rng = np.random.default_rng(2)
    if kind == "las":
        fields = las._FORMAT_FIELDS[2] + [("extra", "V100")]
        records = np.zeros(n, dtype=fields)
        for name in ("X", "Y", "Z", "red", "green", "blue"):
            records[name] = rng.integers(0, 1 << 15, n)
        header = las._pack_header(n, 2, records.dtype.itemsize,
                                  (0.01,) * 3, (0.0,) * 3, (0.0,) * 3,
                                  (328.0,) * 3)
        path = tmp_path / "wide.las"
        path.write_bytes(header + records.tobytes())
        return path, records.dtype.itemsize
    fields = [("x", "f8", 1), *_PADDING[:6], ("y", "f8", 1), ("z", "f8", 1),
              *_PADDING[6:]]
    fields += [("red", "u1", 1), ("green", "u1", 1), ("blue", "u1", 1)] \
        if kind == "ply" else [("rgb", "u4", 1)]
    records = _records(fields, n, rng)
    path = tmp_path / f"wide.{kind}"
    _write(path, kind, fields, records)
    return path, records.dtype.itemsize


@pytest.mark.parametrize("kind", ["ply", "pcd", "las"])
def test_no_raw_records_are_alive_while_a_chunk_is_held(kind, tmp_path):
    """At every yield of a binary reader, what the read holds besides the
    caller's chunk is far less than one batch of raw records: the records
    were freed once the chunk was decoded."""
    n, chunk_size = 40_000, 10_000
    path, record_bytes = _wide_file(tmp_path, kind, n)
    batch = chunk_size * record_bytes   # at least 1 MB of records
    reader = open_reader(path)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        held = []   # above the chunk at each yield
        for chunk in reader.chunks(chunk_size):
            current, _ = tracemalloc.get_traced_memory()
            held.append(current - base - chunk.positions.nbytes
                        - chunk.colors.nbytes)
            del chunk
    finally:
        tracemalloc.stop()
    assert len(held) == n // chunk_size
    assert max(held) <= batch // 8, \
        f"{kind}: a read held {max(held) / 2**10:.0f} KiB besides its " \
        f"chunk at a yield; a batch of records takes {batch / 2**10:.0f} KiB"
