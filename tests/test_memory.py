"""Streaming memory: a conversion's peak does not grow with the file, a
whole-cloud read holds the cloud plus one chunk, and an edit holds the
rows under its boxes, the rows of each box and the scratch of one box or
one batch.

Each command runs in a fresh interpreter that prints its own ``VmHWM`` (the
peak resident set of the process since its ``exec``).  ``ru_maxrss`` would
not do: a child started by vfork inherits its parent's high-water mark, so
it would report the test process's peak instead of its own.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcedit
from pcedit import (BoxFile, EditStep, OrientedBox, PointCloud, RemapParams,
                    RgbAabb, SphereParams, read_cloud, write_cloud)
from pcedit.formats import (DEFAULT_CHUNK_POINTS, open_reader, open_writer,
                            resolve_descriptor)
from pcedit.formats import _ascii, _records
from pcedit.cloud import Edit, rows_inside
from pcedit.recolor import NEAREST_INLIER
from pcedit.formats._ascii import TableChunks, count_data_rows

needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="needs /proc/self/status (VmHWM)")

#: the sizes whose peaks must agree; 2M points span 31 default chunks
SIZES = (500_000, 2_000_000)

#: how far two sizes' peaks may differ
SPREAD_MB = 8

#: the most a binary conversion or ``info`` may hold above an import-only
#: process: one batch of 16,384 points, whose raw records are freed before
#: it is yielded.  Measured: 2 MB for las->ply and for ``info``; 6 and 4 MB
#: with batches of 65,536 points whose records stayed alive
WORKING_SET_MB = 4

#: the same for a command that reads or writes text, which holds one 1 MiB
#: block and its parsed rows, or one 8,192-row part.  Measured: 4 MB for
#: las->xyzrgb (7 with the older batches) and 5 MB for an .xyzrgb input
TEXT_WORKING_SET_MB = 7

_CHILD = """
import re, sys
{body}
status = open("/proc/self/status").read()
print(int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1)))
"""


def peak_mb(body: str, *args) -> float:
    """The peak RSS in MB of a fresh interpreter that runs ``body``, read
    in KiB: whole MiB would move a 2M-point slope by 0.7 bytes a point."""
    import_root = Path(pcedit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(body=body), *map(str, args)],
        env={"PATH": "", "PYTHONPATH": str(import_root)},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the last line, after the CLI's own
    return int(proc.stdout.splitlines()[-1]) / 1024


def cli_peak_mb(*argv) -> float:
    return peak_mb("from pcedit.cli import run\n"
                   "assert run(sys.argv[1:]) == 0", *argv)


def write_las(path, n_points, chunk=250_000):
    """A colored LAS file of ``n_points``, written a chunk at a time."""
    descriptor, _ = resolve_descriptor("las", has_color=True,
                                       has_normals=False)
    writer = open_writer(path, descriptor)
    rng = np.random.default_rng(5)
    for lo in range(0, n_points, chunk):
        k = min(chunk, n_points - lo)
        writer.write(PointCloud(rng.uniform(0, 100, (k, 3)),
                                rng.integers(0, 256, (k, 3),
                                             dtype=np.uint8)))
    writer.close()


@pytest.fixture(scope="module")
def las_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    paths = {}
    for n in SIZES:
        paths[n] = root / f"cloud{n}.las"
        write_las(paths[n], n)
    return paths


@pytest.fixture(scope="module")
def import_peak():
    return peak_mb("import pcedit.cli")


def check_peaks(what: str, peaks: dict, sizes: tuple, import_peak: float,
                working_set: int = WORKING_SET_MB):
    """Two sizes' peaks agree within ``SPREAD_MB`` and stay within
    ``working_set`` MB of an import-only process."""
    small, big = (peaks[n] for n in sizes)
    assert abs(big - small) <= SPREAD_MB, \
        f"{what}: peak {small:.1f} MB at {sizes[0]} points, {big:.1f} MB at " \
        f"{sizes[1]}"
    for n, peak in peaks.items():
        assert peak - import_peak <= working_set, \
            f"{what} on {n} points peaks at {peak:.1f} MB, " \
            f"{peak - import_peak:.1f} MB above an import-only process"


@needs_vmhwm
@pytest.mark.parametrize(
    "command, suffix",
    [("convert", ".ply"), ("info", None), ("convert", ".xyzrgb")],
    # text rows go out FORMAT_ROWS at a time, so text output is bounded too
    ids=["convert", "info", "convert-text"])
def test_peak_does_not_grow_with_the_file(command, suffix, las_files,
                                          import_peak, tmp_path):
    what = f"{command} to {suffix}" if suffix else command
    peaks = {}
    for n, path in las_files.items():
        argv = [command, path]
        if suffix:
            argv.append(tmp_path / f"out{n}{suffix}")
        peaks[n] = cli_peak_mb(*argv)
    check_peaks(what, peaks, SIZES, import_peak,
                TEXT_WORKING_SET_MB if suffix == ".xyzrgb" else WORKING_SET_MB)


#: the sizes of the text inputs whose peaks must agree: about 4 and 16 MB
TEXT_SIZES = (100_000, 400_000)


@pytest.fixture(scope="module")
def xyzrgb_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("text")
    rng = np.random.default_rng(12)
    paths = {}
    for n in TEXT_SIZES:
        paths[n] = root / f"cloud{n}.xyzrgb"
        write_cloud(PointCloud(rng.uniform(0, 100, (n, 3)),
                               rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                    paths[n])
    return paths


@needs_vmhwm
@pytest.mark.parametrize("command, suffix",
                         [("convert", ".ply"), ("info", None)],
                         ids=["convert", "info"])
def test_text_input_peak_does_not_grow_with_the_file(
        command, suffix, xyzrgb_files, import_peak, tmp_path):
    """Text is read a block at a time and parsed into one chunk, so the
    peak of reading it does not follow the file's size either."""
    peaks = {}
    for n, path in xyzrgb_files.items():
        argv = [command, path]
        if suffix:
            argv.append(tmp_path / f"out{n}{suffix}")
        peaks[n] = cli_peak_mb(*argv)
    what = f"{command} of .xyzrgb" + (f" to {suffix}" if suffix else "")
    check_peaks(what, peaks, TEXT_SIZES, import_peak, TEXT_WORKING_SET_MB)


#: the two sizes of the edit scenes
EDIT_SIZES = (500_000, 2_000_000)

#: each edit's arguments and the most its peak may grow per point between
#: the two sizes.  The four boxes hold 60% of the points, and an edit holds
#: those rows: 27 bytes each for their positions and colors, 4 for their
#: source rows, 1 for the alive mask and 4 for their place in their box's
#: rows (a point in k boxes takes 4 for each), so about 22 bytes a point
#: of the cloud.  The rest is the scratch of one box (15% of the points),
#: whose rows a step or a split holds as 4 bytes each; the nearest-inlier
#: search's grid takes most.  A whole copy of the survivors or of the
#: remainder would add 27 bytes for each copied point.
#: Both peaks are set inside the box steps; batches of 16,384 points set
#: neither.  Measured: delete 23.6-23.9, segment 22.9-23.0, remap
#: 23.9-24.1, nearest-inlier 25.6-25.7 and split 24.0 bytes a point (split
#: 25.2-25.3 with a grid over the rows, 35.7-42.6 when the edit held the
#: cloud).
EDIT_COMMANDS = {
    "delete": (["delete", "--percentile", "90"], 27),
    "segment": (["segment", "--palette", "{root}/palette.txt"], 28),
    "remap": (["recolor", "--mode", "remap",
               "--target", "20", "60", "20", "110", "210", "110"], 25),
    "nearest": (["recolor", "--outlier-mode", "nearest_inlier_spatial"], 29),
    "split": (["split"], 27),
}


def write_edit_scene(root: Path, n: int) -> Path:
    """``n`` points: four 15% blobs, each in its own rotated box, on a
    ground plane, written as binary PLY with a box and a palette file."""
    rng = np.random.default_rng(16)
    per_box = round(0.15 * n)
    boxes, parts = [], []
    for k in range(4):
        centroid = (15.0 + 30.0 * k, 0.0, 6.0)
        boxes.append(OrientedBox(f"tree_{k}", centroid, (14.0, 14.0, 12.0),
                                 (0.0, 0.0, 20.0 * k)))
        direction = rng.normal(size=(per_box, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = 5.0 * rng.random(per_box) ** (1 / 3)
        parts.append(centroid + direction * radius[:, None])
    ground = n - 4 * per_box
    parts.append(np.column_stack([rng.uniform(0, 120, ground),
                                  rng.uniform(-30, 30, ground),
                                  rng.uniform(-0.1, -0.01, ground)]))
    positions = np.concatenate(parts)
    order = rng.permutation(n)
    root.mkdir()
    write_cloud(PointCloud(positions[order],
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                root / "scan.ply")
    (root / "boxes.json").write_text(BoxFile("scan.ply", boxes).to_json(),
                                     encoding="utf-8")
    (root / "palette.txt").write_text(
        "".join(f"tree_{k} {40 * k} 200 {255 - 40 * k} 1\n"
                for k in range(4)), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def edit_scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("edits")
    return {n: write_edit_scene(root / f"scene{n}", n) for n in EDIT_SIZES}


@needs_vmhwm
@pytest.mark.parametrize("name", list(EDIT_COMMANDS))
def test_edit_peak_grows_by_the_cloud_and_its_index(name, edit_scenes):
    argv, bound = EDIT_COMMANDS[name]
    small, big, slope = edit_slope(name, argv, edit_scenes)
    assert slope <= bound, \
        f"{name}: peak {small:.1f} MB at {EDIT_SIZES[0]} points, " \
        f"{big:.1f} MB at {EDIT_SIZES[1]}: {slope:.1f} bytes a point, " \
        f"bound {bound}"


_TARGET = RemapParams(RgbAabb((20, 60, 20), (110, 210, 110)))

#: each step and the most it may hold for each point of its box, above the
#: cloud, its boxes' rows and the color buffer.  Its rows take 8 bytes a
#: point, their colors 3 and the outlier mask 1, and the float64 color math
#: runs a batch at a time: about 18 bytes a point, 22 for the projection.  The
#: nearest-inlier search adds its sparse grid over the inliers, about 20
#: bytes an inlier: 42 in all.  Whole-box float64 copies took 39-87.
STEP_SCRATCH = {
    "project": (dict(params=SphereParams()), 32),
    "nearest": (dict(params=SphereParams(outlier_mode=NEAREST_INLIER)), 56),
    "remap": (dict(params=_TARGET), 32),
    "sphere-delete": (dict(params=SphereParams(
        radius_mode="absolute", radius=40.0), delete=True), 32),
    "rgb-delete": (dict(params=_TARGET, delete=True), 32),
}


@pytest.fixture(scope="module")
def boxed_cloud():
    """240k points, about half of them inside one rotated box."""
    rng = np.random.default_rng(22)
    n = 240_000
    colors = rng.normal((90, 120, 70), 30, (n, 3)).clip(0, 255)
    cloud = PointCloud(rng.uniform(0, 100, (n, 3)), colors.astype(np.uint8))
    box = OrientedBox("half", (30, 50, 50), (60, 100, 100), (0, 0, 5))
    return cloud, box


@pytest.mark.parametrize("name", list(STEP_SCRATCH))
def test_step_scratch_per_in_box_point(name, boxed_cloud):
    """One edit step holds its box's rows and uint8 colors, not float64
    copies of them: the fit, the per-point steps, the box test and the
    inlier search each work a batch at a time."""
    cloud, box = boxed_cloud
    kwargs, bound = STEP_SCRATCH[name]
    step = EditStep(box, **kwargs)
    edit = Edit(cloud, step.boxes)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        report = step.apply(edit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.points_examined >= 100_000
    per_point = (peak - base) / report.points_examined
    assert per_point <= bound, \
        f"{name}: one step held {per_point:.1f} bytes for each of its " \
        f"{report.points_examined} points, bound {bound}"


#: the most an edit's peak may grow per point between the two sizes of a
#: scene with 2% of its points boxed: pass one keeps only the rows under
#: the boxes (about 36 bytes each with their box's rows), so the peak
#: follows them and not the cloud.  Measured: 0.7-2.1 bytes a point; a
#: command that held the cloud grew by 30-36 here.
SPARSE_SLOPE = 4

#: the commands of the sparse scene
SPARSE_COMMANDS = {
    "delete": ["delete", "--percentile", "90"],
    "segment": ["segment", "--palette", "{root}/palette.txt"],
    "nearest": ["recolor", "--outlier-mode", "nearest_inlier_spatial"],
    "split": ["split"],
}

_LABELS = [f"class_{k}" for k in range(12)]


def write_sparse_scene(root: Path, n: int) -> Path:
    """``n`` uniform points in 200 x 200 x 10 m and 48 boxes of 4 x 4 x
    10 m, 12 labels, about 2% of the points, written as binary PLY with a
    box and a palette file."""
    rng = np.random.default_rng(17)
    positions = rng.uniform((0, 0, 0), (200, 200, 10), (n, 3))
    boxes = [OrientedBox(_LABELS[k % 12],
                         (10 + 25 * (k % 8), 12 + 32 * (k // 8), 5.0),
                         (4.0, 4.0, 10.0), (0.0, 0.0, 7.5 * k))
             for k in range(48)]
    root.mkdir()
    write_cloud(PointCloud(positions,
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                root / "scan.ply")
    (root / "boxes.json").write_text(BoxFile("scan.ply", boxes).to_json(),
                                     encoding="utf-8")
    (root / "palette.txt").write_text(
        "".join(f"{label} {20 * k} 200 {240 - 20 * k} 1\n"
                for k, label in enumerate(_LABELS)), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def sparse_scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("sparse")
    return {n: write_sparse_scene(root / f"scene{n}", n) for n in EDIT_SIZES}


def edit_slope(name: str, argv: list, scenes: dict
               ) -> tuple[float, float, float]:
    """The peaks of an edit on the two scenes, and its growth per point."""
    peaks = {}
    for n, root in scenes.items():
        out = ["--out-dir", root / "fragments"] if name == "split" \
            else ["--out", root / f"{name}.ply"]
        peaks[n] = cli_peak_mb(argv[0], "--cloud", root / "scan.ply",
                               "--boxes", root / "boxes.json",
                               *(arg.format(root=root) for arg in argv[1:]),
                               *out)
    small, big = (peaks[n] for n in EDIT_SIZES)
    return small, big, \
        (big - small) * 2**20 / (EDIT_SIZES[1] - EDIT_SIZES[0])


@needs_vmhwm
@pytest.mark.parametrize("name", list(SPARSE_COMMANDS))
def test_edit_peak_follows_the_boxed_points(name, sparse_scenes):
    """An edit holds the rows under its boxes and one batch, not the
    cloud: with 2% of the points boxed, its peak barely grows."""
    small, big, slope = edit_slope(name, SPARSE_COMMANDS[name], sparse_scenes)
    assert slope <= SPARSE_SLOPE, \
        f"{name}: peak {small:.1f} MB at {EDIT_SIZES[0]} points, " \
        f"{big:.1f} MB at {EDIT_SIZES[1]}: {slope:.1f} bytes a point, " \
        f"bound {SPARSE_SLOPE}"


def test_read_cloud_holds_the_cloud_plus_one_chunk(tmp_path):
    n = 4 * DEFAULT_CHUNK_POINTS + 1000
    rng = np.random.default_rng(9)
    path = tmp_path / "cloud.ply"
    write_cloud(PointCloud(rng.uniform(0, 1, (n, 3)),
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                path)
    tracemalloc.start()
    try:
        cloud = read_cloud(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = cloud.positions.nbytes + cloud.colors.nbytes  # 27 bytes a point
    # one chunk in flight: its raw records, its decoded arrays and slack
    chunk = 64 * DEFAULT_CHUNK_POINTS
    assert peak <= held + chunk, \
        f"read_cloud peaked at {peak / 2**20:.1f} MiB for a " \
        f"{held / 2**20:.1f} MiB cloud"


def test_text_encoder_holds_one_part(tmp_path, monkeypatch):
    # parts of 1024 rows keep the traced formatting quick; a chunk of 32
    # parts stands for a full chunk of 8 parts at the real FORMAT_ROWS
    rows_per_part = 1024
    monkeypatch.setattr(_ascii, "FORMAT_ROWS", rows_per_part)
    monkeypatch.setattr(_records, "FORMAT_ROWS", rows_per_part)
    n = 32 * rows_per_part
    rng = np.random.default_rng(3)
    chunk = PointCloud(rng.uniform(0, 100, (n, 3)),
                       rng.integers(0, 256, (n, 3), dtype=np.uint8))
    descriptor, _ = resolve_descriptor("xyzrgb", has_color=True,
                                       has_normals=False)
    writer = open_writer(tmp_path / "chunk.xyzrgb", descriptor)
    tracemalloc.start()
    try:
        writer.write(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        writer.close()
    # one part in flight: its float64 matrix (48 bytes a row), a few int64
    # columns and digit groups per column, its fixed-width records, their
    # bytes and its text (about 45 each)
    part = 400 * rows_per_part
    assert peak <= part, \
        f"encoding {n} rows to text peaked at {peak / 2**10:.0f} KiB"


@pytest.mark.parametrize("variant", ["plain", "crlf", "commented"])
def test_text_table_read_holds_one_block(variant, tmp_path, monkeypatch):
    """Line ends and comments do not change what a text read holds: each
    table is one block, scanned and then parsed in one call."""
    monkeypatch.setattr(_ascii, "BLOCK_BYTES", 1 << 19)
    n = 8_000  # about 330 KB of text, so every variant is one block
    rng = np.random.default_rng(4)
    plain = tmp_path / "plain.xyzrgb"
    write_cloud(PointCloud(rng.uniform(-100, 100, (n, 3)),
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                plain)
    text = plain.read_bytes()
    path = tmp_path / f"{variant}.xyzrgb"
    if variant == "crlf":
        path.write_bytes(text.replace(b"\n", b"\r\n"))
    elif variant == "commented":
        lines = text.splitlines(keepends=True)
        path.write_bytes(b"".join(b"# c\n" * (i % 1000 == 0) + line
                                  for i, line in enumerate(lines)))
    assert path.stat().st_size < _ascii.BLOCK_BYTES
    tracemalloc.start()
    try:
        cloud = read_cloud(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.count == n
    held = cloud.positions.nbytes + cloud.colors.nbytes
    # the bound of the plain table: the block, read at its own size, then
    # its scan or its parsed values and line numbers, each about the text's
    # size
    bound = held + 3 * len(text)
    assert peak <= bound, \
        f"reading a {variant} table of {len(text) / 2**10:.0f} KiB peaked " \
        f"at {(peak - held) / 2**10:.0f} KiB above the cloud"


def test_text_read_yields_no_batch_while_its_block_is_alive(tmp_path,
                                                            monkeypatch):
    """A block's bytes, its text and its scan are freed before the first of
    its rows is yielded, and each chunk is a view of one block's rows: at
    every yield the read holds one block's parsed values and line numbers,
    the chunk among them."""
    monkeypatch.setattr(_ascii, "BLOCK_BYTES", 1 << 18)
    n, chunk_size = 40_000, 1000   # about 7 blocks of 6,000 rows each
    rng = np.random.default_rng(8)
    path = tmp_path / "cloud.xyzrgb"
    write_cloud(PointCloud(rng.uniform(-100, 100, (n, 3)),
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                path)
    with open(path, "rb") as fh:
        block_rows = [block.count(b"\n") for block in _ascii._blocks(fh)]
    rows = max(block_rows)
    assert chunk_size < rows < n // 4
    tracemalloc.start()
    try:
        held = []   # above the chunk at each yield
        for values, lines in TableChunks(path, 6, chunk_size=chunk_size):
            current, _ = tracemalloc.get_traced_memory()
            held.append(current - values.nbytes - lines.nbytes)
    finally:
        tracemalloc.stop()
    # each block's rows, cut every chunk_size rows
    assert len(held) == sum(-(-k // chunk_size) for k in block_rows)
    # a block's float64 values and line numbers, and small objects; the
    # text alone is 256 KiB
    bound = rows * (6 * 8 + 8) + (128 << 10)
    assert max(held) <= bound, \
        f"a text read held {max(held) / 2**10:.0f} KiB besides its chunk " \
        f"at a yield; a block's rows take {rows * 56 / 2**10:.0f} KiB"


@pytest.mark.parametrize("rows", [5_000, 100_000], ids=["short", "long"])
def test_a_block_is_read_at_its_own_size(rows, tmp_path, monkeypatch):
    """One step of the block reader holds the block it returns and little
    more: not a read buffer of ``BLOCK_BYTES`` beside a copy of its whole
    lines, nor such a buffer for a file shorter than one block."""
    monkeypatch.setattr(_ascii, "BLOCK_BYTES", 1 << 18)
    path = tmp_path / "table.xyzrgb"
    path.write_bytes(b"12.345678 -0.500000 3.000000 255 0 17\n" * rows)
    peaks = []
    with open(path, "rb") as fh:
        blocks = _ascii._blocks(fh)
        while True:
            tracemalloc.start()
            try:
                block = next(blocks, None)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if block is None:
                break
            peaks.append(peak / len(block))
            del block
    assert len(peaks) == (1 if rows == 5_000 else 15)
    assert max(peaks) <= 1.1, \
        f"a block reader step peaked at {max(peaks):.2f} times its block"


@pytest.mark.parametrize("kind", ["table", "xyzrgb", "pts", "ply", "pcd"])
def test_a_yielded_chunk_is_the_only_chunk_alive(kind, tmp_path,
                                                 monkeypatch):
    """A chunk size of many blocks: at each yield of ``TableChunks``, or of
    a text reader's decoded cloud, the read holds besides the chunk only
    the parsed rows of the block it is in, not the parsed values of a
    decoded chunk."""
    monkeypatch.setattr(_ascii, "BLOCK_BYTES", 1 << 16)
    n, chunk_size = 40_000, 10_000   # a chunk size of about 6 blocks
    rng = np.random.default_rng(10)
    path = tmp_path / f"cloud.{'xyzrgb' if kind == 'table' else kind}"
    write_cloud(PointCloud(rng.uniform(-100, 100, (n, 3)),
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                path, encoding="ascii")
    text = path.read_bytes()
    data = b"".join(text.splitlines(keepends=True)[-n:])  # after the header
    with open(path, "rb") as fh:
        fh.seek(len(text) - len(data))
        block_rows = [block.count(b"\n") for block in _ascii._blocks(fh)]
    rows = max(block_rows)
    assert rows < chunk_size // 4
    chunks = TableChunks(path, 6, chunk_size=chunk_size) if kind == "table" \
        else open_reader(path).chunks(chunk_size)
    tracemalloc.start()
    try:
        held = []   # above the chunk at each yield
        for chunk in chunks:
            current, _ = tracemalloc.get_traced_memory()
            arrays = chunk if kind == "table" else \
                (chunk.positions, chunk.colors)
            held.append(current - sum(array.nbytes for array in arrays))
            del chunk, arrays
    finally:
        tracemalloc.stop()
    # each block's rows, cut every chunk_size rows
    assert len(held) == sum(-(-k // chunk_size) for k in block_rows)
    # a block's float64 values (7 columns for pts) and line numbers, and
    # small objects; one chunk's float64 values alone take about 0.5 MB
    bound = rows * (7 * 8 + 8) + (128 << 10)
    assert max(held) <= bound, \
        f"{kind}: a text read held {max(held) / 2**10:.0f} KiB besides its " \
        f"chunk at a yield; a block's rows take {rows * 56 / 2**10:.0f} KiB"


@pytest.mark.parametrize("kind", ["table", "xyzrgb", "ply"])
def test_text_read_peak_does_not_grow_with_the_chunk_size(kind, tmp_path,
                                                          monkeypatch):
    """No chunk spans two blocks, so a text read over many small blocks
    peaks at one block's rows whatever its chunk size: the peaks at 10,000
    and 40,000 rows agree within one block's parsed rows, where a buffer
    of 40,000 rows would take 2.2 MB."""
    monkeypatch.setattr(_ascii, "BLOCK_BYTES", 1 << 14)
    n = 50_000   # about 120 blocks of about 420 rows
    rng = np.random.default_rng(12)
    path = tmp_path / f"cloud.{'ply' if kind == 'ply' else 'xyzrgb'}"
    write_cloud(PointCloud(rng.uniform(-100, 100, (n, 3)),
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                path, encoding="ascii")
    with open(path, "rb") as fh:
        rows = max(block.count(b"\n") for block in _ascii._blocks(fh))
    peaks = []
    for chunk_size in (10_000, 40_000):
        if kind == "table":
            chunks = TableChunks(path, 6, chunk_size=chunk_size)
        else:
            reader = open_reader(path)
            reader.count   # the .xyzrgb color pre-pass runs here, untraced
            chunks = reader.chunks(chunk_size)
        tracemalloc.start()
        try:
            for chunk in chunks:
                del chunk
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= rows * (6 * 8 + 8), \
        f"{kind}: a text read peaked at {peaks[0] / 2**10:.0f} KiB with " \
        f"chunks of 10,000 rows and {peaks[1] / 2**10:.0f} KiB with 40,000"


def test_row_count_holds_one_block(tmp_path, monkeypatch):
    """The row count of a headerless table drops each block before it reads
    the next, so a file of many blocks peaks as one of a single block."""
    monkeypatch.setattr(_ascii, "BLOCK_BYTES", 1 << 18)
    n = 100_000   # about 19 blocks
    rng = np.random.default_rng(6)
    many = tmp_path / "many.xyzrgb"
    write_cloud(PointCloud(rng.uniform(-1e5, 1e5, (n, 3)),
                           rng.integers(0, 256, (n, 3), dtype=np.uint8)),
                many)
    with open(many, "rb") as fh:
        first = next(_ascii._blocks(fh))
    one = tmp_path / "one.xyzrgb"
    one.write_bytes(first)
    peaks = {}
    for path in (one, many):
        tracemalloc.start()
        try:
            rows = count_data_rows(path)
            _, peaks[path] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == (first.count(b"\n") if path == one else n)
    excess = (peaks[many] - peaks[one]) / _ascii.BLOCK_BYTES
    assert excess <= 0.1, \
        f"counting rows peaked {excess:.2f} blocks above a one-block file"


def test_a_box_without_finite_bounds_is_tested_a_slice_at_a_time():
    """A box whose world bounds are not finite tests every finite row, a
    slice at a time, rather than the whole position array at once (48
    bytes a point of float64 temporaries)."""
    n = 1_000_000
    rng = np.random.default_rng(5)
    positions = rng.uniform(0, 100, (n, 3))
    box = OrientedBox(label="strip", centroid=(50, 50, 50),
                      dimensions=(np.inf, 20, 20))
    tracemalloc.start()
    try:
        rows = rows_inside(positions, box, np.int32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < rows.size < n // 10
    # its result and one slice's scratch
    assert peak <= 8 * n, \
        f"rows of an unbounded box peaked at {peak / n:.1f} bytes a point"
