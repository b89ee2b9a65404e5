"""Streaming memory: a conversion's peak does not grow with the file, and
a whole-cloud read holds the cloud plus one chunk.

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
from pcedit import PointCloud, read_cloud, write_cloud
from pcedit.formats import (DEFAULT_CHUNK_POINTS, open_writer,
                            resolve_descriptor)
from pcedit.formats import _ascii, _records

needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="needs /proc/self/status (VmHWM)")

#: the sizes whose peaks must agree; 2M points span 8 default chunks
SIZES = (500_000, 2_000_000)

#: how far two sizes' peaks may differ
SPREAD_MB = 8

#: the most a command may hold above an import-only process
WORKING_SET_MB = 48

_CHILD = """
import re, sys
{body}
status = open("/proc/self/status").read()
print(int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1)) // 1024)
"""


def peak_mb(body: str, *args) -> int:
    """The peak RSS in MB of a fresh interpreter that runs ``body``."""
    import_root = Path(pcedit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(body=body), *map(str, args)],
        env={"PATH": "", "PYTHONPATH": str(import_root)},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])  # after the CLI's own lines


def cli_peak_mb(*argv) -> int:
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
    small, big = (peaks[n] for n in SIZES)
    assert abs(big - small) <= SPREAD_MB, \
        f"{what}: peak {small} MB at {SIZES[0]} points, {big} MB at " \
        f"{SIZES[1]}"
    for n, peak in peaks.items():
        assert peak - import_peak <= WORKING_SET_MB, \
            f"{what} on {n} points peaks at {peak} MB, " \
            f"{peak - import_peak} MB above an import-only process"


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
    # the bound of the plain table: the read buffer, then the block's scan
    # or its parsed values and line numbers, each about the text's size
    bound = held + _ascii.BLOCK_BYTES + 2 * len(text)
    assert peak <= bound, \
        f"reading a {variant} table of {len(text) / 2**10:.0f} KiB peaked " \
        f"at {(peak - held) / 2**10:.0f} KiB above the cloud"
