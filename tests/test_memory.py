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
