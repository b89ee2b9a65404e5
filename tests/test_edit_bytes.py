"""Byte pins: every edit command writes fixed cloud and report bytes.

A fixed cloud, box file and palette, built from exact integer arithmetic
(no RNG stream, axis-aligned boxes so no trigonometry), go through
``recolor`` (spherical with each ``--outlier-mode``, and ``--mode remap``),
``delete`` (spherical and remap) and ``segment`` via ``cli.run``.  The sha256
of each output cloud and each ``--report`` is pinned, so a change that moves
an op name, a report field, a fitted statistic or a single output byte
fails here.  Commands run inside the temporary directory with relative
paths, so the flags echoed into the report do not depend on where it is.

To re-pin after an intended change, run this module as a script and paste
its output over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from pcedit import PointCloud, write_cloud
from pcedit.cli import run

TARGET = ["--target", "20", "40", "10", "200", "230", "120"]

COMMANDS = {
    "recolor-project": ["recolor", "--mode", "spherical", "--palette",
                        "palette.txt", "--outlier-mode",
                        "project_to_surface"],
    "recolor-nearest": ["recolor", "--mode", "spherical", "--percentile",
                        "75", "--outlier-mode", "nearest_inlier_spatial"],
    "recolor-remap": ["recolor", "--mode", "remap", *TARGET],
    "delete-spherical": ["delete", "--mode", "spherical", "--radius", "40"],
    "delete-remap": ["delete", "--mode", "remap", *TARGET],
    "segment": ["segment", "--palette", "palette.txt"],
}


def pinned_cloud(n: int = 600) -> PointCloud:
    i = np.arange(n, dtype=np.int64)
    positions = np.column_stack([
        (i * 7919 % 10007) / 1000.0 - 5.0,
        (i * 104729 % 65521) / 6553.0 - 5.0,
        (i * 31 % 977) / 97.7 - 5.0,
    ])
    cluster = 100 + i[:, None] * np.array([3, 5, 7]) % 23
    stray = (i[:, None] * np.array([37, 91, 13]) + [0, 50, 200]) % 256
    colors = np.where((i % 9 == 0)[:, None], stray, cluster)
    normals = ((i[:, None] * np.array([3, 5, 7])) % 11 - 5) / 4.0
    return PointCloud(positions=positions, colors=colors, normals=normals)


def _box(name, centroid, dimensions):
    return {"name": name,
            "centroid": dict(zip("xyz", centroid)),
            "dimensions": dict(zip(("length", "width", "height"),
                                   dimensions)),
            "rotations": {"x": 0, "y": 0, "z": 0}}


def write_scene(directory: Path) -> None:
    write_cloud(pinned_cloud(), directory / "cloud.ply")
    (directory / "boxes.json").write_text(json.dumps({
        "filename": "cloud.ply",
        "objects": [_box("core", (0, 0, 0), (3, 3, 3)),
                    _box("left", (-2.5, 0, 0), (5.25, 10.5, 10.5)),
                    _box("right", (2.5, 0, 0), (5.25, 10.5, 6)),
                    _box("top", (0, 0, 4), (10.5, 10.5, 2.5))],
    }, indent=2))
    (directory / "palette.txt").write_text(
        "core 10 10 200 1\nleft 200 10 10 1\nright 10 200 10 0\n")


def digests(name: str, directory: Path) -> tuple[str, str]:
    write_scene(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        code = run([*COMMANDS[name], "--cloud", "cloud.ply", "--boxes",
                    "boxes.json", "--out", "out.ply", "--report",
                    "report.json"])
    finally:
        os.chdir(here)
    assert code == 0
    return (hashlib.sha256((directory / "out.ply").read_bytes()).hexdigest(),
            hashlib.sha256((directory / "report.json").read_bytes())
            .hexdigest())


PINNED = {
    'recolor-project': ('55fb155e4cb009e8f45d09331c21229aa876ed9933cb7ea9aa43c664b23dc410', 'd9002d6b4ab0b932f9e6ab3d733175335e5fbb77a9e5f25ee4c73295a640c911'),
    'recolor-nearest': ('1f7b88ab3aa404be892a801d4caabd162250fadae72b81975cd4e7ea443afb3a', 'e12f16009cad63be53cb90c79cf680e22bad9c926c23331d53ec7649ef660512'),
    'recolor-remap': ('6af5476feb94b00a1182fd7cfc1c03f5c828e239269ffc8496eefb9d758bdc08', '93338a29a607609d25492988f6b59aba6a79aadc5af955007cf1199c92c375ff'),
    'delete-spherical': ('a32d446c541d369d8043126f7d8a244eda76415b7e3b1dd84c60e061965cc2f0', '306736949ec53c4f54753312f85e001134c76b76a3b4321ddf1743437d4c004d'),
    'delete-remap': ('f75b12ca64b14546efca7de6ad565de9c22e88bcbafe21bbc7f8ef3fc2c30b96', 'ffd4454f349e18e6c7d02702d91ee4caad5e0a47fd0b0c8375b5a06c53320b29'),
    'segment': ('64b905e14f3356708d87f92e1109d025760005b51a33417eb68e12c494a4872f', '991bdc112de68e78f128415f7b3f50f1e85fed67c3b5f8fee15e36e612c3c5ea'),
}


def test_every_command_is_pinned():
    assert sorted(PINNED) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_bytes_match_pin(name, tmp_path):
    assert digests(name, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import tempfile

    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {digests(name, Path(tmp))!r},")
