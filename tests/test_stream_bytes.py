"""Byte pins for the outputs that read the input more than once.

An edit reads its input once to find the rows under the boxes, and again
to copy the rows outside them.  These commands lean on that second read,
or on a third:

* ``delete`` to ``.las``, whose default offset is the survivors' minimum,
  found by one more read before the points are written;
* ``recolor`` of an ``.xyzrgb`` input whose colors are 0..1 floats, a
  convention that a whole-file scan settles before the points are read;
* ``delete`` whose ``--out`` is its own ``--cloud``, so the input is read
  while the output is being written;
* ``split --no-remainder``, whose fragments are written from the rows
  under the boxes alone.

They run via ``cli.run`` on the scene of ``test_edit_bytes`` inside the
temporary directory, with relative paths.  To re-pin after an intended
change, run this module as a script and paste its output over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from pcedit.cli import run

from test_edit_bytes import pinned_cloud, write_scene

EDIT = ["--boxes", "boxes.json", "--report", "report.json"]

COMMANDS = {
    "delete-las": ["delete", "--cloud", "cloud.ply", "--radius", "40",
                   "--out", "out.las", *EDIT],
    "recolor-xyzrgb": ["recolor", "--cloud", "cloud.xyzrgb",
                       "--percentile", "75", "--outlier-mode",
                       "nearest_inlier_spatial", "--out", "out.ply", *EDIT],
    "delete-in-place": ["delete", "--cloud", "cloud.ply", "--mode", "remap",
                        "--target", "20", "40", "10", "200", "230", "120",
                        "--out", "cloud.ply", *EDIT],
    "split-no-remainder": ["split", "--cloud", "cloud.ply", "--no-remainder",
                           "--out-dir", "frags", *EDIT],
}

#: the files each command writes, besides its report
OUTPUTS = {"delete-las": ["out.las"], "recolor-xyzrgb": ["out.ply"],
           "delete-in-place": ["cloud.ply"], "split-no-remainder": ["frags"]}


def write_float_colors(path: Path) -> None:
    """The scene's cloud as ``.xyzrgb`` text with colors in 0..1."""
    cloud = pinned_cloud()
    rows = np.column_stack([cloud.positions, cloud.colors / 255.0])
    path.write_text("".join("%.6f %.6f %.6f %.6f %.6f %.6f\n" % tuple(row)
                            for row in rows.tolist()), encoding="ascii")


def digests(name: str, directory: Path) -> dict[str, str]:
    write_scene(directory)
    write_float_colors(directory / "cloud.xyzrgb")
    here = os.getcwd()
    os.chdir(directory)
    try:
        code = run(COMMANDS[name])
    finally:
        os.chdir(here)
    assert code == 0
    files = []
    for output in OUTPUTS[name] + ["report.json"]:
        path = directory / output
        files += sorted(path.iterdir()) if path.is_dir() else [path]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


PINNED = {
    'delete-las': {
        'out.las':
            '1419efd2751bdaef66fc4b44b7e0a647d456ec3d888cc4a2297337bdf155d609',
        'report.json':
            '3d2e80fa2fe22739061f5267e6280710ecc18a05ce6c149ce7cf1acbdcf5ae0f',
    },
    'recolor-xyzrgb': {
        'out.ply':
            '90da1c169e9125e7216dc3c8babe6f3b9c88525d488cbb419a938c2c411c12b2',
        'report.json':
            '1a733f9ac8f5460e60e51e18c8352f9021d11af6bc4d69e87185801db2b6f89e',
    },
    'delete-in-place': {
        'cloud.ply':
            'f75b12ca64b14546efca7de6ad565de9c22e88bcbafe21bbc7f8ef3fc2c30b96',
        'report.json':
            '6e2e14acfb1026eecbfbf80c2107e368a3b589da04784c179ffe287035433508',
    },
    'split-no-remainder': {
        'core.ply':
            '237d927f4b3aed1985ed70f529ba4d64e9d722484655e4777e1262dae13d771e',
        'left.ply':
            '557cb16828ec0830e3ce92b4c307864e11eff9d710be0bf231c46a14fcfe8c51',
        'manifest.json':
            '1d0ff2f9eb6036a57154dba178f38c821853a8fc68061da3fa5f7c87bfd67d0c',
        'right.ply':
            '407da08f4df8d02f1e0259deb31af26aedd4c134a4a195072a39fc94429d0c96',
        'top.ply':
            '53bd548a467e06aa3e5edcf13fd0834f254234ae303ed9636a64732b98d6ad4f',
        'report.json':
            '1f9bc0f5a98d2cc88f12f126e5d14821e61ef8ccce45d1c72d287f00350a13fa',
    },
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
