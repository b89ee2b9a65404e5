"""Byte pins for ``split``: every fragment, the manifest and the report.

``split`` and ``split --duplicates`` run via ``cli.run`` on the fixed scene
of ``test_edit_bytes`` (four overlapping axis-aligned boxes over 600
points), inside the temporary directory with relative paths.  The sha256
of every file written under ``--out-dir`` and of the ``--report`` is
pinned, so a change that moves a fragment's point order, a file name, a
manifest field or a report byte fails here.

To re-pin after an intended change, run this module as a script and paste
its output over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from pcedit.cli import run

from test_edit_bytes import write_scene

COMMANDS = {
    "split": ["split"],
    "split-duplicates": ["split", "--duplicates"],
}


def digests(name: str, directory: Path) -> dict[str, str]:
    write_scene(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        code = run([*COMMANDS[name], "--cloud", "cloud.ply", "--boxes",
                    "boxes.json", "--out-dir", "frags", "--report",
                    "report.json"])
    finally:
        os.chdir(here)
    assert code == 0
    files = sorted((directory / "frags").iterdir()) + \
        [directory / "report.json"]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


PINNED = {
    'split': {
        'core.ply': '237d927f4b3aed1985ed70f529ba4d64e9d722484655e4777e1262dae13d771e',
        'left.ply': '557cb16828ec0830e3ce92b4c307864e11eff9d710be0bf231c46a14fcfe8c51',
        'manifest.json': '35650729d328602ab28c9163e904a501c793a951b9a1ca2dad9a7cce1ca08bb5',
        'remainder.ply': '20ebdc2aae23e9fadf236ede219b553e30c1d0c0604af93c05c6590d19b780e0',
        'right.ply': '407da08f4df8d02f1e0259deb31af26aedd4c134a4a195072a39fc94429d0c96',
        'top.ply': '53bd548a467e06aa3e5edcf13fd0834f254234ae303ed9636a64732b98d6ad4f',
        'report.json': '8029c6b788613c62dd561bd47e9a4e65351c23aa62171d74f9b77536eea61980',
    },
    'split-duplicates': {
        'core.ply': '237d927f4b3aed1985ed70f529ba4d64e9d722484655e4777e1262dae13d771e',
        'left.ply': 'd9513e841c14ab853cdfea41e0504c902742b7446cffe4c9b0bb11de00064dab',
        'manifest.json': '1801bc573fae28a06e1197aa6fcba2c2f73503ebb4d8b3969c668be6842dbbaa',
        'remainder.ply': '20ebdc2aae23e9fadf236ede219b553e30c1d0c0604af93c05c6590d19b780e0',
        'right.ply': '5c3958bfaf28a39b8ca1b609e2147049bea68ab7dd0cc79825933f1ee3c10dcb',
        'top.ply': 'fc0d0a056651a7da9b271c15a87045d822d90edd5f80d0351897e85ed67a0f99',
        'report.json': '111c562eb7f2a7e7359140c81f8c3dd040e902d05f1a87a02962d75180b50d63',
    },
}


def test_every_command_is_pinned():
    assert sorted(PINNED) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_bytes_match_pin(name, tmp_path):
    assert digests(name, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import contextlib
    import sys
    import tempfile

    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(sys.stderr):
            pins = digests(name, Path(tmp))
        print(f"    {name!r}: {{")
        for file, digest in pins.items():
            print(f"        {file!r}: {digest!r},")
        print("    },")
