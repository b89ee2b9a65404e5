"""Byte pins: every writable format combination produces fixed bytes.

A fixed cloud, built from exact integer arithmetic (no RNG stream, no libm),
is written in every (kind, encoding, color, normals) combination that
``CAPS`` allows, and each file is then streamed back through ``convert`` into
binary PLY in small chunks.  The sha256 of both files is pinned, so a change
to any writer, reader or the conversion loop that moves a single byte fails
here.  LAZ is left out: its bytes belong to the external codec.

To re-pin after an intended format change, run this module as a script and
paste its output over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from pcedit import PointCloud, convert, write_cloud
from pcedit.formats import CAPS, FormatDescriptor


def pinned_cloud(n: int = 300) -> PointCloud:
    i = np.arange(n, dtype=np.int64)
    positions = np.column_stack([
        (i * 7919 % 10007) / 997.0 - 5.0,
        (i * 104729 % 65521) / 8191.0 * -3.0 + 1.25,
        (i * 31 % 977) / 0.37 - 1000.0,
    ])
    colors = (i[:, None] * np.array([37, 91, 13]) + [0, 50, 200]) % 256
    normals = ((i[:, None] * np.array([3, 5, 7])) % 11 - 5) / 4.0
    return PointCloud(positions=positions, colors=colors, normals=normals)


def combinations():
    """(kind, encoding, has_color, has_normals) for every allowed layout."""
    allowed = {"no": (False,), "required": (True,), "optional": (False, True)}
    for kind, caps in CAPS.items():
        if kind == "laz":
            continue
        for encoding, color, normals in itertools.product(
                caps.encodings, allowed[caps.color], allowed[caps.normals]):
            yield kind, encoding, color, normals


def case_id(case) -> str:
    kind, encoding, color, normals = case
    return (f"{kind}-{encoding.split('_')[0]}"
            f"-{'rgb' if color else 'norgb'}-{'n' if normals else 'non'}")


def digests(case, directory: Path) -> tuple[str, str]:
    kind, encoding, color, normals = case
    descriptor = FormatDescriptor(kind=kind, encoding=encoding,
                                  has_color=color, has_normals=normals)
    written = directory / f"{case_id(case)}.{kind}"
    write_cloud(pinned_cloud(), written, descriptor)
    converted = directory / f"{case_id(case)}-back.ply"
    convert(written, converted, encoding="binary_little_endian",
            chunk_size=64)
    return (hashlib.sha256(written.read_bytes()).hexdigest(),
            hashlib.sha256(converted.read_bytes()).hexdigest())


PINNED = {
    'las-binary-norgb-non': ('004c484c833c87a6228b6b325775f409afdd0086dec961e7cdd603694411665c', '4d6d8d8e1c90c8bf5fb6475dc98ddee28ff4e0272c79eb6902fd1ffa16ce7661'),
    'las-binary-rgb-non': ('8c469aad9a4f5e923861218b818750b6e83d6d8c97d1e60e0035c9ba893ce345', '56dfcb1865bc3be38c02505d44971645f7f5c49e821bb03265e238f59ee2819f'),
    'xyz-ascii-norgb-non': ('188b8a7b2488bc396beb3673039bc042d8010549861c0ad5c188b55d5d6fbedd', '92b20e5b27e90f86f249f25e5919dbdb1cae43e3d92129bd4a2a2004cc088081'),
    'xyzn-ascii-norgb-n': ('69461ffae783842a37f4caa6d6b3dbf9970448fbb6192a07d5ca4a41435479aa', 'f04dc437bb32b695e43fa42d31c364d580f8c4598ecc2894950ab320d75753b1'),
    'xyzrgb-ascii-rgb-non': ('dcccb273e6b1d8274819051655a90c17839c6dd73fe0bec69d758cedf3b9fcdc', '6276ba9f5a5fcae61e9627c078ff28e87d6ebc658f59582e5c1d52420799214f'),
    'pts-ascii-rgb-non': ('8ff02e4b75df5be29657218b8b09851332ecb3da4aa369417ec5d9cebf21147f', '6276ba9f5a5fcae61e9627c078ff28e87d6ebc658f59582e5c1d52420799214f'),
    'ply-ascii-norgb-non': ('8f6fec8bc527dfe265ac594aebabb929369d715803113f7a2ae41c7457b747dc', '92b20e5b27e90f86f249f25e5919dbdb1cae43e3d92129bd4a2a2004cc088081'),
    'ply-ascii-norgb-n': ('8495fa81a8208e0ce02d88dbedf5e297bf71cab6249c0d5c3b72110654366cbf', 'f04dc437bb32b695e43fa42d31c364d580f8c4598ecc2894950ab320d75753b1'),
    'ply-ascii-rgb-non': ('a4405daf4fffc8fd125737f859fcdf3bcc98b22ab7e3a17f61969d9571cd28fe', '6276ba9f5a5fcae61e9627c078ff28e87d6ebc658f59582e5c1d52420799214f'),
    'ply-ascii-rgb-n': ('227b9c9a1017f1da4783a5d3593ea007dbc462a899689f0242c76853ab6473a7', '6ff5836cd9c4e3ba07c8704151a695a1847ff9b809112884ff49228b10eab6bf'),
    'ply-binary-norgb-non': ('8192ada977c1a458498bbdccdffbc2d3d5004e5cfe442f441900e65f22022495', '8192ada977c1a458498bbdccdffbc2d3d5004e5cfe442f441900e65f22022495'),
    'ply-binary-norgb-n': ('52e1ae87c4b31781d1bad114fc4145289461cc7d8efc8571383cf30cb26220c9', '52e1ae87c4b31781d1bad114fc4145289461cc7d8efc8571383cf30cb26220c9'),
    'ply-binary-rgb-non': ('b428cd2a6cbc4b4bed62620c73db1d4539792b3128306698ea20a611e4d14261', 'b428cd2a6cbc4b4bed62620c73db1d4539792b3128306698ea20a611e4d14261'),
    'ply-binary-rgb-n': ('3414a8be42b0e546f3063f5f13f6e7be827e37b0a84a020b821c3e50609317e4', '3414a8be42b0e546f3063f5f13f6e7be827e37b0a84a020b821c3e50609317e4'),
    'pcd-ascii-norgb-non': ('368ba199e0d1f9c0ea77e583bcf8b6fcd8c63c4933f7350e1023f80649cb1f64', '92b20e5b27e90f86f249f25e5919dbdb1cae43e3d92129bd4a2a2004cc088081'),
    'pcd-ascii-norgb-n': ('a336585d73b678a9e16480e8db5490512729fb5f854decab889f0639cbb1923b', 'f04dc437bb32b695e43fa42d31c364d580f8c4598ecc2894950ab320d75753b1'),
    'pcd-ascii-rgb-non': ('ce19e4959cdebe6205e6cc5deb33b5c15d32a52687e6d432cb99469643a7309a', '6276ba9f5a5fcae61e9627c078ff28e87d6ebc658f59582e5c1d52420799214f'),
    'pcd-ascii-rgb-n': ('da934ff952a376dfc85e50a638bf4190f0b15035d894b3c0de313337ca35e649', '6ff5836cd9c4e3ba07c8704151a695a1847ff9b809112884ff49228b10eab6bf'),
    'pcd-binary-norgb-non': ('92401d978982ed7d869a0a22e00fb61b15140aa23376805677a57b3706668bd7', '8192ada977c1a458498bbdccdffbc2d3d5004e5cfe442f441900e65f22022495'),
    'pcd-binary-norgb-n': ('be0453cceb0fe5accf72222b6557dbbf27b3dee9c334c2a92b10bdbf0b924682', '52e1ae87c4b31781d1bad114fc4145289461cc7d8efc8571383cf30cb26220c9'),
    'pcd-binary-rgb-non': ('3520453c5f302dab4898b943810c3c429be35abfd1ea9b89c67d1bfd71a62909', 'b428cd2a6cbc4b4bed62620c73db1d4539792b3128306698ea20a611e4d14261'),
    'pcd-binary-rgb-n': ('aa4487fc2b73040e74d80dc76ba18691cdb3c628c14590300230fa9f6180d46b', '3414a8be42b0e546f3063f5f13f6e7be827e37b0a84a020b821c3e50609317e4'),
}


CASES = list(combinations())


def test_every_combination_is_pinned():
    assert sorted(PINNED) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_bytes_match_pin(case, tmp_path):
    assert digests(case, tmp_path) == PINNED[case_id(case)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"    {case_id(case)!r}: {digests(case, Path(tmp))!r},")
