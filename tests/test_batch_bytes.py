"""The byte pins of the edits and of ``split`` hold at any write batch.

Outputs and fragments are written ``formats.DEFAULT_CHUNK_POINTS`` rows at
a time (``write_cloud`` reads it when it is called), gathered from the
cloud's rows batch by batch.  With 7-point batches the 600-point scenes of
``test_edit_bytes`` and ``test_split_bytes`` cross a batch boundary in
every output and fragment, and must still give the pinned digests.
"""

from __future__ import annotations

import pytest

import test_edit_bytes
import test_split_bytes
from pcedit import formats


@pytest.fixture(autouse=True)
def seven_point_batches(monkeypatch):
    monkeypatch.setattr(formats, "DEFAULT_CHUNK_POINTS", 7)


@pytest.mark.parametrize("name", test_edit_bytes.COMMANDS)
def test_edit_bytes_match_pin(name, tmp_path):
    assert test_edit_bytes.digests(name, tmp_path) == \
        test_edit_bytes.PINNED[name]


@pytest.mark.parametrize("name", test_split_bytes.COMMANDS)
def test_split_bytes_match_pin(name, tmp_path):
    assert test_split_bytes.digests(name, tmp_path) == \
        test_split_bytes.PINNED[name]
