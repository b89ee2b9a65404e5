"""Fragmenting a cloud into per-label sub-clouds defined by boxes.

Boxes sharing a label merge into one fragment (a semantic class is often
drawn as many boxes).  Assignment is first-box-wins unless duplicates are
requested, in which case a point lands in every containing label's
fragment (still once per fragment).  Unassigned points form the
remainder.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud import Edit, OrientedBox, PointCloud, Selection
from .errors import NoBoxes, UnknownFormat
from .formats import CAPS, DEFAULT_LAS_SCALE, write_cloud

log = logging.getLogger(__name__)


@dataclass
class Fragment:
    label: str
    cloud: PointCloud
    indices: np.ndarray  # original point indices, ascending


class _Claimed(Fragment):
    """A fragment of ``split_by_boxes``, whose original indices are looked
    up when read, so that writing the fragments holds none of them."""

    def __init__(self, label: str, cloud: Selection, source_rows):
        self.label, self.cloud, self._source_rows = label, cloud, source_rows

    indices = property(lambda self: self._source_rows[self.cloud.rows])


@dataclass
class SplitResult:
    """Fragments are ``Selection``s of the rows under the boxes, and the
    remainder is the ``Edit`` that claimed them, which reads the input
    again; each is gathered a batch at a time as it is written."""

    fragments: list[Fragment] = field(default_factory=list)
    remainder: Edit | None = None

    @property
    def remainder_indices(self) -> np.ndarray | None:
        """Original indices of the remainder's points, ascending."""
        return None if self.remainder is None else self.remainder.indices()


def split_by_boxes(cloud, boxes: list[OrientedBox], *,
                   duplicates: bool = False,
                   emit_remainder: bool = True) -> SplitResult:
    """Assign points to labeled fragments by box containment.

    duplicates=False: each point goes to the first (file-order) box that
    contains it.  duplicates=True: each point joins the fragment of every
    label whose box contains it.  Fragment point order follows input
    order; fragments appear in order of first label occurrence.

    ``cloud`` is a ``PointCloud`` or a reader (``formats.open_reader``).
    One ``cloud.Edit`` reads it once for the rows under the boxes and
    claims them box by box; the remainder is that ``Edit``, whose ``alive``
    rows are in no box, and writing it reads the input again.
    """
    if not boxes:
        raise NoBoxes("split requires at least one box")
    edit = Edit(cloud, boxes)
    label_rows: dict[str, list[np.ndarray]] = {}
    for i, rows in edit.claim(boxes, edit.alive, exclusive=not duplicates):
        # held until written, in the source rows' type: 4 bytes a row
        label_rows.setdefault(boxes[i].label, []).append(rows)
    edit.finish()

    result = SplitResult()
    for label in list(label_rows):
        parts = label_rows.pop(label)   # not held with the label's rows
        if len(parts) == 1:
            rows = parts[0]
        else:   # a mask, not np.unique, which imports numpy.ma (1.3 MB)
            taken = np.zeros(edit.subset.count, dtype=bool)
            for part in parts:
                taken[part] = True
            rows = np.flatnonzero(taken)
        result.fragments.append(_Claimed(label, Selection(edit.subset, rows),
                                         edit.source_rows))
    if emit_remainder:
        result.remainder = edit
    return result


def _sanitize(label: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("._")
    return cleaned or "fragment"


def _unique_name(base: str, used: set[str]) -> str:
    if base not in used:
        used.add(base)
        return base
    stem, dot, ext = base.rpartition(".")
    if not dot:
        stem, ext = base, ""
    serial = 2
    while (name := f"{stem}_{serial}{dot}{ext}") in used:
        serial += 1
    used.add(name)
    return name


def write_fragments(result: SplitResult, out_dir, kind: str = "ply", *,
                    encoding: str | None = None,
                    las_scale: float = DEFAULT_LAS_SCALE) -> list[Path]:
    """Write one file per fragment plus the remainder and a manifest.

    Name collisions after label sanitization get ``_2``/``_3`` suffixes.
    Empty fragments are still written (with a warning) so downstream
    pipelines keyed by label never face missing files.  The files are
    staged in a hidden directory inside ``out_dir`` and moved into place
    only once every one of them is written, so a failure leaves
    ``out_dir`` as it was.
    """
    if kind not in CAPS:
        raise UnknownFormat(f"unknown format kind {kind!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".split.", dir=out))
    used: set[str] = set()
    names: list[str] = []
    manifest: dict = {"fragments": [], "remainder": None}

    def _emit(label: str, cloud: PointCloud) -> str:
        name = _unique_name(f"{_sanitize(label)}.{kind}", used)
        write_cloud(cloud, staging / name, encoding=encoding,
                    las_scale=las_scale)
        names.append(name)
        return name

    try:
        for fragment in result.fragments:
            if fragment.cloud.count == 0:
                log.warning("fragment %r is empty; writing a 0-point file",
                            fragment.label)
            manifest["fragments"].append(
                {"label": fragment.label, "count": fragment.cloud.count,
                 "path": _emit(fragment.label, fragment.cloud)})
        if result.remainder is not None:
            manifest["remainder"] = {
                "count": result.remainder.count,
                "path": _emit("remainder", result.remainder)}
        (staging / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        for name in names + ["manifest.json"]:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(out / name, staging / name)  # keep its mode
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [out / name for name in names]
