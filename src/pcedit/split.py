"""Fragmenting a cloud into per-label sub-clouds defined by boxes.

Boxes sharing a label merge into one fragment (a semantic class is often
drawn as many boxes).  Assignment is first-box-wins unless duplicates are
requested, in which case a point lands in every containing label's
fragment (still once per fragment).  Unassigned points form the
remainder.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud import GridIndex, OrientedBox, PointCloud
from .errors import NoBoxes
from .formats import resolve_descriptor, write_cloud

log = logging.getLogger(__name__)


@dataclass
class Fragment:
    label: str
    cloud: PointCloud
    indices: np.ndarray  # original point indices, ascending


@dataclass
class SplitResult:
    fragments: list[Fragment] = field(default_factory=list)
    remainder: PointCloud | None = None
    remainder_indices: np.ndarray | None = None


def split_by_boxes(cloud: PointCloud, boxes: list[OrientedBox], *,
                   duplicates: bool = False,
                   emit_remainder: bool = True) -> SplitResult:
    """Assign points to labeled fragments by box containment.

    duplicates=False: each point goes to the first (file-order) box that
    contains it.  duplicates=True: each point joins the fragment of every
    label whose box contains it.  Fragment point order follows input
    order; fragments appear in order of first label occurrence.
    """
    if not boxes:
        raise NoBoxes("split requires at least one box")
    index = GridIndex(cloud.positions)
    label_rows: dict[str, list[np.ndarray]] = {}
    assigned = np.zeros(cloud.count, dtype=bool)
    for box in boxes:
        rows = index.rows(box)
        if not duplicates:
            rows = rows[~assigned[rows]]
        label_rows.setdefault(box.label, []).append(rows)
        assigned[rows] = True

    result = SplitResult()
    for label, parts in label_rows.items():
        rows = np.unique(np.concatenate(parts))
        result.fragments.append(Fragment(label=label,
                                         cloud=cloud.take(rows),
                                         indices=rows))
    if emit_remainder:
        rows = np.flatnonzero(~assigned)
        result.remainder = cloud.take(rows)
        result.remainder_indices = rows
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
                    naming_template: str = "{label}.{ext}",
                    las_scale: float | None = None) -> list[Path]:
    """Write one file per fragment plus the remainder and a manifest.

    Name collisions after label sanitization get ``_2``/``_3`` suffixes.
    Empty fragments are still written (with a warning) so downstream
    pipelines keyed by label never face missing files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    paths: list[Path] = []
    manifest: dict = {"fragments": [], "remainder": None}
    extra = {} if las_scale is None else {"las_scale": las_scale}

    def _emit(label: str, cloud: PointCloud) -> Path:
        descriptor, _ = resolve_descriptor(
            kind, has_color=cloud.has_color,
            has_normals=cloud.normals is not None, encoding=encoding)
        name = _unique_name(
            naming_template.format(label=_sanitize(label), ext=kind), used)
        path = out / name
        write_cloud(cloud, path, descriptor, **extra)
        return path

    for fragment in result.fragments:
        if fragment.cloud.count == 0:
            log.warning("fragment %r is empty; writing a 0-point file",
                        fragment.label)
        path = _emit(fragment.label, fragment.cloud)
        paths.append(path)
        manifest["fragments"].append({"label": fragment.label,
                                      "path": path.name,
                                      "count": fragment.cloud.count})
    if result.remainder is not None:
        path = _emit("remainder", result.remainder)
        paths.append(path)
        manifest["remainder"] = {"path": path.name,
                                 "count": result.remainder.count}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return paths
