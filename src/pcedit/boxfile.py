"""Sidecar-file parsing: labeled bounding boxes (JSON) and the palette.

Two small input contracts drive every edit:

* a box file — JSON with a top-level ``filename`` and ``objects`` list,
  each object ``{"name", "centroid": {x,y,z}, "dimensions": {length,width,
  height}, "rotations": {x,y,z}}`` (the LabelCloud export layout).  length,
  width and height map to the box's local x, y and z axes; rotations are
  Euler degrees.
* a palette file — one ``<label> <R> <G> <B> <0|1>`` line per semantic
  class, ``#`` comments and blank lines ignored, last field enabling or
  disabling every box carrying that label.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cloud import OrientedBox, PaletteEntry
from .errors import DuplicateLabel, ParseError, RangeError, SchemaError

log = logging.getLogger(__name__)

_AXES = ("x", "y", "z")
_DIMS = ("length", "width", "height")


@dataclass
class BoxFile:
    """An ordered set of labeled boxes tied to a source cloud name."""

    source_cloud_name: str
    boxes: list[OrientedBox] = field(default_factory=list)

    def to_json(self) -> str:
        objects = []
        for box in self.boxes:
            objects.append({
                "name": box.label,
                "centroid": dict(zip(_AXES, box.centroid)),
                "dimensions": dict(zip(_DIMS, box.dimensions)),
                "rotations": dict(zip(_AXES, box.rotations)),
            })
        return json.dumps({"filename": self.source_cloud_name,
                           "objects": objects}, indent=2)


@dataclass(frozen=True)
class JoinedBox:
    """A box joined with its palette entry (color may be absent)."""

    box: OrientedBox
    color: tuple[int, int, int] | None
    enabled: bool


def _number(mapping, outer: str, key: str, index: int) -> float:
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise SchemaError(
            f"object {index}: missing {outer}.{key}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(
            f"object {index}: {outer}.{key} must be a number, "
            f"got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(
            f"object {index}: {outer}.{key} must be finite, got {value!r}")
    return number


def _triple(obj, index: int, outer: str, keys) -> tuple[float, float, float]:
    section = obj.get(outer)
    if not isinstance(section, dict):
        raise SchemaError(f"object {index}: missing {outer!r} mapping")
    return tuple(_number(section, outer, k, index) for k in keys)


def parse_box_file(text: str) -> BoxFile:
    """Parse box-file JSON; raises SchemaError naming the bad object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    filename = doc.get("filename")
    if not isinstance(filename, str):
        raise SchemaError("missing top-level 'filename' string")
    objects = doc.get("objects")
    if not isinstance(objects, list):
        raise SchemaError("missing top-level 'objects' list")

    boxes = []
    for i, obj in enumerate(objects):
        if not isinstance(obj, dict):
            raise SchemaError(f"object {i}: not a JSON object")
        name = obj.get("name")
        if not isinstance(name, str) or not name.strip():
            raise SchemaError(f"object {i}: missing or empty 'name'")
        centroid = _triple(obj, i, "centroid", _AXES)
        dimensions = _triple(obj, i, "dimensions", _DIMS)
        rotations = _triple(obj, i, "rotations", _AXES)
        if min(dimensions) <= 0:
            raise SchemaError(
                f"object {i}: dimensions must be positive, got "
                f"{dimensions}")
        try:
            boxes.append(OrientedBox(label=name.strip(), centroid=centroid,
                                     dimensions=dimensions,
                                     rotations=rotations))
        except ValueError as exc:
            raise SchemaError(f"object {i}: {exc}") from None
    return BoxFile(source_cloud_name=filename, boxes=boxes)


def parse_palette_file(text: str) -> dict[str, PaletteEntry]:
    """Parse ``<label> <R> <G> <B> <0|1>`` lines into a label -> entry map
    in file order."""
    entries: dict[str, PaletteEntry] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        if hash_at >= 0:
            raw = raw[:hash_at]
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(
                f"expected '<label> <R> <G> <B> <0|1>', found "
                f"{len(tokens)} fields", line=line_no)
        label = tokens[0]
        try:
            channels = tuple(int(t) for t in tokens[1:4])
        except ValueError:
            raise ParseError(f"color channels must be integers: "
                             f"{' '.join(tokens[1:4])!r}",
                             line=line_no) from None
        if any(c < 0 or c > 255 for c in channels):
            raise RangeError(
                f"line {line_no}: color channel outside [0, 255]: "
                f"{channels}")
        if tokens[4] not in ("0", "1"):
            raise ParseError(f"enabled flag must be 0 or 1, got "
                             f"{tokens[4]!r}", line=line_no)
        if label in entries:
            raise DuplicateLabel(
                f"line {line_no}: duplicate palette label {label!r}")
        entries[label] = PaletteEntry(color=channels,
                                      enabled=tokens[4] == "1")
    return entries


def join_boxes_palette(box_file: BoxFile,
                       palette: dict[str, PaletteEntry] | None
                       ) -> list[JoinedBox]:
    """Join boxes to palette entries by exact label, preserving box order.

    Boxes without a palette line stay enabled but colorless (usable for
    deletion or splitting, not substitution); a warning is logged per
    missing label.
    """
    joined = []
    missing: set[str] = set()
    for box in box_file.boxes:
        entry = (palette or {}).get(box.label)
        if entry is not None:
            joined.append(JoinedBox(box=box, color=entry.color,
                                    enabled=entry.enabled))
        else:
            if palette is not None and box.label not in missing:
                missing.add(box.label)
                log.warning("box label %r has no palette entry; "
                            "enabled without color", box.label)
            joined.append(JoinedBox(box=box, color=None, enabled=True))
    return joined


def load_box_file(path) -> BoxFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"box file is not UTF-8: {exc}", path=path) from None
    try:
        return parse_box_file(text)
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_palette_file(path) -> dict[str, PaletteEntry]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"palette file is not UTF-8: {exc}",
                         path=path) from None
    try:
        return parse_palette_file(text)
    except (ParseError, RangeError, DuplicateLabel) as exc:
        raise type(exc)(f"{path}: {exc}") from None
