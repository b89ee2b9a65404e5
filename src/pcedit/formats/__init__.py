"""Format detection, whole-cloud read/write, and streaming conversion.

Extension picks the format; magic bytes must agree (``LASF``, the ``ply``
line, the PCD header) or detection fails loudly rather than guessing.
Everything funnels through two small protocols over ``PointCloud`` chunks:

* reader: ``.descriptor``, ``.count``, ``.chunks(chunk_size)``, which
  yields batches of at most ``chunk_size`` points
* writer: ``.write(chunk)``, ``.close() -> bytes written``

so the conversion pipeline never holds more than one batch in memory:
every loop over chunks drops its chunk before it asks for the next one.
A writer reads only the attributes its descriptor carries; a colorless
chunk holds zero colors.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cloud import PointCloud, check_chunk_size, gather
from ..errors import HeaderMismatch, MissingAttribute, UnknownFormat
from . import las, pcd, ply, pts, xyz
from ._base import (ASCII, ASCII_DECIMALS, BINARY, CAPS, DEFAULT_CHUNK_POINTS,
                    DEFAULT_LAS_SCALE, FormatDescriptor, position_precision)

__all__ = [
    "ASCII", "BINARY", "CAPS", "ConversionReport",
    "DEFAULT_CHUNK_POINTS", "DEFAULT_LAS_SCALE", "FormatDescriptor",
    "convert", "detect_format", "kind_of", "open_reader", "open_writer",
    "position_precision", "read_cloud", "resolve_descriptor", "write_cloud",
]

#: kind -> the module that reads and writes it.  A kind is also its file
#: extension.  Every module has FAMILY (what ``_sniff_family`` must find in
#: the content; None for plain text tables), open_reader(path, kind), which
#: parses the header once, and
#: open_writer(path, descriptor, count, *, las_scale, las_offset).  ``las``
#: serves ``.laz`` too: the header is LAS, and only the points need the
#: codec, which ``las`` imports from ``laz`` when they are read or written.
_MODULES = {"las": las, "laz": las, "xyz": xyz, "xyzn": xyz, "xyzrgb": xyz,
            "pts": pts, "ply": ply, "pcd": pcd}


def kind_of(path) -> str:
    """Format kind implied by the file extension."""
    suffix = Path(path).suffix.lower()
    if suffix[1:] not in _MODULES:
        raise UnknownFormat(
            f"unrecognized extension {suffix or '(none)'!r} for {path}; "
            f"known: {', '.join('.' + kind for kind in sorted(_MODULES))}")
    return suffix[1:]


def _sniff_family(head: bytes) -> str | None:
    """Identify self-describing content by magic; None for plain tables."""
    if head.startswith(b"LASF"):
        return "las"
    if head.startswith(b"ply") and (len(head) == 3 or head[3:4] in b"\r\n"):
        return "ply"
    text = head.decode("latin-1", errors="replace")
    for line in text.splitlines()[:20]:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if ".PCD" in stripped:
                return "pcd"
            continue
        if stripped.upper().startswith("VERSION"):
            return "pcd"
        break
    return None


def open_reader(path):
    """A chunked reader for ``path``: the extension picks the format, the
    magic must agree, and the format's module parses the header."""
    kind = kind_of(path)
    with open(path, "rb") as fh:
        sniffed = _sniff_family(fh.read(4096))
    if sniffed != _MODULES[kind].FAMILY:
        raise HeaderMismatch(
            f"{path}: extension says {kind} but content looks like "
            f"{sniffed or 'a plain text table'}")
    return _MODULES[kind].open_reader(path, kind)


def detect_format(path) -> FormatDescriptor:
    """Resolve a file's descriptor: extension first, magic must agree."""
    return open_reader(path).descriptor


def open_writer(path, descriptor: FormatDescriptor, count: int | None = None,
                *, las_scale: float = DEFAULT_LAS_SCALE,
                las_offset=(0.0, 0.0, 0.0)):
    """Chunked writer for an explicit descriptor.

    ``count`` is required by formats whose header carries the point count
    (ply, pcd, pts).  LAS needs scale/offset fixed up front.
    """
    return _MODULES[descriptor.kind].open_writer(
        path, descriptor, count, las_scale=las_scale, las_offset=las_offset)


def resolve_descriptor(kind: str, *, has_color: bool, has_normals: bool,
                       encoding: str | None = None
                       ) -> tuple[FormatDescriptor, list[str]]:
    """Fit source attributes into a target kind's capabilities.

    Returns the descriptor plus human-readable warnings for anything the
    target cannot carry (dropped color/normals) or must synthesize.
    """
    caps = CAPS.get(kind)
    if caps is None:
        raise UnknownFormat(f"unknown format kind {kind!r}")
    if encoding is None:
        encoding = caps.encodings[-1] if BINARY in caps.encodings else ASCII
    warnings: list[str] = []

    if caps.color == "no":
        if has_color:
            warnings.append("color dropped: "
                            f"{kind} cannot store color channels")
        color = False
    elif caps.color == "required":
        if not has_color:
            warnings.append(f"{kind} requires color: colorless points "
                            "written as (0, 0, 0)")
        color = True
    else:
        color = has_color

    if caps.normals == "no":
        if has_normals:
            warnings.append("normals dropped: "
                            f"{kind} cannot store normals")
        normals = False
    elif caps.normals == "required":
        if not has_normals:
            raise MissingAttribute(
                f"{kind} requires normals but the source has none")
        normals = True
    else:
        normals = has_normals

    return FormatDescriptor(kind=kind, encoding=encoding, has_color=color,
                            has_normals=normals), warnings


def read_cloud(source) -> PointCloud:
    """Load a whole file into memory as a PointCloud.

    Each chunk is copied onto the end of arrays that grow in place to the
    summed length (``cloud.gather``), and is dropped before the next is
    read, so the peak is the cloud plus one chunk.
    """
    return gather(open_reader(source), DEFAULT_CHUNK_POINTS)[0]


def write_cloud(cloud: PointCloud, sink,
                descriptor: FormatDescriptor | None = None, *,
                encoding: str | None = None,
                las_scale: float = DEFAULT_LAS_SCALE,
                las_offset=None) -> int:
    """Write a cloud to ``sink``; returns the number of bytes written.

    Without an explicit descriptor the extension picks the kind, binary
    encoding is preferred, and attributes follow the cloud (color is only
    written when ``has_color`` is set).
    """
    if descriptor is None:
        descriptor, _ = resolve_descriptor(
            kind_of(sink), has_color=cloud.has_color,
            has_normals=cloud.has_normals, encoding=encoding)
    written, _ = _write_chunks(
        sink, descriptor, cloud.count, cloud.chunks, DEFAULT_CHUNK_POINTS,
        las_scale=las_scale, las_offset=las_offset)
    return written


def _write_chunks(path, descriptor: FormatDescriptor, count: int, chunks,
                  chunk_size: int, *, las_scale: float,
                  las_offset=None) -> tuple[int, int]:
    """Write ``chunks(chunk_size)`` to ``path`` atomically; returns (bytes,
    points).

    A LAS or LAZ output without ``las_offset`` takes the coordinate
    minimum, found by a first pass over ``chunks``.  The data goes to a
    temporary file beside ``path``, which replaces ``path`` only once the
    writer has closed.  On any failure the temporary file is removed and
    an existing ``path`` is left as it was, so the output may also be the
    input.
    """
    if las_offset is None:
        las_offset = _minimum_pass(chunks, chunk_size) \
            if descriptor.kind in ("las", "laz") else (0.0, 0.0, 0.0)
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    stem, suffix = os.path.splitext(name)
    # the name keeps the target's extension, which some codecs read
    temp = os.path.join(directory,
                        f".{stem}.{os.urandom(8).hex()}.tmp{suffix}")
    try:
        # The writer creates the file as open(target, "wb") would: mode
        # 0o666 less umask.  It must be new, not emptied: ext4 flushes a
        # file that was truncated to nothing when it is closed, a cost
        # that grows with the file.
        try:
            writer = open_writer(temp, descriptor, count,
                                 las_scale=las_scale, las_offset=las_offset)
        except OSError as exc:
            exc.filename = os.fspath(path)  # report the path the caller gave
            raise
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(target, temp)  # an existing target keeps its mode
        points = 0
        try:
            for chunk in chunks(chunk_size):
                writer.write(chunk)
                points += chunk.count
                del chunk
        except BaseException:
            writer.close()
            raise
        written = writer.close()
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    return written, points


@dataclass
class ConversionReport:
    """What a conversion did: counts, bytes, and any lossy steps."""

    source: str
    dest: str
    source_kind: str
    dest_kind: str
    points_written: int
    bytes_written: int
    warnings: list[str] = field(default_factory=list)
    dry_run: bool = False

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def _lossy_warnings(reader, in_desc: FormatDescriptor,
                    out_desc: FormatDescriptor,
                    las_scale: float) -> list[str]:
    notes: list[str] = []
    if in_desc.has_color and out_desc.has_color:
        if getattr(reader, "narrows_colors", False):
            notes.append("16-bit source colors narrowed to 8 bits (>> 8)")
    if out_desc.kind in ("las", "laz"):
        notes.append(f"positions quantized to the {las_scale:g} m LAS grid")
    elif out_desc.encoding == ASCII and in_desc.encoding != ASCII:
        notes.append(f"positions rounded to {ASCII_DECIMALS} decimal places")
    return notes


def convert(in_path, out_path, *, kind: str | None = None,
            encoding: str | None = None,
            chunk_size: int = DEFAULT_CHUNK_POINTS,
            las_scale: float = DEFAULT_LAS_SCALE,
            dry_run: bool = False) -> ConversionReport:
    """Stream a point-cloud file into another format.

    Runs in batches of at most ``chunk_size`` points, which must be at
    least 1.  The whole-file passes before the batches are a line scan
    that counts the rows of a headerless ASCII table, the coordinate
    minimum when a LAS offset must be derived, and for .xyzrgb a full
    parse that settles the color convention.
    """
    check_chunk_size(chunk_size)
    reader = open_reader(in_path)
    in_desc = reader.descriptor
    out_kind = kind or kind_of(out_path)
    out_desc, warnings = resolve_descriptor(
        out_kind, has_color=in_desc.has_color,
        has_normals=in_desc.has_normals, encoding=encoding)
    warnings += _lossy_warnings(reader, in_desc, out_desc, las_scale)

    count = reader.count
    report = ConversionReport(
        source=str(in_path), dest=str(out_path),
        source_kind=in_desc.kind, dest_kind=out_desc.kind,
        points_written=count, bytes_written=0, warnings=warnings,
        dry_run=dry_run)
    if dry_run:
        return report

    report.bytes_written, report.points_written = _write_chunks(
        out_path, out_desc, count, reader.chunks, chunk_size,
        las_scale=las_scale)
    return report


def _minimum_pass(chunks, chunk_size: int):
    """Component-wise coordinate minimum of ``chunks(chunk_size)``."""
    lows = None
    for chunk in chunks(chunk_size):
        if chunk.count:
            # one reduction per column: ten times faster than min(axis=0)
            block = np.array([column.min() for column in chunk.positions.T])
            lows = block if lows is None else np.minimum(lows, block)
        del chunk
    return (0.0, 0.0, 0.0) if lows is None else tuple(lows)
