"""Shared pieces of the format layer: descriptors and capabilities."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..errors import UnknownFormat

ASCII = "ascii"
BINARY = "binary_little_endian"

#: points per streaming batch, as many as ``GridIndex.SLICE``: 0.4 MB of
#: float64 positions, decoded once from records that are freed before the
#: batch is yielded, and its encoded output, so a las->ply conversion peaks
#: about 2 MB above an import-only process, whatever the file size
DEFAULT_CHUNK_POINTS = 16_384

#: default LAS quantization step in meters (0.1 mm)
DEFAULT_LAS_SCALE = 1e-4

#: decimal places written for positions/normals in ASCII carriers
ASCII_DECIMALS = 6


@dataclass(frozen=True)
class _Caps:
    encodings: tuple[str, ...]
    color: str    # "no" | "optional" | "required"
    normals: str  # "no" | "optional" | "required"


CAPS: dict[str, _Caps] = {
    "las": _Caps((BINARY,), "optional", "no"),
    "laz": _Caps((BINARY,), "optional", "no"),
    "xyz": _Caps((ASCII,), "no", "no"),
    "xyzn": _Caps((ASCII,), "no", "required"),
    "xyzrgb": _Caps((ASCII,), "required", "no"),
    "pts": _Caps((ASCII,), "required", "no"),
    "ply": _Caps((ASCII, BINARY), "optional", "optional"),
    "pcd": _Caps((ASCII, BINARY), "optional", "optional"),
}


@dataclass(frozen=True)
class FormatDescriptor:
    """Resolved identity of a point-cloud file: kind, encoding, attributes."""

    kind: str
    encoding: str
    has_color: bool
    has_normals: bool

    def __post_init__(self):
        caps = CAPS.get(self.kind)
        if caps is None:
            raise UnknownFormat(f"unknown format kind {self.kind!r}")
        if self.encoding not in caps.encodings:
            raise UnknownFormat(
                f"{self.kind} does not support {self.encoding} encoding")
        for attr, rule, value in (("color", caps.color, self.has_color),
                                  ("normals", caps.normals, self.has_normals)):
            if rule == "no" and value:
                raise UnknownFormat(f"{self.kind} cannot carry {attr}")
            if rule == "required" and not value:
                raise UnknownFormat(f"{self.kind} always carries {attr}")


def position_precision(descriptor: FormatDescriptor,
                       las_scale: float = DEFAULT_LAS_SCALE) -> float:
    """Worst-case absolute position error introduced by writing this format.

    64-bit binary carriers are exact; ASCII carriers round to
    ``ASCII_DECIMALS`` decimal places; LAS quantizes to the scale grid.
    """
    if descriptor.kind in ("las", "laz"):
        return las_scale / 2.0
    if descriptor.encoding == ASCII:
        return 0.5 * 10.0 ** -ASCII_DECIMALS
    return 0.0


def narrow_16bit(values: np.ndarray) -> np.ndarray:
    """16-bit color channel -> 8-bit (value >> 8)."""
    return (values.astype(np.uint16, copy=False) >> 8).astype(np.uint8)


def widen_8bit(values: np.ndarray) -> np.ndarray:
    """8-bit color channel -> 16-bit (value * 257, the exact inverse of >> 8)."""
    return values.astype(np.uint16) * 257
