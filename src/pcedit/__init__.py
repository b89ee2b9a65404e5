"""pcedit: bounding-box-driven point-cloud recoloring, deletion,
segmentation, splitting and format conversion."""

from .boxfile import (BoxFile, JoinedBox, join_boxes_palette, load_box_file,
                      load_palette_file, parse_box_file, parse_palette_file)
from .cloud import (ColorSphere, OrientedBox, PaletteEntry, PointCloud,
                    RgbAabb, mean_color, quantize_colors, rgb_color_aabb)
from .errors import (CloudError, CodecUnavailable, DuplicateLabel,
                     EmptySelection, HeaderMismatch, MissingAttribute,
                     NoBoxes, NoEnabledBoxes, ParseError, PipelineStepError,
                     RangeError, SchemaError, UnknownFormat,
                     UnsupportedPointRecord)
from .formats import (ConversionReport, FormatDescriptor, convert,
                      detect_format, position_precision, read_cloud,
                      write_cloud)
from .recolor import (EditReport, EditStep, RemapParams, SphereParams,
                      StepReport, SubstituteStep, apply_pipeline,
                      delete_rgb_box_outliers, delete_spherical_outliers,
                      fit_color_sphere, recolor_rgb_box_remap,
                      recolor_spherical, recolor_substitute)
from .split import Fragment, SplitResult, split_by_boxes, write_fragments

__version__ = "0.1.0"

__all__ = [
    "BoxFile", "CloudError", "CodecUnavailable", "ColorSphere",
    "ConversionReport", "DuplicateLabel", "EditReport", "EditStep",
    "EmptySelection", "FormatDescriptor", "Fragment", "HeaderMismatch",
    "JoinedBox", "MissingAttribute", "NoBoxes", "NoEnabledBoxes",
    "OrientedBox", "PaletteEntry", "ParseError", "PipelineStepError",
    "PointCloud", "RangeError", "RemapParams", "RgbAabb", "SchemaError",
    "SphereParams", "SplitResult", "StepReport", "SubstituteStep",
    "UnknownFormat", "UnsupportedPointRecord", "apply_pipeline", "convert",
    "delete_rgb_box_outliers", "delete_spherical_outliers",
    "detect_format", "fit_color_sphere", "join_boxes_palette",
    "load_box_file", "load_palette_file", "mean_color", "parse_box_file",
    "parse_palette_file", "position_precision", "quantize_colors",
    "read_cloud", "recolor_rgb_box_remap", "recolor_spherical",
    "recolor_substitute", "rgb_color_aabb", "split_by_boxes", "write_cloud",
    "write_fragments", "__version__",
]
