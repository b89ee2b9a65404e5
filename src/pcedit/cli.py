"""Command-line interface: convert, recolor, delete, segment, split, info.

Exit codes: 0 success, 1 usage error, 2 data error (parse/format/edit),
3 I/O error.  Output files and printed reports are deterministic for
identical inputs and flags; timestamps never enter reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from pathlib import Path

from . import formats
from .boxfile import join_boxes_palette, load_box_file, load_palette_file
from .cloud import RgbAabb
from .errors import CloudError
# read_cloud is not called here: perfbench/tracer.py wraps it by this name
from .formats import (DEFAULT_LAS_SCALE, convert, kind_of,
                      position_precision, read_cloud, resolve_descriptor,
                      write_cloud)
from .recolor import (NEAREST_INLIER, PROJECT_TO_SURFACE, EditStep,
                      RemapParams, SphereParams, SubstituteStep,
                      apply_pipeline)
from .split import split_by_boxes, write_fragments

log = logging.getLogger(__name__)

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_IO = 3


class _UsageError(Exception):
    pass


#: what argparse takes for a negative number, and so for a value rather
#: than an option: decimals with or without an exponent, ``-inf``, ``-nan``
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exit(2), and
    reads ``--radius -1e-3`` as it reads ``--radius=-1e-3``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


def _add_common(parser):
    parser.add_argument("--threads", type=int, default=None, metavar="N",
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--report", metavar="PATH",
                        help="write a JSON report here")
    parser.add_argument("--dry-run", action="store_true",
                        help="compute and print the report, write nothing")
    parser.add_argument("-v", "--verbose", action="store_true")


def _add_output_format(parser):
    parser.add_argument("--encoding", choices=["ascii", "binary"],
                        help="encoding for formats that support both")
    parser.add_argument("--las-scale", type=float, default=DEFAULT_LAS_SCALE,
                        metavar="S", help="LAS quantization step in meters")


def _add_edit_flags(parser, modes):
    parser.add_argument("--cloud", required=True, help="input point cloud")
    parser.add_argument("--boxes", required=True,
                        help="bounding-box JSON file")
    parser.add_argument("--palette", help="semantic palette file")
    parser.add_argument("--out", required=True, help="output cloud path")
    parser.add_argument("--mode", choices=modes, default=modes[0])
    parser.add_argument("--percentile", type=float, default=90.0,
                        metavar="Q",
                        help="sphere radius percentile (nearest-rank)")
    parser.add_argument("--radius", type=float, default=None, metavar="R",
                        help="absolute sphere radius (overrides --percentile)")
    parser.add_argument("--outlier-mode",
                        choices=[PROJECT_TO_SURFACE, NEAREST_INLIER],
                        default=PROJECT_TO_SURFACE)
    parser.add_argument("--target", type=int, nargs=6, default=None,
                        metavar=("R0", "G0", "B0", "R1", "G1", "B1"),
                        help="target RGB box (min then max) for remap mode")
    _add_output_format(parser)


def build_parser() -> _Parser:
    parser = _Parser(prog="pcedit",
                     description="Point-cloud recoloring, deletion, "
                                 "segmentation, splitting and conversion "
                                 "driven by labeled bounding boxes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("convert", help="convert between cloud formats")
    p.set_defaults(func=_cmd_convert)
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", dest="kind", help="override output kind")
    _add_output_format(p)
    _add_common(p)

    for name, text in (("recolor", "recolor box contents in RGB space"),
                       ("delete", "delete color outliers inside boxes")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=_cmd_edit)
        _add_edit_flags(p, ["spherical", "remap"])
        _add_common(p)

    p = sub.add_parser("segment",
                       help="substitute semantic class colors; points "
                            "outside enabled boxes are removed")
    p.set_defaults(func=_cmd_edit)
    p.add_argument("--cloud", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--palette", required=True)
    p.add_argument("--out", required=True)
    _add_output_format(p)
    _add_common(p)

    p = sub.add_parser("split", help="split into per-label fragment files")
    p.set_defaults(func=_cmd_split)
    p.add_argument("--cloud", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", dest="kind", default="ply",
                   help="fragment file format (default ply)")
    p.add_argument("--duplicates", action="store_true",
                   help="copy points into every containing label")
    p.add_argument("--no-remainder", action="store_true",
                   help="do not write unassigned points")
    _add_output_format(p)
    _add_common(p)

    p = sub.add_parser("info", help="print format, count and precision")
    p.set_defaults(func=_cmd_info)
    p.add_argument("input")
    _add_common(p)

    return parser


def _sphere_params(args) -> SphereParams:
    if args.radius is not None:
        return SphereParams(radius_mode="absolute", radius=args.radius,
                            outlier_mode=args.outlier_mode)
    return SphereParams(radius_mode="percentile", percentile=args.percentile,
                        outlier_mode=args.outlier_mode)


def _remap_params(args) -> RemapParams:
    if args.target is None:
        raise _UsageError("--mode remap requires --target R0 G0 B0 R1 G1 B1")
    t = args.target
    return RemapParams(target=RgbAabb(min=tuple(t[:3]), max=tuple(t[3:])))


def _edit_steps(args):
    box_file = load_box_file(args.boxes)
    palette = load_palette_file(args.palette) if args.palette else None
    joined = join_boxes_palette(box_file, palette)
    enabled = [j for j in joined if j.enabled]
    for j in joined:
        if not j.enabled:
            log.info("box %r disabled by palette; skipped", j.box.label)

    if args.command == "segment":
        return [SubstituteStep(joined=tuple(joined))]

    try:  # the parameter classes reject bad flag values with ValueError
        params = _sphere_params(args) if args.mode == "spherical" \
            else _remap_params(args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    steps = [EditStep(j.box, params, delete=args.command == "delete")
             for j in enabled]
    if not steps:
        raise _UsageError("no enabled boxes to operate on")
    return steps


def _echo_flags(args) -> dict:
    skip = {"command", "verbose", "report", "func"}
    flags = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        flags[key.replace("_", "-")] = value
    return flags


def _write_report(args, report: dict):
    """The one ``--report`` envelope: the command, its flags, its report."""
    if args.report:
        payload = {"command": args.command, "flags": _echo_flags(args),
                   "report": report}
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


_ENCODINGS = {"ascii": "ascii", "binary": "binary_little_endian"}


def _encoding(args):
    return _ENCODINGS.get(args.encoding)


def _output_descriptor(kind: str, cloud, args):
    """The descriptor ``cloud`` (or anything with its ``has_color`` and
    ``has_normals``) is written with; what ``kind`` cannot store of it is
    printed as a warning, as ``convert`` does."""
    descriptor, notes = resolve_descriptor(
        kind, has_color=cloud.has_color,
        has_normals=cloud.has_normals, encoding=_encoding(args))
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return descriptor


def _cmd_convert(args) -> dict:
    report = convert(args.input, args.output, kind=args.kind,
                     encoding=_encoding(args), las_scale=args.las_scale,
                     dry_run=args.dry_run)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    action = "would write" if args.dry_run else "wrote"
    print(f"{action} {report.points_written} points "
          f"({report.source_kind} -> {report.dest_kind})")
    return json.loads(report.to_json())


def _cmd_edit(args) -> dict:
    steps = _edit_steps(args)
    edited, report = apply_pipeline(formats.open_reader(args.cloud), steps)
    print(report.to_table())
    descriptor = _output_descriptor(kind_of(args.out), edited, args)
    if args.dry_run:
        print("dry run: no output written")
    else:
        write_cloud(edited, args.out, descriptor, las_scale=args.las_scale)
        print(f"wrote {edited.count} points to {args.out}")
    return json.loads(report.to_json())


def _cmd_split(args) -> dict:
    box_file = load_box_file(args.boxes)
    reader = formats.open_reader(args.cloud)
    result = split_by_boxes(reader, box_file.boxes,
                            duplicates=args.duplicates,
                            emit_remainder=not args.no_remainder)
    for f in result.fragments:
        print(f"{f.label}: {f.cloud.count} points")
    if result.remainder is not None:
        print(f"remainder: {result.remainder.count} points")
    _output_descriptor(args.kind, reader.descriptor, args)
    if args.dry_run:
        print("dry run: no files written")
    else:
        paths = write_fragments(result, args.out_dir, args.kind,
                                encoding=_encoding(args),
                                las_scale=args.las_scale)
        print(f"wrote {len(paths)} files to {args.out_dir}")
    return {"fragments": [{"label": f.label, "count": f.cloud.count}
                          for f in result.fragments],
            "remainder": None if result.remainder is None
            else result.remainder.count}


def _cmd_info(args) -> dict:
    # one open and one header parse; counting the decoded records checks
    # the whole file while holding one chunk
    reader = formats.open_reader(args.input)
    descriptor = reader.descriptor
    points = 0
    for chunk in reader.chunks():
        points += chunk.positions.shape[0]
        del chunk
    scale = max(map(abs, reader.header.scales)) \
        if descriptor.kind in ("las", "laz") else DEFAULT_LAS_SCALE
    precision = position_precision(descriptor, scale)  # the file's own grid
    print(f"kind:      {descriptor.kind}")
    print(f"encoding:  {descriptor.encoding}")
    print(f"points:    {points}")
    print(f"color:     {'yes' if descriptor.has_color else 'no'}")
    print(f"normals:   {'yes' if descriptor.has_normals else 'no'}")
    print(f"precision: {precision:g} m")
    return {"kind": descriptor.kind, "encoding": descriptor.encoding,
            "points": points, "has_color": descriptor.has_color,
            "has_normals": descriptor.has_normals, "precision_m": precision}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")

    try:
        _write_report(args, args.func(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except CloudError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
