"""Traced pcedit commands and the per-layer metrics derived from them.

Run as a script, ``tracer.py SPANS_OUT OP_ID ARGS...`` does what the
``pcedit`` console script does with ARGS, with spans around the calls into
each layer.  Modules import names directly, so every wrapper replaces the
name where its caller looks it up (``pcedit.cli.read_cloud``,
``pcedit.formats.open_reader``, ``pcedit.recolor.cKDTree`` ...); methods
are wrapped on their class.  Spans stay in memory and are written to
SPANS_OUT when the command exits.  Span names follow the program's stage
vocabulary: detect, read, contains, fit, neighbours, apply, write.

Imported, the module turns the span files of one pass into per-layer
metrics: self times (span duration minus the time its child spans cover),
counts and throughputs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

KINDS = ("ply", "pcd", "las", "xyzrgb", "pts")

#: per-layer metric -> (layer, span name) whose self times it sums
SELF_TIMES = {
    "cli.import_s": ("cli", "import"),
    "cli.other_s": ("cli", "op"),
    "boxfile.load_s": ("boxfile", "load"),
    "formats.detect_s": ("formats", "detect"),
    "formats.decode_s": ("formats", "read"),
    "formats.encode_s": ("formats", "write"),
    "cloud.contains_s": ("cloud", "contains"),
    "cloud.take_s": ("cloud", "take"),
    "recolor.fit_s": ("recolor", "fit"),
    "recolor.neighbours_s": ("recolor", "neighbours"),
    "recolor.apply_s": ("recolor", "apply"),
    "split.assign_s": ("split", "assign"),
    "split.write_s": ("split", "write"),
}

#: (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(name, "s", "lower") for name in SELF_TIMES]
    + [("recolor.pipeline_s", "s", "lower")]
    + [(f"formats.{way}_mpts_per_s.{kind}", "Mpts/s", "higher")
       for way in ("decode", "encode") for kind in KINDS]
    + [("formats.input_passes", "count", "lower"),
       ("formats.bytes_read", "B", "lower"),
       ("formats.bytes_written", "B", "lower"),
       ("cloud.contains_calls", "count", "lower"),
       ("cloud.points_tested", "count", "lower"),
       ("cloud.take_mb", "MB", "lower"),
       ("recolor.neighbour_queries", "count", "lower"),
       ("split.files_written", "count", "lower"),
       ("parallel.pool_blocks", "count", "higher"),
       ("trace.overhead_frac", "ratio", "lower")])


class Tracer:
    """In-memory spans (name, start, end, parent, op id) and counters."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def begin(self, layer: str, name: str, **counts) -> dict:
        span = {"id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "op": self.op, "layer": layer, "name": name,
                "start": time.perf_counter_ns(), "end": None,
                "counts": counts}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, layer: str, name: str, **counts):
        span = self.begin(layer, name, **counts)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, layer: str, name: str, counts=None):
        """``fn`` inside a span; ``counts(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as span:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span["counts"].update(counts(args, result))
            return result

        return traced


def _kind(path) -> str:
    return Path(str(path)).suffix.lower().lstrip(".")


class _Reader:
    """Reader proxy: each chunk decode is a ``read`` span."""

    def __init__(self, reader, tracer: Tracer):
        self._reader = reader
        self._tracer = tracer
        self._kind = reader.descriptor.kind

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def chunks(self, *args, **kwargs):
        tracer = self._tracer
        tables = tracer.counters["formats.table_passes"]
        inner = self._reader.chunks(*args, **kwargs)
        try:
            while True:
                span = tracer.begin("formats", "read", kind=self._kind,
                                    points=0)
                try:
                    chunk = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                span["counts"]["points"] = len(chunk.positions)
                yield chunk
        finally:
            inner.close()
            # text readers are counted by their TableChunks passes
            if tracer.counters["formats.table_passes"] == tables:
                tracer.counters["formats.reader_passes"] += 1


class _Writer:
    """Writer proxy: each chunk encode and the close are ``write`` spans."""

    def __init__(self, writer, tracer: Tracer, kind: str):
        self._writer = writer
        self._tracer = tracer
        self._kind = kind

    def __getattr__(self, name):
        return getattr(self._writer, name)

    def write(self, chunk):
        with self._tracer.span("formats", "write", kind=self._kind,
                               points=len(chunk.positions)):
            return self._writer.write(chunk)

    def close(self):
        with self._tracer.span("formats", "write", kind=self._kind,
                               points=0) as span:
            written = self._writer.close()
            span["counts"]["bytes"] = written
        return written


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer where they are looked up."""
    from concurrent.futures import ThreadPoolExecutor

    import pcedit.cli as cli
    import pcedit.formats as formats
    import pcedit.parallel as parallel
    import pcedit.recolor as recolor
    import pcedit.split as split
    from pcedit.cloud import OrientedBox, PointCloud
    from pcedit.formats import _ascii, xyz

    wrap = tracer.wrap
    cli.load_box_file = wrap(cli.load_box_file, "boxfile", "load")
    cli.load_palette_file = wrap(cli.load_palette_file, "boxfile", "load")

    detect = wrap(formats.detect_format, "formats", "detect")
    formats.detect_format = cli.detect_format = detect
    cli.read_cloud = wrap(cli.read_cloud, "formats", "read",
                          lambda a, r: {"kind": _kind(a[0]), "points": 0})
    write_cloud = wrap(formats.write_cloud, "formats", "write",
                       lambda a, r: {"kind": _kind(a[1]), "points": 0})
    cli.write_cloud = split.write_cloud = write_cloud

    open_reader = formats.open_reader

    def traced_open_reader(path):
        with tracer.span("formats", "read", kind=_kind(path), points=0):
            reader = open_reader(path)
        return _Reader(reader, tracer)

    formats.open_reader = traced_open_reader

    open_writer = formats.open_writer

    def traced_open_writer(path, descriptor, *args, **kwargs):
        with tracer.span("formats", "write", kind=descriptor.kind, points=0):
            writer = open_writer(path, descriptor, *args, **kwargs)
        return _Writer(writer, tracer, descriptor.kind)

    formats.open_writer = traced_open_writer

    count_rows = xyz.count_data_rows

    def traced_count_rows(path, *args, **kwargs):
        tracer.counters["formats.count_passes"] += 1
        with tracer.span("formats", "read", kind=_kind(path), points=0):
            return count_rows(path, *args, **kwargs)

    xyz.count_data_rows = traced_count_rows

    table_iter = _ascii.TableChunks.__iter__

    def traced_table_iter(self):
        tracer.counters["formats.table_passes"] += 1
        yield from table_iter(self)

    _ascii.TableChunks.__iter__ = traced_table_iter

    OrientedBox.contains = wrap(
        OrientedBox.contains, "cloud", "contains",
        lambda a, r: {"rows": len(a[1]) if getattr(a[1], "ndim", 2) > 1
                      else 1})
    PointCloud.take = wrap(
        PointCloud.take, "cloud", "take",
        lambda a, r: {"bytes": r.positions.nbytes + r.colors.nbytes
                      + (0 if r.normals is None else r.normals.nbytes)})

    cli.apply_pipeline = wrap(cli.apply_pipeline, "recolor", "apply")
    recolor.fit_color_sphere = wrap(recolor.fit_color_sphere, "recolor",
                                    "fit")
    kdtree = recolor.cKDTree

    class TracedKDTree:
        def __init__(self, data, *args, **kwargs):
            with tracer.span("recolor", "neighbours"):
                self._tree = kdtree(data, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._tree, name)

        def query(self, x, *args, **kwargs):
            with tracer.span("recolor", "neighbours", queries=len(x)):
                return self._tree.query(x, *args, **kwargs)

    recolor.cKDTree = TracedKDTree

    cli.split_by_boxes = wrap(cli.split_by_boxes, "split", "assign")
    cli.write_fragments = wrap(cli.write_fragments, "split", "write",
                               lambda a, r: {"files": len(r)})

    class CountingPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            blocks = list(iterables[0])
            tracer.counters["parallel.pool_blocks"] += len(blocks)
            return super().map(fn, blocks, *iterables[1:], **kwargs)

    parallel.ThreadPoolExecutor = CountingPool


def _bytes_read() -> int | None:
    """rchar of /proc/self/io: bytes this process read through read(2)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    spans_out, op, args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op)
    code = 1
    try:
        with tracer.span("cli", "import"):
            import pcedit.cli
        install(tracer)
        before = _bytes_read()
        with tracer.span("cli", "op"):
            code = pcedit.cli.run(args)
        after = _bytes_read()
        if before is not None and after is not None:
            tracer.counters["formats.bytes_read"] = after - before
    finally:
        Path(spans_out).write_text(json.dumps(
            {"spans": tracer.spans, "counters": tracer.counters}),
            encoding="utf-8")
    return code


# --- aggregation -------------------------------------------------------------

def self_times(spans: list[dict]) -> list[tuple[dict, int]]:
    """(span, self time in ns) for each finished span of one op."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [(span, span["end"] - span["start"] - covered[span["id"]])
            for span in spans if span["end"] is not None]


def op_metrics(trace: dict) -> dict[str, float]:
    """Per-layer sums for one op (one traced command)."""
    out: dict[str, float] = defaultdict(float)
    layer_of = {key: metric for metric, key in SELF_TIMES.items()}
    for span, own_ns in self_times(trace["spans"]):
        key = (span["layer"], span["name"])
        own = own_ns / 1e9
        if key in layer_of:
            out[layer_of[key]] += own
        counts = span["counts"]
        if key == ("recolor", "apply"):
            out["recolor.pipeline_s"] += (span["end"] - span["start"]) / 1e9
        elif key == ("cloud", "contains"):
            out["cloud.contains_calls"] += 1
            out["cloud.points_tested"] += counts["rows"]
        elif key == ("cloud", "take"):
            out["cloud.take_mb"] += counts["bytes"] / 1e6
        elif key == ("recolor", "neighbours"):
            out["recolor.neighbour_queries"] += counts.get("queries", 0)
        elif key == ("split", "write"):
            out["split.files_written"] += counts["files"]
        elif span["layer"] == "formats" and "kind" in counts:
            way = "decode" if span["name"] == "read" else "encode"
            out[f"{way}_s.{counts['kind']}"] += own
            out[f"{way}_points.{counts['kind']}"] += counts["points"]
            out["formats.bytes_written"] += counts.get("bytes", 0)
    counters = trace["counters"]
    out["formats.input_passes"] = sum(
        counters.get(k, 0) for k in ("formats.table_passes",
                                     "formats.count_passes",
                                     "formats.reader_passes"))
    out["formats.bytes_read"] = counters.get("formats.bytes_read", 0)
    out["parallel.pool_blocks"] = counters.get("parallel.pool_blocks", 0)
    return dict(out)


def pass_metrics(ops: list[dict[str, float]]) -> dict[str, float]:
    """One traced pass: sums over its ops, except ``formats.input_passes``,
    the most full scans of an input that any one op makes.  A kind's
    throughput is its points over its decode (encode) self time; 0 when the
    pass never decodes (encodes) that kind."""
    total: dict[str, float] = defaultdict(float)
    for op in ops:
        for name, value in op.items():
            total[name] += value
    out: dict[str, float] = {}
    for name, _, _ in METRICS:
        if name == "formats.input_passes":
            out[name] = max((op.get(name, 0) for op in ops), default=0)
        elif "_mpts_per_s." in name:
            way, kind = name[len("formats."):].split("_mpts_per_s.")
            seconds = total[f"{way}_s.{kind}"]
            out[name] = (total[f"{way}_points.{kind}"] / seconds / 1e6
                         if seconds > 0 else 0.0)
        elif name != "trace.overhead_frac":
            out[name] = total[name]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
