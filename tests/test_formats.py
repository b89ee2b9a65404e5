"""Format layer: detection, parsing, round trips, streaming conversion."""

import os
import re
import stat
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcedit import (CloudError, CodecUnavailable, HeaderMismatch,
                    MissingAttribute, ParseError, PointCloud, RangeError,
                    UnknownFormat, UnsupportedPointRecord, convert,
                    detect_format, position_precision, read_cloud,
                    write_cloud)
from pcedit.cli import run
from pcedit.formats import FormatDescriptor, open_reader
from pcedit.split import Fragment, SplitResult, write_fragments

from conftest import random_cloud

ALL_KINDS = ["las", "xyz", "xyzn", "xyzrgb", "pts", "ply", "pcd"]
#: (kind, encoding) pairs that can be written natively in this environment
WRITABLE = [
    ("ply", "binary_little_endian"), ("ply", "ascii"),
    ("pcd", "binary_little_endian"), ("pcd", "ascii"),
    ("las", "binary_little_endian"),
    ("pts", "ascii"), ("xyz", "ascii"), ("xyzn", "ascii"),
    ("xyzrgb", "ascii"),
]


def write_tmp(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


def make_descriptor(kind, encoding, cloud):
    caps_color = {"xyz": False, "xyzn": False, "xyzrgb": True, "pts": True}
    has_color = caps_color.get(kind, cloud.has_color)
    has_normals = kind == "xyzn" or (kind in ("ply", "pcd")
                                     and cloud.normals is not None)
    return FormatDescriptor(kind=kind, encoding=encoding,
                            has_color=has_color, has_normals=has_normals)


class TestDetect:
    def test_unknown_extension(self, tmp_path):
        path = write_tmp(tmp_path, "points.e57", b"whatever")
        with pytest.raises(UnknownFormat):
            detect_format(path)

    def test_xyz_plain_table(self, tmp_path):
        path = write_tmp(tmp_path, "p.xyz", "1 2 3\n4 5 6\n")
        desc = detect_format(path)
        assert desc.kind == "xyz" and desc.encoding == "ascii"
        assert not desc.has_color and not desc.has_normals

    def test_las_magic_agrees(self, tmp_path, rng):
        path = tmp_path / "a.las"
        write_cloud(random_cloud(rng, 5), path)
        desc = detect_format(path)
        assert desc.kind == "las" and desc.has_color

    def test_ply_extension_without_magic(self, tmp_path):
        path = write_tmp(tmp_path, "a.ply", "not a ply header\n")
        with pytest.raises(HeaderMismatch):
            detect_format(path)

    def test_las_extension_with_ply_content(self, tmp_path):
        path = write_tmp(tmp_path, "a.las",
                         "ply\nformat ascii 1.0\nend_header\n")
        with pytest.raises(HeaderMismatch):
            detect_format(path)

    def test_xyz_extension_with_las_content(self, tmp_path):
        path = write_tmp(tmp_path, "a.xyz", b"LASF" + b"\0" * 300)
        with pytest.raises(HeaderMismatch):
            detect_format(path)

    def test_pcd_magic_via_comment_or_version(self, tmp_path, rng):
        path = tmp_path / "a.pcd"
        write_cloud(random_cloud(rng, 3), path)
        assert detect_format(path).kind == "pcd"
        stripped = path.read_bytes().split(b"\n", 1)[1]  # drop "# .PCD" line
        path2 = write_tmp(tmp_path, "b.pcd", stripped)
        assert detect_format(path2).kind == "pcd"

    def test_las_with_compression_bit_routed_to_laz(self, tmp_path, rng):
        path = tmp_path / "c.las"
        write_cloud(random_cloud(rng, 2), path)
        data = bytearray(path.read_bytes())
        data[104] |= 0x80  # compression flag inside the point-format byte
        laz = write_tmp(tmp_path, "c2.las", bytes(data))
        with pytest.raises(HeaderMismatch, match="laz"):
            detect_format(laz)

    def test_laz_extension_with_plain_las_content(self, tmp_path, rng):
        path = tmp_path / "d.las"
        write_cloud(random_cloud(rng, 2), path)
        laz = write_tmp(tmp_path, "d.laz", path.read_bytes())
        with pytest.raises(HeaderMismatch, match="uncompressed"):
            detect_format(laz)


class TestRoundTrips:
    @pytest.mark.parametrize("kind,encoding", WRITABLE)
    def test_positions_within_declared_precision(self, tmp_path, rng,
                                                 kind, encoding):
        cloud = random_cloud(rng, 257, normals=kind == "xyzn")
        desc = make_descriptor(kind, encoding, cloud)
        path = tmp_path / f"c.{kind}"
        write_cloud(cloud, path, desc)
        back = read_cloud(path)
        tol = position_precision(desc)
        assert back.count == cloud.count
        assert np.abs(back.positions - cloud.positions).max() <= tol

    @pytest.mark.parametrize("kind,encoding",
                             [(k, e) for k, e in WRITABLE
                              if k in ("ply", "pcd", "las", "pts", "xyzrgb")])
    def test_colors_exact(self, tmp_path, rng, kind, encoding):
        cloud = random_cloud(rng, 100)
        desc = make_descriptor(kind, encoding, cloud)
        path = tmp_path / f"c.{kind}"
        write_cloud(cloud, path, desc)
        back = read_cloud(path)
        assert back.has_color
        assert np.array_equal(back.colors, cloud.colors)

    @pytest.mark.parametrize("kind,encoding", WRITABLE)
    def test_same_format_write_is_idempotent(self, tmp_path, rng, kind,
                                             encoding):
        cloud = random_cloud(rng, 64, normals=kind == "xyzn")
        desc = make_descriptor(kind, encoding, cloud)
        first = tmp_path / f"a.{kind}"
        second = tmp_path / f"b.{kind}"
        write_cloud(cloud, first, desc)
        write_cloud(read_cloud(first), second, desc)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("kind,encoding", WRITABLE)
    def test_empty_cloud_round_trip(self, tmp_path, kind, encoding):
        cloud = PointCloud.empty(has_color=kind not in ("xyz", "xyzn"),
                                 has_normals=kind == "xyzn")
        desc = make_descriptor(kind, encoding, cloud)
        path = tmp_path / f"e.{kind}"
        write_cloud(cloud, path, desc)
        assert read_cloud(path).count == 0

    def test_normals_survive_ply_and_pcd(self, tmp_path, rng):
        cloud = random_cloud(rng, 40, normals=True)
        for kind in ("ply", "pcd"):
            path = tmp_path / f"n.{kind}"
            write_cloud(cloud, path)
            back = read_cloud(path)
            assert back.normals is not None
            assert np.array_equal(back.normals, cloud.normals)

    def test_chunked_read_equals_whole_read(self, tmp_path, rng):
        cloud = random_cloud(rng, 100)
        path = tmp_path / "c.ply"
        write_cloud(cloud, path)
        reader = open_reader(path)
        parts = [c.positions for c in reader.chunks(chunk_size=7)]
        assert len(parts) == 15
        assert np.array_equal(np.vstack(parts), cloud.positions)


class TestLas:
    def _las_bytes(self, point_format, records, record_len=None,
                   version=(1, 2), legacy_count=None):
        """Hand-packed LAS file, built independently of the writer."""
        sizes = {0: 20, 1: 28, 2: 26, 3: 34}
        record_len = record_len or sizes[point_format]
        n = len(records)
        header = struct.pack(
            "<4sHHIHH8sBB32s32sHHHIIBHI5I3d3d6d", b"LASF", 0, 0, 0, 0, 0,
            b"", version[0], version[1], b"t", b"t", 0, 0, 227, 227, 0,
            point_format, record_len,
            n if legacy_count is None else legacy_count,
            0, 0, 0, 0, 0, 0.001, 0.001, 0.001, 0.0, 0.0, 0.0,
            1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
        return header + b"".join(records)

    def test_16bit_red_narrows_to_255(self, tmp_path):
        record = struct.pack("<3i H BBbB H HHH", 1000, 2000, 3000, 0, 0, 0,
                             0, 0, 0, 65535, 0, 513)
        path = write_tmp(tmp_path, "c.las", self._las_bytes(2, [record]))
        cloud = read_cloud(path)
        assert cloud.colors.tolist() == [[255, 0, 2]]
        assert np.allclose(cloud.positions, [[1.0, 2.0, 3.0]])

    def test_widening_on_write_stores_257x(self, tmp_path):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[255, 1, 128]]))
        path = tmp_path / "w.las"
        write_cloud(cloud, path)
        data = path.read_bytes()
        red, green, blue = struct.unpack_from("<HHH", data, 227 + 20)
        assert (red, green, blue) == (255 * 257, 257, 128 * 257)

    def test_gps_time_format_1_and_3(self, tmp_path):
        rec1 = struct.pack("<3i H BBbB H d", 1, 2, 3, 0, 0, 0, 0, 0, 0, 1.5)
        path = write_tmp(tmp_path, "f1.las", self._las_bytes(1, [rec1]))
        cloud = read_cloud(path)
        assert not cloud.has_color and cloud.count == 1

        rec3 = struct.pack("<3i H BBbB H d HHH", 1, 2, 3, 0, 0, 0, 0, 0, 0,
                           1.5, 256, 512, 768)
        path = write_tmp(tmp_path, "f3.las", self._las_bytes(3, [rec3]))
        cloud = read_cloud(path)
        assert cloud.colors.tolist() == [[1, 2, 3]]

    def test_extra_record_bytes_skipped(self, tmp_path):
        record = struct.pack("<3i H BBbB H", 10, 20, 30, 0, 0, 0, 0, 0, 0)
        record += b"\xAA" * 5  # trailing extra bytes
        path = write_tmp(tmp_path, "x.las",
                         self._las_bytes(0, [record], record_len=25))
        cloud = read_cloud(path)
        assert np.allclose(cloud.positions, [[0.01, 0.02, 0.03]])

    def test_unsupported_point_format(self, tmp_path):
        path = write_tmp(tmp_path, "u.las",
                         self._las_bytes(6, [b"\0" * 30], record_len=30))
        with pytest.raises(UnsupportedPointRecord):
            read_cloud(path)

    def test_las14_extended_count(self, tmp_path):
        record = struct.pack("<3i H BBbB H", 1, 1, 1, 0, 0, 0, 0, 0, 0)
        base = self._las_bytes(0, [record, record], version=(1, 4),
                               legacy_count=0)
        # splice in a 1.4-style header: size 375, extended count at 247
        data = bytearray(base)
        struct.pack_into("<H", data, 94, 375)
        struct.pack_into("<I", data, 96, 375)
        extension = bytearray(375 - 227)
        struct.pack_into("<Q", extension, 247 - 227, 2)
        data[227:227] = extension
        path = write_tmp(tmp_path, "v14.las", bytes(data))
        assert read_cloud(path).count == 2

    def test_truncated_data_reports_byte_offset(self, tmp_path):
        record = struct.pack("<3i H BBbB H", 1, 1, 1, 0, 0, 0, 0, 0, 0)
        data = self._las_bytes(0, [record, record])[:-10]
        path = write_tmp(tmp_path, "t.las", data)
        with pytest.raises(ParseError, match="byte"):
            read_cloud(path)

    def test_scale_controls_quantization(self, tmp_path, rng):
        cloud = random_cloud(rng, 50)
        path = tmp_path / "s.las"
        write_cloud(cloud, path, las_scale=0.01)
        err = np.abs(read_cloud(path).positions - cloud.positions).max()
        assert err <= 0.005
        assert err > 5e-5  # visibly coarser than the default scale

    def test_deterministic_header_no_timestamps(self, tmp_path, rng):
        cloud = random_cloud(rng, 10)
        a, b = tmp_path / "a.las", tmp_path / "b.las"
        write_cloud(cloud, a)
        write_cloud(cloud, b)
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("offset", [None, (0.0, 0.0, 0.0)])
    def test_non_finite_position_is_range_error(self, tmp_path, bad,
                                                offset):
        positions = np.zeros((10, 3))
        positions[3, 1] = bad
        out = tmp_path / "n.las"
        with pytest.raises(RangeError, match="NaN or infinite"):
            write_cloud(PointCloud(positions), out, las_offset=offset)
        assert not out.exists()

    def test_non_finite_position_in_convert(self, tmp_path, rng):
        cloud = random_cloud(rng, 20)
        cloud.positions[7, 0] = np.nan
        src = tmp_path / "in.ply"
        write_cloud(cloud, src)
        with pytest.raises(RangeError, match="NaN or infinite"):
            convert(src, tmp_path / "out.las")
        assert not (tmp_path / "out.las").exists()

    #: (byte, value, message) of a scale or offset the reader rejects
    BAD_GRID = [
        (131, np.nan, "x scale must be finite and > 0, got nan"),
        (139, 0.0, "y scale must be finite and > 0, got 0"),
        (147, -0.001, "z scale must be finite and > 0, got -0.001"),
        (131, np.inf, "x scale must be finite and > 0, got inf"),
        (155, np.inf, "x offset must be finite, got inf"),
        (163, np.nan, "y offset must be finite, got nan"),
        (171, -np.inf, "z offset must be finite, got -inf"),
    ]

    def _patched(self, tmp_path, name, byte, value, compressed=False):
        """A 2-point file from ``write_cloud`` with one header double
        replaced (and the LAZ bit set when ``compressed``)."""
        path = tmp_path / "good.las"
        write_cloud(PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                               np.array([[1, 2, 3], [4, 5, 6]])), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, byte, value)
        if compressed:
            data[104] |= 0x80
        return write_tmp(tmp_path, name, bytes(data))

    @pytest.mark.parametrize("byte, value, message", BAD_GRID)
    def test_bad_scale_or_offset_is_parse_error(self, tmp_path, byte, value,
                                                message):
        path = self._patched(tmp_path, "g.las", byte, value)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: byte {byte}: {message}")):
            read_cloud(path)

    @pytest.mark.parametrize("byte, value, message", BAD_GRID)
    @pytest.mark.parametrize("command", ["convert", "info"])
    def test_bad_scale_or_offset_in_cli(self, tmp_path, capsys, byte, value,
                                        message, command):
        path = self._patched(tmp_path, "g.las", byte, value)
        out = tmp_path / "out.ply"
        argv = [command, str(path)] + ([str(out)] if command == "convert"
                                       else [])
        assert run(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: byte {byte}: {message}\n"
        assert not out.exists()

    def test_laz_header_shares_the_check(self, tmp_path):
        # the header is read before any codec is needed
        path = self._patched(tmp_path, "g.laz", 139, 0.0, compressed=True)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: byte 139: y scale must be finite and > 0")):
            read_cloud(path)


class TestCountsTheFileBacks:
    """A header count or record size the file cannot back is a data error
    at its byte, and sizes no allocation: exit 2, not a MemoryError."""

    #: (name, record length or None, point count) patched into a 2-point
    #: LAS file of 279 bytes
    LAS_CASES = [("count", None, 1_000_000),
                 ("record-length", 65_535, None),
                 ("both", 65_535, 1_000_000)]

    def _las(self, tmp_path, record_length, count):
        path = tmp_path / "in.las"
        write_cloud(PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                               np.array([[1, 2, 3], [4, 5, 6]])), path)
        data = bytearray(path.read_bytes())
        assert len(data) == 279
        if record_length is not None:
            struct.pack_into("<H", data, 105, record_length)
        if count is not None:
            struct.pack_into("<I", data, 107, count)
        path.write_bytes(bytes(data))
        return path

    def _ply(self, tmp_path, properties=990, count=10**9):
        header = ["ply", "format binary_little_endian 1.0",
                  f"element vertex {count}", "property double x",
                  "property double y", "property double z"]
        header += [f"property double p{i}" for i in range(properties)]
        header.append("end_header")
        path = tmp_path / "in.ply"
        path.write_bytes(("\n".join(header) + "\n").encode("ascii")
                         + bytes(2 * 8 * (properties + 3)))
        return path, len("\n".join(header)) + 1

    def _check_cli(self, capsys, tmp_path, path, message):
        for command in ("info", "convert"):
            out = tmp_path / "out.pcd"
            argv = [command, str(path)] + ([str(out)] if command == "convert"
                                           else [])
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()
            assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("name, record_length, count", LAS_CASES,
                             ids=[case[0] for case in LAS_CASES])
    def test_las(self, tmp_path, capsys, name, record_length, count):
        path = self._las(tmp_path, record_length, count)
        size = record_length or 26
        message = (f"byte 107: {count or 2} points of {size} bytes do not "
                   f"fit in the 52 bytes after byte 227")
        with pytest.raises(ParseError, match=re.escape(message)):
            read_cloud(path)
        self._check_cli(capsys, tmp_path, path, message)

    def test_las14_extended_count_names_its_byte(self, tmp_path):
        path = self._las(tmp_path, None, 0)
        data = bytearray(path.read_bytes())
        data[25] = 4                        # version 1.4
        struct.pack_into("<H", data, 94, 375)
        struct.pack_into("<I", data, 96, 375)
        extension = bytearray(375 - 227)
        struct.pack_into("<Q", extension, 247 - 227, 2**40)
        data[227:227] = extension
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=re.escape(
                f"byte 247: {2**40} points of 26 bytes do not fit in the "
                f"52 bytes after byte 375")):
            read_cloud(path)

    def _las_header(self, tmp_path, suffix, points, edits):
        """A colorless ``points``-point file from ``write_cloud`` named
        ``in.<suffix>``, with each (byte, struct format, value) of ``edits``
        packed into its header; a .laz file gets the compression bit."""
        plain = tmp_path / "plain.las"
        write_cloud(PointCloud(np.arange(3.0 * points).reshape(-1, 3)), plain)
        data = bytearray(plain.read_bytes())
        plain.unlink()
        for byte, fmt, value in edits:
            struct.pack_into(fmt, data, byte, value)
        if suffix == "laz":
            data[104] |= 0x80
        return write_tmp(tmp_path, f"in.{suffix}", bytes(data))

    @pytest.mark.parametrize("suffix", ["las", "laz"])
    def test_header_larger_than_the_file(self, tmp_path, capsys, suffix):
        # a LAS 1.4 header of 375 bytes would hold the 64-bit count at
        # byte 247, past the end of this 227-byte file
        path = self._las_header(tmp_path, suffix, 0,
                                [(25, "B", 4), (94, "<H", 375)])
        message = "byte 94: header size 375 exceeds the 227-byte file"
        with pytest.raises(ParseError, match=re.escape(message)):
            read_cloud(path)
        self._check_cli(capsys, tmp_path, path, message)

    @pytest.mark.parametrize("offset", [0, 100, 226])
    @pytest.mark.parametrize("suffix", ["las", "laz"])
    def test_points_starting_inside_the_header(self, tmp_path, capsys,
                                               suffix, offset):
        path = self._las_header(tmp_path, suffix, 2, [(96, "<I", offset)])
        message = (f"byte 96: point data offset {offset} lies inside the "
                   f"227-byte header")
        with pytest.raises(ParseError, match=re.escape(message)):
            read_cloud(path)
        self._check_cli(capsys, tmp_path, path, message)

    def test_ply_many_properties(self, tmp_path, capsys):
        path, data_at = self._ply(tmp_path)
        message = f"byte {data_at + 2 * 7944}: unexpected end of data: " \
            f"2 of {10**9} vertices"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=re.escape(message)):
                read_cloud(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two records the file holds, not a chunk of 65,536
        assert peak < 2**20, f"reading peaked at {peak / 2**20:.0f} MiB"
        self._check_cli(capsys, tmp_path, path, message)

    def test_short_binary_reads_stop_where_the_file_ends(self, tmp_path):
        path, data_at = self._ply(tmp_path, properties=0, count=5)
        chunks = open_reader(path).chunks(chunk_size=1)
        assert [next(chunks).count for _ in range(2)] == [1, 1]
        with pytest.raises(ParseError, match=re.escape(
                f"byte {data_at + 48}: unexpected end of data: 2 of 5")):
            next(chunks)


class TestPly:
    def test_ascii_two_vertices_verbatim_colors(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\nproperty uchar green\n"
                "property uchar blue\nend_header\n"
                "0 0 0 1 2 3\n1 1 1 254 253 252\n")
        cloud = read_cloud(write_tmp(tmp_path, "a.ply", text))
        assert cloud.count == 2
        assert cloud.colors.tolist() == [[1, 2, 3], [254, 253, 252]]

    def test_ushort_colors_narrowed(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property double x\nproperty double y\nproperty double z\n"
                "property ushort red\nproperty ushort green\n"
                "property ushort blue\nend_header\n"
                "0 0 0 65535 257 513\n")
        cloud = read_cloud(write_tmp(tmp_path, "u.ply", text))
        assert cloud.colors.tolist() == [[255, 1, 2]]

    def test_unknown_properties_skipped(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property float confidence\nproperty uchar alpha\n"
                "end_header\n"
                "1 2 3 0.5 200\n")
        cloud = read_cloud(write_tmp(tmp_path, "s.ply", text))
        assert cloud.count == 1 and not cloud.has_color
        assert np.allclose(cloud.positions, [[1, 2, 3]])

    def test_faces_after_vertices_ignored(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property float x\nproperty float y\nproperty float z\n"
                "element face 1\nproperty list uchar int vertex_indices\n"
                "end_header\n"
                "0 0 0\n1 1 1\n3 0 1 0\n")
        assert read_cloud(write_tmp(tmp_path, "f.ply", text)).count == 2

    def test_big_endian_rejected(self, tmp_path):
        text = ("ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
        with pytest.raises(ParseError, match="big-endian"):
            read_cloud(write_tmp(tmp_path, "b.ply", text))

    def test_vertex_list_property_rejected(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property list uchar float x\nend_header\n")
        with pytest.raises(ParseError, match="list"):
            read_cloud(write_tmp(tmp_path, "l.ply", text))

    def test_short_vertex_data(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n0 0 0\n1 1 1\n")
        with pytest.raises(ParseError, match="3"):
            read_cloud(write_tmp(tmp_path, "short.ply", text))

    def test_binary_float32_positions(self, tmp_path):
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  "end_header\n").encode()
        payload = np.array([[1, 2, 3], [4, 5, 6]], dtype="<f4").tobytes()
        cloud = read_cloud(write_tmp(tmp_path, "f32.ply", header + payload))
        assert np.allclose(cloud.positions, [[1, 2, 3], [4, 5, 6]])


    def test_ascii_color_out_of_range_reports_line(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\nproperty uchar green\n"
                "property uchar blue\nend_header\n"
                "0 0 0 1 2 3\n0 0 0 300 -1 20\n")
        with pytest.raises(ParseError,
                           match=r"line 12: color value 300 outside 0\.\.255"):
            read_cloud(write_tmp(tmp_path, "wrap.ply", text))

    def test_ascii_ushort_color_out_of_range(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property double x\nproperty double y\nproperty double z\n"
                "property ushort red\nproperty ushort green\n"
                "property ushort blue\nend_header\n"
                "0 0 0 65535 65536 0\n")
        with pytest.raises(ParseError, match=r"line 11: .*0\.\.65535"):
            read_cloud(write_tmp(tmp_path, "u.ply", text))

    def test_bare_property_line(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                "property float x\nproperty\nend_header\n0\n")
        with pytest.raises(ParseError, match="line 5"):
            read_cloud(write_tmp(tmp_path, "bare.ply", text))

    def test_negative_vertex_count(self, tmp_path):
        text = ("ply\nformat ascii 1.0\nelement vertex -5\n"
                "property float x\nproperty float y\nproperty float z\n"
                "end_header\n")
        with pytest.raises(ParseError, match="line 3"):
            read_cloud(write_tmp(tmp_path, "neg.ply", text))

    def test_repeated_vertex_element_names_its_line(self, tmp_path):
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                  "property double x\nproperty double y\nproperty double z\n"
                  "element vertex 1\nproperty double w\nend_header\n")
        payload = np.arange(7, dtype="<f8").tobytes()
        path = write_tmp(tmp_path, "twice.ply", header.encode() + payload)
        with pytest.raises(ParseError,
                           match=r"line 7: repeated 'element vertex'"):
            read_cloud(path)

    @pytest.mark.parametrize("header, message", [
        ("element face 1\nproperty list uchar int vertex_indices\n"
         "element vertex 1\nproperty float x\nproperty float y\n"
         "property float z\n", "element 'face' precedes vertex"),
        ("element vertex 1\nproperty int x\nproperty float y\n"
         "property float z\n", "property 'x' must be float or double"),
        ("element vertex 1\nproperty float x\nproperty float y\n"
         "property float z\nproperty uchar red\nproperty ushort green\n"
         "property uchar blue\n",
         "red/green/blue must all be uchar or all ushort"),
    ])
    def test_header_layout_checked_at_end_header(self, tmp_path, header,
                                                 message):
        text = f"ply\nformat ascii 1.0\n{header}end_header\n"
        path = write_tmp(tmp_path, "h.ply", text)
        with pytest.raises(ParseError) as caught:
            read_cloud(path)
        assert caught.value.line == text.count("\n")  # end_header
        assert str(caught.value) == \
            f"{path}: line {caught.value.line}: {message}"

    def test_fractional_ascii_colors_round_like_other_text_formats(
            self, tmp_path):
        header = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  "property {0} red\nproperty {0} green\n"
                  "property {0} blue\nend_header\n")
        sources = {
            "u1.ply": header.format("uchar") + "0 0 0 1.5 2 3\n",
            "u2.ply": header.format("ushort") + "0 0 0 511.5 512 768\n",
            "c.xyzrgb": "0 0 0 1.5 2 3\n",
            "c.pts": "1\n0 0 0 0 1.5 2 3\n",
        }
        for name, text in sources.items():
            colors = read_cloud(write_tmp(tmp_path, name, text)).colors
            assert colors.tolist() == [[2, 2, 3]], name


class TestPcd:
    def test_binary_compressed_rejected(self, tmp_path):
        text = ("VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                "COUNT 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
                "POINTS 1\nDATA binary_compressed\n")
        with pytest.raises(ParseError, match="binary_compressed"):
            read_cloud(write_tmp(tmp_path, "c.pcd", text))

    def test_float_packed_rgb_read(self, tmp_path):
        packed = np.array([(255 << 16) | (128 << 8) | 64], dtype=np.uint32)
        as_float = packed.view(np.float32)[0]
        text = ("# .PCD v0.7\nVERSION 0.7\nFIELDS x y z rgb\n"
                "SIZE 4 4 4 4\nTYPE F F F F\nCOUNT 1 1 1 1\nWIDTH 1\n"
                "HEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA ascii\n"
                f"1 2 3 {float(as_float)!r}\n")
        cloud = read_cloud(write_tmp(tmp_path, "f.pcd", text))
        assert cloud.colors.tolist() == [[255, 128, 64]]

    def test_rgba_field_accepted(self, tmp_path):
        text = ("VERSION 0.7\nFIELDS x y z rgba\nSIZE 4 4 4 4\n"
                "TYPE F F F U\nCOUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
                "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA ascii\n"
                f"0 0 0 {(10 << 16) | (20 << 8) | 30}\n")
        cloud = read_cloud(write_tmp(tmp_path, "a.pcd", text))
        assert cloud.colors.tolist() == [[10, 20, 30]]

    def test_missing_coordinate_field(self, tmp_path):
        text = ("VERSION 0.7\nFIELDS x y\nSIZE 4 4\nTYPE F F\nCOUNT 1 1\n"
                "WIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\n"
                "DATA ascii\n0 0\n")
        with pytest.raises(ParseError, match="'z'"):
            read_cloud(write_tmp(tmp_path, "m.pcd", text))

    def test_binary_roundtrip_bit_exact_positions(self, tmp_path, rng):
        cloud = random_cloud(rng, 33)
        path = tmp_path / "b.pcd"
        write_cloud(cloud, path)
        back = read_cloud(path)
        assert np.array_equal(back.positions, cloud.positions)

    def test_pad_fields_skipped(self, tmp_path):
        dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                          ("p", "<u4")])
        payload = np.array([(1, 2, 3, 0xdeadbeef)], dtype=dtype).tobytes()
        text = ("VERSION 0.7\nFIELDS x y z _\nSIZE 4 4 4 4\nTYPE F F F U\n"
                "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
                "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA binary\n")
        cloud = read_cloud(write_tmp(tmp_path, "p.pcd",
                                     text.encode() + payload))
        assert np.allclose(cloud.positions, [[1, 2, 3]])


    @pytest.mark.parametrize("value", [-1, 1 << 32])
    def test_ascii_unsigned_rgb_out_of_range(self, tmp_path, value):
        text = ("VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\n"
                "TYPE F F F U\nCOUNT 1 1 1 1\nWIDTH 2\nHEIGHT 1\n"
                "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
                f"0 0 0 0\n0 0 0 {value}\n")
        with pytest.raises(ParseError, match="line 12: color value"):
            read_cloud(write_tmp(tmp_path, "r.pcd", text))

    @pytest.mark.parametrize("line, value", [
        ("COUNT 1 1 x", "x"), ("COUNT 1 1 0", "0"), ("WIDTH -3", "-3"),
        ("POINTS -1", "-1")])
    def test_bad_header_numbers(self, tmp_path, line, value):
        lines = ["VERSION 0.7", "FIELDS x y z", "SIZE 4 4 4", "TYPE F F F",
                 "COUNT 1 1 1", "WIDTH 1", "HEIGHT 1",
                 "VIEWPOINT 0 0 0 1 0 0 0", "POINTS 1", "DATA binary"]
        key = line.split()[0]
        lines = [line if l.startswith(key) else l for l in lines]
        data = ("\n".join(lines) + "\n").encode() + bytes(12)
        with pytest.raises(ParseError, match=value):
            read_cloud(write_tmp(tmp_path, "h.pcd", data))

    def test_binary_repeated_field_uses_first(self, tmp_path):
        text = ("VERSION 0.7\nFIELDS x y z x\nSIZE 4 4 4 4\nTYPE F F F F\n"
                "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA binary\n")
        payload = np.array([1, 2, 3, 9], dtype="<f4").tobytes()
        cloud = read_cloud(write_tmp(tmp_path, "d.pcd",
                                     text.encode() + payload))
        assert cloud.positions.tolist() == [[1, 2, 3]]

    def test_binary_double_rgb_read_as_float_bits(self, tmp_path):
        packed = np.array([(255 << 16) | (1 << 8) | 2], dtype=np.uint32)
        text = ("VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 8\n"
                "TYPE F F F F\nCOUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
                "POINTS 1\nDATA binary\n")
        payload = (np.zeros(3, dtype="<f4").tobytes()
                   + packed.view(np.float32).astype("<f8").tobytes())
        cloud = read_cloud(write_tmp(tmp_path, "f8.pcd",
                                     text.encode() + payload))
        assert cloud.colors.tolist() == [[255, 1, 2]]

    SIGNED = ("VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\n"
              "TYPE F F F I\nCOUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
              "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA ascii\n")

    @pytest.mark.parametrize("value, color", [
        ("-1", [255, 255, 255]), ("-2147483648", [0, 0, 0]),
        ("2147483647", [255, 255, 255]), ("16711935", [255, 0, 255])])
    def test_ascii_signed_rgb_read(self, tmp_path, value, color):
        path = write_tmp(tmp_path, "s.pcd", self.SIGNED + f"0 0 0 {value}\n")
        assert read_cloud(path).colors.tolist() == [color]

    @pytest.mark.parametrize("value, shown", [
        ("5000000000", "5e+09"), ("1e30", "1e+30"), ("nan", "nan"),
        ("-2147483649", "-2.14748e+09")])
    def test_ascii_signed_rgb_out_of_range(self, tmp_path, value, shown):
        path = write_tmp(tmp_path, "s.pcd", self.SIGNED + f"0 0 0 {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=re.escape(
                    f"line 11: color value {shown} outside "
                    f"-2147483648..2147483647")):
                read_cloud(path)

    def test_ascii_unsigned_rgb_rounds_half_to_even(self, tmp_path):
        text = ("VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\n"
                "TYPE F F F U\nCOUNT 1 1 1 1\nWIDTH 3\nHEIGHT 1\n"
                "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 3\nDATA ascii\n"
                "0 0 0 3.5\n0 0 0 2.5\n0 0 0 65280.5\n")
        cloud = read_cloud(write_tmp(tmp_path, "h.pcd", text))
        assert cloud.colors.tolist() == [[0, 0, 4], [0, 0, 2], [0, 255, 0]]

    def test_multi_count_coordinate_rejected(self, tmp_path):
        text = ("VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                "COUNT 2 1 1\nWIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA binary\n")
        with pytest.raises(ParseError, match="COUNT"):
            read_cloud(write_tmp(tmp_path, "c.pcd",
                                 text.encode() + bytes(16)))

    def test_header_without_data_line_stops_at_100_lines(self, tmp_path):
        text = "VERSION 0.7\n" + "# comment\n" * 150 + \
            ("FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nWIDTH 1\nHEIGHT 1\n"
             "POINTS 1\nDATA ascii\n0 0 0\n")
        path = write_tmp(tmp_path, "long.pcd", text)
        with pytest.raises(ParseError) as caught:
            read_cloud(path)
        assert caught.value.line == 100
        assert str(caught.value) == f"{path}: line 100: header too large"


class TestAsciiFamily:
    def test_pts_short_file_reports_line_6(self, tmp_path):
        rows = "\n".join("0 0 0 10 1 2 3" for _ in range(4))
        path = write_tmp(tmp_path, "s.pts", f"5\n{rows}\n")
        with pytest.raises(ParseError, match="line 6"):
            read_cloud(path)

    def test_pts_extra_rows_rejected(self, tmp_path):
        rows = "\n".join("0 0 0 10 1 2 3" for _ in range(3))
        path = write_tmp(tmp_path, "x.pts", f"2\n{rows}\n")
        with pytest.raises(ParseError, match="extra"):
            read_cloud(path)

    def test_pts_bad_count_header(self, tmp_path):
        path = write_tmp(tmp_path, "h.pts", "many\n0 0 0 0 1 2 3\n")
        with pytest.raises(ParseError, match="line 1"):
            read_cloud(path)

    def test_pts_count_line_read_from_a_bounded_prefix(self, tmp_path):
        """A file whose lines end in a lone CR is not read whole to find
        its count line."""
        rows = 300_000
        path = write_tmp(tmp_path, "cr.pts",
                         f"{rows}\r" + "0 0 0 0 1 2 3\r" * rows)
        assert path.stat().st_size > 4 << 20
        tracemalloc.start()
        try:
            reader = open_reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reader.count == rows
        assert peak < 256 << 10

    def test_pts_overlong_count_line_rejected(self, tmp_path):
        path = write_tmp(tmp_path, "l.pts", " " * 5000 + "1\n0 0 0 0 1 2 3\n")
        with pytest.raises(ParseError,
                           match="line 1: point-count line is longer than"):
            read_cloud(path)

    def test_pts_intensity_ignored_written_as_zero(self, tmp_path):
        path = write_tmp(tmp_path, "i.pts", "1\n1 2 3 999 10 20 30\n")
        cloud = read_cloud(path)
        assert cloud.colors.tolist() == [[10, 20, 30]]
        out = tmp_path / "o.pts"
        write_cloud(cloud, out)
        assert out.read_text().splitlines()[1].split()[3] == "0"

    def test_xyzrgb_float_convention(self, tmp_path):
        path = write_tmp(tmp_path, "f.xyzrgb",
                         "0 0 0 1.0 0.0 0.5\n1 1 1 0.25 1.0 0.0\n")
        cloud = read_cloud(path)
        assert cloud.colors.tolist() == [[255, 0, 128], [64, 255, 0]]

    def test_xyzrgb_integer_convention(self, tmp_path):
        path = write_tmp(tmp_path, "i.xyzrgb", "0 0 0 1 0 200\n")
        assert read_cloud(path).colors.tolist() == [[1, 0, 200]]

    def test_xyzrgb_out_of_range_color(self, tmp_path):
        path = write_tmp(tmp_path, "r.xyzrgb", "0 0 0 0 0 0\n0 0 0 0 300 0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_cloud(path)

    @pytest.mark.parametrize("bad, shown", [("-0.5", "-0.5"),
                                            ("nan", "nan")])
    def test_xyzrgb_float_convention_range_checked(self, tmp_path, bad,
                                                    shown):
        path = write_tmp(tmp_path, "n.xyzrgb",
                         f"1 1 1 0.5 0.5 0.5\n0 0 0 {bad} 0.2 0.25\n")
        with pytest.raises(ParseError,
                           match=f"line 2: color value {shown} outside 0..1"):
            read_cloud(path)

    def test_comments_and_blanks_skipped_with_line_numbers(self, tmp_path):
        path = write_tmp(tmp_path, "c.xyz",
                         "# header\n1 2 3\n\n4 5 6  # inline\nbad line\n")
        with pytest.raises(ParseError, match="line 5"):
            read_cloud(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = write_tmp(tmp_path, "w.xyzn", "1 2 3 0 0 1\n1 2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_cloud(path)

    def test_xyzn_requires_normals_to_write(self, tmp_path, rng):
        with pytest.raises(MissingAttribute):
            write_cloud(random_cloud(rng, 3), tmp_path / "n.xyzn")


class TestFirstBadRow:
    """A text input fails at its first bad row in file order, whatever the
    chunk size; color range checks count as rows."""

    PLY = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
           "property float y\nproperty float z\nproperty uchar red\n"
           "property uchar green\nproperty uchar blue\nend_header\n")
    PCD = ("VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F U\n"
           "COUNT 1 1 1 1\nWIDTH 3\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
           "POINTS 3\nDATA ascii\n")
    CASES = [
        # count 2, a typo on line 3, an extra row on line 4
        ("typo.pts", "2\n0 0 0 0 1 2 3\n0 x 0 0 1 2 3\n0 0 0 0 1 2 3\n",
         "line 3: invalid number 'x'"),
        # color 300 on line 11, a typo on line 12
        ("two.ply", PLY + "0 0 0 300 0 0\nx 0 0 1 2 3\n0 0 0 1 2 3\n",
         "line 11: color value 300 outside 0..255"),
        ("two.pcd", PCD + "0 0 0 1\n0 0 0 -1\nx 0 0 1\n",
         "line 12: color value -1 outside 0..4294967295"),
        # float() takes "1_0", np.loadtxt does not
        ("c.xyz", "1 2 3\n# note\n1_0 2 3\n1 2\n",
         "line 3: invalid number '1_0'"),
        ("n.xyzn", "0 0 1 0 0 1\n0 0 1 0 0 1_0\n0 0 1\n",
         "line 2: invalid number '1_0'"),
        # the convention pre-pass checks colors as it scans
        ("c.xyzrgb", "0 0 0 300 0 0\n1 x 2 0 0 0\n",
         "line 1: color value 300 outside 0..255"),
        # every color up to the bad one is <= 1, a later one is not
        ("f.xyzrgb", "0 0 0 0.5 0 0\n0 0 0 -1 0 0\n0 0 0 200 0 0\n",
         "line 2: color value -1 outside 0..1"),
    ]

    @pytest.mark.parametrize("name, text, error", CASES)
    @pytest.mark.parametrize("chunk_size", [1, 2, None])
    def test_convert(self, tmp_path, name, text, error, chunk_size):
        path = write_tmp(tmp_path, name, text)
        sizes = {} if chunk_size is None else {"chunk_size": chunk_size}
        with pytest.raises(ParseError, match=re.escape(error)):
            convert(path, tmp_path / "out.ply", **sizes)
        assert not (tmp_path / "out.ply").exists()

    @pytest.mark.parametrize("name, text, error", CASES)
    def test_info(self, tmp_path, capsys, name, text, error):
        path = write_tmp(tmp_path, name, text)
        assert run(["info", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {error}\n"


class TestHeaderLineEnds:
    """A header line ends at ``\\n``; a lone ``\\r`` inside it is one more
    line to text mode, which numbers the data rows."""

    PLY = (b"ply\nformat ascii 1.0\ncomment made by x\ry\n"
           b"element vertex 2\nproperty float x\nproperty float y\n"
           b"property float z\nend_header\n")  # 9 lines to text mode
    PCD = (b"# .PCD v0.7\n# made by x\ry\nVERSION 0.7\nFIELDS x y z\n"
           b"SIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nWIDTH 2\nHEIGHT 1\n"
           b"VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n")  # 13 lines

    @pytest.mark.parametrize("name, header", [("c.ply", PLY),
                                              ("c.pcd", PCD)])
    def test_rows_read_through_read_cloud_and_convert(self, tmp_path, name,
                                                      header):
        path = write_tmp(tmp_path, name, header + b"1 2 3\n4 5 6\n")
        assert read_cloud(path).positions.tolist() == [[1, 2, 3], [4, 5, 6]]
        out = tmp_path / "o.xyz"
        assert run(["convert", str(path), str(out)]) == 0
        assert out.read_text() == ("1.000000 2.000000 3.000000\n"
                                   "4.000000 5.000000 6.000000\n")

    @pytest.mark.parametrize("name, header, line", [("c.ply", PLY, 11),
                                                    ("c.pcd", PCD, 15)])
    def test_data_error_names_the_text_mode_line(self, tmp_path, name,
                                                 header, line):
        path = write_tmp(tmp_path, name, header + b"1 2 3\n4 5\n")
        with pytest.raises(ParseError,
                           match=f"line {line}: expected 3 columns, found 2"):
            read_cloud(path)

    def test_pts_count_line_ending_in_lone_cr(self, tmp_path):
        path = write_tmp(tmp_path, "c.pts",
                         b"2\r1 2 3 0 10 20 30\n4 5 6 0 40 50 60\n")
        cloud = read_cloud(path)
        assert cloud.positions.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert cloud.colors.tolist() == [[10, 20, 30], [40, 50, 60]]
        path.write_bytes(b"2\r1 2 3 0 10 20 30\n4 5 6 0 40 50\n")
        with pytest.raises(ParseError, match="line 3: expected 7 columns"):
            read_cloud(path)

    def test_header_with_only_cr_line_ends_is_rejected(self, tmp_path):
        path = write_tmp(tmp_path, "c.ply", self.PLY.replace(b"\n", b"\r")
                         + b"1 2 3\r4 5 6\r")
        with pytest.raises(ParseError, match="missing end_header"):
            read_cloud(path)

    @pytest.mark.parametrize("name, header", [("c.ply", PLY),
                                              ("c.pcd", PCD)])
    def test_header_read_from_a_bounded_prefix(self, tmp_path, name, header):
        """A file whose lines end in a lone CR is not read whole to find
        the end of its header."""
        rows = 400_000
        path = write_tmp(tmp_path, name, header.replace(b"\n", b"\r")
                         + b"1 2 3\r" * rows)
        assert path.stat().st_size > 2 << 20
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="line 1: header line is "
                                                 "longer than 4096 bytes"):
                open_reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10


class TestConvert:
    def test_streaming_matches_in_memory_bytes(self, tmp_path, rng):
        cloud = random_cloud(rng, 500)
        src = tmp_path / "in.ply"
        write_cloud(cloud, src)
        streamed = tmp_path / "s.las"
        convert(src, streamed, chunk_size=64)
        direct = tmp_path / "d.las"
        write_cloud(read_cloud(src), direct)
        assert streamed.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("name", ["in.ply", "in.xyzrgb"])
    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_rejects_a_chunk_size_below_one(self, tmp_path, rng, name,
                                            chunk_size):
        """A size below 1 would never end (0) or write no row the header
        counts (-1): it fails before anything is read or written."""
        src = tmp_path / name
        write_cloud(random_cloud(rng, 10), src)
        out = tmp_path / "out.pcd"
        with pytest.raises(ValueError, match="chunk_size must be at least 1"):
            convert(src, out, chunk_size=chunk_size)
        assert not out.exists()

    def test_color_drop_warning(self, tmp_path, rng):
        src = tmp_path / "in.ply"
        write_cloud(random_cloud(rng, 10), src)
        report = convert(src, tmp_path / "out.xyz")
        assert any("color dropped" in w for w in report.warnings)

    def test_narrowing_warning_from_las(self, tmp_path, rng):
        src = tmp_path / "in.las"
        write_cloud(random_cloud(rng, 10), src)
        report = convert(src, tmp_path / "out.ply")
        assert any("narrow" in w for w in report.warnings)

    def test_colorless_to_color_format_zeros(self, tmp_path, rng):
        src = tmp_path / "in.xyz"
        write_cloud(PointCloud(rng.uniform(size=(5, 3))), src)
        report = convert(src, tmp_path / "out.xyzrgb")
        assert any("(0, 0, 0)" in w for w in report.warnings)
        back = read_cloud(tmp_path / "out.xyzrgb")
        assert back.count == 5 and not back.colors.any()

    def test_count_preserved_pcd_binary_to_pts(self, tmp_path, rng):
        cloud = random_cloud(rng, 77)
        src = tmp_path / "in.pcd"
        write_cloud(cloud, src)
        report = convert(src, tmp_path / "out.pts")
        assert report.points_written == 77
        assert read_cloud(tmp_path / "out.pts").count == 77

    def test_dry_run_writes_nothing(self, tmp_path, rng):
        src = tmp_path / "in.ply"
        write_cloud(random_cloud(rng, 10), src)
        out = tmp_path / "out.las"
        report = convert(src, out, dry_run=True)
        assert report.dry_run and not out.exists()
        assert report.points_written == 10

    def test_report_json_fields(self, tmp_path, rng):
        import json
        src = tmp_path / "in.ply"
        write_cloud(random_cloud(rng, 4), src)
        report = convert(src, tmp_path / "o.pts")
        payload = json.loads(report.to_json())
        assert payload["source_kind"] == "ply"
        assert payload["dest_kind"] == "pts"
        assert payload["points_written"] == 4

    def test_cli_unknown_output_kind(self, tmp_path, rng, capsys):
        src = tmp_path / "in.ply"
        write_cloud(random_cloud(rng, 4), src)
        out = tmp_path / "o.ply"
        assert run(["convert", str(src), str(out), "--to", "nosuch"]) == 2
        assert capsys.readouterr().err == \
            "error: unknown format kind 'nosuch'\n"
        assert not out.exists()

    def test_cli_binary_encoding(self, tmp_path, rng):
        src = tmp_path / "in.ply"
        write_cloud(random_cloud(rng, 4), tmp_path / "b.ply")
        convert(tmp_path / "b.ply", src, encoding="ascii")
        out = tmp_path / "o.ply"
        assert run(["convert", str(src), str(out), "--encoding",
                    "binary"]) == 0
        assert detect_format(out).encoding == "binary_little_endian"
        convert(src, tmp_path / "want.ply", encoding="binary_little_endian")
        assert out.read_bytes() == (tmp_path / "want.ply").read_bytes()


class TestLaz:
    def _fake_laz(self, tmp_path, rng):
        plain = tmp_path / "p.las"
        write_cloud(random_cloud(rng, 3), plain)
        data = bytearray(plain.read_bytes())
        data[104] |= 0x80
        path = tmp_path / "p.laz"
        path.write_bytes(bytes(data))
        return path

    def test_detect_works_without_codec(self, tmp_path, rng):
        desc = detect_format(self._fake_laz(tmp_path, rng))
        assert desc.kind == "laz" and desc.has_color

    def test_dry_run_convert_reads_only_the_header(self, tmp_path, rng):
        report = convert(self._fake_laz(tmp_path, rng), tmp_path / "o.ply",
                         dry_run=True)
        assert (report.source_kind, report.points_written) == ("laz", 3)
        assert not (tmp_path / "o.ply").exists()

    def test_short_record_length_fails_on_open(self, tmp_path, rng):
        path = self._fake_laz(tmp_path, rng)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 105, 19)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=re.escape(
                "byte 105: record length 19 too small for point format 2")):
            detect_format(path)

    def test_read_raises_codec_unavailable(self, tmp_path, rng):
        try:
            import laspy  # noqa: F401
            pytest.skip("laspy installed; CodecUnavailable not reachable")
        except ImportError:
            pass
        with pytest.raises(CodecUnavailable):
            read_cloud(self._fake_laz(tmp_path, rng))

    def test_info_exits_2_with_codec_unavailable(self, tmp_path, rng,
                                                 capsys):
        try:
            import laspy  # noqa: F401
            pytest.skip("laspy installed; CodecUnavailable not reachable")
        except ImportError:
            pass
        assert run(["info", str(self._fake_laz(tmp_path, rng))]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: LAZ compression requires the optional laspy codec")
        assert captured.out == ""

    def test_write_raises_codec_unavailable(self, tmp_path, rng):
        try:
            import laspy  # noqa: F401
            pytest.skip("laspy installed; CodecUnavailable not reachable")
        except ImportError:
            pass
        with pytest.raises(CodecUnavailable):
            write_cloud(random_cloud(rng, 3), tmp_path / "o.laz")


@pytest.fixture
def stub_laspy(monkeypatch):
    """``laspy_stub`` in place of laspy, for one test."""
    import laspy_stub
    monkeypatch.setitem(sys.modules, "laspy", laspy_stub)
    return laspy_stub


class TestLazPoints:
    """The LAZ point path against a stand-in codec that stores plain LAS
    records behind a compressed header."""

    def test_round_trip(self, tmp_path, rng, stub_laspy):
        cloud = random_cloud(rng, 300)
        path = tmp_path / "a.laz"
        write_cloud(cloud, path)
        assert path.read_bytes()[104] & 0x80
        back = read_cloud(path)
        assert np.array_equal(back.colors, cloud.colors)
        tol = position_precision(detect_format(path))
        assert np.abs(back.positions - cloud.positions).max() <= tol

    def test_convert_to_ply_in_chunks(self, tmp_path, rng, stub_laspy):
        src, out = tmp_path / "a.laz", tmp_path / "o.ply"
        write_cloud(random_cloud(rng, 300), src)
        report = convert(src, out, chunk_size=64)
        assert (report.source_kind, report.points_written) == ("laz", 300)
        want, got = read_cloud(src), read_cloud(out)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.colors, want.colors)

    def test_info(self, tmp_path, rng, capsys, stub_laspy):
        path = tmp_path / "a.laz"
        write_cloud(random_cloud(rng, 5), path)
        assert run(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind:      laz\n" in out and "points:    5\n" in out

    def test_nan_position_is_range_error(self, tmp_path, stub_laspy):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0]]))
        # from the derived offset, and from the points with a given one
        for offset in (None, (0.0, 0.0, 0.0)):
            with pytest.raises(RangeError, match="NaN or infinite"):
                write_cloud(cloud, tmp_path / "o.laz", las_offset=offset)
        assert list(tmp_path.iterdir()) == []

    def test_no_backend_is_codec_unavailable(self, tmp_path, rng,
                                             monkeypatch, stub_laspy):
        path = tmp_path / "a.laz"
        write_cloud(random_cloud(rng, 3), path)
        monkeypatch.setattr(stub_laspy.LazBackend, "detect_available",
                            lambda: ())
        with pytest.raises(CodecUnavailable):
            read_cloud(path)
        with pytest.raises(CodecUnavailable):
            write_cloud(random_cloud(rng, 3), tmp_path / "o.laz")


class TestAtomicOutput:
    def _unwritable_las_cloud(self):
        return PointCloud(np.array([[0.0, 0.0, 0.0], [1e9, 0.0, 0.0]]))

    def test_convert_onto_its_own_input(self, tmp_path, rng):
        src = tmp_path / "a.ply"
        write_cloud(random_cloud(rng, 40, normals=True), src)
        fresh = tmp_path / "fresh.ply"
        convert(src, fresh, encoding="ascii")
        report = convert(src, src, encoding="ascii")
        assert report.points_written == 40
        assert src.read_bytes() == fresh.read_bytes()

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RangeError):
            write_cloud(self._unwritable_las_cloud(), tmp_path / "o.las")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_destination(self, tmp_path):
        out = tmp_path / "o.las"
        out.write_bytes(b"previous contents")
        with pytest.raises(RangeError):
            write_cloud(self._unwritable_las_cloud(), out)
        assert out.read_bytes() == b"previous contents"
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_convert_keeps_existing_destination(self, tmp_path):
        src = tmp_path / "in.ply"
        write_cloud(self._unwritable_las_cloud(), src)
        out = tmp_path / "o.las"
        out.write_bytes(b"previous contents")
        with pytest.raises(RangeError):
            convert(src, out)
        assert out.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ply",
                                                              "o.las"]

    def test_failed_fragment_leaves_no_file(self, tmp_path):
        cloud = self._unwritable_las_cloud()
        result = SplitResult(fragments=[Fragment("far", cloud,
                                                 np.arange(2))])
        with pytest.raises(RangeError):
            write_fragments(result, tmp_path / "frags", "las")
        assert list((tmp_path / "frags").iterdir()) == []

    def test_missing_directory_names_the_destination(self, tmp_path, rng):
        out = tmp_path / "absent" / "o.ply"
        with pytest.raises(FileNotFoundError) as info:
            write_cloud(random_cloud(rng, 3), out)
        assert info.value.filename == str(out)

    def test_permissions_match_plain_open(self, tmp_path, rng):
        plain = tmp_path / "plain.bin"
        open(plain, "wb").close()
        out = tmp_path / "o.ply"
        write_cloud(random_cloud(rng, 3), out)
        assert (stat.S_IMODE(out.stat().st_mode)
                == stat.S_IMODE(plain.stat().st_mode))
        os.chmod(out, 0o640)
        write_cloud(random_cloud(rng, 3), out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640


def _valid_sources() -> dict[str, tuple[bytes, bytes]]:
    """name -> (header, payload) of files pcedit writes, for mutation."""
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 4, normals=True)
    sources = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, encoding in (("a.ply", "ascii"),
                               ("b.ply", "binary_little_endian"),
                               ("a.pcd", "ascii"),
                               ("b.pcd", "binary_little_endian"),
                               ("a.pts", None)):
            path = Path(tmp) / name
            write_cloud(cloud, path, encoding=encoding)
            data = path.read_bytes()
            end = {"ply": data.find(b"end_header\n") + len(b"end_header\n"),
                   "pcd": data.find(b"\n", data.find(b"DATA")) + 1,
                   "pts": data.find(b"\n") + 1}[name[-3:]]
            sources[name] = data[:end], data[end:]
    return sources


_SOURCES = _valid_sources()


@st.composite
def mutated_files(draw):
    """A valid header with one to three token or line mutations."""
    name = draw(st.sampled_from(sorted(_SOURCES)))
    header, payload = _SOURCES[name]
    lines = header.decode("ascii").split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        op = draw(st.sampled_from(["drop", "duplicate", "number",
                                   "truncate"]))
        j = draw(st.integers(0, len(tokens) - 1))
        if op == "truncate":
            tokens = tokens[:j]
        elif op == "drop":
            del tokens[j]
        elif op == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] = draw(st.sampled_from(
                ["-5", "-1", "0", "1", "2.5", "1e3", "x", "99999"]))
        lines[at] = " ".join(tokens)
    return name, ("\n".join(lines) + "\n").encode("ascii") + payload


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          max_examples=300)
@given(case=mutated_files())
def test_mutated_headers_raise_only_cloud_errors(tmp_path, case):
    name, data = case
    path = tmp_path / name
    path.write_bytes(data)
    try:
        read_cloud(path)
    except (CloudError, OSError):
        pass


#: (file name, encoding) of every format pcedit writes, for the byte fuzz
_FUZZ_SOURCES = [("a.ply", "ascii"), ("b.ply", "binary_little_endian"),
                 ("a.pcd", "ascii"), ("b.pcd", "binary_little_endian"),
                 ("c.las", None), ("d.pts", None), ("e.xyzrgb", None),
                 ("f.xyz", None), ("g.xyzn", None)]

#: values written over 1, 2, 4 or 8 bytes: the edges of every width
_FUZZ_VALUES = [0, 1, 0x7F, 0xFF, 0x7FFF, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF,
                2**63 - 1, 2**64 - 1]


def _mutate(data: bytes, rng) -> bytes:
    """One to three seeded byte mutations, weighted to the first 400 bytes,
    where every format keeps its header."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(0, min(len(data), 400) if rng.random() < 0.7
                              else len(data)))
        op = rng.integers(0, 6)
        if op == 0:                                   # one random byte
            data[at] = rng.integers(0, 256)
        elif op == 1:                                 # an integer field edge
            width = int(rng.choice([1, 2, 4, 8]))
            value = int(rng.choice(_FUZZ_VALUES)) % 256**width
            data[at:at + width] = value.to_bytes(width, "little")
        elif op == 2:                                 # the file ends early
            del data[at:]
        elif op == 3:                                 # bytes go missing
            del data[at:at + int(rng.integers(1, 9))]
        elif op == 4:                                 # bytes appear
            data[at:at] = rng.integers(0, 256, rng.integers(1, 9),
                                       dtype=np.uint8).tobytes()
        else:                                         # a number in the text
            token = rng.choice([b"-1", b"0", b"1e9", b"4294967297", b"nan",
                                b"-inf", b"99999999999999999999", b"x"])
            data[at:at + int(rng.integers(1, 4))] = token
        if not data:
            break
    return bytes(data)


def test_byte_mutations_raise_only_cloud_errors(tmp_path):
    """A seeded byte fuzz over every writable format: whatever the bytes,
    ``read_cloud`` and ``convert`` either work or raise a ``CloudError``
    or an ``OSError``, never a raw exception or a huge allocation."""
    rng = np.random.default_rng(16)
    cloud = random_cloud(rng, 6, normals=True)
    sources = {}
    for name, encoding in _FUZZ_SOURCES:
        write_cloud(cloud, tmp_path / name, encoding=encoding)
        sources[name] = (tmp_path / name).read_bytes()
    outputs = ["out.ply", "out.pcd", "out.las", "out.xyzrgb"]
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN is read as is
        for round_ in range(300):
            for name, data in sources.items():
                mutated = _mutate(data, rng)
                path = tmp_path / f"m{name}"
                path.write_bytes(mutated)
                for step in ("read_cloud", "convert"):
                    try:
                        if step == "read_cloud":
                            read_cloud(path)
                        else:
                            convert(path, tmp_path / outputs[round_ % 4])
                    except (CloudError, OSError):
                        pass
                    except Exception as exc:
                        pytest.fail(f"{step} of {name} mutated in round "
                                    f"{round_} raised {exc!r}; bytes: "
                                    f"{mutated[:120]!r}")
                cases += 1
    assert cases == 300 * len(_FUZZ_SOURCES)


#: LAS header fields for the structured fuzz: (byte, struct format, edge
#: values); None stands for the file's size and one byte past it
_LAS_FIELDS = [
    (24, "BB", [(1, 0), (1, 2), (1, 3), (1, 4), (1, 255), (2, 0)]),
    (94, "<H", [0, 226, 227, 228, 254, 255, 375, 65535, None]),
    (96, "<I", [0, 100, 226, 227, 228, 255, 375, 2**32 - 1, None]),
    (104, "B", [0, 1, 2, 3, 4, 6, 0x3F, 0x40, 0x80, 0x82, 0xFF]),
    (105, "<H", [0, 19, 20, 25, 26, 27, 34, 65535]),
    (107, "<I", [0, 1, 2, 3, 4, 2**31, 2**32 - 1]),
]


def test_las_header_fields_raise_only_cloud_errors(tmp_path, monkeypatch):
    """A seeded fuzz of the LAS header fields that size and place the
    points, over 0-, 1- and 3-point .las and .laz files: whatever their
    values, ``read_cloud`` works or raises a ``CloudError`` or an
    ``OSError``, and no point is read from inside the header."""
    monkeypatch.setitem(sys.modules, "laspy", None)  # no codec, anywhere
    rng = np.random.default_rng(20)
    sources = {}
    for points in (0, 1, 3):
        path = tmp_path / "s.las"
        write_cloud(random_cloud(rng, points), path)
        sources[f"{points}.las"] = path.read_bytes()
        data = bytearray(sources[f"{points}.las"])
        data[104] |= 0x80
        sources[f"{points}.laz"] = bytes(data)
    escapes, inside = [], []
    for case in range(500):
        for name, data in sources.items():
            data = bytearray(data)
            picks = rng.choice(len(_LAS_FIELDS), rng.integers(1, 4),
                               replace=False)
            for pick in picks:
                byte, fmt, values = _LAS_FIELDS[pick]
                value = values[rng.integers(len(values))]
                if value is None:
                    value = len(data) + int(rng.integers(2))
                struct.pack_into(fmt, data, byte,
                                 *(value if fmt == "BB" else (value,)))
            if rng.random() < 0.2:
                del data[int(rng.integers(len(data) + 1)):]
            path = tmp_path / f"m{name}"
            path.write_bytes(bytes(data))
            try:
                read_cloud(path)
            except (CloudError, OSError):
                continue
            except Exception as exc:
                escapes.append(f"case {case} of {name}: {exc!r}")
                continue
            header_size, offset = struct.unpack_from("<HI", data, 94)
            if offset < header_size:
                inside.append(f"case {case} of {name}: points at byte "
                              f"{offset} of a {header_size}-byte header")
    assert escapes == [] and inside == [], (len(escapes), len(inside),
                                             (escapes + inside)[:5])
