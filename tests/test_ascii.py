"""The two ASCII primitives: the block reader and the row formatter.

``TableChunks`` parses each block in one call, whatever its line ends,
comments and whitespace; its chunks and errors are compared with a per-line
reference written here.  ``rows_to_text`` is compared byte for byte with
``np.savetxt``.  The last tests count how often ``convert`` scans a text
input.
"""

from __future__ import annotations

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcedit import ParseError, PointCloud, write_cloud
from pcedit.cli import run
from pcedit.formats import _ascii, xyz
from pcedit.formats._ascii import TableChunks, count_data_rows, rows_to_text

GOOD = ["0", "-0", "7", "-12", "3.5", "+.5", "5.", "1e5", "-2.5E-3", "1e+2",
        "nan", "-inf", "inf", "NaN", "Infinity", "123456.789012"]
#: stands for a byte that is not UTF-8; ``tables`` swaps it in as bytes
INVALID = "\ue000"
BAD = ["abc", "1.2.3", "1e", "--1", "0x1f", "1,5", "é", "nan(1)",
       INVALID]
ENDS = ["\n"] * 12 + ["\r\n", "\r"]
#: whitespace to ``str.split`` and ``np.loadtxt``, beyond space and tab
WIDE = ["\x0b", "\x0c", "\xa0", "\x85", "\u3000"]


@st.composite
def numbers(draw):
    pick = draw(st.integers(0, 40))
    if pick == 0:
        return draw(st.sampled_from(BAD))
    if pick < 8:
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if pick < 14:
        return str(draw(st.integers(-10**6, 10**6)))
    return draw(st.sampled_from(GOOD))


@st.composite
def tables(draw):
    """Bytes of a text table and the arguments to read it with."""
    n_columns = draw(st.integers(1, 4))
    header = [draw(st.sampled_from(["ply", "5", "# c", "", "1 2 3"]))
              for _ in range(draw(st.sampled_from([0, 0, 1, 3])))]
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.integers(0, 30))
        if kind == 0:
            lines.append(draw(st.sampled_from(["# comment 1 2",
                                               "# " + INVALID])))
        elif kind == 1:  # no data, or one character that is not ASCII
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t ",
                                               " \u3000 ", *WIDE, "é",
                                               INVALID])))
        else:
            width = n_columns + (draw(st.sampled_from([-1, 1]))
                                 if kind == 2 else 0)
            tokens = [draw(numbers()) for _ in range(max(width, 1))]
            line = "".join(tok + draw(st.sampled_from([" ", " ", "\t", "  ",
                                                       *WIDE]))
                           for tok in tokens).rstrip()
            if draw(st.integers(0, 8)) == 0:
                line = draw(st.sampled_from([" ", "\t", *WIDE])) + line + " "
            if draw(st.integers(0, 15)) == 0:
                line += " # inline"
            lines.append(line)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for line in header)
    text += "".join(line + draw(st.sampled_from(ENDS)) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    rows = sum(1 for line in lines if line.split("#")[0].strip())
    max_rows = draw(st.one_of(st.none(), st.integers(0, rows + 2)))
    return dict(data=text.encode("utf-8").replace(INVALID.encode("utf-8"),
                                                  b"\xff"),
                n_columns=n_columns,
                skip=len(header), max_rows=max_rows,
                forbid=draw(st.booleans()),
                chunk_size=draw(st.sampled_from([1, 2, 3, 5, 1000])),
                block_bytes=draw(st.integers(8, 64)))


def reference(data: bytes, n_columns: int, skip: int, max_rows, forbid: bool,
              chunk_size: int, path) -> tuple[list, str | None, int, int]:
    """(chunks, error message, rows read, last line number), reading one
    physical line at a time and parsing each token with ``float``.  Rows
    are scanned up to the first failure; the good rows before it form the
    chunks.  ``float`` and ``np.loadtxt`` agree on every generated token;
    ``1_0``, where they differ, has its own test."""
    text = data.decode("utf-8", errors="replace")
    physical = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if physical[-1] == "":
        physical.pop()
    good: list = []
    error = None
    line_no = min(skip, len(physical))
    for index in range(skip, len(physical)):
        line_no = index + 1
        tokens = physical[index].split("#", 1)[0].split()
        if not tokens:
            continue
        if max_rows is not None and len(good) >= max_rows:
            if forbid:
                error = (f"expected {max_rows} data rows, found extra data",
                         line_no)
            break
        if len(tokens) != n_columns:
            error = (f"expected {n_columns} columns, found {len(tokens)}",
                     line_no)
            break
        try:
            good.append(([float(tok) for tok in tokens], line_no))
        except ValueError:
            bad = next(tok for tok in tokens if not is_float(tok))
            error = (f"invalid number {bad!r}", line_no)
            break
    else:
        if max_rows is not None and len(good) < max_rows:
            error = (f"declared {max_rows} but file ends after {len(good)}",
                     line_no + 1)
    chunks = [(np.array([row for row, _ in good[lo:lo + chunk_size]]),
               np.array([line for _, line in good[lo:lo + chunk_size]]))
              for lo in range(0, len(good), chunk_size)]
    message = None if error is None else \
        f"{path}: line {error[1]}: {error[0]}"
    return chunks, message, len(good), line_no


def is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal, NaN for NaN, and with the same sign on every zero."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestTableChunks:
    @settings(max_examples=400)
    @given(case=tables())
    def test_matches_per_line_reference(self, tmp_path_factory, case):
        path = tmp_path_factory.getbasetemp() / "table.txt"
        path.write_bytes(case["data"])
        expected, message, rows, line_no = reference(
            case["data"], case["n_columns"], case["skip"], case["max_rows"],
            case["forbid"], case["chunk_size"], path)
        # the bytes a header parser consumes: the first ``skip`` lines,
        # ended as text mode ends them (the whole file if it has fewer)
        ends = [0] + [m.end() for m in re.finditer(rb"\r\n|\r|\n",
                                                   case["data"])]
        header = case["data"][:ends[case["skip"]]] \
            if case["skip"] < len(ends) else case["data"]
        body = tmp_path_factory.getbasetemp() / "body.txt"
        body.write_bytes(case["data"][len(header):])
        table = TableChunks(path, case["n_columns"], header=header,
                            max_rows=case["max_rows"],
                            declared=f"declared {case['max_rows']}",
                            forbid_extra_rows=case["forbid"],
                            chunk_size=case["chunk_size"])
        got = []
        error = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_ascii, "BLOCK_BYTES", case["block_bytes"])
            try:
                for values, lines in table:
                    got.append((values.copy(), lines.copy()))
            except ParseError as exc:
                error = str(exc)
            counted = count_data_rows(body)
        assert error == message
        assert len(got) == len(expected)
        for (values, lines), (want_values, want_lines) in zip(got, expected):
            assert same_values(values, want_values)
            assert values.dtype == np.float64 and lines.dtype == np.int64
            assert lines.tolist() == want_lines.tolist()
        if message is None:
            assert (table.rows_read, table.line_no) == (rows, line_no)
        text = case["data"].decode("utf-8", errors="replace")
        physical = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert counted == sum(1 for line in physical[case["skip"]:]
                              if line.split("#", 1)[0].strip())

    def test_plain_rows_share_a_chunk_with_a_commented_block(self, tmp_path,
                                                             monkeypatch):
        """A chunk fed by a block of number rows and a block with a
        comment: the good rows come out, then the first row ``np.loadtxt``
        rejects is named with its token, whatever the chunk size."""
        monkeypatch.setattr(_ascii, "BLOCK_BYTES", 16)
        path = tmp_path / "mixed.xyz"
        path.write_text("1 2 3\n4 5 6\n7 8 9\n"   # one block: lines 1-3
                        "# note\n1_0 2 3\n")       # the next: lines 4-5
        for chunk_size in (10, 2):
            lines = []
            # float() takes "1_0", loadtxt does not
            with pytest.raises(ParseError,
                               match="line 5: invalid number '1_0'"):
                for _, numbers in TableChunks(path, 3, chunk_size=chunk_size):
                    lines += numbers.tolist()
            assert lines == [1, 2, 3]

    def test_lone_cr_file_is_cut_into_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_ascii, "BLOCK_BYTES", 16)
        path = tmp_path / "cr.xyz"
        path.write_bytes(b"".join(b"%d 0 0\r" % i for i in range(40)))
        with open(path, "rb") as fh:
            blocks = list(_ascii._blocks(fh))
        assert len(blocks) > 10
        assert max(map(len, blocks)) <= 2 * 16
        chunks = list(TableChunks(path, 3, chunk_size=7))
        assert np.concatenate([v for v, _ in chunks])[:, 0].tolist() == \
            list(range(40))
        assert np.concatenate([n for _, n in chunks]).tolist() == \
            list(range(1, 41))

    @pytest.mark.parametrize("block_bytes", range(4, 12))
    def test_crlf_split_across_blocks_keeps_line_numbers(
            self, tmp_path, monkeypatch, block_bytes):
        """Reads that end between a CR and its LF: no line number moves."""
        monkeypatch.setattr(_ascii, "BLOCK_BYTES", block_bytes)
        path = tmp_path / "crlf.xyz"
        path.write_bytes(b"1 2 3\r\n\r\n4 5 6\r\n# c\r\n7 8 9\r\n1 2\r\n")
        with open(path, "rb") as fh:
            assert not any(block.startswith(b"\n")
                           for block in _ascii._blocks(fh))
        lines = []
        with pytest.raises(ParseError, match="line 6: expected 3 columns"):
            for _, numbers in TableChunks(path, 3, chunk_size=2):
                lines += numbers.tolist()
        assert lines == [1, 3, 5]

    def test_large_plain_file_crosses_blocks(self, tmp_path, monkeypatch,
                                             rng):
        monkeypatch.setattr(_ascii, "BLOCK_BYTES", 4096)
        matrix = rng.uniform(-1e3, 1e3, (5000, 3))
        path = tmp_path / "big.xyz"
        np.savetxt(path, matrix, fmt="%.6f")
        chunks = list(TableChunks(path, 3, chunk_size=777))
        assert [len(v) for v, _ in chunks] == [777] * 6 + [338]
        values = np.concatenate([v for v, _ in chunks])
        lines = np.concatenate([n for _, n in chunks])
        assert np.array_equal(values, np.round(matrix, 6))
        assert np.array_equal(lines, np.arange(1, 5001))
        assert count_data_rows(path) == 5000


HALFWAY = st.integers(-10**7, 10**7).flatmap(
    lambda k: st.sampled_from([k * 1e-6 + 5e-7, k * 1e-6 - 5e-7]))
SPECIAL = st.sampled_from([2.5e-7, -2.5e-7, 0.0, -0.0, -1e-7, 1e-7, 5e-7,
                           1e15, -1e15, 1e300, 0.1, 1234567.0000005,
                           np.nan, np.inf, -np.inf])
FLOATS = st.one_of(HALFWAY, SPECIAL, st.floats(width=64))
FORMATS = ["%.6f %.6f %.6f %d %d %d", "%.6f %.6f %.6f 0 %d %d %d",
           "%.6f %.6f %.6f %.6f %.6f %.6f", "%.6f %.6f %.6f"]


def savetxt_bytes(matrix: np.ndarray, fmt: str) -> bytes:
    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt=fmt, newline="\n")
    return buf.getvalue().encode("ascii")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRowsToText:
    @settings(max_examples=300)
    @given(data=st.data(), fmt=st.sampled_from(FORMATS),
           rows=st.integers(0, 12), slice_rows=st.integers(1, 5))
    def test_matches_savetxt(self, data, fmt, rows, slice_rows):
        positions = np.array(data.draw(st.lists(
            st.tuples(FLOATS, FLOATS, FLOATS), min_size=rows,
            max_size=rows)), dtype=np.float64).reshape(rows, 3)
        extra = fmt.count("%") - 3
        if "%d" in fmt:
            block = np.array(data.draw(st.lists(
                st.integers(0, 255), min_size=rows * extra,
                max_size=rows * extra)), dtype=np.uint8).reshape(rows, extra)
        else:
            block = np.array(data.draw(st.lists(
                FLOATS, min_size=rows * extra, max_size=rows * extra)),
                dtype=np.float64).reshape(rows, extra)
        matrix = np.hstack([positions, block])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_ascii, "FORMAT_ROWS", slice_rows)
            assert rows_to_text(matrix, fmt) == savetxt_bytes(matrix, fmt)

    def test_known_strings(self):
        matrix = np.array([[-1e-7, 2.5e-7, -0.0, 255, 0, 7]])
        assert rows_to_text(matrix, FORMATS[0]) == \
            b"-0.000000 0.000000 -0.000000 255 0 7\n"

    def test_more_rows_than_one_slice(self, rng):
        positions = rng.uniform(-1e4, 1e4, (_ascii.FORMAT_ROWS * 2 + 5, 3))
        colors = rng.integers(0, 256, positions.shape).astype(np.uint8)
        matrix = np.hstack([positions, colors])
        assert rows_to_text(matrix, FORMATS[0]) == \
            savetxt_bytes(matrix, FORMATS[0])


def float_rows(values: list, width: int) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(-1, width)


def ulps_from(value: float, steps: int) -> float:
    """``value`` moved ``steps`` float64 neighbours up (down if < 0)."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, toward))
    return value


#: any float64, drawn as its 64 bits: NaNs with payloads, subnormals, ±0
BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
#: UTM-sized coordinates with fractions
UTM = st.builds(lambda whole, micro, sign: sign * (whole + micro / 1e6),
                st.integers(10 ** 5, 10 ** 7), st.integers(0, 10 ** 6),
                st.sampled_from([1, -1])) | st.floats(-1e7, 1e7)
#: within a few ulps of a rounding boundary k·1e-6 ± 5e-7
NEAR_HALF = st.builds(lambda k, half, steps: ulps_from(k * 1e-6 + half,
                                                       steps),
                      st.integers(-10 ** 13, 10 ** 13),
                      st.sampled_from([5e-7, -5e-7]), st.integers(-4, 4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFormatterProperties:
    """``rows_to_text`` against ``np.savetxt`` (``%`` on each row) where a
    numpy formatter is most likely to go wrong; a numpy warning fails."""

    @settings(max_examples=400)
    @given(values=st.lists(BIT_PATTERNS, min_size=3, max_size=60)
           .map(lambda v: v[:len(v) // 3 * 3]))
    def test_any_bit_pattern(self, values):
        matrix = float_rows(values, 3)
        assert rows_to_text(matrix, FORMATS[3]) == \
            savetxt_bytes(matrix, FORMATS[3])

    @settings(max_examples=200)
    @given(values=st.lists(UTM | NEAR_HALF, min_size=3, max_size=60)
           .map(lambda v: v[:len(v) // 3 * 3]))
    def test_utm_and_near_half(self, values):
        matrix = float_rows(values, 3)
        assert rows_to_text(matrix, FORMATS[3]) == \
            savetxt_bytes(matrix, FORMATS[3])

    @settings(max_examples=200)
    @given(rows=st.lists(st.tuples(UTM, NEAR_HALF, BIT_PATTERNS,
                                   st.integers(0, 2 ** 24 - 1)),
                         min_size=1, max_size=40))
    def test_pcd_packed_rgb(self, rows):
        fmt = "%.6f %.6f %.6f %u"
        positions = float_rows([row[:3] for row in rows], 3)
        rgb = np.array([row[3] for row in rows], np.uint32)[:, None]
        matrix = np.hstack([positions, rgb])  # as the PCD encoder stacks it
        assert rows_to_text(matrix, fmt) == savetxt_bytes(matrix, fmt)

    @settings(max_examples=200)
    @given(values=st.lists(st.floats(-2.0 ** 60, 2.0 ** 60), min_size=2,
                           max_size=40).map(lambda v: v[:len(v) // 2 * 2]))
    def test_integer_conversions_truncate(self, values):
        matrix = float_rows(values, 2)
        assert rows_to_text(matrix, "%d %u") == savetxt_bytes(matrix,
                                                              "%d %u")

    @pytest.mark.parametrize("value, text", [
        (0.0078125, b"0.007812"), (0.0234375, b"0.023438"),
        (-0.0078125, b"-0.007812"), (0.0000005, b"0.000000"),
        (0.0000015, b"0.000002"), (2.5, b"2.500000"),
        (-0.0, b"-0.000000"), (-1e-7, b"-0.000000"),
        (8589934592.5, b"8589934592.500000"),
        (1e22, b"10000000000000000000000.000000"),
        (np.nan, b"nan"), (-np.inf, b"-inf")])
    def test_pinned_strings(self, value, text):
        assert rows_to_text(np.array([[value]]), "%.6f") == text + b"\n"

    @pytest.mark.parametrize("fmt", ["%.3f %.6f", "%5d|%.6f", "%.6f%% %d",
                                     "x%.6f\t%u;"])
    def test_other_conversions_and_literals(self, fmt, rng):
        matrix = np.column_stack([rng.uniform(-1e3, 1e3, 50),
                                  rng.integers(-300, 300, 50)])
        # np.savetxt miscounts the conversions of a format with ``%%``
        assert rows_to_text(matrix, fmt) == "".join(
            fmt % tuple(row) + "\n" for row in matrix.tolist()).encode()

    def test_convert_of_unprintable_values_warns_nothing(self, tmp_path):
        positions = np.array([[np.nan, np.inf, -np.inf], [1e300, -1e300, 0.5],
                              [1.0, 2.0, 3.0]])
        source = tmp_path / "in.ply"
        write_cloud(PointCloud(positions), source)
        assert run(["convert", str(source), str(tmp_path / "out.xyz")]) == 0
        assert (tmp_path / "out.xyz").read_bytes() == \
            savetxt_bytes(positions, FORMATS[3])


@pytest.fixture
def scans(monkeypatch):
    """Counts full scans of text inputs: ``TableChunks`` passes and
    ``count_data_rows`` calls."""
    seen = []
    table_iter = _ascii.TableChunks.__iter__
    count_rows = xyz.count_data_rows

    def counted_iter(self):
        seen.append(self.path.name)
        yield from table_iter(self)

    def counted_rows(path, *args, **kwargs):
        seen.append(path.name)
        return count_rows(path, *args, **kwargs)

    monkeypatch.setattr(_ascii.TableChunks, "__iter__", counted_iter)
    monkeypatch.setattr(xyz, "count_data_rows", counted_rows)
    return seen


class TestInputPasses:
    @pytest.fixture
    def cloud(self, rng):
        return PointCloud(rng.uniform(-5, 5, (40, 3)),
                          rng.integers(0, 256, (40, 3)))

    def test_xyzrgb_is_scanned_at_most_twice(self, tmp_path, cloud, scans):
        src = tmp_path / "in.xyzrgb"
        write_cloud(cloud, src)
        assert run(["convert", str(src), str(tmp_path / "out.ply")]) == 0
        assert scans.count("in.xyzrgb") <= 2

    @pytest.mark.parametrize("name, flags", [("in.pts", []),
                                             ("in.ply", ["--encoding",
                                                         "ascii"])])
    def test_headed_text_is_scanned_once(self, tmp_path, cloud, scans, name,
                                         flags):
        src = tmp_path / name
        write_cloud(cloud, tmp_path / "seed.ply")
        assert run(["convert", str(tmp_path / "seed.ply"), str(src),
                    *flags]) == 0
        assert scans == []
        assert run(["convert", str(src), str(tmp_path / "out.pcd")]) == 0
        assert scans == [name]
