"""Fixed-layout point records: the one writer and the one record reader.

Every native writer is a header followed by the encoded buffers of each
``PointCloud`` chunk (``FileWriter``).  PLY, PCD, pts and the xyz family
describe their rows as groups of fields (``Fields``), so one encoder turns
a chunk into either packed little-endian records or text rows in their
printf formats (``rows_to_text``).  On the read side, the binary readers
(PLY, PCD, LAS) pull records with one ``np.fromfile`` loop that reports
where a short file ends, and PLY/PCD read either encoding through
``record_columns``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..cloud import PointCloud, check_chunk_size
from ..errors import ParseError
from ._ascii import FORMAT_ROWS, TableChunks, rows_to_text
from ._base import ASCII, ASCII_DECIMALS, FormatDescriptor

_TRIPLE_FMT = " ".join([f"%.{ASCII_DECIMALS}f"] * 3)


class Fields(NamedTuple):
    """Record fields filled from one (k, len(names)) block of a chunk."""

    names: tuple[str, ...]
    dtype: str                            # numpy type of each binary field
    fmt: str                              # printf format of the whole group
    block: Callable[[PointCloud], np.ndarray]


POSITIONS = Fields(("x", "y", "z"), "<f8", _TRIPLE_FMT,
                   lambda cloud: cloud.positions)
NORMALS = Fields(("nx", "ny", "nz"), "<f8", _TRIPLE_FMT,
                 lambda cloud: cloud.normals)
COLORS = Fields(("red", "green", "blue"), "u1", "%d %d %d",
                lambda cloud: cloud.colors)


def record_fields(descriptor: FormatDescriptor, normals: Fields = NORMALS,
                  colors: Fields = COLORS) -> list[Fields]:
    """Positions, then normals and colors when the descriptor carries them."""
    groups = [POSITIONS]
    if descriptor.has_normals:
        groups.append(normals)
    if descriptor.has_color:
        groups.append(colors)
    return groups


def record_encoder(encoding: str, groups: list[Fields]
                   ) -> Callable[[PointCloud], Iterable]:
    """chunk -> text rows, ``FORMAT_ROWS`` rows per buffer, or one
    structured array of binary records."""
    if encoding == ASCII:
        fmt = " ".join(group.fmt for group in groups)

        def encode_text(chunk: PointCloud) -> Iterator[bytes]:
            blocks = [group.block(chunk) for group in groups]
            for lo in range(0, chunk.count, FORMAT_ROWS):
                # one part's float64 matrix at a time, not the chunk's
                yield rows_to_text(np.hstack(
                    [block[lo:lo + FORMAT_ROWS] for block in blocks]), fmt)

        return encode_text
    dtype = np.dtype([(name, group.dtype) for group in groups
                      for name in group.names])

    def encode(chunk: PointCloud) -> list[np.ndarray]:
        records = np.empty(chunk.count, dtype=dtype)
        for group in groups:
            block = group.block(chunk)
            for i, name in enumerate(group.names):
                records[name] = block[:, i]
        return [records]

    return encode


class FileWriter:
    """Header bytes, then each buffer ``encode(chunk)`` gives; ``close``
    returns the number of bytes written.  A buffer is written as it is made
    and from its own memory, so text goes out part by part and binary
    records are not copied into a ``bytes`` first."""

    def __init__(self, path, descriptor: FormatDescriptor, header: bytes,
                 encode: Callable[[PointCloud], Iterable]):
        self.path = Path(path)
        self.descriptor = descriptor
        self._encode = encode
        self._fh = open(self.path, "wb")
        self._fh.write(header)
        self._bytes = len(header)

    def write(self, chunk: PointCloud):
        for data in self._encode(chunk):
            data = memoryview(data)
            self._fh.write(data)
            self._bytes += data.nbytes
            del data  # not alive while the next part is made

    def close(self) -> int:
        self._fh.close()
        return self._bytes


def read_records(path, dtype: np.dtype, offset: int, count: int,
                 chunk_size: int,
                 noun: str = "points") -> Iterator[np.ndarray]:
    """Structured arrays of at most ``chunk_size`` records from byte
    ``offset``; a file that ends early fails at the byte where data stops.

    numpy allocates all the records it is asked for before it reads any,
    so no read asks for more than the rest of the file holds: a header
    count no file backs fails as a short file, not as a huge allocation."""
    check_chunk_size(chunk_size)
    done = 0
    with open(path, "rb") as fh:
        fh.seek(offset)
        size = os.fstat(fh.fileno()).st_size
        while done < count:
            want = min(count - done, chunk_size)
            held = max(0, size - fh.tell()) // dtype.itemsize
            records = np.fromfile(fh, dtype=dtype, count=min(want, held))
            done += records.shape[0]
            if records.shape[0] < want:
                raise ParseError(
                    f"unexpected end of data: {done} of {count} {noun}",
                    path=path, offset=offset + done * dtype.itemsize)
            yield records
            del records  # the caller's chunk goes before the next is read


#: the most bytes a header line may take, its line end included
HEADER_LINE_BYTES = 4096


def read_header_lines(path, is_last: Callable[[str], bool], max_lines: int,
                      missing: str) -> tuple[list[str], bytes]:
    """The stripped lines of a text header, up to the one ``is_last``
    accepts, and the bytes they take.  Each line must end within
    ``HEADER_LINE_BYTES``, so a file whose lines end in a lone ``\\r`` is
    not read whole; a file that ends first fails with ``missing``."""
    lines: list[str] = []
    header = b""
    with open(path, "rb") as fh:
        while True:
            raw = fh.readline(HEADER_LINE_BYTES + 1)
            if not raw:
                raise ParseError(missing, path=path, line=len(lines) + 1)
            if len(raw) > HEADER_LINE_BYTES:
                raise ParseError(f"header line is longer than "
                                 f"{HEADER_LINE_BYTES} bytes", path=path,
                                 line=len(lines) + 1)
            header += raw
            lines.append(raw.decode("ascii", errors="replace").strip())
            if is_last(lines[-1]):
                return lines, header
            if len(lines) > max_lines:
                raise ParseError("header too large", path=path,
                                 line=max_lines)


@dataclass
class RecordLayout:
    """A PLY/PCD data section as its header declares it.

    ``fields`` holds (name, numpy type code, values per record) in file
    order.  A name may repeat; lookups use its first occurrence.  ``header``
    is the bytes the header parser consumed; the data starts after them.
    """

    encoding: str
    count: int
    fields: list[tuple[str, str, int]]
    header: bytes

    def first(self, name: str) -> int | None:
        for i, (field, _, _) in enumerate(self.fields):
            if field == name:
                return i
        return None

    def code(self, name: str) -> str:
        return self.fields[self.first(name)][1]

    def column(self, name: str) -> int:
        """The ASCII column where the first field called ``name`` starts."""
        return sum(n for _, _, n in self.fields[:self.first(name)])


def record_columns(path, layout: RecordLayout, chunk_size: int,
                   declared: str, noun: str,
                   decode: Callable[[Callable, np.ndarray | None], PointCloud]
                   ) -> Iterator[PointCloud]:
    """``decode(block, lines)`` for each chunk of a PLY/PCD data section.

    ``block(names)`` stacks those fields into a (k, len(names)) array, read
    from the parsed text columns or straight from the binary record fields
    in their stored type.  ``lines`` holds the text rows' line numbers; it
    is None for binary data.  No parsed text values are held while the
    caller has the decoded chunk.
    """
    if layout.encoding == ASCII:
        table = TableChunks(path, sum(n for _, _, n in layout.fields),
                            header=layout.header,
                            max_rows=layout.count, declared=declared,
                            chunk_size=chunk_size)
        return starmap(lambda values, lines: decode(
            lambda names: values[:, [layout.column(name) for name in names]],
            lines), table)
    dtype = np.dtype([(f"f{i}", f"<{code}", (n,) if n > 1 else ())
                      for i, (_, code, n) in enumerate(layout.fields)])
    return map(lambda records: decode(lambda names: np.column_stack(
        [records[f"f{layout.first(name)}"] for name in names]), None),
        read_records(path, dtype, len(layout.header), layout.count,
                     chunk_size, noun))
