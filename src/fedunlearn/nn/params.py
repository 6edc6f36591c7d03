"""Named parameter collections and their binary serialization.

A :class:`ParamSet` is an ordered, immutable collection of named float64
tensors. It represents a full model, a client update (delta between two
models), or a gradient set. Its values live in one contiguous, read-only
float64 vector; each named tensor is a reshaped view of a segment of it.
The layout — the ``(name, shape)`` sequence and the segment of each tensor
— is computed once, when a set is built from tensors or parsed, and shared
by every set derived from it: whole-set arithmetic is one vector expression,
and conformance between related sets is an identity check. All
arithmetic between parameter sets requires the two operands to be
*conformant*: identical names, order, and shapes.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import zlib
from collections.abc import Iterable, Iterator

import numpy as np

MAGIC = b"FESP"
FORMAT_VERSION = 1


class ConformanceError(ValueError):
    """Two parameter sets do not share names, order, and shapes."""


class _Layout:
    """A ``(name, shape)`` sequence and the vector segments derived from it."""

    __slots__ = ("shapes", "names", "index", "spans", "size", "_headers")

    def __init__(self, shapes: tuple[tuple[str, tuple[int, ...]], ...]):
        names = tuple(name for name, _ in shapes)
        if len(set(names)) != len(names):
            raise ValueError("duplicate tensor names in parameter set")
        spans = []
        offset = 0
        for _, shape in shapes:
            end = offset + math.prod(shape)
            spans.append((offset, end, shape))
            offset = end
        self.shapes = shapes
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.spans = tuple(spans)
        self.size = offset
        self._headers = None

    def non_finite_tensor(self, vector: np.ndarray) -> str | None:
        # One BLAS reduction settles almost every call: a NaN or an infinity
        # makes the sum of squares non-finite, and finite values make it so
        # only by overflow (|v| above about 1e154), which the scan settles.
        # np.vdot, unlike ndarray.dot, warns of no overflow.
        if math.isfinite(np.vdot(vector, vector)) or np.isfinite(vector).all():
            return None
        return next(name for name, (start, end, _) in zip(self.names, self.spans)
                    if not np.isfinite(vector[start:end]).all())

    def headers(self) -> tuple[bytes, ...]:
        """The serialized header bytes: first the magic, version and tensor
        count, then each tensor's name length, name, rank and dims, which
        precede its data. Built once per layout."""
        if self._headers is None:
            headers = [MAGIC + struct.pack("<II", FORMAT_VERSION, len(self.shapes))]
            for name, shape in self.shapes:
                encoded = name.encode("utf-8")
                headers.append(struct.pack(f"<I{len(encoded)}sI{len(shape)}I", len(encoded),
                                           encoded, len(shape), *shape))
            self._headers = tuple(headers)
        return self._headers


class ParamSet:
    """Ordered collection of (name, float64 tensor) pairs over one vector.

    Construction copies the given tensors into the set's own C-contiguous
    vector, checks that every value is finite, and marks the vector
    read-only; each tensor is a reshaped read-only view of its segment. So a
    ParamSet is an immutable value that is safe to share across concurrent
    tasks.
    """

    __slots__ = ("_layout", "_vector", "_tensors")

    def __init__(self, items: Iterable[tuple[str, np.ndarray]]):
        names: list[str] = []
        arrays: list[np.ndarray] = []
        for name, raw in items:
            names.append(str(name))
            arrays.append(np.asarray(raw, dtype=np.float64))
        layout = _Layout(tuple((name, arr.shape) for name, arr in zip(names, arrays)))
        vector = np.empty(layout.size)
        for (start, end, shape), arr in zip(layout.spans, arrays):
            vector[start:end].reshape(shape)[...] = arr
        _check_finite(layout, vector)
        vector.flags.writeable = False
        self._layout = layout
        self._vector = vector
        self._tensors = None

    @classmethod
    def _adopt(cls, layout: _Layout, vector: np.ndarray) -> ParamSet:
        """A set over a fresh vector nothing else references (no copy)."""
        _check_finite(layout, vector)
        vector.flags.writeable = False
        return cls._over(layout, vector)

    @classmethod
    def _over(cls, layout: _Layout, vector: np.ndarray) -> ParamSet:
        ps = object.__new__(cls)
        ps._layout = layout
        ps._vector = vector
        ps._tensors = None
        return ps

    def working_copy(self) -> tuple[np.ndarray, ParamSet]:
        """A writable copy of the vector, and a set that views it read-only.

        For loops that update parameters in place, such as local SGD: the
        caller writes the returned vector, and the returned set, laid out
        like this one, sees every write. Unlike every other set, it is not
        checked for finiteness; the caller checks it with
        :meth:`non_finite_tensor` once it is done writing.
        """
        vector = self._vector.copy()
        view = vector.view()
        view.flags.writeable = False
        return vector, ParamSet._over(self._layout, view)

    @property
    def vector(self) -> np.ndarray:
        """All values, tensor after tensor, as one read-only vector."""
        return self._vector

    @property
    def names(self) -> tuple[str, ...]:
        return self._layout.names

    @property
    def tensors(self) -> tuple[np.ndarray, ...]:
        tensors = self._tensors
        if tensors is None:
            vector = self._vector
            tensors = self._tensors = tuple(
                vector[start:end].reshape(shape) for start, end, shape in self._layout.spans
            )
        return tensors

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self._layout.names, self.tensors))

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return self.items()

    def __len__(self) -> int:
        return len(self._layout.names)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[self._layout.index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._layout.index

    def __eq__(self, other: object) -> bool:
        """Bit-exact equality: same names, shapes, and payload bytes."""
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.conforms_to(other) and self._vector.tobytes() == other._vector.tobytes()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{t.shape}" for n, t in self.items())
        return f"ParamSet({inner})"

    @property
    def num_params(self) -> int:
        return self._vector.size

    def shapes(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return self._layout.shapes

    def conforms_to(self, other: ParamSet) -> bool:
        return self._layout is other._layout or self._layout.shapes == other._layout.shapes

    def non_finite_tensor(self) -> str | None:
        """Name of the first tensor holding a NaN or an infinity, if any."""
        return self._layout.non_finite_tensor(self._vector)

    def sq_norms(self) -> np.ndarray:
        """Each tensor's sum of squares, one BLAS dot per tensor. Its square
        root equals ``np.linalg.norm`` of the tensor bit for bit, since that
        is how NumPy computes the norm of a contiguous array."""
        vector = self._vector
        return np.array([vector[start:end].dot(vector[start:end])
                         for start, end, _ in self._layout.spans])


def _check_finite(layout: _Layout, vector: np.ndarray) -> None:
    bad = layout.non_finite_tensor(vector)
    if bad is not None:
        raise ValueError(f"tensor {bad!r} contains non-finite values")


def require_conformant(x: ParamSet, y: ParamSet) -> None:
    require_same_layout(x._layout, y._layout)


def require_same_layout(a: _Layout, b: _Layout) -> None:
    if a is not b and a.shapes != b.shapes:
        raise ConformanceError(f"parameter sets are not conformant: {a.shapes} vs {b.shapes}")


def param_linear(a: float, x: ParamSet, b: float, y: ParamSet) -> ParamSet:
    """Element-wise linear combination a*x + b*y of conformant sets."""
    require_conformant(x, y)
    return ParamSet._adopt(x._layout, float(a) * x._vector + float(b) * y._vector)


def _chunks(layout: _Layout, segments: Iterable[np.ndarray]) -> list:
    """The header bytes, then per tensor its header bytes and a memoryview
    of its flat little-endian float64 segment."""
    file_header, *tensor_headers = layout.headers()
    chunks: list = [file_header]
    for header, segment in zip(tensor_headers, segments):
        chunks += (header, memoryview(segment))
    return chunks


def param_chunks(params: ParamSet) -> list:
    """The bytes of :func:`dump_param_bytes` as chunks, the data not copied:
    each tensor's data is a read-only view of its segment of the set's vector."""
    layout = params._layout
    data = params._vector.astype("<f8", copy=False)
    return _chunks(layout, (data[start:end] for start, end, _ in layout.spans))


def array_chunks(items: Iterable[tuple[str, np.ndarray]]) -> list:
    """The bytes of :func:`dump_param_bytes` for a set of these named arrays,
    as chunks, without building the set: a C-contiguous float64 array is
    not copied; any other is converted to float64 first."""
    names, segments = [], []
    for name, array in items:
        names.append(name)
        segments.append(np.ascontiguousarray(array, dtype="<f8"))
    layout = _Layout(tuple((name, s.shape) for name, s in zip(names, segments)))
    return _chunks(layout, (s.reshape(-1) for s in segments))


def dump_param_bytes(params: ParamSet) -> bytes:
    """Serialize to the binary format shared with the retention store.

    Layout (all integers little-endian u32): magic "FESP", format version,
    tensor count; then per tensor: name length, UTF-8 name, rank, dims,
    and data as little-endian float64. Round-trips bit-exactly.
    """
    return b"".join(param_chunks(params))


class ParamReader:
    """Parses :func:`dump_param_bytes` blobs, keeping the last header read as
    (offset, bytes) chunks around the tensor data, with its blob size, layout
    and data offsets: the blobs of one store share a layout, so a blob of
    that size and those header bytes is read without parsing its header."""

    def __init__(self):
        self._header: tuple = ((), -1, None, ())

    def views(self, buf: bytes | memoryview) -> tuple[_Layout, list[np.ndarray]]:
        """The layout of the blob in `buf`, and each tensor's values as a flat
        little-endian float64 view of `buf`: nothing is copied, and nothing
        is checked but the header."""
        chunks, size, layout, data_offsets = self._header
        if len(buf) != size or any(buf[o : o + len(h)] != h for o, h in chunks):
            self._header = _parse_header(buf)
            _, _, layout, data_offsets = self._header
        return layout, [np.frombuffer(buf, dtype="<f8", count=end - start, offset=data_offset)
                        for (start, end, _), data_offset in zip(layout.spans, data_offsets)]

    def parse(self, buf: bytes | memoryview) -> ParamSet:
        """The blob as a set: its values are copied once, into the set's
        vector, which is checked to be finite."""
        layout, views = self.views(buf)
        vector = np.empty(layout.size)
        for (start, end, _), view in zip(layout.spans, views):
            vector[start:end] = view
        return ParamSet._adopt(layout, vector)


def parse_param_bytes(buf: bytes | memoryview) -> ParamSet:
    """Inverse of :func:`dump_param_bytes`; each tensor's data is copied once,
    straight from the buffer into the set's vector."""
    return ParamReader().parse(buf)


def _parse_header(buf: bytes | memoryview) -> tuple:
    if buf[:4] != MAGIC:
        raise ValueError("bad magic: not a parameter-set blob")
    try:
        version, count = struct.unpack_from("<II", buf, 4)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported parameter-set format version {version}")
        offset = 12
        chunks = [(0, bytes(buf[:offset]))]
        shapes: list[tuple[str, tuple[int, ...]]] = []
        data_offsets: list[int] = []
        for _ in range(count):
            chunk_start = offset
            (name_len,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            name = str(buf[offset : offset + name_len], "utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", buf, offset)
            offset += 4 * rank
            shapes.append((name, dims))
            chunks.append((chunk_start, bytes(buf[chunk_start:offset])))
            data_offsets.append(offset)
            offset += 8 * math.prod(dims)
    except struct.error as exc:
        raise ValueError(f"truncated parameter-set blob: {exc}") from None
    if offset > len(buf):
        raise ValueError("truncated parameter-set blob: tensor data runs past the end")
    if offset != len(buf):
        raise ValueError("trailing bytes after last tensor")
    return tuple(chunks), offset, _Layout(tuple(shapes)), tuple(data_offsets)


def atomic_write(path, *chunks, crc_trailer: bool = False) -> int:
    """Write the chunks (bytes-like objects), one after another, to `path`
    through a temp file and a rename, so a reader sees either the old file
    whole or the new one whole, never a torn one. A failed write removes
    its temp file and leaves `path` as it was. Returns the CRC32 of the
    chunks; with `crc_trailer` it follows them, as 4 little-endian bytes."""
    tmp, crc = f"{path}.tmp", 0
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            if crc_trailer:
                fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return crc


def check_crc(path, crc: int | None, recorded: int | None) -> None:
    """Refuse the file at `path` unless its CRC32 is the one recorded for it."""
    if crc != recorded:
        raise ValueError(f"{path} is not the file its record names: "
                         f"CRC32 {crc or 0:08x}, recorded {recorded or 0:08x}")


def save_params(params: ParamSet, path) -> int:
    """Write the set atomically; return the CRC32 of the file."""
    return atomic_write(path, *param_chunks(params))


def load_params(path, crc: int | None = None) -> ParamSet:
    """Read a set that save_params wrote; with `crc`, only a file of that
    CRC32. The file is mapped, not read into a buffer, so its data is
    copied once, into the set's vector."""
    with open(path, "rb") as fh, _mapped(fh) as data:
        if crc is not None:
            check_crc(path, zlib.crc32(data), crc)
        return parse_param_bytes(data)


@contextlib.contextmanager
def _mapped(fh) -> Iterator[memoryview]:
    """The bytes of the open file, mapped read-only; an empty file cannot
    be mapped. Writers replace whole files, so a mapped file never changes."""
    if os.fstat(fh.fileno()).st_size == 0:
        yield memoryview(b"")
        return
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped, memoryview(mapped) as data:
        yield data
