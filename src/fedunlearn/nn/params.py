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

import math
import struct
from collections.abc import Iterable, Iterator

import numpy as np

MAGIC = b"FESP"
FORMAT_VERSION = 1


class ConformanceError(ValueError):
    """Two parameter sets do not share names, order, and shapes."""


class _Layout:
    """A ``(name, shape)`` sequence and the vector segments derived from it."""

    __slots__ = ("shapes", "names", "index", "spans", "size")

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

    def non_finite_tensor(self, vector: np.ndarray) -> str | None:
        if np.isfinite(vector).all():
            return None
        return next(name for name, (start, end, _) in zip(self.names, self.spans)
                    if not np.isfinite(vector[start:end]).all())


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


def _check_finite(layout: _Layout, vector: np.ndarray) -> None:
    bad = layout.non_finite_tensor(vector)
    if bad is not None:
        raise ValueError(f"tensor {bad!r} contains non-finite values")


def require_conformant(x: ParamSet, y: ParamSet) -> None:
    if not x.conforms_to(y):
        raise ConformanceError(
            f"parameter sets are not conformant: {x.shapes()} vs {y.shapes()}"
        )


def param_linear(a: float, x: ParamSet, b: float, y: ParamSet) -> ParamSet:
    """Element-wise linear combination a*x + b*y of conformant sets."""
    require_conformant(x, y)
    return ParamSet._adopt(x._layout, float(a) * x._vector + float(b) * y._vector)


def zeros_like(x: ParamSet) -> ParamSet:
    return ParamSet._adopt(x._layout, np.zeros(x.num_params))


def layer_norms(delta: ParamSet) -> list[tuple[str, float]]:
    """Euclidean norm of each named tensor."""
    return [(name, float(np.linalg.norm(t))) for name, t in delta.items()]


def global_norm(delta: ParamSet) -> float:
    """Euclidean norm of the whole set flattened into one vector."""
    return float(np.sqrt(sum(float(np.sum(t * t)) for t in delta.tensors)))


def dump_param_bytes(params: ParamSet) -> bytes:
    """Serialize to the binary format shared with the retention store.

    Layout (all integers little-endian u32): magic "FESP", format version,
    tensor count; then per tensor: name length, UTF-8 name, rank, dims,
    and data as little-endian float64. Round-trips bit-exactly.
    """
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", FORMAT_VERSION, len(params))
    for name, tensor in params.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", tensor.ndim)
        out += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        out += tensor.astype("<f8", copy=False).tobytes(order="C")
    return bytes(out)


def parse_param_bytes(buf: bytes | memoryview) -> ParamSet:
    """Inverse of :func:`dump_param_bytes`; each tensor's data is copied once,
    straight from the buffer into the set's vector."""
    if buf[:4] != MAGIC:
        raise ValueError("bad magic: not a parameter-set blob")
    try:
        version, count = struct.unpack_from("<II", buf, 4)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported parameter-set format version {version}")
        offset = 12
        shapes: list[tuple[str, tuple[int, ...]]] = []
        data_offsets: list[int] = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            name = str(buf[offset : offset + name_len], "utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", buf, offset)
            offset += 4 * rank
            shapes.append((name, dims))
            data_offsets.append(offset)
            offset += 8 * math.prod(dims)
    except struct.error as exc:
        raise ValueError(f"truncated parameter-set blob: {exc}") from None
    if offset > len(buf):
        raise ValueError("truncated parameter-set blob: tensor data runs past the end")
    if offset != len(buf):
        raise ValueError("trailing bytes after last tensor")
    layout = _Layout(tuple(shapes))
    vector = np.empty(layout.size)
    for (start, end, _), data_offset in zip(layout.spans, data_offsets):
        vector[start:end] = np.frombuffer(buf, dtype="<f8", count=end - start,
                                          offset=data_offset)
    return ParamSet._adopt(layout, vector)


def save_params(params: ParamSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_param_bytes(params))


def load_params(path) -> ParamSet:
    with open(path, "rb") as fh:
        return parse_param_bytes(fh.read())
