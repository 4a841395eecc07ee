"""Binary file formats.

Factorization container ("HSSF"):

    magic "HSSF" | version u32 = 1 | L u32 | k u32
    | for level L down to 1: U blocks, V blocks, D blocks
    | root core

DMAT dense-matrix interchange:

    magic "DMAT" | rows u32 | cols u32 | entries

All integers are little-endian u32; all floating-point payloads are raw
row-major little-endian 64-bit floats with no per-block headers (sizes are
derivable from L and k).  Blocks are written in index order.
"""

from __future__ import annotations

import struct

import numpy as np

from .kernels import as_matrix
from .structures import LevelFactors, TelescopingFactorization

__all__ = [
    "BadMagicError",
    "FormatError",
    "TruncatedPayloadError",
    "VersionMismatchError",
    "deserialize",
    "read_dense",
    "serialize",
    "write_dense",
]

HSSF_MAGIC = b"HSSF"
HSSF_VERSION = 1
DMAT_MAGIC = b"DMAT"


class FormatError(ValueError):
    """Malformed binary payload."""


class BadMagicError(FormatError):
    """Payload does not start with the expected magic bytes."""


class VersionMismatchError(FormatError):
    """Payload declares an unsupported container version."""


class TruncatedPayloadError(FormatError):
    """Payload ends before the declared contents are complete."""


def _emit(arr: np.ndarray) -> memoryview:
    """The little-endian float64 buffer of ``arr``: the array's own memory
    where it is C-contiguous little-endian float64, else one copy."""
    return memoryview(np.ascontiguousarray(arr, dtype="<f8"))


def serialize(T: TelescopingFactorization) -> bytes:
    """Encode a telescoping factorization as an HSSF byte string.  The
    arrays' buffers are joined as they are, so the payload is copied once."""
    parts = [HSSF_MAGIC, struct.pack("<III", HSSF_VERSION, T.depth, T.rank_param)]
    for lf in reversed(T.levels):  # level L down to 1
        parts.extend((_emit(lf.U), _emit(lf.V), _emit(lf.D)))
    parts.append(_emit(T.root))
    return b"".join(parts)


class _Reader:
    """The float64 arrays of a payload from byte ``offset`` on, in order, as
    views of one writable copy of its floats: one copy per payload."""

    def __init__(self, data: bytes, offset: int):
        self.size, self.start, self.offset = len(data), offset, offset
        count = (len(data) - offset) // 8
        self.floats = np.frombuffer(data, dtype="<f8", count=count, offset=offset).astype(np.float64)

    def take(self, count: int, shape) -> np.ndarray:
        end = self.offset + 8 * count
        if end > self.size:
            raise TruncatedPayloadError(f"payload ends at byte {self.size}, needed {end}")
        first = (self.offset - self.start) // 8
        self.offset = end
        return self.floats[first : first + count].reshape(shape)


def deserialize(data: bytes) -> TelescopingFactorization:
    """Decode an HSSF byte string produced by :func:`serialize`."""
    if len(data) < 4:
        raise TruncatedPayloadError("payload shorter than the magic header")
    if data[:4] != HSSF_MAGIC:
        raise BadMagicError(f"expected magic {HSSF_MAGIC!r}, got {data[:4]!r}")
    if len(data) < 16:
        raise TruncatedPayloadError("payload shorter than the fixed header")
    version, depth, k = struct.unpack_from("<III", data, 4)
    if version != HSSF_VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    if depth < 1 or k < 1:
        raise FormatError(f"invalid header fields L={depth}, k={k}")
    # Level l holds 2**l blocks of 8k^2 floats, so a payload of len(data)
    # bytes holds fewer than len(data).bit_length() levels.  Checking that
    # first keeps a corrupt L from sizing an enormous payload.
    if depth >= len(data).bit_length():
        raise TruncatedPayloadError(
            f"header declares L={depth}, k={k}: more levels than {len(data)} bytes can hold"
        )
    size = 16 + 8 * ((2 ** (depth + 1) - 2) * 8 * k * k + 4 * k * k)
    if size > len(data):
        raise TruncatedPayloadError(
            f"header declares L={depth}, k={k}: {size} bytes, the payload has {len(data)}"
        )
    if size < len(data):
        raise FormatError(f"{len(data) - size} trailing bytes after the L={depth}, k={k} payload")
    reader = _Reader(data, 16)
    levels = []
    for level in range(depth, 0, -1):
        b = 1 << level
        U = reader.take(b * 2 * k * k, (b, 2 * k, k))
        V = reader.take(b * 2 * k * k, (b, 2 * k, k))
        D = reader.take(b * 2 * k * 2 * k, (b, 2 * k, 2 * k))
        levels.append(LevelFactors(U, V, D))
    root = reader.take(2 * k * 2 * k, (2 * k, 2 * k))
    return TelescopingFactorization(tuple(reversed(levels)), root)


def write_dense(A, path):
    """Write a dense matrix to ``path`` in DMAT format."""
    A = as_matrix(A, "A")
    rows, cols = A.shape
    with open(path, "wb") as fh:
        fh.write(DMAT_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(_emit(A))


def read_dense(path) -> np.ndarray:
    """Read a dense matrix from a DMAT file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != DMAT_MAGIC:
        raise BadMagicError(f"expected magic {DMAT_MAGIC!r}")
    if len(data) < 12:
        raise TruncatedPayloadError("payload shorter than the fixed header")
    rows, cols = struct.unpack_from("<II", data, 4)
    reader = _Reader(data, 12)
    A = reader.take(rows * cols, (rows, cols))
    if reader.offset != len(data):
        raise FormatError(f"{len(data) - reader.offset} trailing bytes after payload")
    return A
