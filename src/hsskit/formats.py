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

Loading copies no payload.  :func:`deserialize` checks the header against
the payload's size, then hands the factorization read-only views of the
``bytes`` it was given; :func:`read_dense` checks the header against the
file's size, allocates the matrix once and reads the entries into it.
Writing copies at most once: :func:`serialize` joins the arrays' own
buffers, and :func:`write_hssf` and :func:`write_dense` write them to the
file one after another.
"""

from __future__ import annotations

import math
import os
import stat
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
    "write_hssf",
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


def _hssf_parts(T: TelescopingFactorization) -> list:
    """The HSSF encoding of ``T`` in order: the header, then each array's
    buffer as :func:`_emit` gives it."""
    parts = [HSSF_MAGIC + struct.pack("<III", HSSF_VERSION, T.depth, T.rank_param)]
    for lf in reversed(T.levels):  # level L down to 1
        parts.extend((_emit(lf.U), _emit(lf.V), _emit(lf.D)))
    parts.append(_emit(T.root))
    return parts


def serialize(T: TelescopingFactorization) -> bytes:
    """Encode a telescoping factorization as an HSSF byte string.  The
    arrays' buffers are joined as they are, so the payload is copied once."""
    return b"".join(_hssf_parts(T))


def write_hssf(T: TelescopingFactorization, path):
    """Write ``serialize(T)`` to ``path``, one array buffer after another, so
    the joined byte string is never formed."""
    with open(path, "wb") as fh:
        fh.writelines(_hssf_parts(T))


def deserialize(data: bytes) -> TelescopingFactorization:
    """Decode an HSSF byte string produced by :func:`serialize`.

    After the header and size checks, the factors are read-only views of
    ``data``'s floats, so a ``bytes`` payload is not copied and stays alive
    as long as the factorization does.  Any other buffer, a ``bytearray`` or
    a ``memoryview``, is copied once into ``bytes`` first, so that no
    factorization aliases a buffer that can change under it.
    """
    if not isinstance(data, bytes):
        data = bytes(memoryview(data))
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
    floats, at = np.frombuffer(data, dtype="<f8", offset=16), 0

    def take(*shape) -> np.ndarray:
        nonlocal at
        start, at = at, at + math.prod(shape)
        return floats[start:at].reshape(shape)

    levels = []
    for level in range(depth, 0, -1):
        b = 1 << level
        levels.append(LevelFactors(take(b, 2 * k, k), take(b, 2 * k, k), take(b, 2 * k, 2 * k)))
    return TelescopingFactorization(tuple(reversed(levels)), take(2 * k, 2 * k))


def write_dense(A, path):
    """Write a dense matrix to ``path`` in DMAT format."""
    A = as_matrix(A, "A")
    rows, cols = A.shape
    with open(path, "wb") as fh:
        fh.write(DMAT_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(_emit(A))


def _check_dmat_size(size: int, end: int):
    """Raise unless a DMAT file of ``size`` bytes ends where its header
    says, at byte ``end``."""
    if end > size:
        raise TruncatedPayloadError(f"payload ends at byte {size}, needed {end}")
    if end < size:
        raise FormatError(f"{size - end} trailing bytes after payload")


def read_dense(path) -> np.ndarray:
    """Read a dense matrix from a DMAT file into a writable, C-contiguous
    float64 matrix.  The header is checked against a regular file's size
    before the matrix is allocated once and filled straight from the file.
    A pipe's size is known only once it is read, so a pipe is read whole and
    then checked, and its entries are copied once."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != DMAT_MAGIC:
            raise BadMagicError(f"expected magic {DMAT_MAGIC!r}")
        if len(head) < 12:
            raise TruncatedPayloadError("payload shorter than the fixed header")
        rows, cols = struct.unpack_from("<II", head, 4)
        end = 12 + 8 * rows * cols
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            rest = fh.read()
            _check_dmat_size(12 + len(rest), end)
            return np.frombuffer(rest, dtype="<f8").reshape(rows, cols).astype(np.float64)
        _check_dmat_size(info.st_size, end)
        A = np.empty((rows, cols), dtype="<f8")
        _check_dmat_size(12 + fh.readinto(memoryview(A).cast("B")), end)
    return A.astype(np.float64, copy=False)
