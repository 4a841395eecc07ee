import struct

import numpy as np
import pytest

from hsskit import (
    BadMagicError,
    FormatError,
    RngStream,
    TruncatedPayloadError,
    VersionMismatchError,
    deserialize,
    random_telescoping,
    read_dense,
    serialize,
    write_dense,
)


def _roundtrip_equal(T, T2):
    if len(T.levels) != len(T2.levels):
        return False
    for a, b in zip(T.levels, T2.levels):
        if not (np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V) and np.array_equal(a.D, b.D)):
            return False
    return np.array_equal(T.root, T2.root)


class TestHssfContainer:
    def test_roundtrip_bit_identical(self):
        for seed, (L, k) in enumerate([(1, 1), (2, 3), (4, 2)]):
            T = random_telescoping(L, k, RngStream(seed).child("ser"))
            assert _roundtrip_equal(T, deserialize(serialize(T)))

    def test_magic_prefix(self):
        T = random_telescoping(2, 2, RngStream(0).child("ser"))
        assert serialize(T)[:4] == b"HSSF"

    def test_bad_magic(self):
        blob = bytearray(serialize(random_telescoping(1, 1, RngStream(1).child("ser"))))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            deserialize(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(serialize(random_telescoping(1, 1, RngStream(2).child("ser"))))
        blob[4] = 9
        with pytest.raises(VersionMismatchError):
            deserialize(bytes(blob))

    def test_truncated_payload(self):
        blob = serialize(random_telescoping(2, 2, RngStream(3).child("ser")))
        with pytest.raises(TruncatedPayloadError):
            deserialize(blob[:-8])
        with pytest.raises(TruncatedPayloadError):
            deserialize(blob[:10])

    def test_trailing_bytes_rejected(self):
        blob = serialize(random_telescoping(1, 2, RngStream(4).child("ser")))
        with pytest.raises(FormatError):
            deserialize(blob + b"\x00")

    @pytest.mark.parametrize("L", [40, 2**20, 2**32 - 1])
    def test_corrupt_level_count_named(self, L):
        blob = bytearray(serialize(random_telescoping(2, 2, RngStream(5).child("ser"))))
        blob[8:12] = struct.pack("<I", L)
        with pytest.raises(TruncatedPayloadError, match=rf"L={L}, k=2"):
            deserialize(bytes(blob))

    def test_every_proper_prefix_rejected(self):
        blob = serialize(random_telescoping(1, 1, RngStream(6).child("ser")))
        for end in range(len(blob)):
            with pytest.raises(FormatError):
                deserialize(blob[:end])

    def test_error_types_are_distinct(self):
        assert BadMagicError is not VersionMismatchError is not TruncatedPayloadError
        for err in (BadMagicError, VersionMismatchError, TruncatedPayloadError):
            assert issubclass(err, FormatError)


class TestDmat:
    def test_roundtrip(self, tmp_path):
        A = np.random.default_rng(0).standard_normal((7, 5))
        path = tmp_path / "a.dmat"
        write_dense(A, path)
        assert np.array_equal(read_dense(path), A)
        assert path.read_bytes()[:4] == b"DMAT"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dmat"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            read_dense(path)

    @pytest.mark.parametrize("mangle, error, message", [
        (lambda data: data[:8], TruncatedPayloadError, r"^payload shorter than the fixed header$"),
        (lambda data: data + b"\x00" * 3, FormatError, r"^3 trailing bytes after payload$"),
    ], ids=["short-header", "trailing-bytes"])
    def test_header_and_length_checked(self, tmp_path, mangle, error, message):
        path = tmp_path / "m.dmat"
        write_dense(np.ones((2, 3)), path)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(FormatError, match=message) as exc:
            read_dense(path)
        assert exc.type is error

    def test_truncated(self, tmp_path):
        A = np.ones((3, 3))
        path = tmp_path / "t.dmat"
        write_dense(A, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TruncatedPayloadError):
            read_dense(path)
