import os
import struct
import threading

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
from hsskit.formats import write_hssf

from helpers import peak_bytes


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


class TestLoadWithoutCopy:
    """A bytes payload is loaded as read-only views of its floats; any other
    buffer is copied once, so no factorization aliases a mutable buffer."""

    def test_bytes_payload_is_viewed_not_copied(self):
        data = serialize(random_telescoping(8, 8, RngStream(7).child("ser")))  # 2 MiB
        T, peak = peak_bytes(lambda: deserialize(data))
        assert peak < 0.01 * len(data)
        raw = np.frombuffer(data, dtype=np.uint8)
        for a in [a for lf in T.levels for a in (lf.U, lf.V, lf.D)] + [T.root]:
            assert np.shares_memory(a, raw)
            assert not a.flags.writeable

    @pytest.mark.parametrize("wrap", [lambda blob: blob, memoryview], ids=["bytearray", "memoryview"])
    def test_mutable_buffer_is_copied(self, wrap):
        data = serialize(random_telescoping(2, 2, RngStream(8).child("ser")))
        blob = bytearray(data)
        T = deserialize(wrap(blob))
        blob[16:] = bytes(len(blob) - 16)
        assert serialize(T) == data

    def test_written_file_holds_the_serialized_bytes(self, tmp_path):
        T = random_telescoping(3, 2, RngStream(9).child("ser"))
        write_hssf(T, tmp_path / "t.hssf")
        assert (tmp_path / "t.hssf").read_bytes() == serialize(T)


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

    def test_declared_size_checked_before_allocation(self, tmp_path):
        path = tmp_path / "huge.dmat"
        path.write_bytes(b"DMAT" + struct.pack("<II", 2**31, 2**31) + bytes(8))

        def load():
            with pytest.raises(TruncatedPayloadError, match=rf"^payload ends at byte 20, needed {12 + 2**65}$"):
                read_dense(path)

        _, peak = peak_bytes(load)
        assert peak < 1 << 20

    def test_read_into_one_writable_matrix(self, tmp_path):
        A = np.random.default_rng(1).standard_normal((512, 256))
        path = tmp_path / "a.dmat"
        write_dense(A, path)
        B, peak = peak_bytes(lambda: read_dense(path))
        assert B.dtype == np.float64 and B.flags.writeable and B.flags.c_contiguous
        assert B.tobytes() == A.tobytes()
        assert peak <= 1.1 * B.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("mangle, error, message", [
        (lambda data: data, None, None),
        (lambda data: data[:-4], TruncatedPayloadError, r"^payload ends at byte 112, needed 116$"),
        (lambda data: data + b"\x00" * 3, FormatError, r"^3 trailing bytes after payload$"),
        (lambda data: b"DMAT" + struct.pack("<II", 2**20, 2**20) + data[12:20], TruncatedPayloadError,
         rf"^payload ends at byte 20, needed {12 + 2**43}$"),
    ], ids=["whole", "truncated", "trailing-bytes", "huge-header"])
    def test_pipe_checked_after_the_read(self, tmp_path, mangle, error, message):
        # A pipe has no size to check first; the same checks follow the read,
        # before any matrix of the declared size is allocated.
        A = np.arange(13.0).reshape(13, 1)
        path, pipe = tmp_path / "a.dmat", tmp_path / "pipe"
        write_dense(A, path)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(mangle(path.read_bytes()),), daemon=True)
        writer.start()
        try:
            if error is None:
                assert read_dense(pipe).tobytes() == A.tobytes()
            else:
                with pytest.raises(error, match=message):
                    read_dense(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
