import hashlib
import struct

import numpy as np
import pytest

from lcmsim.container import (
    FORMAT_VERSION,
    MAGIC,
    payload_checksum,
    read_container,
    write_container,
)
from lcmsim.errors import IntegrityError


def small_container():
    header = {"container": "model", "kind": "csi_decoder", "model_id": "m-1"}
    real = np.array([[1.0, 2.0], [3.0, 4.0]])
    cplx = np.array([[1 + 2j, 3 - 4j]])
    return write_container(header, [("w", real), ("z", cplx)])


class TestFormat:
    def test_byte_layout_oracle(self):
        # Independent reconstruction of the on-disk layout for one matrix.
        header_text = b"container=model\n"
        matrix = np.array([[1.0 + 2.0j]])
        body = struct.pack("<HI", FORMAT_VERSION, len(header_text)) + header_text
        body += struct.pack("<H", 1) + b"m" + struct.pack("<IIB", 1, 1, 1)
        body += struct.pack("<dd", 1.0, 2.0)
        expected = MAGIC + body + hashlib.sha256(body).digest()
        produced = write_container({"container": "model"}, [("m", matrix)])
        assert produced == expected

    def test_round_trip(self):
        data = small_container()
        header, matrices, checksum = read_container(data)
        assert header["kind"] == "csi_decoder"
        assert len(matrices) == 2
        name0, real = matrices[0]
        name1, cplx = matrices[1]
        assert name0 == "w" and name1 == "z"
        assert np.array_equal(real, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(cplx, [[1 + 2j, 3 - 4j]])
        assert checksum == payload_checksum(data)

    def test_deterministic_serialization(self):
        assert small_container() == small_container()

    def test_every_single_byte_flip_detected(self):
        data = bytearray(small_container())
        for pos in range(len(data)):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x5A
            with pytest.raises(IntegrityError):
                read_container(bytes(corrupted))

    def test_truncation_detected(self):
        data = small_container()
        for cut in (3, len(data) // 2, len(data) - 1):
            with pytest.raises(IntegrityError):
                read_container(data[:cut])

    def test_vector_must_be_2d(self):
        with pytest.raises(ValueError):
            write_container({}, [("v", np.ones(3))])

    def test_header_value_newline_rejected(self):
        with pytest.raises(ValueError, match="invalid header value"):
            write_container({"k": "a\nb"}, [])


def sealed(body: bytes) -> bytes:
    """A container of ``body`` (all after the magic) with a valid trailer,
    so that a structural check, not the checksum, must refuse it."""
    return MAGIC + body + hashlib.sha256(body).digest()


def headed(header: bytes, version: int = FORMAT_VERSION) -> bytes:
    return struct.pack("<HI", version, len(header)) + header


def block_head(name: bytes, rows: int, cols: int, is_complex: int = 0) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack("<IIB", rows, cols, is_complex)


class TestStructuralChecks:
    @pytest.mark.parametrize("key", ["a=b", "a\nb"], ids=["equals", "newline"])
    def test_header_key_refused_at_write(self, key):
        with pytest.raises(ValueError, match="invalid header key"):
            write_container({key: "v"}, [])

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param(headed(b"k=\xff\n"), "header is not valid UTF-8", id="header_not_utf8"),
            pytest.param(headed(b"k=v\nnoequals\n"), "malformed header line", id="line_without_eq"),
            pytest.param(headed(b"k=v\n", version=FORMAT_VERSION + 1),
                         f"unsupported format version {FORMAT_VERSION + 1}", id="format_version"),
            pytest.param(headed(b"k=v\n") + block_head(b"m", 2, 2) + struct.pack("<3d", 1, 2, 3),
                         "container truncated", id="truncated_payload"),
            pytest.param(headed(b"k=v\n") + struct.pack("<H", 5) + b"ab",
                         "container truncated", id="truncated_name"),
            pytest.param(headed(b"k=v\n") + block_head(b"\xff", 1, 1) + struct.pack("<d", 1.0),
                         "matrix name is not valid UTF-8", id="name_not_utf8"),
        ],
    )
    def test_damaged_structure_under_a_valid_trailer(self, body, message):
        with pytest.raises(IntegrityError, match=message):
            read_container(sealed(body))

    def test_payload_checksum_of_a_short_blob(self):
        with pytest.raises(IntegrityError, match="container too short"):
            payload_checksum(MAGIC + bytes(31))
