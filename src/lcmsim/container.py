"""Binary container for model packages, deltas, and datasets.

Layout, all integers little-endian:

    magic            4 bytes, b"LCMP"
    format_version   u16
    header_len       u32
    header           UTF-8 text, "key=value" lines
    matrix blocks    repeated:
                       name_len u16, name (UTF-8),
                       rows u32, cols u32, is_complex u8,
                       float64 row-major payload
                       (complex entries interleaved re, im)
    checksum         32 bytes, SHA-256 of everything after the magic

The trailing checksum is authoritative: it covers the header and every
matrix block, and is what descriptor ``payload_checksum`` fields carry.
It cannot itself appear inside the header it protects. A delta version
of a model is stored as a delta container whose header names its root
package by id, version and that root's checksum; the delta version's
``payload_checksum`` is the delta container's trailer, which so covers
the root's bytes too.

A matrix payload is the buffer of a contiguous ``<c16`` (complex) or
``<f8`` (real) array: written from that view and read back as one.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import IntegrityError

MAGIC = b"LCMP"
FORMAT_VERSION = 1
CHECKSUM_LEN = 32


def _encode_header(header: dict[str, str]) -> bytes:
    lines = []
    for key, value in header.items():
        value = str(value)
        if "=" in key or "\n" in key:
            raise ValueError(f"invalid header key {key!r}")
        if "\n" in value:
            raise ValueError(f"invalid header value for {key!r}")
        lines.append(f"{key}={value}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _decode_header(raw: bytes) -> dict[str, str]:
    header: dict[str, str] = {}
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"header is not valid UTF-8: {exc}") from None
    for line in text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise IntegrityError(f"malformed header line {line!r}")
        key, _, value = line.partition("=")
        header[key] = value
    return header


def _matrix_parts(name: str, matrix: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A matrix block as its head and its payload, a contiguous ``<c16``
    or ``<f8`` array whose buffer holds the payload bytes."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"matrix {name!r} must be 2-D, got shape {m.shape}")
    name_bytes = name.encode("utf-8")
    is_complex = np.iscomplexobj(m)
    payload = np.ascontiguousarray(m, dtype="<c16" if is_complex else "<f8")
    head = struct.pack(
        "<H", len(name_bytes)
    ) + name_bytes + struct.pack("<IIB", m.shape[0], m.shape[1], int(is_complex))
    return head, payload


class _Reader:
    def __init__(self, data: bytes, offset: int, end: int):
        self.data = data
        self.pos = offset
        self.end = end

    def skip(self, count: int) -> int:
        """Advance past ``count`` bytes; returns the offset they start at."""
        if count < 0 or self.pos + count > self.end:
            raise IntegrityError("container truncated")
        self.pos += count
        return self.pos - count

    def take(self, count: int) -> bytes:
        start = self.skip(count)
        return self.data[start : self.pos]

    def exhausted(self) -> bool:
        return self.pos == self.end


def write_container(
    header: dict[str, str], matrices: list[tuple[str, np.ndarray]]
) -> bytes:
    """Serialize header and named matrices; returns the full byte string."""
    header_bytes = _encode_header(header)
    parts = [struct.pack("<HI", FORMAT_VERSION, len(header_bytes)), header_bytes]
    for name, matrix in matrices:
        parts += _matrix_parts(name, matrix)
    checksum = hashlib.sha256()
    for part in parts:  # hashed and joined straight from the array buffers
        checksum.update(part)
    return b"".join([MAGIC, *parts, checksum.digest()])


def read_container(
    data: bytes,
) -> tuple[dict[str, str], list[tuple[str, np.ndarray]], bytes]:
    """Parse and verify a container.

    Raises IntegrityError on any structural damage or checksum mismatch,
    including a single flipped byte anywhere in the file.
    """
    if len(data) < len(MAGIC) + 6 + CHECKSUM_LEN:
        raise IntegrityError("container too short")
    if data[: len(MAGIC)] != MAGIC:
        raise IntegrityError("bad magic")
    expected = data[-CHECKSUM_LEN:]
    actual = hashlib.sha256(memoryview(data)[len(MAGIC) : -CHECKSUM_LEN]).digest()
    if actual != expected:
        raise IntegrityError("checksum mismatch")

    reader = _Reader(data, len(MAGIC), len(data) - CHECKSUM_LEN)
    version, header_len = struct.unpack("<HI", reader.take(6))
    if version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported format version {version}")
    header = _decode_header(reader.take(header_len))

    matrices: list[tuple[str, np.ndarray]] = []
    while not reader.exhausted():
        (name_len,) = struct.unpack("<H", reader.take(2))
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise IntegrityError("matrix name is not valid UTF-8") from None
        rows, cols, is_complex = struct.unpack("<IIB", reader.take(9))
        # A view of the stored bytes keeps every bit, -0.0 and NaN payloads
        # included; the copy owns its memory and is writable.
        dtype = np.dtype("<c16" if is_complex else "<f8")
        start = reader.skip(rows * cols * dtype.itemsize)
        flat = np.frombuffer(data, dtype=dtype, count=rows * cols, offset=start)
        matrices.append((name, flat.reshape(rows, cols).copy()))
    return header, matrices, actual


def payload_checksum(data: bytes) -> bytes:
    """Checksum of a serialized container (recomputed, not trusted)."""
    if len(data) < len(MAGIC) + CHECKSUM_LEN:
        raise IntegrityError("container too short")
    return hashlib.sha256(memoryview(data)[len(MAGIC) : -CHECKSUM_LEN]).digest()
