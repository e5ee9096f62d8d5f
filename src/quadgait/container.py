"""Shared framing of the binary files: magic, u32 version, body, CRC32.

QGD1 datasets and QMP1 weights both use it.  The reader checks the
magic, the minimum length, the CRC32 of everything before it and then
the version, in that order, so a format parses no byte of a file whose
checksum fails.
"""

from __future__ import annotations

import struct
import zlib

from .errors import BadMagic, ChecksumMismatch, TruncatedFile, VersionMismatch

_U32 = struct.Struct("<I")


def write_container(path, magic: bytes, version: int, *chunks):
    """Write magic, little-endian u32 version, the body chunks (bytes or
    contiguous arrays) and the CRC32 of all preceding bytes."""
    head = magic + _U32.pack(version)
    crc = zlib.crc32(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for chunk in chunks:
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(_U32.pack(crc & 0xFFFFFFFF))


def read_container(path, magic: bytes, version: int, min_body: int) -> memoryview:
    """The body of a checked container file.

    Raises BadMagic, TruncatedFile (shorter than the framing plus
    `min_body`), ChecksumMismatch or VersionMismatch, checked in that
    order.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    start = len(magic) + _U32.size
    if blob[: len(magic)] != magic:
        raise BadMagic(f"{path}: not a {magic.decode()} file")
    if len(blob) < start + min_body + _U32.size:
        raise TruncatedFile(f"{path}: header incomplete")
    (crc_stored,) = _U32.unpack_from(blob, len(blob) - _U32.size)
    if zlib.crc32(blob[: -_U32.size]) & 0xFFFFFFFF != crc_stored:
        raise ChecksumMismatch(f"{path}: CRC32 mismatch")
    (found,) = _U32.unpack_from(blob, len(magic))
    if found != version:
        raise VersionMismatch(f"{path}: version {found}, expected {version}")
    return blob[start : -_U32.size]
