"""The framing shared by QGD1 and QMP1: the CRC is checked before any
byte of the body is parsed, and damaged files raise only
FileFormatError subclasses."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgait.dataset import OBS_DIM, Dataset, NormStats, read_dataset, write_dataset
from quadgait.errors import ChecksumMismatch, FileFormatError
from quadgait.network import ArchSpec, MtlNetwork, load_weights, save_weights


def _small_dataset(path):
    rng = np.random.default_rng(3)
    ds = Dataset.from_records(["trot", "bound"], rng.integers(0, 2, 5),
                              rng.standard_normal((5, OBS_DIM)), rng.standard_normal((5, 12)))
    write_dataset(path, ds)


def _small_weights(path):
    arch = ArchSpec(hidden_width=4, num_tasks=2, seed=3)
    save_weights(path, MtlNetwork(arch, NormStats(np.zeros(OBS_DIM), np.ones(OBS_DIM))))


READERS = {
    "qgd": (_small_dataset, read_dataset),
    "qmp": (_small_weights, load_weights),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("container")
    blobs = {}
    for kind, (write, _read) in READERS.items():
        path = root / f"valid.{kind}"
        write(path)
        blobs[kind] = path.read_bytes()
    return root, blobs


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_version_flip_is_checksum_mismatch(valid_files, kind):
    # the version follows the 4-byte magic; the CRC is left stale
    root, blobs = valid_files
    blob = bytearray(blobs[kind])
    blob[4] ^= 0x02
    path = root / f"version.{kind}"
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        READERS[kind][1](path)


@st.composite
def _damage(draw, size):
    """Byte flips (biased to the header), an optional truncation and
    whether the CRC is recomputed afterwards."""
    position = st.one_of(st.integers(0, min(size, 64) - 1), st.integers(0, size - 1))
    flips = draw(st.lists(st.tuples(position, st.integers(1, 255)), max_size=4))
    cut = draw(st.one_of(st.none(), st.integers(0, size)))
    return flips, cut, draw(st.booleans())


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_damaged_file_raises_format_error(valid_files, kind, data):
    root, blobs = valid_files
    blob = bytearray(blobs[kind])
    flips, cut, recompute = data.draw(_damage(len(blob)))
    for pos, mask in flips:
        blob[pos] ^= mask
    blob = bytes(blob[:cut])
    if recompute and len(blob) >= 4:
        blob = _with_crc(blob[:-4])
    path = root / f"fuzz.{kind}"
    path.write_bytes(blob)
    try:
        READERS[kind][1](path)
    except FileFormatError:
        pass
