"""Binary sign-cache format: roundtrips, corruption detection, packing."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.cache import (
    LABEL_CODES,
    cache_verify,
    pack_signs,
    read_cache,
    unpack_signs,
    write_cache,
)
from mflab.errors import CacheChecksumError, CacheFormatError
from mflab.sieve import SignSeq, sieve
from mflab.summation import BLOCK


def test_roundtrip_each_label(tmp_path):
    for label in ("mobius", "liouville", "squarefree"):
        seq = sieve(label, 1, 5000)
        path = tmp_path / f"{label}.bin"
        write_cache(path, seq)
        back = read_cache(path)
        assert back.label == label
        assert back.start == 1
        assert np.array_equal(back.values, seq.values)


def test_roundtrip_offset_window(tmp_path):
    seq = sieve("mobius", 1234, 6789)
    path = tmp_path / "window.bin"
    write_cache(path, seq)
    back = read_cache(path)
    assert back.start == 1234 and back.stop == 6789
    assert np.array_equal(back.values, seq.values)


def test_pack_density():
    # four signs per byte: 9999 values fit in 2500 bytes
    values = sieve("mobius", 1, 10000).values
    assert len(pack_signs(values)) == (len(values) + 3) // 4


@settings(max_examples=100)
@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=0, max_size=300))
def test_pack_unpack_roundtrip(vals):
    arr = np.array(vals, dtype=np.int8)
    assert np.array_equal(unpack_signs(pack_signs(arr), len(arr)), arr)


@pytest.mark.parametrize("length", [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 12 * BLOCK + 7])
def test_unpack_signs_across_payload_blocks(length):
    values = sieve("liouville", 1, length + 1).values * sieve("squarefree", 1, length + 1).values
    packed = pack_signs(values)
    assert np.array_equal(unpack_signs(packed, length), values)
    # a code 10 in the next-to-last payload byte is refused, whichever block holds it
    bad = bytearray(packed)
    bad[-2] = 0b10
    with pytest.raises(CacheFormatError, match="code 10"):
        unpack_signs(bytes(bad), length)


def test_read_cache_holds_only_the_window_and_the_file(tmp_path):
    path = tmp_path / "mobius.bin"
    write_cache(path, sieve("mobius", 1, 10**6 + 1))
    tracemalloc.start()
    try:
        seq = read_cache(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == 10**6
    assert peak < len(seq.values) + path.stat().st_size + (1 << 20)


# 1, -1, 0, 1 | -1, 1, -1, 1 as codes 01 11 00 01 | 11 01 11 01, low bits first
FROZEN_VALUES = [1, -1, 0, 1, -1, 1, -1, 1]


@pytest.mark.parametrize("length, packed", [
    (8, b"\x4d\x77"),   # no padding code
    (7, b"\x4d\x37"),   # one
    (6, b"\x4d\x07"),   # two
    (5, b"\x4d\x03"),   # three
])
def test_pack_signs_frozen_bytes(length, packed):
    values = np.array(FROZEN_VALUES[:length], dtype=np.int8)
    assert pack_signs(values) == packed
    assert np.array_equal(unpack_signs(packed, length), values)


@pytest.mark.parametrize("values", [[5, 1, -3, 1], [2], [0, 1, -128], [127, 0]])
def test_out_of_range_values_are_refused_before_writing(values, tmp_path):
    arr = np.array(values, dtype=np.int8)
    with pytest.raises(CacheFormatError, match="outside"):
        pack_signs(arr)
    path = tmp_path / "custom.bin"
    with pytest.raises(CacheFormatError, match="outside"):
        write_cache(path, SignSeq("custom", 1, arr))
    assert not path.exists()


def _file_with_payload(path, length, payload):
    """A cache file around a raw payload, with a header and CRC that validate."""
    body = struct.pack("<4sBQQ", b"MFL1", LABEL_CODES["custom"], 1, length) + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.mark.parametrize("length, payload, message", [
    (4, b"\x02", "invalid 2-bit code 10"),          # code 10 first
    (8, b"\x45\x80", "invalid 2-bit code 10"),      # code 10 last, in the second byte
    (5, b"\x00\x02", "invalid 2-bit code 10"),      # code 10 as the last value
    (5, b"\x00\x04", "nonzero padding bits"),       # a 01 in the first padding code
    (7, b"\x00\x80", "nonzero padding bits"),       # a 10 in the last padding code
    (1, b"\x40", "nonzero padding bits"),
])
def test_bad_codes_with_valid_crc_are_refused(tmp_path, length, payload, message):
    path = _file_with_payload(tmp_path / "bad.bin", length, payload)
    with pytest.raises(CacheFormatError, match=message):
        read_cache(path)
    assert cache_verify(path) is False


def test_flipped_payload_byte_detected(tmp_path):
    path = tmp_path / "tampered.bin"
    write_cache(path, sieve("liouville", 1, 4096))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheChecksumError):
        read_cache(path)
    assert cache_verify(path) is False


def test_flipped_header_byte_detected(tmp_path):
    path = tmp_path / "tampered_header.bin"
    write_cache(path, sieve("mobius", 1, 512))
    blob = bytearray(path.read_bytes())
    blob[6] ^= 0x01  # inside the start field
    path.write_bytes(bytes(blob))
    with pytest.raises((CacheChecksumError, CacheFormatError)):
        read_cache(path)
    assert cache_verify(path) is False


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "short.bin"
    write_cache(path, sieve("mobius", 1, 512))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(CacheFormatError):
        read_cache(path)
    assert cache_verify(path) is False


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "magic.bin"
    write_cache(path, sieve("mobius", 1, 512))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_verify_accepts_good_file(tmp_path):
    path = tmp_path / "good.bin"
    write_cache(path, sieve("squarefree", 1, 10000))
    assert cache_verify(path) is True


def test_custom_label_roundtrip(tmp_path):
    values = np.array([1, -1, 0, 0, 1, 1, -1], dtype=np.int8)
    seq = SignSeq("custom", 1, values)
    path = tmp_path / "custom.bin"
    write_cache(path, seq)
    back = read_cache(path)
    assert back.label == "custom"
    assert np.array_equal(back.values, values)


def test_label_codes_cover_sieve_labels():
    assert set(LABEL_CODES) >= {"mobius", "liouville", "squarefree", "custom"}
