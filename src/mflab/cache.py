"""Binary sieve cache files.

Layout, all little endian:

    magic   4 bytes  b"MFL1"
    label   1 byte   0 mobius, 1 liouville, 2 squarefree, 3 custom
    start   u64      first index covered (1-based)
    length  u64      number of values
    values  2 bits each, packed 4 per byte, low bits first;
            codes: 00 -> 0, 01 -> +1, 11 -> -1 (10 is invalid);
            the final byte is padded with zero bits
    crc32   u32      zlib CRC-32 of every preceding byte

The trailing checksum is not part of the 21-byte header on purpose: a reader
that only understands the header prefix can still locate and decode the
values, while verify-aware readers use the CRC to reject corruption.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CacheChecksumError, CacheFormatError
from .sieve import SignSeq
from .summation import BLOCK

MAGIC = b"MFL1"
_HEADER = struct.Struct("<4sBQQ")

LABEL_CODES = {"mobius": 0, "liouville": 1, "squarefree": 2, "custom": 3}
_CODE_LABELS = {v: k for k, v in LABEL_CODES.items()}

# value -> 2-bit code is (value & 3) on the int8 view.  Decoding goes a byte
# at a time: entry b of this table holds the four int8 values of byte b,
# lowest code first, as one little-endian word, so a gather of whole words
# followed by an int8 view is the decoded window.  Bytes holding the invalid
# code 10 are refused before the gather, so their entries are never read.
_QUADS = np.array(
    [sum(((0, 1, 0, -1)[(b >> 2 * j) & 3] & 0xFF) << 8 * j for j in range(4))
     for b in range(256)],
    dtype="<u4",
)


def pack_signs(values: np.ndarray) -> bytes:
    """Pack values in {-1, 0, +1} four to a byte; CacheFormatError otherwise."""
    if len(values) and (values.min() < -1 or values.max() > 1):
        raise CacheFormatError("values outside {-1, 0, +1} have no 2-bit code")
    codes = np.zeros(-(-len(values) // 4) * 4, dtype=np.int8)
    codes[: len(values)] = values
    # one word per output byte: move the code in byte j of each word to
    # bits 2j, 2j+1 of its low byte
    x = codes.view("<u4")
    x &= 0x03030303
    x |= x >> 6
    x &= 0x000F000F
    x |= x >> 12
    return x.astype(np.uint8).tobytes()


def unpack_signs(payload, length: int) -> np.ndarray:
    """Decode length values from a packed payload (any bytes-like object,
    read in place); CacheFormatError when the payload size does not fit
    length, a padding bit is set or a code is 10.  The payload is checked
    and decoded one BLOCK of bytes at a time into the output words."""
    raw = np.frombuffer(payload, dtype=np.uint8)
    if len(raw) != (length + 3) // 4:
        raise CacheFormatError(f"payload is {len(raw)} bytes, {length} values need "
                               f"{(length + 3) // 4}")
    if length % 4 and raw[-1] >> 2 * (length % 4):
        raise CacheFormatError("nonzero padding bits after the declared length")
    words = np.empty(len(raw), dtype="<u4")
    for b in range(0, len(raw), BLOCK):
        part = raw[b : b + BLOCK]
        # code 10: the high bit of a pair set and its low bit clear
        if np.any(part & ~(part << 1) & 0xAA):
            raise CacheFormatError("invalid 2-bit code 10 in payload")
        # every uint8 index is in range; clip skips the buffered copy raise makes
        _QUADS.take(part, out=words[b : b + BLOCK], mode="clip")
    return words.view(np.int8)[:length]


def write_cache(path: str | Path, seq: SignSeq) -> None:
    """Write a SignSeq to a cache file, including the trailing CRC."""
    code = LABEL_CODES.get(seq.label)
    if code is None:
        raise CacheFormatError(f"label {seq.label!r} has no cache code")
    body = _HEADER.pack(MAGIC, code, seq.start, len(seq.values)) + pack_signs(seq.values)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(body + struct.pack("<I", crc))


def read_header(path: str | Path) -> tuple[str, int, int]:
    """(label, start, length) of a cache file, checked as read_cache checks
    them, without reading the payload."""
    with open(path, "rb") as fh:
        return _parse_header(fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size)


def _parse_header(blob, size: int) -> tuple[str, int, int]:
    """(label, start, length) from the header at the front of blob, whose file has size bytes."""
    if size < _HEADER.size + 4:
        raise CacheFormatError(f"file too short ({size} bytes)")
    magic, code, start, length = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if code not in _CODE_LABELS:
        raise CacheFormatError(f"unknown label code {code}")
    if start < 1:
        raise CacheFormatError(f"start index {start} below 1")
    expected = _HEADER.size + (length + 3) // 4 + 4
    if size != expected:
        raise CacheFormatError(f"file is {size} bytes, header implies {expected}")
    return _CODE_LABELS[code], start, length


def read_cache(path: str | Path) -> SignSeq:
    """Read and fully validate a cache file.

    Raises:
        CacheFormatError: malformed header, length mismatch, or bad codes.
        CacheChecksumError: CRC mismatch (any flipped byte trips this).
    """
    blob = Path(path).read_bytes()
    label, start, length = _parse_header(blob, len(blob))
    body = memoryview(blob)[:-4]  # views, so the payload is never copied
    crc = struct.unpack_from("<I", blob, len(body))[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CacheChecksumError(f"checksum mismatch in {path}")
    return SignSeq(label, start, unpack_signs(body[_HEADER.size :], length))


def cache_verify(path: str | Path) -> bool:
    """True when header, declared length, payload codes and CRC all validate."""
    try:
        read_cache(path)
    except (CacheFormatError, CacheChecksumError, OSError):
        return False
    return True
