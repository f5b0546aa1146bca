"""Bit-level helpers used throughout the PHY and decoding stacks.

All bit sequences in this project are represented as 1-D ``numpy`` arrays
of dtype ``uint8`` containing only 0s and 1s.  Helpers here convert between
byte strings and bit arrays, apply XOR algebra (the heart of FreeRider's
tag-data extraction, Table 1 of the paper) and implement the repetition
coding / majority voting used to survive the 802.11 scrambler and
convolutional coder (paper section 3.2.1).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

BitArray = np.ndarray
# Anything :func:`as_bits` accepts.
BitsLike = Union[Sequence[int], np.ndarray, str]

__all__ = [
    "as_bits",
    "bits_to_bytes",
    "bytes_to_bits",
    "bits_to_int",
    "int_to_bits",
    "xor_bits",
    "hamming_distance",
    "repeat_bits",
    "majority_vote",
    "random_bits",
]


def as_bits(bits: BitsLike) -> BitArray:
    """Coerce *bits* (list, ndarray, or '0101' string) to a uint8 bit array.

    Raises ``ValueError`` when any element is not 0 or 1.  Strings are
    validated character-by-character *before* any arithmetic: the old
    ``char - ord('0')`` path wrapped out-of-range characters around the
    uint8 space first and relied on a max check afterwards, and turned
    non-ASCII input into a ``UnicodeEncodeError`` instead of the
    documented ``ValueError``.  The empty string is a valid empty bit
    array.
    """
    if isinstance(bits, str):
        if not bits:
            return np.zeros(0, dtype=np.uint8)
        try:
            raw = np.frombuffer(bits.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            raise ValueError(
                f"bit string may only contain '0' and '1', got {bits!r}"
            ) from None
        if np.any((raw != ord("0")) & (raw != ord("1"))):
            raise ValueError(
                f"bit string may only contain '0' and '1', got {bits!r}")
        arr = raw - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size and arr.max(initial=0) > 1:
            raise ValueError("bit array may only contain 0s and 1s")
    return arr.astype(np.uint8)


def bytes_to_bits(data: bytes, msb_first: bool = False) -> BitArray:
    """Expand a byte string into bits.

    802.11 and 802.15.4 serialise each octet LSB-first, which is the
    default here; pass ``msb_first=True`` for the opposite convention.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(arr.reshape(-1, 1), axis=1)
    if not msb_first:
        bits = bits[:, ::-1]
    return bits.ravel().astype(np.uint8)


def bits_to_bytes(bits: Union[Sequence[int], np.ndarray], msb_first: bool = False) -> bytes:
    """Pack a bit array back into bytes, zero-padding to a byte boundary."""
    arr = as_bits(bits)
    pad = (-arr.size) % 8
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
    grouped = arr.reshape(-1, 8)
    if not msb_first:
        grouped = grouped[:, ::-1]
    return np.packbits(grouped, axis=1).ravel().tobytes()


def bits_to_int(bits: Union[Sequence[int], np.ndarray], msb_first: bool = True) -> int:
    """Interpret a bit array as an unsigned integer (MSB-first by default)."""
    arr = as_bits(bits)
    if not msb_first:
        arr = arr[::-1]
    value = 0
    for b in arr:
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int, msb_first: bool = True) -> BitArray:
    """Encode *value* as exactly *width* bits; raises if it does not fit."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    bits = [(value >> i) & 1 for i in range(width)]
    arr = np.array(bits[::-1] if msb_first else bits, dtype=np.uint8)
    return arr


def xor_bits(a: Union[Sequence[int], np.ndarray], b: Union[Sequence[int], np.ndarray]) -> BitArray:
    """Element-wise XOR of two equal-length bit arrays.

    This is the FreeRider decoding primitive: tag bits are the XOR of the
    backscattered bit-stream and the original excitation bit-stream
    (paper Table 1).
    """
    aa, bb = as_bits(a), as_bits(b)
    if aa.size != bb.size:
        raise ValueError(f"length mismatch: {aa.size} vs {bb.size}")
    return np.bitwise_xor(aa, bb)


def hamming_distance(a: Union[Sequence[int], np.ndarray], b: Union[Sequence[int], np.ndarray]) -> int:
    """Number of positions at which two bit arrays differ."""
    return int(xor_bits(a, b).sum())


def repeat_bits(bits: Union[Sequence[int], np.ndarray], factor: int) -> BitArray:
    """Repeat each bit *factor* times (tag-side redundancy coding).

    FreeRider maps one tag bit onto several OFDM symbols so that the
    scrambler / convolutional-coder structure survives translation
    (paper section 3.2.1: one tag bit per four OFDM symbols at 6 Mb/s).
    """
    if factor < 1:
        raise ValueError("repetition factor must be >= 1")
    return np.repeat(as_bits(bits), factor)


def majority_vote(bits: Union[Sequence[int], np.ndarray], factor: int) -> BitArray:
    """Invert :func:`repeat_bits`: majority-decode groups of *factor* bits.

    Trailing bits that do not fill a complete group are discarded.  Ties
    (possible only for even *factor*) decode as 1, matching a ``>=``
    threshold comparator.
    """
    if factor < 1:
        raise ValueError("repetition factor must be >= 1")
    arr = as_bits(bits)
    n_groups = arr.size // factor
    if n_groups == 0:
        return np.zeros(0, dtype=np.uint8)
    grouped = arr[: n_groups * factor].reshape(n_groups, factor)
    return (grouped.sum(axis=1) * 2 >= factor).astype(np.uint8)


def random_bits(n: int, rng: np.random.Generator) -> BitArray:
    """Draw *n* i.i.d. uniform bits from *rng*."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return rng.integers(0, 2, size=n, dtype=np.uint8)
