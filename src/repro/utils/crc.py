"""Table-driven CRC engines for the three PHY frame formats.

* 802.11 frames carry a 32-bit FCS (CRC-32, reflected, poly 0x04C11DB7).
* 802.15.4 (ZigBee) frames carry a 16-bit FCS (CRC-16/CCITT, poly 0x1021,
  reflected, zero init).
* BLE packets carry a 24-bit CRC (poly 0x00065B, LFSR seeded per link;
  the advertising-channel seed 0x555555 is the default).

Each engine is bit-exact against the published reference vectors (see
``tests/utils/test_crc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

__all__ = ["Crc", "CRC32", "CRC16_CCITT", "CRC24_BLE"]


def _reflect(value: int, width: int) -> int:
    """*value* with its low *width* bits in reverse order."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


# Byte-wise bit reversal, in the form ``bytes.translate`` takes: a
# normal-order (refin=False) engine reverses its input bytes with it and
# then runs the same reflected loop as every other engine.
_REFLECT_BYTES = bytes(_reflect(b, 8) for b in range(256))


@dataclass(frozen=True)
class Crc:
    """A generic reflected-or-normal CRC defined by its classic parameters.

    :meth:`compute` runs the reflected (LSB-first) byte-at-a-time
    recursion ``reg = (reg >> 8) ^ table[(reg & 0xFF) ^ byte]`` over a
    256-entry table built once per engine.  A non-reflected input is
    bit-reversed byte by byte first, and a non-reflected output is
    reversed back at the end, so every parameter set shares that loop.
    """

    width: int
    poly: int
    init: int
    refin: bool
    refout: bool
    xorout: int
    name: str = "crc"

    @cached_property
    def _table(self) -> Tuple[int, ...]:
        """Register update for each low byte of the reflected register."""
        rpoly = _reflect(self.poly, self.width)
        table: List[int] = []
        for byte in range(256):
            reg = byte
            for _ in range(8):
                reg = (reg >> 1) ^ rpoly if reg & 1 else reg >> 1
            table.append(reg)
        return tuple(table)

    def compute(self, data: bytes, init: Optional[int] = None) -> int:
        """Return the CRC of *data* as an unsigned integer.

        *init* overrides the register seed (used by BLE, where the seed
        depends on the connection).
        """
        table = self._table
        mask = (1 << self.width) - 1
        reg = _reflect((self.init if init is None else init) & mask,
                       self.width)
        if not self.refin:
            data = bytes(data).translate(_REFLECT_BYTES)
        for byte in data:
            reg = (reg >> 8) ^ table[(reg & 0xFF) ^ byte]
        if not self.refout:
            reg = _reflect(reg, self.width)
        return (reg ^ self.xorout) & mask

    def digest(self, data: bytes, init: Optional[int] = None) -> bytes:
        """CRC as little-endian bytes, the on-air order for all three PHYs."""
        value = self.compute(data, init=init)
        return value.to_bytes(self.width // 8, "little")

    def verify(self, data: bytes, received: int,
               init: Optional[int] = None) -> bool:
        """True when *received* equals the CRC of *data*."""
        return self.compute(data, init=init) == received


CRC32 = Crc(width=32, poly=0x04C11DB7, init=0xFFFFFFFF, refin=True,
            refout=True, xorout=0xFFFFFFFF, name="crc32/802.11-fcs")

CRC16_CCITT = Crc(width=16, poly=0x1021, init=0x0000, refin=True,
                  refout=True, xorout=0x0000, name="crc16/802.15.4-fcs")

CRC24_BLE = Crc(width=24, poly=0x00065B, init=0x555555, refin=True,
                refout=True, xorout=0x000000, name="crc24/ble")
