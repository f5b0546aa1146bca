"""Unit tests for repro.utils.crc — reference vectors and properties."""

import zlib
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagframe import CRC8
from repro.utils.crc import CRC16_CCITT, CRC24_BLE, CRC32, Crc

CHECK_INPUT = b"123456789"

ENGINES = (CRC32, CRC16_CCITT, CRC24_BLE, CRC8,
           Crc(width=8, poly=0x07, init=0x00, refin=False, refout=False,
               xorout=0x00),
           Crc(width=16, poly=0x1021, init=0xFFFF, refin=False,
               refout=False, xorout=0x0000),
           Crc(width=16, poly=0x8005, init=0x0000, refin=True,
               refout=False, xorout=0xFFFF),
           Crc(width=32, poly=0x04C11DB7, init=0xFFFFFFFF, refin=False,
               refout=True, xorout=0xFFFFFFFF))


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def bit_serial(crc: Crc, data: bytes, init: Optional[int] = None) -> int:
    """Reference: the textbook MSB-first shift register, one bit a step."""
    topbit = 1 << (crc.width - 1)
    mask = (1 << crc.width) - 1
    reg = crc.init if init is None else init
    for byte in data:
        b = _reflect(byte, 8) if crc.refin else byte
        reg ^= b << (crc.width - 8)
        reg &= mask
        for _ in range(8):
            if reg & topbit:
                reg = ((reg << 1) ^ crc.poly) & mask
            else:
                reg = (reg << 1) & mask
    if crc.refout:
        reg = _reflect(reg, crc.width)
    return (reg ^ crc.xorout) & mask


class TestReferenceVectors:
    def test_crc32_check_value(self):
        # CRC-32/ISO-HDLC check value.
        assert CRC32.compute(CHECK_INPUT) == 0xCBF43926

    def test_crc16_kermit_check_value(self):
        # CRC-16/KERMIT (the 802.15.4 FCS) check value.
        assert CRC16_CCITT.compute(CHECK_INPUT) == 0x2189

    def test_crc32_empty(self):
        assert CRC32.compute(b"") == 0x00000000

    def test_crc24_ble_check_value(self):
        # CRC-24/BLE check value.
        assert CRC24_BLE.compute(CHECK_INPUT) == 0xC25A56

    def test_crc8_maxim_check_value(self):
        # CRC-8/MAXIM-DOW (the tag frame CRC) check value.
        assert CRC8.compute(CHECK_INPUT) == 0xA1


class TestAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=300),
           init=st.one_of(st.none(), st.integers(0, (1 << 32) - 1)))
    def test_every_engine_matches_bit_serial(self, data, init):
        for crc in ENGINES:
            assert crc.compute(data, init=init) == bit_serial(crc, data,
                                                              init)

    def test_empty_input_matches_bit_serial(self):
        for crc in ENGINES:
            assert crc.compute(b"") == bit_serial(crc, b"")
            assert crc.compute(b"", init=1) == bit_serial(crc, b"", 1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=2000))
    def test_crc32_is_zlib_crc32(self, data):
        assert CRC32.compute(data) == zlib.crc32(data)

    def test_accepts_bytearray_and_memoryview(self):
        for crc in ENGINES:
            want = crc.compute(CHECK_INPUT)
            assert crc.compute(bytearray(CHECK_INPUT)) == want
            assert crc.compute(memoryview(CHECK_INPUT)) == want


class TestDigest:
    def test_little_endian_bytes(self):
        value = CRC32.compute(CHECK_INPUT)
        assert CRC32.digest(CHECK_INPUT) == value.to_bytes(4, "little")

    def test_crc24_width(self):
        assert len(CRC24_BLE.digest(b"hello")) == 3


class TestVerify:
    def test_accepts_correct(self):
        assert CRC16_CCITT.verify(b"abc", CRC16_CCITT.compute(b"abc"))

    def test_rejects_corrupted(self):
        good = CRC32.compute(b"payload")
        assert not CRC32.verify(b"paYload", good)

    def test_single_bit_error_detected(self):
        data = bytearray(b"freerider-tag-data")
        good = CRC24_BLE.compute(bytes(data))
        for byte in range(len(data)):
            for bit in range(8):
                data[byte] ^= 1 << bit
                assert CRC24_BLE.compute(bytes(data)) != good
                data[byte] ^= 1 << bit


class TestBleSeed:
    def test_seed_changes_crc(self):
        a = CRC24_BLE.compute(b"pdu", init=0x555555)
        b = CRC24_BLE.compute(b"pdu", init=0x123456)
        assert a != b

    def test_default_seed_is_advertising(self):
        assert CRC24_BLE.compute(b"pdu") == CRC24_BLE.compute(b"pdu",
                                                              init=0x555555)


class TestCustomCrc:
    def test_crc8_smbus(self):
        crc8 = Crc(width=8, poly=0x07, init=0x00, refin=False,
                   refout=False, xorout=0x00)
        assert crc8.compute(CHECK_INPUT) == 0xF4  # CRC-8 check value
