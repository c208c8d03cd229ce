"""Tests for serial numbers and the allocator."""

import pytest

from repro.pki.serial import DEFAULT_SERIAL_BYTES, SerialNumber, SerialNumberAllocator


class TestSerialNumber:
    def test_default_width_is_three_bytes(self):
        assert SerialNumber(123).width == DEFAULT_SERIAL_BYTES == 3

    def test_roundtrip_encoding(self):
        serial = SerialNumber(0x73E1A5)
        assert SerialNumber.from_bytes(serial.to_bytes()) == serial

    def test_encoding_is_fixed_width(self):
        assert len(SerialNumber(1).to_bytes()) == 3
        assert len(SerialNumber(1, width=20).to_bytes()) == 20

    def test_lexicographic_order_matches_numeric_order(self):
        values = [5, 70_000, 123, 1, 16_000_000]
        serials = [SerialNumber(value) for value in values]
        by_bytes = sorted(serials, key=lambda serial: serial.to_bytes())
        by_value = sorted(serials, key=lambda serial: serial.value)
        assert by_bytes == by_value

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ValueError):
            SerialNumber(0)
        with pytest.raises(ValueError):
            SerialNumber(-5)

    def test_value_must_fit_width(self):
        with pytest.raises(ValueError):
            SerialNumber(2**24, width=3)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            SerialNumber(1, width=0)
        with pytest.raises(ValueError):
            SerialNumber(1, width=21)

    def test_from_bytes_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            SerialNumber.from_bytes(b"")
        with pytest.raises(ValueError):
            SerialNumber.from_bytes(b"\x01" * 21)

    def test_str_is_hex(self):
        assert str(SerialNumber(0x73E10A5, width=4)) == "73E10A5"

    def test_ordering(self):
        assert SerialNumber(1) < SerialNumber(2)


class TestAllocator:
    def test_allocations_are_unique(self):
        allocator = SerialNumberAllocator(seed=1)
        serials = [allocator.allocate() for _ in range(500)]
        assert len({serial.value for serial in serials}) == 500

    def test_deterministic_with_same_seed(self):
        a, b = SerialNumberAllocator(seed=7), SerialNumberAllocator(seed=7)
        assert [a.allocate().value for _ in range(10)] == [b.allocate().value for _ in range(10)]

    def test_width_is_respected(self):
        allocator = SerialNumberAllocator(width=2, seed=3)
        assert all(allocator.allocate().width == 2 for _ in range(10))

    def test_exhaustion_raises(self):
        allocator = SerialNumberAllocator(width=1, seed=3)
        for _ in range(255):
            allocator.allocate()
        with pytest.raises(ValueError):
            allocator.allocate()
