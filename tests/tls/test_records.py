"""Tests for the TLS record layer."""

import pytest

from repro.errors import TLSError
from repro.tls.records import (
    ContentType,
    MAX_RECORD_PAYLOAD,
    TLSRecord,
    looks_like_tls,
    parse_records,
    serialize_records,
)


class TestRecordEncoding:
    def test_roundtrip_single_record(self):
        record = TLSRecord(ContentType.HANDSHAKE, b"\x01\x02\x03")
        assert parse_records(record.to_bytes()) == [record]

    def test_roundtrip_multiple_records(self):
        records = [
            TLSRecord(ContentType.HANDSHAKE, b"hello"),
            TLSRecord(ContentType.APPLICATION_DATA, b"payload"),
            TLSRecord(ContentType.RITM_STATUS, b"status"),
        ]
        assert parse_records(serialize_records(records)) == records

    def test_wire_size_includes_header(self):
        record = TLSRecord(ContentType.ALERT, b"xy")
        assert record.wire_size == 5 + 2
        assert len(record.to_bytes()) == record.wire_size

    def test_oversized_payload_rejected(self):
        with pytest.raises(TLSError):
            TLSRecord(ContentType.APPLICATION_DATA, b"\x00" * (MAX_RECORD_PAYLOAD + 1))

    def test_truncated_header_rejected(self):
        with pytest.raises(TLSError):
            parse_records(b"\x16\x03\x03")

    def test_truncated_payload_rejected(self):
        record = TLSRecord(ContentType.HANDSHAKE, b"\x01" * 20).to_bytes()
        with pytest.raises(TLSError):
            parse_records(record[:-5])

    def test_unknown_content_type_rejected(self):
        data = bytes([99, 3, 3, 0, 1, 0])
        with pytest.raises(TLSError):
            parse_records(data)

    def test_content_type_predicates(self):
        assert TLSRecord(ContentType.HANDSHAKE, b"").is_handshake()
        assert TLSRecord(ContentType.APPLICATION_DATA, b"").is_application_data()
        assert TLSRecord(ContentType.RITM_STATUS, b"").is_ritm_status()


class TestTLSDetection:
    def test_valid_record_detected(self):
        assert looks_like_tls(TLSRecord(ContentType.HANDSHAKE, b"x" * 40).to_bytes())

    def test_http_not_detected(self):
        assert not looks_like_tls(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")

    def test_short_payload_not_detected(self):
        assert not looks_like_tls(b"\x16\x03")

    def test_wrong_version_not_detected(self):
        assert not looks_like_tls(bytes([22, 2, 0, 0, 5]) + b"abcde")

    def test_ritm_status_record_detected(self):
        assert looks_like_tls(TLSRecord(ContentType.RITM_STATUS, b"s").to_bytes())

    def test_empty_payload_not_detected(self):
        assert not looks_like_tls(b"")
