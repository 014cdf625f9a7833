"""Service wire framing: envelope trailers, CRC-32C and framed records.

:mod:`repro.ncc.wire` holds the helpers every envelope crossing a
process or disk boundary relies on: the optional observability trailer
past an envelope's fixed width, and the CRC-32C that frames each
request-journal record.  These tests pin the checksum to published
known answers (RFC 3720 appendix B.4 and the catalogue check value),
its chaining and error detection, the trailer slicing contract, the
request envelope of every workload kind with and without a trace
trailer, and the journal's length + CRC record frame.
"""

from __future__ import annotations

import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ncc.wire import attach_trailer, crc32c, wire_body, wire_trailer
from repro.service import RealizationRequest
from repro.service.journal import RequestJournal

CHECK_INPUT = b"123456789"
CHECK_VALUE = 0xE3069283

#: Known answers: the CRC catalogue check value and the four iSCSI
#: test vectors of RFC 3720 appendix B.4.
KNOWN_ANSWERS = {
    "check-string": (CHECK_INPUT, CHECK_VALUE),
    "rfc3720-zeros": (bytes(32), 0x8A9136AA),
    "rfc3720-ones": (b"\xff" * 32, 0x62A8AB43),
    "rfc3720-ascending": (bytes(range(32)), 0x46DD794E),
    "rfc3720-descending": (bytes(range(31, -1, -1)), 0x113FDB5C),
}


class TestCrc32c:
    @pytest.mark.parametrize("name", sorted(KNOWN_ANSWERS))
    def test_known_answer(self, name):
        data, expected = KNOWN_ANSWERS[name]
        assert crc32c(data) == expected

    @pytest.mark.parametrize("split", range(len(CHECK_INPUT) + 1))
    def test_chaining_at_every_split_point(self, split):
        head, tail = CHECK_INPUT[:split], CHECK_INPUT[split:]
        assert crc32c(tail, crc32c(head)) == CHECK_VALUE

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=200), cut=st.integers(0, 200))
    def test_chaining_equals_one_shot(self, data, cut):
        cut = min(cut, len(data))
        whole = crc32c(data)
        assert crc32c(data[cut:], crc32c(data[:cut])) == whole
        assert 0 <= whole < 1 << 32

    def test_every_single_bit_flip_is_detected(self):
        record = pickle.dumps(("admitted", 7, ("degree_implicit", "r", None)))
        reference = crc32c(record)
        for bit in range(len(record) * 8):
            flipped = bytearray(record)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert crc32c(bytes(flipped)) != reference, bit

    def test_is_castagnoli_not_the_zlib_polynomial(self):
        assert zlib.crc32(CHECK_INPUT) == 0xCBF43926
        assert crc32c(CHECK_INPUT) != zlib.crc32(CHECK_INPUT)

    def test_empty_input_is_the_identity_of_chaining(self):
        assert crc32c(b"") == 0
        assert crc32c(b"", CHECK_VALUE) == CHECK_VALUE


class TestTrailer:
    BODY = ("kind", "id", None, 3)

    def test_bare_envelope_slices_to_itself(self):
        width = len(self.BODY)
        assert wire_body(self.BODY, width) is self.BODY
        assert wire_trailer(self.BODY, width) is None

    def test_attached_trailer_is_one_element_past_the_width(self):
        width = len(self.BODY)
        wire = attach_trailer(self.BODY, ("trace-1", 42))
        assert len(wire) == width + 1
        assert wire_body(wire, width) == self.BODY
        assert wire_trailer(wire, width) == ("trace-1", 42)

    def test_trailer_may_be_any_value(self):
        width = len(self.BODY)
        columns = ((1, 2), ("a", "b"), (0.5, 1.5))
        wire = attach_trailer(self.BODY, columns)
        assert wire_trailer(wire, width) is columns
        assert wire_body(wire, width) == self.BODY


def requests_by_kind():
    """One validated request per workload kind (connectivity twice)."""
    return {
        "degree_implicit": RealizationRequest(
            kind="degree_implicit", degrees=(3, 3, 2, 2, 2), seed=4,
            request_id="imp", max_rounds=500),
        "degree_explicit": RealizationRequest(
            kind="degree_explicit", scenario="random_graphic", n=12, seed=2,
            params=(("density", 0.4),), request_id="exp"),
        "degree_envelope": RealizationRequest(
            kind="degree_envelope", scenario="near_graphic", n=10,
            explicit_envelope=True, deadline_ms=900),
        "tree": RealizationRequest(
            kind="tree", degrees=(3, 1, 1, 1), tree_variant="max",
            sort_fidelity="full", idempotency_key="tree-key"),
        "connectivity-ncc0": RealizationRequest(
            kind="connectivity", degrees=(2, 2, 1, 1), engine="reference"),
        "connectivity-ncc1": RealizationRequest(
            kind="connectivity", scenario="rho_uniform", n=9, model="ncc1"),
        "approximate": RealizationRequest(
            kind="approximate", scenario="regular", n=14, repairs=2, seed=7),
    }


class TestRequestEnvelope:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("kind", sorted(requests_by_kind()))
    def test_round_trip_per_kind(self, kind, traced):
        request = requests_by_kind()[kind].validate()
        trace = ("trace-" + kind, 17) if traced else None
        wire = request.to_wire(trace=trace)
        width = len(RealizationRequest._WIRE_KEYS)
        assert len(wire) == width + traced
        clone = RealizationRequest.from_wire(wire)
        assert clone == request and hash(clone) == hash(request)
        assert clone.cache_key() == request.cache_key()
        assert RealizationRequest.wire_trace(wire) == trace
        # The envelope is what the journal pickles: it must survive it.
        assert RealizationRequest.from_wire(pickle.loads(pickle.dumps(wire))) == request


class TestJournalFrame:
    RECORD = ("admitted", 3, ("tree", "r", (1, 1), None), 12.5)

    def test_frame_round_trip(self):
        frame = RequestJournal._frame(self.RECORD)
        assert RequestJournal._read_record(frame, 0) == (self.RECORD, len(frame))

    def test_consecutive_frames_read_in_order(self):
        records = [self.RECORD, ("completed", 4, 3, ("ok",)), ("rejected", 5)]
        blob = b"".join(RequestJournal._frame(r) for r in records)
        offset, seen = 0, []
        while offset < len(blob):
            record, offset = RequestJournal._read_record(blob, offset)
            seen.append(record)
        assert seen == records

    def test_corrupt_payload_byte_fails_the_crc(self):
        frame = bytearray(RequestJournal._frame(self.RECORD))
        frame[-1] ^= 0x01
        assert RequestJournal._read_record(bytes(frame), 0) == (None, 0)

    @pytest.mark.parametrize("keep", [0, 4, 8, 12])
    def test_short_frame_is_rejected(self, keep):
        frame = RequestJournal._frame(self.RECORD)[:keep]
        assert RequestJournal._read_record(frame, 0) == (None, 0)
