"""Binary wire frames: round trips, type preservation, strict rejection.

Every cluster message crosses a transport as one length-prefixed frame
whose first byte names its format (``repro.distributed.wire``). These
tests pin the codec's two contracts:

* **round trip** — for every format byte (and the pickle fallback) the
  decode is the exact inverse of the encode, *including* dtypes, so
  driver-side results are identical whether a value travelled as binary
  or pickle;
* **strictness** — truncated bodies, trailing bytes, and unknown format
  bytes raise :class:`WireFormatError` instead of yielding garbage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import wire
from repro.distributed.wire import WireFormatError, decode_frame, encode_frame


class TestControlFrames:
    def test_claim_roundtrip(self):
        frame = encode_frame(("claim", 2, 41))
        assert frame[:1] == b"C"
        assert decode_frame(frame) == ("claim", 2, 41)

    def test_ping_roundtrip_negative_wid(self):
        frame = encode_frame(("ping", -1))
        assert frame[:1] == b"G"
        assert decode_frame(frame) == ("ping", -1)

    def test_unknown_message_shape_pickles(self):
        frame = encode_frame(("hello", {"node": "w0"}))
        assert frame[:1] == b"P"
        assert decode_frame(frame) == ("hello", {"node": "w0"})


class TestRowFrames:
    def test_prediction_rows_roundtrip(self):
        rows = {10: np.arange(4, dtype=np.float64), 3: np.ones(4)}
        frame = encode_frame(("done", 0, 1, rows))
        assert frame[:1] == b"R"
        out = decode_frame(frame)
        assert list(out[3].keys()) == [10, 3]  # insertion order kept
        np.testing.assert_array_equal(out[3][10], rows[10])
        np.testing.assert_array_equal(out[3][3], rows[3])
        assert out[3][10].dtype == np.float64

    def test_ragged_rows_fall_back_to_pickle(self):
        rows = {0: np.ones(3), 1: np.ones(4)}
        frame = encode_frame(("done", 0, 1, rows))
        assert frame[:1] == b"P"
        out = decode_frame(frame)
        np.testing.assert_array_equal(out[3][1], np.ones(4))


class TestArrayTaskFrames:
    def test_ndarray_task_roundtrip(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        frame = encode_frame(("task", 5, arr))
        assert frame[:1] == b"A"
        kind, rid, out = decode_frame(frame)
        assert (kind, rid) == ("task", 5)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype and out.flags.writeable

    def test_int_array_roundtrip(self):
        arr = np.array([[1, -2], [3, 4]], dtype=np.int32)
        out = decode_frame(encode_frame(("task", 0, arr)))[2]
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.int32

    def test_object_array_falls_back_to_pickle(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        frame = encode_frame(("task", 0, arr))
        assert frame[:1] == b"P"


class TestStrictDecode:
    def test_empty_frame_rejected(self):
        with pytest.raises(WireFormatError, match="empty"):
            decode_frame(b"")

    @pytest.mark.parametrize(
        "frame",
        [
            pytest.param(b"\xee\x00\x01", id="unknown"),
            # "B" was the retired sharded-dispatch frame kind
            pytest.param(b"B\x00\x00\x00\x00", id="retired-shard"),
            # "D"/"S" were scalar-score completions, "T"/"U" candidate tasks
            pytest.param(b"D" + bytes(25), id="retired-score"),
            pytest.param(b"S" + bytes(21), id="retired-score-list"),
            pytest.param(b"T" + bytes(8), id="retired-candidate-task"),
            pytest.param(b"U" + bytes(12), id="retired-candidate-batch"),
        ],
    )
    def test_unknown_format_byte_rejected(self, frame):
        with pytest.raises(WireFormatError, match="unknown"):
            decode_frame(frame)

    @pytest.mark.parametrize(
        "message",
        [
            ("claim", 2, 41),
            ("ping", 0),
            ("done", 1, 3, {0: np.ones(2)}),
            ("done", 1, 3, {4: np.zeros(3), 9: np.arange(3.0)}),
            ("task", 5, np.arange(4.0)),
            ("task", 5, np.array([[1, -2], [3, 4]], dtype=np.int32)),
            ("task", 5, np.arange(6, dtype=np.int64)),
        ],
    )
    def test_truncation_and_trailing_bytes_rejected(self, message):
        frame = encode_frame(message)
        assert frame[:1] != b"P"  # all of these take the binary path
        for cut in (1, 2, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireFormatError):
                decode_frame(frame[:cut])
        with pytest.raises(WireFormatError):
            decode_frame(frame + b"\x00")

    def test_corrupt_pickle_rejected(self):
        with pytest.raises(WireFormatError, match="pickle"):
            decode_frame(b"P\x01\x02not-a-pickle")


class TestFormatPin:
    def test_pickle_pin_forces_fallback(self):
        prev = wire.set_wire_format("pickle")
        try:
            frame = encode_frame(("claim", 2, 5))
            assert frame[:1] == b"P"
            assert decode_frame(frame) == ("claim", 2, 5)
        finally:
            wire.set_wire_format(prev)
        assert encode_frame(("claim", 2, 5))[:1] == b"C"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="wire format"):
            wire.set_wire_format("msgpack")

    def test_decoder_accepts_both_formats(self):
        message = ("claim", 1, 2)
        binary = encode_frame(message)
        prev = wire.set_wire_format("pickle")
        try:
            pickled = encode_frame(message)
        finally:
            wire.set_wire_format(prev)
        assert decode_frame(binary) == decode_frame(pickled) == message
