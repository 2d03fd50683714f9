"""Wire frames: round trips, type preservation, strict rejection.

Every cluster message crosses a transport as one length-prefixed frame:
a ``P`` format byte and a pickle (``repro.distributed.wire``). These
tests pin the codec's two contracts:

* **round trip** — the decode is the exact inverse of the encode,
  *including* dtypes, so driver-side results are the bytes the worker
  computed;
* **strictness** — empty frames, unknown format bytes (the retired
  binary ones included), truncated or corrupt pickles and trailing bytes
  raise :class:`WireFormatError` instead of yielding garbage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributed.wire import WireFormatError, decode_frame, encode_frame


class TestControlFrames:
    def test_claim_roundtrip(self):
        frame = encode_frame(("claim", 2, 41))
        assert frame[:1] == b"P"
        assert decode_frame(frame) == ("claim", 2, 41)

    def test_ping_roundtrip_negative_wid(self):
        frame = encode_frame(("ping", -1))
        assert frame[:1] == b"P"
        assert decode_frame(frame) == ("ping", -1)

    def test_unknown_message_shape_pickles(self):
        frame = encode_frame(("hello", {"node": "w0"}))
        assert frame[:1] == b"P"
        assert decode_frame(frame) == ("hello", {"node": "w0"})


class TestRowFrames:
    def test_prediction_rows_roundtrip(self):
        """A serve flush's completion: sorted ids and one float64 block."""
        rows = np.array([3, 10], dtype=np.int64)
        block = np.arange(8, dtype=np.float64).reshape(2, 4)
        kind, wid, rid, (out_rows, out_block) = decode_frame(encode_frame(("done", 0, 1, (rows, block))))
        assert (kind, wid, rid) == ("done", 0, 1)
        assert out_rows.dtype == np.int64 and out_rows.tolist() == [3, 10]
        assert out_block.dtype == np.float64 and out_block.tobytes() == block.tobytes()


class TestArrayTaskFrames:
    def test_ndarray_task_roundtrip(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        kind, rid, out = decode_frame(encode_frame(("task", 5, arr)))
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
        out = decode_frame(encode_frame(("task", 0, arr)))[2]
        assert out.dtype == object and out.tolist() == [{"a": 1}, None]


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
            # the retired binary codec: claims, pings, prediction rows,
            # array tasks and result chunks
            pytest.param(b"C" + bytes(16), id="retired-claim"),
            pytest.param(b"G" + bytes(8), id="retired-ping"),
            pytest.param(b"R" + bytes(28), id="retired-rows"),
            pytest.param(b"A" + bytes(10), id="retired-array-task"),
            pytest.param(b"E" + bytes(24), id="retired-result-chunk"),
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
            ("done", 1, 3, (np.array([0]), np.ones((1, 2)))),
            ("done", 1, 3, (np.array([4, 9]), np.arange(6.0).reshape(2, 3))),
            ("task", 5, np.arange(4.0)),
            ("task", 5, np.array([[1, -2], [3, 4]], dtype=np.int32)),
            ("task", 5, np.arange(6, dtype=np.int64)),
        ],
    )
    def test_truncation_and_trailing_bytes_rejected(self, message):
        frame = encode_frame(message)
        assert frame[:1] == b"P"
        for cut in (1, 2, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireFormatError):
                decode_frame(frame[:cut])
        with pytest.raises(WireFormatError, match="trailing"):
            decode_frame(frame + b"\x00")

    def test_corrupt_pickle_rejected(self):
        with pytest.raises(WireFormatError, match="pickle"):
            decode_frame(b"P\x01\x02not-a-pickle")


_arrays = hnp.arrays(
    dtype=st.sampled_from(["<i4", "<i8", "<f4", "<f8", "bool"]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
_leaves = st.one_of(st.integers(), st.text(max_size=8), st.binary(max_size=16), _arrays)
_messages = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=4)), children, max_size=4),
    ),
    max_leaves=12,
)


def _assert_same(got, want) -> None:
    """Equal values and types; arrays equal in dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


class TestFrameProperties:
    @settings(max_examples=40, deadline=None)
    @given(_messages)
    def test_roundtrip_keeps_values_and_dtypes(self, message):
        _assert_same(decode_frame(encode_frame(message)), message)

    @settings(max_examples=30, deadline=None)
    @given(_messages, st.integers(0, 255))
    def test_every_prefix_and_any_appended_byte_rejected(self, message, extra):
        frame = encode_frame(message)
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_frame(frame[:cut])
        with pytest.raises(WireFormatError, match="trailing"):
            decode_frame(frame + bytes([extra]))
