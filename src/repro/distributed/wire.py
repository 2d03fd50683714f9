"""Binary wire codec for the cluster transports' fixed-shape hot messages.

Every frame the transports ship — tcp frames, serve frames, and the pipe
transport's queue/pipe messages — historically was one pickled blob.
Pickle is a fine *generality* fallback but pays per-message object
machinery exactly on the protocol's hottest, smallest messages: claims,
heartbeats, node-id batches and prediction-row replies, of which a
serving session sends tens of thousands.

This module splits the pickle path from a buffer path, mpi4py-style
(lowercase methods for generic objects, uppercase for buffers):
messages whose shape is *fixed and known* are packed with preallocated
:class:`struct.Struct` codecs straight into one ``bytearray`` (a single
buffer, reused header structs, raw ndarray bytes — no object graph walk);
everything else falls back to pickle unchanged.

Frame layout (the byte string the length prefix counts)::

    [1 format byte][format-specific body]

Format bytes:

``P``   pickled body — the universal fallback; always decodable.
``C``   ``("claim", wid, rid)``                 — ``>qQ``
``G``   ``("ping", wid)``                       — ``>q``
``R``   ``("done", wid, rid, {nid: row, ...})`` — prediction rows: int64
        keys + one contiguous float64 ``[n, width]`` block
``A``   ``("task", rid, ndarray)``              — e.g. serve node-id batches
``E``   ``("result-chunk", wid, rid, seq, total, bytes)`` — one bounded
        chunk of a streamed large result (pickled once worker-side, cut
        into chunks; the driver transport reassembles)

Decoding is strict: an unknown format byte, a truncated body or trailing
bytes raise :class:`WireFormatError` instead of yielding garbage. The
``REPRO_WIRE_FORMAT`` environment variable (``binary`` default /
``pickle``) pins the *encode* side; decoders always accept both formats,
so mixed-format sessions interoperate.
"""

from __future__ import annotations

import os
import pickle
import struct

import numpy as np

__all__ = [
    "WireFormatError",
    "encode_frame",
    "decode_frame",
    "set_wire_format",
    "wire_format",
    "pack_array",
    "unpack_array",
]


class WireFormatError(ValueError):
    """A frame failed structural validation (truncated, unknown, trailing)."""


_PICKLE = 0x50  # "P"
_I64 = struct.Struct(">q")
_CLAIM = struct.Struct(">qQ")  # wid, rid
_PING = struct.Struct(">q")  # wid
_ROWS_HDR = struct.Struct(">qQIQ")  # wid, rid, n_rows, row_width
_CHUNK_HDR = struct.Struct(">qQII")  # wid, rid, seq, total

_FORMATS = ("binary", "pickle")
_format = os.environ.get("REPRO_WIRE_FORMAT", "binary")
if _format not in _FORMATS:  # pragma: no cover - env misconfiguration
    _format = "binary"


def wire_format() -> str:
    """The active encode-side format (``binary`` or ``pickle``)."""
    return _format


def set_wire_format(fmt: str) -> str:
    """Set the encode-side format; returns the previous value.

    ``binary`` (default) packs known fixed-shape messages with the struct
    codecs; ``pickle`` forces the fallback for every frame (the
    pre-binary wire behaviour, modulo the 1-byte format prefix). Decoders
    are unaffected — they always accept both.
    """
    global _format
    if fmt not in _FORMATS:
        raise ValueError(f"unknown wire format {fmt!r}; choose from {_FORMATS}")
    previous = _format
    _format = fmt
    return previous


# ---------------------------------------------------------------------------
# array packer
# ---------------------------------------------------------------------------


def pack_array(out: bytearray, arr: np.ndarray) -> bool:
    """Append dtype + shape + raw bytes of a simple-dtype ndarray.

    Returns ``False`` (leaving ``out`` untouched) for dtypes the codec
    does not ship raw (objects, strings, structured dtypes) — the caller
    then declines and the whole frame falls back to pickle.
    """
    dt = arr.dtype
    if dt.kind not in "biufc" or dt.hasobject:
        return False
    ds = dt.str.encode("ascii")
    out += bytes((len(ds), arr.ndim))
    out += ds
    for dim in arr.shape:
        out += _I64.pack(dim)
    out += arr.tobytes()
    return True


def unpack_array(mv: memoryview, pos: int) -> tuple[np.ndarray, int]:
    """Read an ndarray written by :func:`pack_array`; returns ``(arr, new_pos)``.

    The result is a fresh writable C-contiguous array (one copy out of
    the receive buffer).
    """
    if pos + 2 > len(mv):
        raise WireFormatError("truncated array header")
    ds_len, ndim = mv[pos], mv[pos + 1]
    pos += 2
    if pos + ds_len + 8 * ndim > len(mv):
        raise WireFormatError("truncated array shape")
    try:
        dt = np.dtype(str(mv[pos : pos + ds_len], "ascii"))
    except (TypeError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"bad array dtype: {exc}") from exc
    pos += ds_len
    shape = tuple(_I64.unpack_from(mv, pos + 8 * i)[0] for i in range(ndim))
    pos += 8 * ndim
    if any(dim < 0 for dim in shape):
        raise WireFormatError("negative array dimension")
    count = 1
    for dim in shape:
        count *= dim
    nbytes = dt.itemsize * count
    if pos + nbytes > len(mv):
        raise WireFormatError("truncated array body")
    arr = np.frombuffer(mv[pos : pos + nbytes], dtype=dt).reshape(shape).copy()
    return arr, pos + nbytes


# ---------------------------------------------------------------------------
# frame encode / decode
# ---------------------------------------------------------------------------


def _encode_binary(message) -> bytes | bytearray | None:
    """The binary fast path; ``None`` when the message shape is not covered."""
    if type(message) is not tuple or not message:
        return None
    kind = message[0]
    if kind == "done" and len(message) == 4:
        _, wid, rid, result = message
        if type(wid) is not int or type(rid) is not int or rid < 0:
            return None
        if type(result) is dict and result:
            return _encode_rows(wid, rid, result)
        return None
    if kind == "claim" and len(message) == 3:
        _, wid, rid = message
        if type(wid) is int and type(rid) is int and rid >= 0:
            return b"C" + _CLAIM.pack(wid, rid)
        return None
    if kind == "ping" and len(message) == 2:
        wid = message[1]
        if type(wid) is int:
            return b"G" + _PING.pack(wid)
        return None
    if kind == "result-chunk" and len(message) == 6:
        _, wid, rid, seq, total, blob = message
        if (
            type(wid) is not int
            or type(rid) is not int
            or rid < 0
            or type(seq) is not int
            or type(total) is not int
            or type(blob) is not bytes
        ):
            return None
        out = bytearray(b"E")
        out += _CHUNK_HDR.pack(wid, rid, seq, total)
        out += blob
        return out
    if kind == "task" and len(message) == 3:
        _, rid, payload = message
        if type(rid) is not int or rid < 0:
            return None
        if type(payload) is np.ndarray:
            out = bytearray(b"A")
            out += struct.pack(">Q", rid)
            if pack_array(out, payload):
                return out
        return None
    return None


def _encode_rows(wid: int, rid: int, rows: dict) -> bytearray | None:
    """Prediction-row replies: ``{node_id: float64 row}``, equal widths."""
    keys = list(rows.keys())
    if type(keys[0]) is not int:
        return None
    first = next(iter(rows.values()))
    # dtype matched by str so only little-endian f8 takes the raw-block path
    if type(first) is not np.ndarray or first.ndim != 1 or first.dtype.str != "<f8":
        return None
    width = first.shape[0]
    for k, v in rows.items():
        if type(k) is not int or type(v) is not np.ndarray:
            return None
        if v.ndim != 1 or v.dtype.str != "<f8" or v.shape[0] != width:
            return None
    out = bytearray(b"R")
    out += _ROWS_HDR.pack(wid, rid, len(rows), width)
    out += np.asarray(keys, dtype="<i8").tobytes()
    for v in rows.values():
        out += v.tobytes()
    return out


def encode_frame(message) -> bytes:
    """Encode one message into a frame body (format byte + payload).

    Fixed-shape hot messages take the preallocated binary path (unless
    ``REPRO_WIRE_FORMAT=pickle`` pins the fallback); everything else —
    handshake/context frames, telemetry-bearing completions, error
    reports — is pickled. The caller adds the 8-byte length prefix.
    """
    if _format == "binary":
        data = _encode_binary(message)
        if data is not None:
            return bytes(data)
    return b"P" + pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_frame(data) -> object:
    """Strictly decode one frame body produced by :func:`encode_frame`.

    Raises :class:`WireFormatError` on an empty frame, an unknown format
    byte, a truncated body, or trailing bytes after a binary payload.
    Accepts both formats regardless of the encode-side setting.
    """
    if not data:
        raise WireFormatError("empty frame")
    mv = memoryview(data)
    code = mv[0]
    if code == _PICKLE:
        try:
            return pickle.loads(mv[1:])
        except Exception as exc:
            raise WireFormatError(f"bad pickle frame: {exc}") from exc
    body = mv[1:]
    if code == ord("C"):
        if len(body) != _CLAIM.size:
            raise WireFormatError("bad claim frame length")
        wid, rid = _CLAIM.unpack(body)
        return ("claim", wid, rid)
    if code == ord("G"):
        if len(body) != _PING.size:
            raise WireFormatError("bad ping frame length")
        return ("ping", _PING.unpack(body)[0])
    if code == ord("R"):
        if len(body) < _ROWS_HDR.size:
            raise WireFormatError("truncated rows frame")
        wid, rid, n, width = _ROWS_HDR.unpack_from(body, 0)
        pos = _ROWS_HDR.size
        if pos + 8 * n + 8 * n * width != len(body):
            raise WireFormatError("bad rows frame length")
        keys = np.frombuffer(body[pos : pos + 8 * n], dtype="<i8")
        pos += 8 * n
        block = np.frombuffer(body[pos:], dtype="<f8").reshape(n, width).copy()
        return ("done", wid, rid, {int(k): block[i] for i, k in enumerate(keys)})
    if code == ord("E"):
        if len(body) < _CHUNK_HDR.size:
            raise WireFormatError("truncated result-chunk frame")
        wid, rid, seq, total = _CHUNK_HDR.unpack_from(body, 0)
        return ("result-chunk", wid, rid, seq, total, bytes(body[_CHUNK_HDR.size :]))
    if code == ord("A"):
        if len(body) < 8:
            raise WireFormatError("truncated array-task frame")
        (rid,) = struct.unpack_from(">Q", body, 0)
        arr, pos = unpack_array(body, 8)
        if pos != len(body):
            raise WireFormatError("trailing bytes in array-task frame")
        return ("task", rid, arr)
    raise WireFormatError(f"unknown wire format byte 0x{code:02x}")
