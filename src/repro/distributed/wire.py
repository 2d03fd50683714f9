"""Frame codec for the cluster transports and the serving protocol.

Every message the transports ship — tcp frames, serve frames, and the
pipe transport's queue/pipe messages — is one frame: a format byte
followed by the message, pickled. The caller adds the length prefix.

Frame layout (the byte string the length prefix counts)::

    [b"P"][pickle of the message]

``P`` is the only format. The hot serving message, a flush's scores,
is one ``(rows, block)`` pair of arrays, which pickle ships as raw
buffers; hand-packed struct frames would save a few microseconds at
most, on messages sent once per task or flush (docs/performance.md,
"Wire format").

Decoding is strict: an empty frame, any format byte other than ``P``, a
truncated or corrupt pickle, or trailing bytes after the pickle raise
:class:`WireFormatError` instead of yielding garbage.
"""

from __future__ import annotations

import io
import pickle

__all__ = ["WireFormatError", "encode_frame", "decode_frame"]


class WireFormatError(ValueError):
    """A frame failed structural validation (truncated, unknown, trailing)."""


_PICKLE = b"P"


def encode_frame(message) -> bytes:
    """Encode one message into a frame body (format byte + pickle)."""
    return _PICKLE + pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_frame(data) -> object:
    """Strictly decode one frame body produced by :func:`encode_frame`.

    Raises :class:`WireFormatError` on an empty frame, a format byte
    other than ``P``, a truncated or corrupt pickle, or trailing bytes.
    """
    if not data:
        raise WireFormatError("empty frame")
    if data[:1] != _PICKLE:
        raise WireFormatError(f"unknown wire format byte 0x{data[0]:02x}")
    # pickle.loads ignores bytes after the STOP opcode; reading through a
    # file shows where the pickle ended
    body = io.BytesIO(data)
    body.seek(1)
    try:
        message = pickle.Unpickler(body).load()
    except Exception as exc:
        raise WireFormatError(f"bad pickle frame: {exc}") from exc
    if body.tell() != len(data):
        raise WireFormatError(f"trailing bytes after pickle frame ({len(data) - body.tell()})")
    return message
