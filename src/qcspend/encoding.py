"""Canonical byte framing shared by every serialized structure.

Everything that goes on the wire (or into a hash) is built from two
primitives: fixed-width big-endian integers and length-prefixed byte
strings.  Length prefixes are 4-byte big-endian, so no serialization is
ambiguous and concatenated fields can never alias each other.

The packers are precompiled `struct.Struct`s.  A decoder walks its buffer
by offset: `Reader` for a field at a time, or an offset walker (a function
`(data, pos) -> (value, pos)` such as `bytes_at`, see `ledger`) that
`Reader.walk` runs in place.  Both raise `DecodeError` with the same
messages.
"""

from __future__ import annotations

import struct


class DecodeError(ValueError):
    """Raised when a byte string does not parse as the expected layout."""


U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")

END_OF_BUFFER = "unexpected end of buffer"


def enc_u32(n: int) -> bytes:
    if not 0 <= n < 1 << 32:
        raise DecodeError(f"u32 out of range: {n}")
    return U32.pack(n)


def enc_u64(n: int) -> bytes:
    if not 0 <= n < 1 << 64:
        raise DecodeError(f"u64 out of range: {n}")
    return U64.pack(n)


def enc_bytes(b: bytes) -> bytes:
    return enc_u32(len(b)) + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def decode_utf8(b: bytes) -> str:
    try:
        return b.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(str(exc)) from None


def bytes_at(data: bytes, pos: int) -> tuple[bytes, int]:
    """The length-prefixed byte string at `pos` and the offset after it."""
    start = pos + 4
    if start > len(data):
        raise DecodeError(END_OF_BUFFER)
    end = start + U32.unpack_from(data, pos)[0]
    if end > len(data):
        raise DecodeError(END_OF_BUFFER)
    return data[start:end], end


def done_at(data: bytes, pos: int) -> None:
    """Raise unless a decoder that stopped at `pos` read all of `data`."""
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes")


class Reader:
    """Sequential reader over a serialized buffer with strict bounds checks."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def u8(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            raise DecodeError(END_OF_BUFFER)
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self._pos
        if pos + 4 > len(self._data):
            raise DecodeError(END_OF_BUFFER)
        self._pos = pos + 4
        return U32.unpack_from(self._data, pos)[0]

    def u64(self) -> int:
        pos = self._pos
        if pos + 8 > len(self._data):
            raise DecodeError(END_OF_BUFFER)
        self._pos = pos + 8
        return U64.unpack_from(self._data, pos)[0]

    def bytes_(self) -> bytes:
        value, self._pos = bytes_at(self._data, self._pos)
        return value

    def str_(self) -> str:
        return decode_utf8(self.bytes_())

    def walk(self, read_at):
        """Run an offset walker `read_at(data, pos) -> (value, pos)` from
        the current position and continue after what it read."""
        value, self._pos = read_at(self._data, self._pos)
        return value

    def done(self) -> None:
        done_at(self._data, self._pos)
