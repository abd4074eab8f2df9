"""One bounds-checked reader and writer for every qnip binary format.

QCM2 containers, QFW1 float weights, QDS1 descriptor files and IMG1
rasters are all parsed front to back through a Reader, so they share one
read contract:

  * bytes that do not start with the format's magic raise FormatError;
  * a stream that ends inside a field raises TruncationError, whose
    .offset is where that field starts: "truncated at byte N reading WHAT";
  * bytes left after the last field raise CorruptionError: "N trailing bytes".

All of these are CodecErrors, and CodecError is a ValueError. A reader
built with a source (a file path) prefixes its messages with it.

Writers pack every fixed-width header field through pack, so a value that
does not fit its field raises EncodeError naming the field, and build the
whole byte string before writing it, so a failed save leaves no file.
"""
from __future__ import annotations

import struct

import numpy as np


class CodecError(ValueError):
    """Base class for binary encode/decode failures."""


class FormatError(CodecError):
    """The byte stream is not the expected kind of file at all."""


class TruncationError(CodecError):
    def __init__(self, offset: int, what: str, prefix: str = ""):
        super().__init__(f"{prefix}truncated at byte {offset} reading {what}")
        self.offset = offset


class CorruptionError(CodecError):
    pass


class EncodeError(CodecError):
    """A value cannot be written in its format."""


def pack(fmt: str, what: str, *values) -> bytes:
    """struct.pack, raising EncodeError that names WHAT when a value does not fit."""
    try:
        return struct.pack(fmt, *values)
    except struct.error as err:
        raise EncodeError(f"{what} = {values} does not fit {fmt!r}: {err}") from None


class Reader:
    """Cursor over a byte string that checks the magic on construction."""

    def __init__(self, data: bytes, magic: bytes, kind: str, source=None):
        self.data = data
        self.pos = 0
        self.prefix = "" if source is None else f"{source}: "
        if self.take(len(magic), "magic") != magic:
            raise FormatError(f"{self.prefix}not {kind} (bad magic)")

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncationError(self.pos, what, self.prefix)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        try:
            values = struct.unpack_from(fmt, self.data, self.pos)
        except struct.error:
            raise TruncationError(self.pos, what, self.prefix) from None
        self.pos += struct.calcsize(fmt)
        return values

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """count (>= 0) items as a read-only view of the buffer, no copy."""
        try:
            values = np.frombuffer(self.data, dtype, count, self.pos)
        except (ValueError, OverflowError):  # short buffer or absurd count
            raise TruncationError(self.pos, what, self.prefix) from None
        self.pos += values.nbytes
        return values

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise CorruptionError(f"{self.prefix}{len(self.data) - self.pos} trailing bytes")
