"""Superframe packing: one 2D RGB0 image carrying color over depth.

The superframe is the codec-facing representation: the color image occupies
the top half, and the depth map, replicated to grayscale R=G=B, is stacked
underneath. Grayscale replication keeps the depth code on luma, so it
survives chroma subsampling in YUV-based codecs.

The byte layout (row-major, top-to-bottom, RGB0, no padding or stride gaps)
is also the raw-video interchange format fed to codec adapters; it must stay
bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .frames import ColorImage, DepthMap, RgbzFrame, StreamHeader

# bytes pack_superframe allocates in front of each superframe's data, for an
# encoder to write a unit header into (codec.ref_encode's stored unit); 8
# keeps the data 8-byte aligned
HEADROOM = 8


@dataclass(frozen=True)
class Superframe:
    """Stacked color+depth image; data is (2h, w, 4) uint8 RGB0."""

    data: np.ndarray

    def __post_init__(self):
        d = self.data
        if d.ndim != 3 or d.shape[2] != 4 or d.dtype != np.uint8:
            raise DimensionError(f"superframe data must be (h, w, 4) uint8, got {d.shape} {d.dtype}")
        if d.shape[0] % 2:
            raise DimensionError("superframe height must be even (color + depth halves)")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def tobytes(self) -> bytes:
        return np.ascontiguousarray(self.data).tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, width: int, height: int) -> "Superframe":
        if len(raw) != width * height * 4:
            raise FormatError(
                f"expected {width * height * 4} superframe bytes, got {len(raw)}"
            )
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 4)
        return cls(arr.copy())

    def __eq__(self, other):
        if not isinstance(other, Superframe):
            return NotImplemented
        return np.array_equal(self.data, other.data)


def superframe_byte_size(width: int, height: int) -> int:
    """Byte size of the superframe for a width x height content frame."""
    if width <= 0 or height <= 0:
        raise DimensionError(f"dimensions must be positive, got {width}x{height}")
    return width * height * 2 * 4


def headroom(sf: Superframe) -> np.ndarray | None:
    """The one-dimensional uint8 buffer of HEADROOM bytes and then sf's
    data, as pack_superframe allocates it, or None for a superframe laid
    out any other way (one a caller builds from an array). The HEADROOM
    bytes belong to the superframe and hold nothing, so a writer may fill
    them."""
    data, base = sf.data, sf.data.base
    if not (
        isinstance(base, np.ndarray)
        and base.ndim == 1
        and base.dtype == np.uint8
        and base.flags.writeable
        and data.flags.c_contiguous
        and base.nbytes == HEADROOM + data.nbytes
        and data.ctypes.data == base.ctypes.data + HEADROOM
    ):
        return None
    return base


def pack_superframe(frame: RgbzFrame) -> Superframe:
    """Stack a frame into its codec-facing superframe.

    Top half: color RGB0 bytes verbatim. Bottom half: the depth code in
    R, G, and B with the pad byte zero. The data sits HEADROOM bytes into a
    fresh buffer (see headroom).
    """
    h, w = frame.height, frame.width
    buf = np.empty(HEADROOM + superframe_byte_size(w, h), dtype=np.uint8)
    data = buf[HEADROOM:].reshape(2 * h, w, 4)
    data[:h] = frame.color.data
    # whole little-endian elements: code * 0x010101 is bytes (code, code, code, 0)
    np.multiply(frame.depth.codes, 0x010101, out=data[h:].view("<u4")[:, :, 0], dtype=np.uint32)
    return Superframe(data)


def unpack_superframe(sf: Superframe, hdr: StreamHeader) -> RgbzFrame:
    """Split a superframe back into color and depth.

    The depth code is recovered as round((R + G + B) / 3) to average out
    per-channel codec noise; when R = G = B, as after the lossless reference
    codec, this is R exactly. All pixels come back marked valid (gaps are
    filled before packing); timestamp and seq are the caller's to fill from
    transport metadata.
    """
    if sf.width != hdr.width or sf.height != 2 * hdr.height:
        raise FormatError(
            f"superframe {sf.width}x{sf.height} does not match stream header "
            f"{hdr.width}x{2 * hdr.height}"
        )
    h = hdr.height
    color = sf.data[:h].copy()
    color[:, :, 3] = 0  # pad byte may carry codec noise
    s = sf.data[h:, :, 0].astype(np.uint16) + sf.data[h:, :, 1] + sf.data[h:, :, 2]
    # round(s / 3) == (2s + 3) // 6 in exact integer arithmetic
    codes = ((2 * s + 3) // 6).astype(np.uint8)
    return RgbzFrame(color=ColorImage(color), depth=DepthMap.all_valid(codes))
