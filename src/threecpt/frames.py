"""Core RGBZ frame types and the capture-side processing chain.

Images are numpy-backed: color is an (h, w, 4) uint8 array in RGB0 layout
(the fourth byte is alignment padding and must stay zero), depth is an
(h, w) uint8 array of quantized disparity codes plus an (h, w) bool
validity mask (False marks a sensor hole).

Disparity is expressed in diopters (1/meters): larger values are nearer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, RangeError, UnfillableError


U16_MAX = 65535


class Orientation(enum.Enum):
    """Quarter-turn device orientations (counterclockwise)."""

    DEG_0 = 0
    DEG_90 = 1
    DEG_180 = 2
    DEG_270 = 3


class PixelFormat(enum.Enum):
    RGB0_8 = 1


@dataclass(frozen=True)
class DisparityRange:
    """Closed disparity interval, in diopters, spanned by the 8-bit codes."""

    min_diopters: float
    max_diopters: float

    def __post_init__(self):
        if not (self.min_diopters >= 0.0):
            raise ValueError(f"min_diopters must be >= 0, got {self.min_diopters}")
        if not (self.min_diopters < self.max_diopters):
            raise ValueError(
                f"need min < max, got [{self.min_diopters}, {self.max_diopters}]"
            )

    @property
    def span(self) -> float:
        return self.max_diopters - self.min_diopters


@dataclass(frozen=True)
class ColorImage:
    """RGB0 color image; data is (h, w, 4) uint8 with the pad byte zero."""

    data: np.ndarray

    def __post_init__(self):
        d = self.data
        if d.ndim != 3 or d.shape[2] != 4 or d.dtype != np.uint8:
            raise DimensionError(f"color data must be (h, w, 4) uint8, got {d.shape} {d.dtype}")
        if d.shape[0] == 0 or d.shape[1] == 0:
            raise DimensionError("color image has a zero dimension")
        # little-endian RGB0 pixels: a nonzero pad byte makes the word exceed 24 bits
        if (np.ascontiguousarray(d).view("<u4") > 0x00FFFFFF).any():
            raise ValueError("RGB0 pad byte (channel 3) must be zero")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def tobytes(self) -> bytes:
        return np.ascontiguousarray(self.data).tobytes()

    @classmethod
    def from_rgb(cls, rgb: np.ndarray) -> "ColorImage":
        """Build from an (h, w, 3) uint8 RGB array, adding the zero pad byte."""
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise DimensionError(f"expected (h, w, 3), got {rgb.shape}")
        h, w = rgb.shape[:2]
        data = np.zeros((h, w, 4), dtype=np.uint8)
        data[:, :, :3] = rgb
        return cls(data)

    def __eq__(self, other):
        if not isinstance(other, ColorImage):
            return NotImplemented
        return np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class DepthMap:
    """Quantized disparity codes with a per-pixel validity mask."""

    codes: np.ndarray
    validity: np.ndarray

    def __post_init__(self):
        if self.codes.ndim != 2 or self.codes.dtype != np.uint8:
            raise DimensionError(f"codes must be (h, w) uint8, got {self.codes.shape} {self.codes.dtype}")
        if self.codes.shape[0] == 0 or self.codes.shape[1] == 0:
            raise DimensionError("depth map has a zero dimension")
        if self.validity.shape != self.codes.shape or self.validity.dtype != np.bool_:
            raise DimensionError("validity must be a bool mask matching codes")

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    @classmethod
    def all_valid(cls, codes: np.ndarray) -> "DepthMap":
        return cls(codes, np.ones(codes.shape, dtype=bool))

    def __eq__(self, other):
        if not isinstance(other, DepthMap):
            return NotImplemented
        return np.array_equal(self.codes, other.codes) and np.array_equal(
            self.validity, other.validity
        )


@dataclass(frozen=True)
class RgbzFrame:
    """One pipeline content unit: color + depth with stream metadata."""

    color: ColorImage
    depth: DepthMap
    timestamp_us: int = 0
    seq: int = 0

    def __post_init__(self):
        if (self.color.width, self.color.height) != (self.depth.width, self.depth.height):
            raise DimensionError(
                f"color {self.color.width}x{self.color.height} vs "
                f"depth {self.depth.width}x{self.depth.height}"
            )

    @property
    def width(self) -> int:
        return self.color.width

    @property
    def height(self) -> int:
        return self.color.height

    def __eq__(self, other):
        if not isinstance(other, RgbzFrame):
            return NotImplemented
        return (
            self.color == other.color
            and self.depth == other.depth
            and self.timestamp_us == other.timestamp_us
            and self.seq == other.seq
        )


@dataclass(frozen=True)
class StreamHeader:
    """Per-stream metadata negotiated before any frame flows."""

    width: int = 640
    height: int = 480
    fps_num: int = 30
    fps_den: int = 1
    range: DisparityRange = DisparityRange(0.0, 2.0)
    pixel_format: PixelFormat = PixelFormat.RGB0_8

    def __post_init__(self):
        # the .rgbz, wire and REF unit headers store each of these as a u16
        if not (0 < self.width <= U16_MAX and 0 < self.height <= U16_MAX):
            raise DimensionError(
                f"stream dimensions must be 1..{U16_MAX}, got {self.width}x{self.height}"
            )
        if self.width % 2 or self.height % 2:
            raise DimensionError(
                f"stream dimensions must be even, got {self.width}x{self.height}"
            )
        if not (0 < self.fps_num <= U16_MAX and 0 < self.fps_den <= U16_MAX):
            raise ValueError(
                f"fps must be a rational of terms 1..{U16_MAX}, "
                f"got {self.fps_num}/{self.fps_den}"
            )

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den


def quantize_disparity(raw: np.ndarray, rng: DisparityRange) -> DepthMap:
    """Quantize per-pixel disparity (diopters) to 8-bit codes.

    code = round_half_up(255 * clamp((d - min) / (max - min), 0, 1)).
    Non-finite input pixels get code 0 with validity False.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.size == 0:
        raise DimensionError(f"disparity input must be a non-empty 2-D array, got shape {raw.shape}")
    finite = np.isfinite(raw)
    norm = np.clip((np.where(finite, raw, 0.0) - rng.min_diopters) / rng.span, 0.0, 1.0)
    codes = np.floor(norm * 255.0 + 0.5).astype(np.uint8)
    codes[~finite] = 0
    return DepthMap(codes, finite)


def dequantize_disparity(code, rng: DisparityRange):
    """Map 8-bit codes back to diopters: min + (code / 255) * (max - min)."""
    return rng.min_diopters + (np.asarray(code, dtype=np.float64) / 255.0) * rng.span


def fill_depth_gaps(depth: DepthMap) -> DepthMap:
    """Fill sensor holes with an expanding-window median of valid codes.

    Each invalid pixel takes the median of the valid codes inside the
    smallest odd square window (3x3, then 5x5, ...) centered on it that
    contains at least one valid pixel. Valid pixels pass through unchanged.
    An even count of contributors takes the mean of the two middle values
    rounded down (so {10, 20} fills with 15 and {10, 21} with 15 too).
    """
    if not depth.validity.any():
        raise UnfillableError("depth map has no valid pixels")
    if depth.validity.all():
        return depth

    h, w = depth.codes.shape
    codes = depth.codes.copy()
    max_radius = max(h, w)  # window covers the whole map well before this
    for y, x in zip(*np.nonzero(~depth.validity)):
        for radius in range(1, max_radius + 1):
            y0, y1 = max(0, y - radius), min(h, y + radius + 1)
            x0, x1 = max(0, x - radius), min(w, x + radius + 1)
            window_valid = depth.validity[y0:y1, x0:x1]
            if window_valid.any():
                vals = np.sort(depth.codes[y0:y1, x0:x1][window_valid])
                n = len(vals)
                codes[y, x] = (int(vals[(n - 1) // 2]) + int(vals[n // 2])) // 2
                break
    return DepthMap.all_valid(codes)


def apply_orientation(frame: RgbzFrame, orientation: Orientation) -> RgbzFrame:
    """Rotate color and depth together by the given quarter-turn (CCW)."""
    k = orientation.value
    if k == 0:
        return frame
    color = ColorImage(np.ascontiguousarray(np.rot90(frame.color.data, k)))
    depth = DepthMap(
        np.ascontiguousarray(np.rot90(frame.depth.codes, k)),
        np.ascontiguousarray(np.rot90(frame.depth.validity, k)),
    )
    return replace(frame, color=color, depth=depth)


def check_cutoff(cutoff_diopters: float, rng: DisparityRange) -> None:
    """Raise RangeError (a ValueError) unless the cutoff lies in rng."""
    if not (rng.min_diopters <= cutoff_diopters <= rng.max_diopters):
        raise RangeError(
            f"cutoff {cutoff_diopters} outside range "
            f"[{rng.min_diopters}, {rng.max_diopters}]"
        )


def suppress_background(
    frame: RgbzFrame, cutoff_diopters: float, rng: DisparityRange
) -> RgbzFrame:
    """Zero out pixels behind the cutoff plane.

    Pixels whose dequantized disparity is below the cutoff (i.e. farther
    away), and pixels already at code 0, get color (0, 0, 0, 0) and depth
    code 0. Everything else is untouched.
    """
    check_cutoff(cutoff_diopters, rng)
    # dequantized disparity never falls as the code rises, so the far codes
    # are exactly those below the count of codes that dequantize below the
    # cutoff; code 0 is far whatever the cutoff
    far_codes = np.count_nonzero(dequantize_disparity(np.arange(256), rng) < cutoff_diopters)
    far = frame.depth.codes < max(far_codes, 1)
    color = frame.color.data.copy()  # C-contiguous, whatever the input's layout
    # one 4-byte write per far pixel: the pad byte is zero, so zeroing the
    # whole RGB0 element gives the same bytes as zeroing its channels
    color.view(np.uint32).reshape(far.shape)[far] = 0
    codes = frame.depth.codes.copy()
    codes[far] = 0
    return replace(
        frame,
        color=ColorImage(color),
        depth=DepthMap(codes, frame.depth.validity.copy()),
    )
