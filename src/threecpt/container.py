"""The .rgbz container: file stand-in for live capture, plus synthetic scenes.

Layout (big-endian):

    magic "RGBZ" (4) | version u8 = 1 | width u16 | height u16 |
    fps numerator u16 | fps denominator u16 |
    disparity min f64 | disparity max f64 | frame count u32

then per frame:

    timestamp_us u64 | color bytes (w*h*4, RGB0) | depth codes (w*h)

Frame count must match the file length exactly and timestamps must strictly
increase; readers validate both before yielding any frame.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContainerError, DimensionError
from .frames import (
    ColorImage,
    DepthMap,
    DisparityRange,
    RgbzFrame,
    StreamHeader,
    quantize_disparity,
)

MAGIC = b"RGBZ"
VERSION = 1
_HEADER = struct.Struct(">4sBHHHHddI")
_TIMESTAMP = struct.Struct(">Q")

PATTERNS = ("orbiting-sphere", "gradient-sweep")


def write_container(path: str | Path, hdr: StreamHeader, frames) -> int:
    """Write frames to an .rgbz file; returns the frame count."""
    frames = list(frames)
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                MAGIC,
                VERSION,
                hdr.width,
                hdr.height,
                hdr.fps_num,
                hdr.fps_den,
                hdr.range.min_diopters,
                hdr.range.max_diopters,
                len(frames),
            )
        )
        last_ts = -1
        for frame in frames:
            if (frame.width, frame.height) != (hdr.width, hdr.height):
                raise DimensionError(
                    f"frame {frame.seq} is {frame.width}x{frame.height}, "
                    f"container is {hdr.width}x{hdr.height}"
                )
            if frame.timestamp_us <= last_ts:
                raise ContainerError(
                    f"timestamps must strictly increase "
                    f"({frame.timestamp_us} after {last_ts})"
                )
            last_ts = frame.timestamp_us
            f.write(_TIMESTAMP.pack(frame.timestamp_us))
            f.write(frame.color.tobytes())
            f.write(np.ascontiguousarray(frame.depth.codes).tobytes())
    return len(frames)


def read_container(path: str | Path) -> tuple[StreamHeader, list[RgbzFrame]]:
    """Read and validate an .rgbz file."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ContainerError(
            f"file is {len(raw)} bytes, header needs {_HEADER.size} (offset 0)"
        )
    magic, version, w, h, num, den, dmin, dmax, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version} at offset 4")
    try:
        hdr = StreamHeader(
            width=w, height=h, fps_num=num, fps_den=den, range=DisparityRange(dmin, dmax)
        )
    except ValueError as exc:  # fps or disparity range out of bounds
        raise ContainerError(f"bad header at offset 9: {exc}") from exc
    frame_bytes = 8 + w * h * 4 + w * h
    expected = _HEADER.size + count * frame_bytes
    if len(raw) != expected:
        bad = _HEADER.size + (len(raw) - _HEADER.size) // frame_bytes * frame_bytes
        raise ContainerError(
            f"header declares {count} frames ({expected} bytes) but file has "
            f"{len(raw)}; incomplete frame at offset {min(bad, expected)}"
        )
    frames = []
    offset = _HEADER.size
    last_ts = -1
    for seq in range(count):
        (ts,) = _TIMESTAMP.unpack_from(raw, offset)
        if ts <= last_ts:
            raise ContainerError(
                f"non-increasing timestamp {ts} at offset {offset}"
            )
        last_ts = ts
        offset += 8
        try:
            color = ColorImage.from_bytes(raw[offset : offset + w * h * 4], w, h)
        except ValueError as exc:  # a nonzero RGB0 pad byte
            raise ContainerError(f"{exc} in the frame at offset {offset}") from exc
        offset += w * h * 4
        codes = np.frombuffer(raw[offset : offset + w * h], dtype=np.uint8)
        offset += w * h
        frames.append(
            RgbzFrame(
                color=color,
                depth=DepthMap.all_valid(codes.reshape(h, w).copy()),
                timestamp_us=ts,
                seq=seq,
            )
        )
    return hdr, frames


# --- synthetic scenes ---

ORBIT_HZ = 0.25  # one orbit every 4 seconds
ORBIT_RADIUS_FRAC = 0.25  # of the frame width
SPHERE_RADIUS_FRAC = 0.125


def gen_synthetic(
    width: int = 640,
    height: int = 480,
    fps: tuple[int, int] = (30, 1),
    frames: int = 60,
    pattern: str = "orbiting-sphere",
    rng: DisparityRange = DisparityRange(0.0, 2.0),
    seed: int = 0,
) -> tuple[StreamHeader, list[RgbzFrame]]:
    """Render a deterministic synthetic RGBZ scene with real depth variation.

    orbiting-sphere: a lambertian-shaded disc orbits the frame center at
    ORBIT_HZ while its disparity oscillates sinusoidally between mid-range
    and near; the background sits at a far plane. gradient-sweep: a color
    gradient sweeping horizontally with a vertical disparity ramp.
    """
    if width <= 0 or height <= 0 or width % 2 or height % 2:
        raise DimensionError(f"dimensions must be positive and even, got {width}x{height}")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}, choose from {PATTERNS}")
    hdr = StreamHeader(width=width, height=height, fps_num=fps[0], fps_den=fps[1], range=rng)
    random = np.random.default_rng(seed)
    tint = random.integers(96, 256, size=3)  # per-stream sphere tint
    out = []
    for i in range(frames):
        t = i * fps[1] / fps[0]
        if pattern == "orbiting-sphere":
            frame = _render_sphere(width, height, t, tint, rng)
        else:
            frame = _render_gradient(width, height, t, rng)
        out.append(
            RgbzFrame(
                color=frame.color,
                depth=frame.depth,
                timestamp_us=round(t * 1_000_000),
                seq=i,
            )
        )
    return hdr, out


def sphere_center(width: int, height: int, t: float) -> tuple[float, float]:
    """Parametric orbit: the disc circles the frame center at ORBIT_HZ."""
    theta = 2.0 * math.pi * ORBIT_HZ * t
    cx = width / 2.0 + ORBIT_RADIUS_FRAC * width * math.cos(theta)
    cy = height / 2.0 + ORBIT_RADIUS_FRAC * height * math.sin(theta)
    return cx, cy


def _render_sphere(width, height, t, tint, rng: DisparityRange) -> RgbzFrame:
    cx, cy = sphere_center(width, height, t)
    radius = SPHERE_RADIUS_FRAC * width
    yy, xx = np.mgrid[0:height, 0:width]
    r2 = ((xx - cx) ** 2 + (yy - cy) ** 2) / radius**2
    inside = r2 <= 1.0
    shade = np.sqrt(np.clip(1.0 - r2, 0.0, 1.0))  # lambertian on a sphere cap

    # background: far plane with a faint horizontal color wash
    color = np.zeros((height, width, 3), dtype=np.float64)
    color[:, :, 2] = 20.0 + 20.0 * xx / max(width - 1, 1)
    for c in range(3):
        color[:, :, c] = np.where(inside, tint[c] * shade, color[:, :, c])

    span = rng.span
    far = rng.min_diopters + 0.05 * span
    near_mid = rng.min_diopters + 0.6 * span
    osc = 0.25 * span * math.sin(2.0 * math.pi * ORBIT_HZ * t)
    disparity = np.where(inside, near_mid + osc + 0.1 * span * shade, far)

    return RgbzFrame(
        color=ColorImage.from_rgb(np.floor(color + 0.5).astype(np.uint8)),
        depth=quantize_disparity(disparity, rng),
    )


def _render_gradient(width, height, t, rng: DisparityRange) -> RgbzFrame:
    yy, xx = np.mgrid[0:height, 0:width]
    phase = (xx / width + t) % 1.0
    color = np.zeros((height, width, 3), dtype=np.uint8)
    color[:, :, 0] = np.floor(255 * phase + 0.5)
    color[:, :, 1] = np.floor(255 * (1.0 - phase) + 0.5)
    color[:, :, 2] = np.floor(255 * yy / max(height - 1, 1) + 0.5)
    disparity = rng.min_diopters + rng.span * (yy / max(height - 1, 1))
    return RgbzFrame(
        color=ColorImage.from_rgb(color),
        depth=quantize_disparity(disparity, rng),
    )
