"""The .rgbz container: file stand-in for live capture, plus synthetic scenes.

Layout (big-endian):

    magic "RGBZ" (4) | version u8 = 1 | width u16 | height u16 |
    fps numerator u16 | fps denominator u16 |
    disparity min f64 | disparity max f64 | frame count u32

then per frame:

    timestamp_us u64 | color bytes (w*h*4, RGB0) | depth codes (w*h)

The clip is streamed from disk. Before the first frame is yielded,
read_container checks the header, that the frame count matches the file
length exactly, and that the timestamp column strictly increases (one
8-byte read per frame). Each frame is then read when it is asked for, and
only then is its RGB0 pad byte checked, so a bad pad byte in frame k raises
when frame k is reached. The reader holds about one frame in memory,
whatever the clip's length. write_container likewise takes frames from any
iterable without holding them.
"""

from __future__ import annotations

import math
import os
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


def write_container(path: str | Path | int, hdr: StreamHeader, frames) -> int:
    """Write frames, any iterable, to an .rgbz file; returns the frame count.

    The header goes out with a count of 0 that is patched once the last
    frame is written, so the frames are never held at once. The file offset
    is left at the end of the data, which matters to a caller sharing a
    descriptor with it.
    """
    with open(path, "wb") as f:
        start = f.tell()
        f.write(_header_bytes(hdr, 0))
        count = 0
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
            f.write(np.ascontiguousarray(frame.color.data))
            f.write(np.ascontiguousarray(frame.depth.codes))
            count += 1
        end = f.tell()
        f.seek(start)
        f.write(_header_bytes(hdr, count))
        f.seek(end)
    return count


def _header_bytes(hdr: StreamHeader, count: int) -> bytes:
    return _HEADER.pack(
        MAGIC,
        VERSION,
        hdr.width,
        hdr.height,
        hdr.fps_num,
        hdr.fps_den,
        hdr.range.min_diopters,
        hdr.range.max_diopters,
        count,
    )


def read_container(path: str | Path | int) -> tuple[StreamHeader, FrameReader]:
    """Open and validate an .rgbz file; returns its header and a reader that
    yields its frames one at a time.

    The header, the exact file length and the timestamp column are checked
    here, so a bad file fails before any frame is yielded. The file stays
    open until the reader is exhausted or closed.
    """
    f = open(path, "rb")
    try:
        hdr, count = _validate(f)
    except BaseException:
        f.close()
        raise
    return hdr, FrameReader(f, hdr, count)


def _validate(f) -> tuple[StreamHeader, int]:
    """Check the header, the length and the timestamps of the open file f,
    leaving its offset at the first frame. Returns the header and the count."""
    size = os.fstat(f.fileno()).st_size
    raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise ContainerError(
            f"file is {size} bytes, header needs {_HEADER.size} (offset 0)"
        )
    magic, version, w, h, num, den, dmin, dmax, count = _HEADER.unpack(raw)
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
    frame_bytes = _frame_bytes(hdr)
    expected = _HEADER.size + count * frame_bytes
    if size != expected:
        bad = _HEADER.size + (size - _HEADER.size) // frame_bytes * frame_bytes
        raise ContainerError(
            f"header declares {count} frames ({expected} bytes) but file has "
            f"{size}; incomplete frame at offset {min(bad, expected)}"
        )
    last_ts = -1
    for offset in range(_HEADER.size, expected, frame_bytes):
        (ts,) = _TIMESTAMP.unpack(os.pread(f.fileno(), _TIMESTAMP.size, offset))
        if ts <= last_ts:
            raise ContainerError(f"non-increasing timestamp {ts} at offset {offset}")
        last_ts = ts
    return hdr, count


def _frame_bytes(hdr: StreamHeader) -> int:
    return _TIMESTAMP.size + hdr.width * hdr.height * 5


class FrameReader:
    """The frames of a validated .rgbz file, in order, one read per frame.

    Each frame is one readinto a fresh frame-sized buffer, and its color
    and depth are views on that buffer. The file is closed after the last
    frame, by close(), or on leaving a with block.
    """

    def __init__(self, f, hdr: StreamHeader, count: int):
        self._file = f
        self._hdr = hdr
        self._count = count
        self._seq = 0

    def __iter__(self):
        return self

    def __next__(self) -> RgbzFrame:
        if self._file.closed or self._seq == self._count:
            self.close()
            raise StopIteration
        try:
            frame = self._read()
        except BaseException:  # a bad frame ends the reader
            self.close()
            raise
        self._seq += 1
        return frame

    def _read(self) -> RgbzFrame:
        w, h = self._hdr.width, self._hdr.height
        frame_bytes = _frame_bytes(self._hdr)
        offset = _HEADER.size + self._seq * frame_bytes
        buf = np.empty(frame_bytes, dtype=np.uint8)
        if self._file.readinto(buf) != frame_bytes:  # cut short since it was validated
            raise ContainerError(f"file ends inside the frame at offset {offset}")
        (ts,) = _TIMESTAMP.unpack_from(buf)
        color_at = _TIMESTAMP.size
        depth_at = color_at + w * h * 4
        try:
            color = ColorImage(buf[color_at:depth_at].reshape(h, w, 4))
        except ValueError as exc:  # a nonzero RGB0 pad byte
            raise ContainerError(
                f"{exc} in the frame at offset {offset + color_at}"
            ) from exc
        return RgbzFrame(
            color=color,
            depth=DepthMap.all_valid(buf[depth_at:].reshape(h, w)),
            timestamp_us=ts,
            seq=self._seq,
        )

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
    hdr = StreamHeader(width=width, height=height, fps_num=fps[0], fps_den=fps[1], range=rng)
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}, choose from {PATTERNS}")
    if frames < 0:
        raise ValueError(f"frame count must be non-negative, got {frames}")
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
