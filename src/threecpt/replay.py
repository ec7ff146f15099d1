"""Receiver-side geometry chain producing SLM-ready RGBZ buffers.

prepare_for_replay is the whole chain in one pass: the decoded 640x480
frame is upscaled 2x to 1280x960 straight into its window, centered in the
2048x1024 effective field, which is the top half of the zero-filled
2048x2048 SLM buffer. Each element is 4 bytes: R, G, B, Z, where Z is the
8-bit quantized disparity code and the sidecar DisparityRange says how to
read it in diopters. The caller may pass the buffer to fill, as the receiver
does with the one it holds: the chain rewrites the whole window and nothing
else. sink_consume validates a buffer and stands in for the engine handoff.

The bilinear filter packs a source pixel's R, G, B and zero pad bytes into
the four 16-bit lanes of one uint64, so one add filters all three channels.
A lane peaks at 16 * 255 + 8 = 4088 < 2**16, so no carry crosses a lane;
the final >> 4 moves 4 bits of each lane into the top of the lane below,
and narrowing the lanes to bytes drops them.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, ValidationError
from .frames import DisparityRange, RgbzFrame

SLM_WIDTH = 2048
SLM_HEIGHT = 2048
FIELD_WIDTH = 2048
FIELD_HEIGHT = 1024

SOURCE_WIDTH = 640
SOURCE_HEIGHT = 480
UPSCALED_WIDTH = 1280
UPSCALED_HEIGHT = 960

# centered placement of the 1280x960 frame in the 2048x1024 field
EMBED_X = (FIELD_WIDTH - UPSCALED_WIDTH) // 2  # 384
EMBED_Y = (FIELD_HEIGHT - UPSCALED_HEIGHT) // 2  # 32

SLM_BUFFER_BYTES = SLM_WIDTH * SLM_HEIGHT * 4  # 16777216

BAND_ROWS = 32  # bilinear source rows per pass, so its ~1.5 MB of temporaries stay in cache
DEPTH_ONLY = np.array([0, 0, 0, 0xFF], dtype=np.uint8).view(np.uint32)


@dataclass(frozen=True)
class SlmBuffer:
    """2048x2048 RGBZ element buffer; elements is (2048, 2048, 4) uint8."""

    elements: np.ndarray
    range: DisparityRange

    def __post_init__(self):
        if self.elements.shape != (SLM_HEIGHT, SLM_WIDTH, 4) or self.elements.dtype != np.uint8:
            raise DimensionError(
                f"SLM buffer must be ({SLM_HEIGHT}, {SLM_WIDTH}, 4) uint8, "
                f"got {self.elements.shape} {self.elements.dtype}"
            )

    def tobytes(self) -> bytes:
        return np.ascontiguousarray(self.elements).tobytes()


@dataclass
class SinkStats:
    nonzero_elements: int
    checksum_adler32: int


def prepare_for_replay(
    frame: RgbzFrame, rng: DisparityRange, mode: str = "nearest", out: SlmBuffer | None = None
) -> SlmBuffer:
    """Full geometry chain: 640x480 -> 1280x960 -> field -> SLM buffer.

    Nearest replicates each (R, G, B, Z) element into a 2x2 block. Bilinear
    then interpolates the color bytes under half-pixel-center alignment and
    keeps depth nearest (interpolated depth codes fabricate surfaces).
    Fills out's window if given, else that of a fresh zero buffer.
    """
    if (frame.width, frame.height) != (SOURCE_WIDTH, SOURCE_HEIGHT):
        raise DimensionError(
            f"replay prep expects {SOURCE_WIDTH}x{SOURCE_HEIGHT} input, "
            f"got {frame.width}x{frame.height}"
        )
    if mode not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resample mode {mode!r}")
    # the upscaled elements go straight into the embed window, and
    # everything else stays as it is
    elements = np.zeros((SLM_HEIGHT, SLM_WIDTH, 4), np.uint8) if out is None else out.elements
    rows = slice(EMBED_Y, EMBED_Y + UPSCALED_HEIGHT)
    cols = slice(EMBED_X, EMBED_X + UPSCALED_WIDTH)
    src = frame.color.data.copy()
    src[:, :, 3] = frame.depth.codes
    src32 = src.reshape(SOURCE_HEIGHT, SOURCE_WIDTH * 4).view(np.uint32)
    if mode == "bilinear":
        src32 &= DEPTH_ONLY  # the filter ORs the color bytes in
    # 2x2 replication on whole elements: one uint32 per (R,G,B,Z);
    # columns doubled once, then each doubled row written twice
    up = np.repeat(src32, 2, axis=1)
    w32 = elements.view(np.uint32)[:, :, 0][rows, cols]  # a strided out raises here
    w32[0::2] = up
    w32[1::2] = up
    if mode == "bilinear":
        _bilinear_2x(frame.color.data, w32)
    return SlmBuffer(elements=elements, range=rng)


def _bilinear_2x(color: np.ndarray, window: np.ndarray) -> None:
    """2x bilinear with half-pixel centers and edge pixels duplicated, on
    packed lanes (module docstring), ORed into window: (2h, 2w) uint32
    elements whose color bytes are zero.

    Destination pixel d samples the source at (d + 0.5) / 2 - 0.5, so on
    each axis it weighs its two nearest source pixels 3:1: every output is
    (9a + 3b + 3c + d) / 16, rounded half up as (9a + 3b + 3c + d + 8) >> 4.
    """
    h, w = color.shape[:2]
    lanes = color.astype(np.uint16, order="C").view(np.uint64)[:, :, 0]
    p = np.pad(lanes, 1, mode="edge")
    for y in range(0, h, BAND_ROWS):
        band = p[y : y + BAND_ROWS + 2]
        # output row 2k leans on source row k-1, row 2k+1 on row k+1
        near = 3 * band[1:-1]
        rows = np.empty((2 * len(near), w + 2), dtype=np.uint64)
        np.add(near, band[:-2], out=rows[0::2])
        np.add(near, band[2:], out=rows[1::2])
        # the same on columns, with the rounding term 8 folded into every lane
        near = 3 * rows[:, 1:-1] + np.uint64(0x0008000800080008)
        out = np.empty((len(rows), 2 * w), dtype=np.uint64)
        np.add(near, rows[:, :-2], out=out[:, 0::2])
        np.add(near, rows[:, 2:], out=out[:, 1::2])
        out >>= 4
        window[2 * y : 2 * y + len(out)] |= out.view(np.uint16).astype(np.uint8).view(np.uint32)


def sink_consume(
    buf: SlmBuffer, dump_dir: str | Path | None = None, seq: int = 0
) -> SinkStats:
    """Validate buffer invariants and report stats; the stand-in for the
    hologram engine handoff. The checksum is adler32 over the embed-window
    bytes; together with the validated all-zero surround it pins down the
    whole buffer. Optionally dumps the color plane (binary PPM) and Z plane
    (binary PGM) as frame_<seq>.ppm / frame_<seq>.pgm."""
    el = buf.elements
    if el.shape != (SLM_HEIGHT, SLM_WIDTH, 4):
        raise ValidationError(f"buffer shape invariant violated: {el.shape}")
    el = np.ascontiguousarray(el)
    pixels = el.reshape(SLM_HEIGHT, SLM_WIDTH * 4).view(np.uint32)
    pad = pixels[FIELD_HEIGHT:]
    if pad.any():
        row = FIELD_HEIGHT + int(np.nonzero(pad.any(axis=1))[0][0])
        raise ValidationError(f"padding-violation: nonzero byte in row {row}")
    y0, y1 = EMBED_Y, EMBED_Y + UPSCALED_HEIGHT
    x0, x1 = EMBED_X, EMBED_X + UPSCALED_WIDTH
    if (
        pixels[:y0].any()
        or pixels[y1:FIELD_HEIGHT].any()
        or pixels[y0:y1, :x0].any()
        or pixels[y0:y1, x1:SLM_WIDTH].any()
    ):
        raise ValidationError("embed-window violation: nonzero element outside window")

    # everything outside the embed window is zero (just validated), so the
    # window alone determines the count and the checksum
    nonzero = int(np.count_nonzero(pixels[y0:y1, x0:x1]))
    checksum = 1  # adler32 of no bytes, folded over the window's rows without a copy
    for row in el[y0:y1, x0:x1]:
        checksum = zlib.adler32(row, checksum)
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        _write_ppm(dump_dir / f"frame_{seq}.ppm", el[:, :, :3])
        _write_pgm(dump_dir / f"frame_{seq}.pgm", el[:, :, 3])
    return SinkStats(nonzero_elements=nonzero, checksum_adler32=checksum)


def _write_ppm(path: Path, rgb: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (rgb.shape[1], rgb.shape[0]))
        f.write(np.ascontiguousarray(rgb).tobytes())


def _write_pgm(path: Path, gray: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (gray.shape[1], gray.shape[0]))
        f.write(np.ascontiguousarray(gray).tobytes())
