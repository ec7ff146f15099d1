"""Receiver-side geometry chain producing SLM-ready RGBZ buffers.

prepare_for_replay is the whole chain in one pass: the decoded 640x480
frame is upscaled 2x to 1280x960 straight into its window, centered in the
2048x1024 effective field, which is the top half of the zero-filled
2048x2048 SLM buffer. Each element is 4 bytes: R, G, B, Z, where Z is the
8-bit quantized disparity code and the sidecar DisparityRange says how to
read it in diopters. The caller may pass the buffer to fill, as the receiver
does with the one it holds: the chain rewrites the whole window and nothing
else. sink_consume validates a buffer and stands in for the engine handoff.

Both modes build whole (R, G, B, Z) elements as little-endian uint32 at
source resolution and store each 2x2 phase of the window (rows dy::2,
columns dx::2) with one strided write, so every window element is written
once. The bilinear filter packs a source pixel's R, G, B and zero pad bytes
into the four 16-bit lanes of one uint64, so one add filters all three
channels. It runs on bands of BAND_ROWS source rows: a horizontal pass, then
a vertical one, both on contiguous band scratch allocated once per call. A
lane peaks at 4 * (4 * 255 + 2) = 4088 < 2**16, so no carry crosses a lane;
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

BAND_ROWS = 32  # bilinear source rows per band, so its ~1 MB of band scratch stays in cache
SINK_BAND_ROWS = 32  # window rows per sink band; an all-zero band is folded unread


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
    window = elements.view("<u4")[:, :, 0][rows, cols]  # a strided out raises here
    if mode == "bilinear":
        _bilinear_2x(frame.color.data, frame.depth.codes, window)
    else:  # whole (R, G, B, Z) elements: the color's pad byte is zero
        plane = frame.depth.codes.astype("<u4")
        plane <<= 24
        plane |= np.ascontiguousarray(frame.color.data).view("<u4")[:, :, 0]
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            window[dy::2, dx::2] = plane
    return SlmBuffer(elements=elements, range=rng)


def _bilinear_2x(color: np.ndarray, codes: np.ndarray, window: np.ndarray) -> None:
    """2x bilinear with half-pixel centers and edge pixels duplicated, on
    packed lanes (module docstring), written into window: (2h, 2w) uint32
    elements, each once, with the depth codes nearest in the Z bytes.

    Destination pixel d samples the source at (d + 0.5) / 2 - 0.5, so on
    each axis it weighs its two nearest source pixels 3:1: every output is
    (9a + 3b + 3c + d) / 16, rounded half up as (9a + 3b + 3c + d + 8) >> 4.
    The horizontal pass adds 2 per lane, which the vertical one makes the 8
    (3 * 2 + 2). A band's four phases are built contiguously, then stored.
    """
    h, w = codes.shape
    n = min(BAND_ROWS, h)
    lanes = np.empty((n + 2, w + 2, 4), np.uint16)  # a band with its halo rows and columns
    near = np.empty((n + 2, w), np.uint64)
    horiz = np.empty((2, n + 2, w), np.uint64)  # output columns 2j and 2j + 1
    acc = np.empty((n, w), np.uint64)
    phase = np.empty((n, w, 4), np.uint8)
    depth = np.empty((n, w), "<u4")
    for y in range(0, h, n):
        k = min(n, h - y)
        # source rows y - 1 .. y + k, the frame's edge rows and columns duplicated
        lanes[1 : k + 1, 1:-1] = color[y : y + k]
        lanes[0, 1:-1] = color[max(y - 1, 0)]
        lanes[k + 1, 1:-1] = color[min(y + k, h - 1)]
        lanes[:, 0] = lanes[:, 1]
        lanes[:, -1] = lanes[:, -2]
        # output column 2j leans on source column j - 1, column 2j + 1 on j + 1
        p, c = lanes.view(np.uint64)[: k + 2, :, 0], near[: k + 2]
        np.multiply(p[:, 1:-1], 3, out=c)
        c += np.uint64(0x0002000200020002)
        np.add(c, p[:, :-2], out=horiz[0, : k + 2])
        np.add(c, p[:, 2:], out=horiz[1, : k + 2])
        z, a, b = depth[:k], acc[:k], phase[:k]
        b32 = b.view("<u4")[:, :, 0]
        z[:] = codes[y : y + k]
        z <<= 24
        for dx in (0, 1):
            # output row 2i leans on source row i - 1, row 2i + 1 on row i + 1
            rows = horiz[dx, : k + 2]
            c = np.multiply(rows[1:-1], 3, out=near[:k])
            for dy in (0, 1):
                np.add(c, rows[2 * dy : 2 * dy + k], out=a)
                a >>= 4
                np.copyto(b, a.view(np.uint16).reshape(k, w, 4), casting="unsafe")
                b32 |= z
                window[2 * y + dy : 2 * (y + k) : 2, dx::2] = b32


def sink_consume(
    buf: SlmBuffer, dump_dir: str | Path | None = None, seq: int = 0
) -> SinkStats:
    """Validate buffer invariants and report stats; the stand-in for the
    hologram engine handoff. The checksum is adler32 over the embed-window
    bytes; together with the validated all-zero surround it pins down the
    whole buffer. Optionally dumps the color plane (binary PPM) and Z plane
    (binary PGM) as frame_<seq>.ppm / frame_<seq>.pgm.

    The pad half and the four surround regions are each checked with one
    max() over 8-byte words. The window's element columns 384 and 1664 are
    even, so no word straddles a window edge and the check is exact. The
    window is then read once, in bands of SINK_BAND_ROWS rows: each band's
    nonzero elements are counted, and a band with none is folded into the
    checksum unread. Zero bytes leave adler32's A as it is and add A to B
    once each, so n of them map (A, B) to (A, (B + n * A) mod 65521).
    """
    el = buf.elements
    if el.shape != (SLM_HEIGHT, SLM_WIDTH, 4):
        raise ValidationError(f"buffer shape invariant violated: {el.shape}")
    el = np.ascontiguousarray(el)
    words = el.reshape(SLM_HEIGHT, SLM_WIDTH * 4).view(np.uint64)
    pad = words[FIELD_HEIGHT:]
    if pad.max():
        row = FIELD_HEIGHT + int(np.nonzero(pad.any(axis=1))[0][0])
        raise ValidationError(f"padding-violation: nonzero byte in row {row}")
    y0, y1 = EMBED_Y, EMBED_Y + UPSCALED_HEIGHT
    x0, x1 = EMBED_X // 2, (EMBED_X + UPSCALED_WIDTH) // 2  # in words
    if (
        words[:y0].max()
        or words[y1:FIELD_HEIGHT].max()
        or words[y0:y1, :x0].max()
        or words[y0:y1, x1:].max()
    ):
        raise ValidationError("embed-window violation: nonzero element outside window")

    # everything outside the embed window is zero (just validated), so the
    # window alone determines the count and the checksum
    window = el.view("<u4")[y0:y1, EMBED_X : EMBED_X + UPSCALED_WIDTH, 0]
    nonzero = 0
    checksum = 1  # adler32 of no bytes, folded over the window's rows without a copy
    for y in range(0, UPSCALED_HEIGHT, SINK_BAND_ROWS):
        band = window[y : y + SINK_BAND_ROWS]
        count = np.count_nonzero(band)
        if count:
            nonzero += count
            for row in band:
                checksum = zlib.adler32(row, checksum)
        else:
            a = checksum & 0xFFFF
            checksum = ((checksum >> 16) + band.nbytes * a) % 65521 << 16 | a
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        _write_pnm(dump_dir / f"frame_{seq}.ppm", b"P6", el[:, :, :3])
        _write_pnm(dump_dir / f"frame_{seq}.pgm", b"P5", el[:, :, 3])
    return SinkStats(nonzero_elements=int(nonzero), checksum_adler32=checksum)


def _write_pnm(path: Path, magic: bytes, plane: np.ndarray) -> None:
    """A binary PNM (magic P6 for an RGB plane, P5 for a gray one), maxval 255."""
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, plane.shape[1], plane.shape[0]))
        f.write(np.ascontiguousarray(plane).tobytes())
