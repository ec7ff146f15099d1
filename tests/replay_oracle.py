"""Reference geometry chain for the replay tests.

The chain as three separate stages (2x upscale, field embed, SLM padding)
with a float64 bilinear filter, written for clarity rather than speed.
replay.prepare_for_replay must produce the same bytes in both modes.
"""

import numpy as np

from threecpt.replay import (
    EMBED_X,
    EMBED_Y,
    FIELD_HEIGHT,
    FIELD_WIDTH,
    SLM_HEIGHT,
    SLM_WIDTH,
)


def reference_buffer(frame, mode):
    """(2048, 2048, 4) uint8 SLM elements for frame: upscale, embed, pad."""
    return pad_to_slm(embed_in_field(upscale(frame, mode)))


def upscale(frame, mode):
    """2x upscale to a (2h, 2w, 4) array of (R, G, B, Z) elements. Depth is
    nearest in both modes; color is nearest or bilinear."""
    codes = np.repeat(np.repeat(frame.depth.codes, 2, axis=0), 2, axis=1)
    color = frame.color.data[:, :, :3]
    if mode == "nearest":
        color = np.repeat(np.repeat(color, 2, axis=0), 2, axis=1)
    else:
        color = bilinear_2x(color)
    return np.concatenate([color, codes[:, :, None]], axis=2)


def bilinear_2x(channels):
    """2x bilinear with half-pixel centers: destination pixel d samples the
    source at (d + 0.5) / 2 - 0.5, clamped onto the edge pixels, and is
    rounded half up."""
    h, w = channels.shape[:2]
    src = channels.astype(np.float64)

    def axis_coords(n):
        pos = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        lo = np.clip(np.floor(pos).astype(int), 0, n - 1)
        hi = np.clip(lo + 1, 0, n - 1)
        frac = np.clip(pos - np.floor(pos), 0.0, 1.0)
        # clamp beyond-edge samples onto the edge pixel
        frac[pos < 0] = 0.0
        frac[pos > n - 1] = 0.0
        lo[pos > n - 1] = n - 1
        return lo, hi, frac

    ylo, yhi, fy = axis_coords(h)
    xlo, xhi, fx = axis_coords(w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = src[ylo][:, xlo] * (1 - fx) + src[ylo][:, xhi] * fx
    bot = src[yhi][:, xlo] * (1 - fx) + src[yhi][:, xhi] * fx
    out = top * (1 - fy) + bot * fy
    return np.floor(out + 0.5).astype(np.uint8)


def embed_in_field(window):
    """Center the upscaled elements in the 2048x1024 zero field."""
    field = np.zeros((FIELD_HEIGHT, FIELD_WIDTH, 4), dtype=np.uint8)
    h, w = window.shape[:2]
    field[EMBED_Y : EMBED_Y + h, EMBED_X : EMBED_X + w] = window
    return field


def pad_to_slm(field):
    """Zero-pad the field, top-aligned, to the 2048x2048 SLM."""
    elements = np.zeros((SLM_HEIGHT, SLM_WIDTH, 4), dtype=np.uint8)
    elements[:FIELD_HEIGHT] = field
    return elements
