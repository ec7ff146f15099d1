"""Workload definitions, seeded clip generation and the expected display checksums.

Every workload is 640x480 RGBZ. The clip is written once per run as an
.rgbz container and streamed by a fresh sender in each session of the run.
The expected checksum of each clip frame is what `replay.sink_consume`
must report for it: adler32 over the 1280x960 embed window of the SLM
buffer. It is computed here by an independent reference of the geometry
chain (numpy repeats for nearest, the exact 2x integer form for bilinear),
so a wrong `prepare_for_replay` shows up as failed frames instead of being
its own oracle.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT, FPS = 640, 480, 30
UP_W, UP_H = 2 * WIDTH, 2 * HEIGHT


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: str  # "orbiting-sphere" | "noise"
    clip_frames: int  # frames streamed per session; bounded by sender memory
    paced: bool  # True: open loop at the container's 30 fps; False: unpaced closed loop
    resample: str  # receiver replay mode
    suppress: float | None  # sender --suppress-background cutoff, diopters
    why: str


# Clip sizes keep one session at a few seconds and the sender's copy of the
# clip (about 1.5 MB per frame, twice that while read_container runs) small.
# sphere-30fps sessions have 200 frames, so that each session's latency p95
# has ten samples above it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sphere-30fps", "orbiting-sphere", 200, True, "nearest", 0.5,
            "the paper's operating point: paced 30 fps, nearest replay, background "
            "suppression on; the only workload where display latency is due-time based",
        ),
        Workload(
            "noise-max", "noise", 200, False, "nearest", None,
            "incompressible content, unpaced: the codec expands it to ~1.49x raw, so "
            "codec, transport and relay carry the load",
        ),
        Workload(
            "sphere-bilinear-max", "orbiting-sphere", 40, False, "bilinear", None,
            "unpaced bilinear replay (~70 ms/frame) dominates while the wire carries "
            "~180 kB/frame: the bypass workload for codec, transport and relay changes",
        ),
    )
}


def make_clip(workload: Workload, seed: int, path: Path):
    """Write the workload's clip to `path`; return the expected sink checksums.

    The same seed gives the same clip. For the sphere the seed picks the
    sphere tint; for noise it seeds the uniform color and depth.
    """
    from threecpt import container
    from threecpt.frames import ColorImage, DepthMap, RgbzFrame, StreamHeader, suppress_background

    if workload.pattern == "noise":
        hdr = StreamHeader(width=WIDTH, height=HEIGHT, fps_num=FPS, fps_den=1)
        rng = np.random.default_rng(seed)
        frames = []
        for i in range(workload.clip_frames):
            color = np.zeros((HEIGHT, WIDTH, 4), dtype=np.uint8)
            color[:, :, :3] = rng.integers(0, 256, size=(HEIGHT, WIDTH, 3), dtype=np.uint8)
            codes = rng.integers(0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
            frames.append(
                RgbzFrame(
                    color=ColorImage(color),
                    depth=DepthMap.all_valid(codes),
                    timestamp_us=round(i * 1_000_000 / FPS),
                    seq=i,
                )
            )
    else:
        hdr, frames = container.gen_synthetic(
            WIDTH, HEIGHT, (FPS, 1), workload.clip_frames, workload.pattern, seed=seed
        )
    write_in_place(path, hdr, frames)
    expected = []
    for frame in frames:
        if workload.suppress is not None:
            # the sender suppresses before encoding, so that is what must arrive
            frame = suppress_background(frame, workload.suppress, hdr.range)
        expected.append(expected_checksum(frame, workload.resample))
    return expected


def write_in_place(path: Path, hdr, frames) -> None:
    """container.write_container into `path` without truncating it first.

    Freeing a file's blocks costs seconds per 100 MB on a disk mounted with
    `discard` (25 s for a 300 MB clip), so each workload keeps one clip file
    from run to run and overwrites it in place; clips of a workload all have
    one size. write_container opens what it is given with "wb", and open()
    given a descriptor does not truncate.
    """
    from threecpt import container

    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        container.write_container(os.dup(fd), hdr, frames)  # closes the dup
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))  # the dup shared the offset
        os.fsync(fd)  # write the clip back now, not during a session
    finally:
        os.close(fd)


def expected_checksum(frame, mode: str) -> int:
    """adler32 of the embed window that prepare_for_replay must produce."""
    window = np.empty((UP_H, UP_W, 4), dtype=np.uint8)
    color = frame.color.data[:, :, :3]
    if mode == "nearest":
        window[:, :, :3] = _repeat2(color)
    else:
        window[:, :, :3] = bilinear_2x(color)
    window[:, :, 3] = _repeat2(frame.depth.codes)  # depth stays nearest in both modes
    return zlib.adler32(window)


def _repeat2(a: np.ndarray) -> np.ndarray:
    return a.repeat(2, axis=0).repeat(2, axis=1)


def bilinear_2x(src: np.ndarray) -> np.ndarray:
    """2x bilinear, half-pixel centers, edge pixels duplicated.

    At 2x every output sample weighs its two nearest source samples 3:1 on
    each axis, so the value is (9a + 3b + 3c + d) / 16 exactly and
    round-half-up is (9a + 3b + 3c + d + 8) >> 4 in integers.
    """
    p = np.pad(src.astype(np.uint16), ((1, 1), (1, 1), (0, 0)), mode="edge")
    # rows: output row 2k leans on source row k-1, row 2k+1 on row k+1
    rows = np.empty((2 * src.shape[0],) + p.shape[1:], dtype=np.uint16)
    rows[0::2] = 3 * p[1:-1] + p[:-2]
    rows[1::2] = 3 * p[1:-1] + p[2:]
    out = np.empty((rows.shape[0], 2 * src.shape[1], src.shape[2]), dtype=np.uint16)
    out[:, 0::2] = 3 * rows[:, 1:-1] + rows[:, :-2]
    out[:, 1::2] = 3 * rows[:, 1:-1] + rows[:, 2:]
    return ((out + 8) >> 4).astype(np.uint8)
