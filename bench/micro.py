"""Per-stage microbenchmark of the pipeline stages at 640x480.

Times pack, ref_encode (fresh work memory each call), ref_encode_held
(work memory held across calls, as the sender holds it for a stream),
frame (send_stream of the REF unit, between its stream header and end of
stream, into a socket stand-in that discards what it is sent: the framing
the sender performs), reassemble (PacketDecoder.feed of that unit's packet
in 64 KiB chunks and deserialize_access_unit), ref_decode, unpack,
prepare_for_replay (prepare_nearest and prepare_bilinear into a fresh
buffer each call, prepare_nearest_held and prepare_bilinear_held into one
buffer held across calls, as the receiver's replay thread does) and
sink_consume on two frames: one orbiting-sphere frame with its background
suppressed (the sphere-30fps content) and one frame of uniform noise (the
noise-max content). sink_consume is also timed on the unsuppressed sphere
frame (the sphere-bilinear-max content, a window with no empty band), in
its own sphere_unsuppressed section. Each sink_consume figure carries
empty_bands beside it: the share of the window's SINK_BAND_ROWS-row bands
with no nonzero element, which the sink folds into its checksum unread.
For the sphere it also times the two sender stages
ahead of pack: suppress (suppress_background of the unsuppressed frame at
the workload's cutoff) and read_frame (the next frame of a clip of that
frame on disk, written just before, so read from the page cache as the
benchmark's sender reads its freshly written clip).
Each figure is the median, with the quartiles, of --calls timed calls after
--warmup untimed ones, in ms, with the minor page faults per call beside it
(minflt: the process's ru_minflt change over the timed calls). The faults
depend on what the process freed before: once a block of some size has
been freed, glibc serves blocks up to that size from memory it keeps, so
after this script's 16 MiB buffers they read near 0 where a fresh sender
process faults. The threecpt imported is the one in the src/ next to this
script.
The startup section runs --calls fresh interpreters (after --warmup
untimed ones) for each of three imports: none (the interpreter alone),
relay (from threecpt import cli, all that rgbz-relay imports) and pipeline
(cli with the codec, container, replay and transport modules, as the
sender and receiver load them). Each reports its own CPU time (user +
system, interpreter start-up included) and VmHWM once the import is done;
the section gives the median and quartiles of both, in ms and MB.
Prints one JSON object that also records each frame's REF unit size in
bytes beside its superframe size, the core count and the Python and numpy
versions.

    python bench/micro.py [--calls 40] [--warmup 5]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from threecpt import codec, replay, transport  # noqa: E402
from threecpt.container import gen_synthetic, read_container, write_container  # noqa: E402
from threecpt.frames import (  # noqa: E402
    ColorImage,
    DepthMap,
    RgbzFrame,
    StreamHeader,
    suppress_background,
)
from threecpt.superframe import (  # noqa: E402
    pack_superframe,
    superframe_byte_size,
    unpack_superframe,
)

WIDTH, HEIGHT = 640, 480
SUPPRESS_CUTOFF = 0.5  # diopters, as in the sphere-30fps workload
CHUNK = 65536  # bytes per receiver recv, as transport.RECV_SIZE

IMPORTS = {
    "none": "",
    "relay": "from threecpt import cli",
    "pipeline": "from threecpt import cli, codec, container, replay, transport",
}
# after the import: this process's CPU ms and VmHWM in kB, read without
# importing anything more than resource
REPORT_STARTUP = """
import resource
ru = resource.getrusage(resource.RUSAGE_SELF)
with open("/proc/self/status") as f:
    hwm = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
print(1e3 * (ru.ru_utime + ru.ru_stime), hwm)
"""


def frames() -> tuple[StreamHeader, RgbzFrame, dict[str, RgbzFrame]]:
    """The header, the unsuppressed sphere frame and both stage inputs."""
    hdr, clip = gen_synthetic(WIDTH, HEIGHT, (30, 1), 8, "orbiting-sphere", seed=1)
    sphere = suppress_background(clip[4], SUPPRESS_CUTOFF, hdr.range)
    rng = np.random.default_rng(1)
    color = np.zeros((HEIGHT, WIDTH, 4), dtype=np.uint8)
    color[:, :, :3] = rng.integers(0, 256, size=(HEIGHT, WIDTH, 3), dtype=np.uint8)
    codes = rng.integers(0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
    noise = RgbzFrame(color=ColorImage(color), depth=DepthMap.all_valid(codes))
    return hdr, clip[4], {"sphere": sphere, "noise": noise}


def source_stages(hdr: StreamHeader, raw: RgbzFrame, path: Path, frames: int) -> dict:
    """The sender's stages ahead of pack, on the unsuppressed sphere frame.
    read_frame may be called `frames` times, the clip's length."""
    write_container(path, hdr, (replace(raw, timestamp_us=i, seq=i) for i in range(frames)))
    _, reader = read_container(path)  # closes itself after the last frame
    return {
        "read_frame": lambda: next(reader),
        "suppress": lambda: suppress_background(raw, SUPPRESS_CUTOFF, hdr.range),
    }


def stages(hdr: StreamHeader, frame: RgbzFrame) -> dict:
    """Each stage as a no-argument call on the output of the stage before."""
    sf = pack_superframe(frame)
    au = codec.ref_encode(sf)
    work = codec.ref_work(hdr.width, hdr.height)
    discard = SimpleNamespace(sendmsg=lambda buffers: sum(map(len, buffers)))
    packets = []

    def record(buffers):
        packets.append(b"".join(buffers))
        return len(packets[-1])

    transport.send_stream(SimpleNamespace(sendmsg=record), hdr, [(au, 0)])
    wire = packets[1]  # between the stream header and the end of stream
    chunks = [wire[i : i + CHUNK] for i in range(0, len(wire), CHUNK)]

    def reassemble():
        decoder = transport.PacketDecoder()
        (packet,) = [p for chunk in chunks for p in decoder.feed(chunk)]
        return transport.deserialize_access_unit(packet.payload)

    held = replay.prepare_for_replay(frame, hdr.range, "nearest")
    return {
        "pack": lambda: pack_superframe(frame),
        "ref_encode": lambda: codec.ref_encode(sf),
        "ref_encode_held": lambda: codec.ref_encode(sf, work),
        "frame": lambda: transport.send_stream(discard, hdr, [(au, 0)]),
        "reassemble": reassemble,
        "ref_decode": lambda: codec.ref_decode(au, hdr),
        "unpack": lambda: unpack_superframe(sf, hdr),
        "prepare_nearest": lambda: replay.prepare_for_replay(frame, hdr.range, "nearest"),
        "prepare_nearest_held": lambda: replay.prepare_for_replay(
            frame, hdr.range, "nearest", out=held
        ),
        "prepare_bilinear": lambda: replay.prepare_for_replay(frame, hdr.range, "bilinear"),
        "prepare_bilinear_held": lambda: replay.prepare_for_replay(
            frame, hdr.range, "bilinear", out=held
        ),
    }


def sink(hdr: StreamHeader, frame: RgbzFrame, calls: int, warmup: int) -> dict:
    """sink_consume of frame's nearest buffer, timed, with the share of its
    window's bands that hold no nonzero element."""
    buf = replay.prepare_for_replay(frame, hdr.range, "nearest")
    window = buf.elements.view("<u4")[
        replay.EMBED_Y : replay.EMBED_Y + replay.UPSCALED_HEIGHT,
        replay.EMBED_X : replay.EMBED_X + replay.UPSCALED_WIDTH,
        0,
    ]
    bands = range(0, replay.UPSCALED_HEIGHT, replay.SINK_BAND_ROWS)
    empty = sum(not window[y : y + replay.SINK_BAND_ROWS].any() for y in bands)
    timing = time_call(lambda: replay.sink_consume(buf), calls, warmup)
    return {**timing, "empty_bands": round(empty / len(bands), 3)}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def time_call(fn, calls: int, warmup: int) -> dict:
    for _ in range(warmup):
        fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {**quartiles(times), "minflt": round(faults / calls, 1)}


def startup(statement: str, calls: int, warmup: int) -> dict:
    """CPU ms and VmHWM (MB) of fresh interpreters that run statement."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = []
    for _ in range(warmup + calls):
        out = subprocess.run(
            [sys.executable, "-c", statement + REPORT_STARTUP],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        cpu_ms, hwm_kb = out.split()
        runs.append((float(cpu_ms), int(hwm_kb) / 1024))
    cpu, hwm = zip(*runs[warmup:])
    return {"cpu_ms": quartiles(cpu), "vm_hwm_mb": quartiles(hwm)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--calls", type=int, default=40)
    ap.add_argument("--warmup", type=int, default=5)
    args = ap.parse_args(argv)
    hdr, raw, inputs = frames()
    ms = {
        name: {
            **{stage: time_call(fn, args.calls, args.warmup) for stage, fn in stages(hdr, f).items()},
            "sink_consume": sink(hdr, f, args.calls, args.warmup),
        }
        for name, f in inputs.items()
    }
    ms["sphere_unsuppressed"] = {"sink_consume": sink(hdr, raw, args.calls, args.warmup)}
    with tempfile.TemporaryDirectory() as tmp:
        sender = source_stages(hdr, raw, Path(tmp) / "clip.rgbz", args.warmup + args.calls)
        ms["sphere"] = {
            **{stage: time_call(fn, args.calls, args.warmup) for stage, fn in sender.items()},
            **ms["sphere"],
        }
    report = {
        "host": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "calls": args.calls,
        "warmup": args.warmup,
        "ms": ms,
        "startup": {
            name: startup(statement, args.calls, args.warmup) for name, statement in IMPORTS.items()
        },
        "unit_bytes": {
            name: len(codec.ref_encode(pack_superframe(f)).payload) for name, f in inputs.items()
        },
        "superframe_bytes": superframe_byte_size(WIDTH, HEIGHT),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
