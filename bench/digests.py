"""SHA-256 digests of the bytes the pipeline produces, to show that a change
keeps them.

Each case streams a 640x480 clip through the shipped path on loopback:
cli.run_sender -> relay.RelayServer -> cli.run_receiver, as fast as possible
(fps 0), on channel 5, with a fresh relay per case. Four digests per case,
each over the whole session:

  units   every payload codec.ref_encode returns (none for external:cat);
  wire    every sendmsg call of the sender, its buffers joined into one
          packet, with the packet header's timestamp field zeroed. For external:cat it covers only
          the access-unit bodies after their 2-byte unit prefix (codec id
          and flags), since where cat's pipe reads split the stream decides
          where the units and so their packets end;
  frames  the color bytes (pad byte included) and depth codes of every
          frame run_receiver hands to frame_hook;
  sink    repr() of every SinkStats that replay.sink_consume returns.

The clips: 12 orbiting-sphere frames (seed 1), unsuppressed and suppressed
at 0.5 diopters, and 4 frames of uniform noise (default_rng(1); their units
are stored). Each runs in nearest and in bilinear replay, and the
unsuppressed sphere also runs through external:cat in nearest. Prints one
JSON object, case -> digests and counts. The threecpt imported is the one
in the src/ next to this script, so running each checkout's own copy of the
script compares two commits:

    python bench/digests.py > digests.json

bench/digests.json is this output for the current bytes; CI fails when a run
differs from it:

    python bench/digests.py | diff -u bench/digests.json -
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from threecpt import cli, codec, relay, replay, transport  # noqa: E402
from threecpt.container import gen_synthetic, write_container  # noqa: E402
from threecpt.frames import ColorImage, DepthMap, RgbzFrame, StreamHeader  # noqa: E402

WIDTH, HEIGHT = 640, 480
CHANNEL = 5
SUPPRESS_CUTOFF = 0.5  # diopters
CAT = shutil.which("cat") or "cat"
TIMESTAMP = slice(struct.calcsize(">4sBBHQQ"), struct.calcsize(">4sBBHQQQ"))  # in transport.HEADER
UNIT_PREFIX = 2  # codec id and flags bytes in front of an access unit's body


def noise_clip(frames: int = 4) -> tuple[StreamHeader, list[RgbzFrame]]:
    rng = np.random.default_rng(1)
    clip = []
    for i in range(frames):
        color = np.zeros((HEIGHT, WIDTH, 4), dtype=np.uint8)
        color[:, :, :3] = rng.integers(0, 256, size=(HEIGHT, WIDTH, 3), dtype=np.uint8)
        codes = rng.integers(0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
        clip.append(
            RgbzFrame(ColorImage(color), DepthMap.all_valid(codes), timestamp_us=33_333 * i, seq=i)
        )
    return StreamHeader(width=WIDTH, height=HEIGHT, fps_num=30, fps_den=1), clip


class Taps:
    """The four running digests of the case in progress, fed by wrappers
    around ref_encode, the sender's socket and sink_consume."""

    def __init__(self, external: bool):
        self.external = external
        self.sha = {name: hashlib.sha256() for name in ("units", "wire", "frames", "sink")}

    def unit(self, au):
        self.sha["units"].update(au.payload)

    def packet(self, data):
        if not self.external:
            wire = bytearray(data)
            wire[TIMESTAMP] = bytes(TIMESTAMP.stop - TIMESTAMP.start)
            self.sha["wire"].update(wire)
            return
        header = transport.PacketHeader.unpack(bytes(data[: transport.HEADER_SIZE]))
        if header.ptype == transport.PTYPE_ACCESS_UNIT:
            self.sha["wire"].update(memoryview(data)[transport.HEADER_SIZE + UNIT_PREFIX :])

    def frame(self, frame):
        self.sha["frames"].update(frame.color.data.tobytes())
        self.sha["frames"].update(frame.depth.codes.tobytes())

    def sink(self, stats):
        self.sha["sink"].update(repr(stats).encode())


class TappedSocket:
    def __init__(self, conn, record):
        self._conn = conn
        self._record = record

    def sendmsg(self, buffers):
        self._record(b"".join(buffers))
        return self._conn.sendmsg(buffers)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def run_case(path: Path, codec_name: str, resample: str, suppress: float | None) -> dict:
    taps = Taps(external=codec_name != "ref")
    ref_encode, attach, sink_consume = codec.ref_encode, relay.attach, replay.sink_consume

    def encode(*args):
        au = ref_encode(*args)
        taps.unit(au)
        return au

    def tapped_attach(grant, role, *args, **kwargs):
        conn = attach(grant, role, *args, **kwargs)
        return TappedSocket(conn, taps.packet) if role == "sender" else conn

    def sink(*args, **kwargs):
        stats = sink_consume(*args, **kwargs)
        taps.sink(stats)
        return stats

    codec.ref_encode, relay.attach, replay.sink_consume = encode, tapped_attach, sink
    try:
        with relay.RelayServer(ttl_seconds=60.0) as server:
            addr = (server.host, server.signal_port)
            result = {}
            receiver_cfg = cli.ReceiverConfig(
                signal_addr=addr,
                channel_id=CHANNEL,
                codec=codec_name,
                resample=resample,
                frame_hook=taps.frame,
            )
            receiver = threading.Thread(
                target=lambda: result.update(report=cli.run_receiver(receiver_cfg)[0])
            )
            receiver.start()
            sent = cli.run_sender(
                cli.SenderConfig(
                    source=str(path),
                    signal_addr=addr,
                    channel_id=CHANNEL,
                    codec=codec_name,
                    fps=0,
                    suppress_cutoff=suppress,
                )
            )
            receiver.join(timeout=120)
            if receiver.is_alive() or "report" not in result:
                raise RuntimeError("the receiver did not finish")
    finally:
        codec.ref_encode, relay.attach, replay.sink_consume = ref_encode, attach, sink_consume
    return {
        **{name: sha.hexdigest() for name, sha in taps.sha.items()},
        "frames_sent": sent.frames_sent,
        "replayed": result["report"].replayed_frames,
    }


def main() -> int:
    sphere = gen_synthetic(WIDTH, HEIGHT, (30, 1), 12, "orbiting-sphere", seed=1)
    clips = {
        "sphere": (sphere, None),
        "sphere-suppressed": (sphere, SUPPRESS_CUTOFF),
        "noise": (noise_clip(), None),
    }
    cases = [(clip, "ref", mode) for clip in clips for mode in ("nearest", "bilinear")]
    cases.append(("sphere", f"external:{CAT}", "nearest"))
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for clip, codec_name, mode in cases:
            (hdr, frames), suppress = clips[clip]
            path = Path(tmp) / f"{clip}.rgbz"
            if not path.exists():
                write_container(path, hdr, frames)
            name = f"{clip}/{mode}" if codec_name == "ref" else f"{clip}/external-cat/{mode}"
            report[name] = run_case(path, codec_name, mode, suppress)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
