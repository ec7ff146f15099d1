"""Executable endpoints: rgbz-gen, rgbz-send, rgbz-recv, rgbz-relay.

The sender and receiver are also importable as run_sender / run_receiver so
integration tests can drive loopback pipelines in-process. Importing this
module loads only the relay and the standard library; the numpy pipeline is
loaded when the sender, the receiver or rgbz-gen first runs, so rgbz-relay
never loads it.

threecpt calls no BLAS routine, so rgbz-gen, rgbz-send and rgbz-recv set
OPENBLAS_NUM_THREADS to 1 before numpy is first imported, unless it is set
already: OpenBLAS then starts no idle worker thread. (Child processes, such
as an external codec, inherit the setting.) run_sender and run_receiver
leave the environment alone.

rgbz-recv replays only 640x480 streams. It still receives and decodes a
stream of any other size up to 2048x1024, and says once on stderr that its
frames are not replayed, and why.

Exit codes: 0 success, 2 source error or a bad argument to any endpoint
(rgbz-gen: also a frame size or fps outside the stream header's bounds;
rgbz-recv: also a --dump-dir or --latency-json it cannot write), 3
signaling error, 4 relay/transport error (also a connection that fails
mid-stream), 5 protocol desync (rgbz-recv: also a stream larger than
2048x1024 pixels), 6 (rgbz-recv) a frame failed SLM buffer validation.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import queue
import shlex
import socket
import sys
import threading
import time
from dataclasses import dataclass

from . import relay
from .errors import (
    AdapterError,
    ContainerError,
    DesyncError,
    DimensionError,
    RangeError,
    SignalingError,
    ThreecptError,
    ValidationError,
)
from .latency import LatencyReport

# The pipeline's names, which need numpy: name -> its submodule, or None for
# a submodule itself. rgbz-relay uses none of them, so they are bound only
# when first used, by _load_pipeline() or by an attribute lookup on this module.
_PIPELINE = {
    "codec": None,
    "container": None,
    "replay": None,
    "transport": None,
    "StreamHeader": "frames",
    "check_cutoff": "frames",
    "suppress_background": "frames",
    "pack_superframe": "superframe",
    "superframe_byte_size": "superframe",
    "unpack_superframe": "superframe",
}

EXIT_OK = 0
EXIT_SOURCE = 2
EXIT_USAGE = 2  # argparse's code for a bad argument
EXIT_SIGNALING = 3
EXIT_TRANSPORT = 4
EXIT_DESYNC = 5
EXIT_VALIDATION = 6

PIPELINE_QUEUE_FRAMES = 4

# a frame is late when it hits the wire more than half an interval past its deadline
LATE_SLACK_FRAC = 0.5


def _load_pipeline():
    """Bind every pipeline name not bound yet as a module global. The
    pipeline calls them through these globals, so a name patched on this
    module (as a tracer patches pack_superframe) stays patched."""
    for name, module in _PIPELINE.items():
        if name not in globals():
            value = importlib.import_module(f"{__package__}.{module or name}")
            globals()[name] = value if module is None else getattr(value, name)


def _one_blas_thread():
    """Ask OpenBLAS for no worker threads, unless the caller has chosen a
    count or numpy is loaded already (when it would be too late)."""
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def __getattr__(name):
    if name not in _PIPELINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_pipeline()
    return globals()[name]


def _wall_us() -> int:
    return time.time_ns() // 1000


def _ahead(items, depth: int = PIPELINE_QUEUE_FRAMES):
    """Yield what the generator items yields, running it on one background
    thread at most depth items ahead of the caller.

    An exception from items is raised here, after the items before it.
    Closing this generator stops items at its next item, closes it on its
    own thread and joins that thread.
    """
    handoff: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()
    end = object()
    failed = []

    def produce():
        try:
            with contextlib.closing(items):
                for item in items:
                    handoff.put(item)
                    if stop.is_set():
                        break
        except Exception as exc:
            failed.append(exc)
        finally:
            handoff.put(end)

    worker = threading.Thread(target=produce, daemon=True)
    worker.start()
    item = None
    try:
        while (item := handoff.get()) is not end:
            yield item
    finally:
        stop.set()
        while item is not end:  # unblock a producer waiting on a full queue
            item = handoff.get()
        worker.join()
    if failed:
        raise failed[0]


def parse_codec(value: str) -> str | None:
    """A --codec value: None for the built-in "ref" codec, or the command
    of "external:<command>". Raises ValueError on any other kind and on an
    empty or unparsable command."""
    if value == "ref":
        return None
    kind, sep, command = value.partition(":")
    if kind != "external" or not sep:
        raise ValueError(f"unknown codec {value!r} (expected ref or external:<command>)")
    if not shlex.split(command):
        raise ValueError(f"codec {value!r} has an empty command")
    return command


@dataclass
class SenderConfig:
    source: str  # .rgbz container path
    signal_addr: tuple
    channel_id: int
    codec: str = "ref"  # "ref" or "external:<command>"
    fps: float | None = None  # None = container fps; 0 = as fast as possible
    suppress_cutoff: float | None = None


@dataclass
class SenderReport:
    frames_sent: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    superframe_bytes_per_frame: int = 0
    late_frames: int = 0
    wall_time_s: float = 0.0

    def to_dict(self):
        return self.__dict__.copy()


def _encoded(cfg: SenderConfig, command, hdr: StreamHeader, frames, report: SenderReport):
    """Suppress, pack and encode each frame of the clip, yielding one list of
    units per frame (an external encoder may have output nothing yet, or
    several frames at once), then the external encoder's flush. The
    reference encoder works in memory held for the whole stream."""
    session = None if command is None else codec.ExternalSession(hdr, command)
    work = codec.ref_work(hdr.width, hdr.height) if session is None else None
    with session or contextlib.nullcontext():
        for frame in frames:
            if cfg.suppress_cutoff is not None:
                frame = suppress_background(frame, cfg.suppress_cutoff, hdr.range)
            sf = pack_superframe(frame)
            report.frames_sent += 1
            if session is None:
                yield [codec.ref_encode(sf, work)]
            else:
                session.send_frame(sf)
                yield session.units()
        if session is not None:
            session.close_input()
            yield session.units(wait=True)


def run_sender(cfg: SenderConfig) -> SenderReport:
    """File source -> pack -> encode -> relay. Raises on setup failures;
    the CLI wrapper maps exception types to exit codes."""
    _load_pipeline()
    command = parse_codec(cfg.codec)
    hdr, frames = container.read_container(cfg.source)
    fps = hdr.fps if cfg.fps is None else cfg.fps
    interval = 0.0 if fps == 0 else 1.0 / fps
    report = SenderReport()
    report.superframe_bytes_per_frame = superframe_byte_size(hdr.width, hdr.height)
    start = time.monotonic()

    def paced(batches):
        nonlocal start
        for i, units in enumerate(batches):
            if i == 0:
                # pacing clock starts when the first frame is ready to send,
                # so cold-start encoding cost doesn't count as lateness
                start = time.monotonic()
            if interval:
                deadline = start + i * interval
                now = time.monotonic()
                if now < deadline:
                    time.sleep(deadline - now)
                elif now - deadline > LATE_SLACK_FRAC * interval:
                    report.late_frames += 1
            for au in units:
                yield au, _wall_us()

    with frames:  # the clip is closed on every exit path, after the encode stage ends
        if cfg.suppress_cutoff is not None:
            check_cutoff(cfg.suppress_cutoff, hdr.range)  # before the channel exists
        grant = relay.register_channel(cfg.signal_addr, "sender", cfg.channel_id)
        conn = relay.attach(grant, "sender")
        # the encode stage runs ahead of the socket writer, which paces frames
        # and sends their units; an encode error raised through send_stream ends
        # the stream without END_OF_STREAM, so the receiver reports it truncated
        batches = _ahead(_encoded(cfg, command, hdr, frames, report))
        try:
            send = transport.send_stream(conn, hdr, paced(batches), channel_id=cfg.channel_id)
        finally:
            batches.close()
            conn.close()
    report.packets_sent = send.packets_sent
    report.bytes_sent = send.bytes_sent
    report.wall_time_s = time.monotonic() - start
    return report


@dataclass
class ReceiverConfig:
    signal_addr: tuple
    channel_id: int
    codec: str = "ref"
    resample: str = "nearest"
    dump_dir: str | None = None  # write each replayed frame's planes here
    latency_json: str | None = None
    frame_hook: object = None  # callable(RgbzFrame), for tests/embedding


@dataclass
class ReceiverReport:
    frames_received: int = 0
    gap_count: int = 0
    payload_bytes: int = 0
    validation_failures: int = 0
    replayed_frames: int = 0
    truncated: bool = False

    def to_dict(self):
        return self.__dict__.copy()


def _decoded(cfg: ReceiverConfig, command, receiver, report: ReceiverReport, latency):
    """Read each unit off the socket, decode it and unpack its frames,
    taking one latency sample per frame; then the external decoder's flush."""
    hdr = receiver.header

    def unpacked(sf):
        frame = unpack_superframe(sf, hdr)
        report.frames_received += 1
        if cfg.frame_hook is not None:
            cfg.frame_hook(frame)
        return frame

    with contextlib.ExitStack() as child:
        external = None
        for packet_header, au in receiver.units():
            recv_us = _wall_us()  # the unit has left the socket reader, undecoded
            if au.codec_id is codec.CodecId.REF_LOSSLESS:
                sfs = [codec.ref_decode(au, hdr)]
            else:
                if external is None:
                    if command is None:
                        raise AdapterError(
                            f"stream carries {au.codec_id.name} units, "
                            f"receiver codec is {cfg.codec!r}"
                        )
                    external = child.enter_context(codec.ExternalSession(hdr, command))
                external.send_bytes(au.payload)
                sfs = external.frames()
            for sf in sfs:
                latency.add(recv_us, packet_header.timestamp_us)
                yield unpacked(sf)
        if external is not None:
            external.close_input()
            for sf in external.frames(wait=True):
                yield unpacked(sf)


def run_receiver(cfg: ReceiverConfig) -> tuple[ReceiverReport, LatencyReport]:
    """Relay -> decode -> unpack -> replay prep -> sink, with latency samples."""
    _load_pipeline()
    command = parse_codec(cfg.codec)
    grant = relay.register_channel(cfg.signal_addr, "receiver", cfg.channel_id)
    conn = relay.attach(grant, "receiver")
    report = ReceiverReport()
    latency = LatencyReport()

    # the socket reader decodes and unpacks ahead of replay, which runs here
    # and is the slower of the two, so one hand-off keeps both busy
    with conn:
        receiver = transport.recv_stream(conn)
        hdr = receiver.header
        replayable = (hdr.width, hdr.height) == (replay.SOURCE_WIDTH, replay.SOURCE_HEIGHT)
        if not replayable:
            print(
                f"frames are received but not replayed: the stream is {hdr.width}x{hdr.height}, "
                f"replay takes {replay.SOURCE_WIDTH}x{replay.SOURCE_HEIGHT}",
                file=sys.stderr,
            )
        buf = None  # one SLM buffer, refilled frame after frame
        frames = _ahead(_decoded(cfg, command, receiver, report, latency))
        try:
            for frame in frames:
                if not replayable:
                    continue
                try:
                    buf = replay.prepare_for_replay(frame, hdr.range, cfg.resample, out=buf)
                    replay.sink_consume(buf, dump_dir=cfg.dump_dir, seq=report.replayed_frames)
                    report.replayed_frames += 1
                except ValidationError as exc:
                    buf = None  # a buffer that failed validation is not refilled
                    report.validation_failures += 1
                    print(f"frame validation failed: {exc}", file=sys.stderr)
        finally:
            # wakes a reader still waiting on a peer that holds the stream open
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            frames.close()
    report.gap_count = receiver.report.gap_count
    report.payload_bytes = receiver.report.payload_bytes
    report.truncated = receiver.report.truncated
    if cfg.latency_json and latency.count:
        latency.write_json(cfg.latency_json)
    return report, latency


# --- argparse front ends ---


def _addr(text: str) -> tuple:
    """A --signal host:port value; the host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", _port(port)


def _positive(text: str) -> float:
    """An --fps or --ttl-seconds value: positive and finite."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _at_least_one(text: str) -> int:
    """A --max-channels value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _port(text: str) -> int:
    """A TCP port number; 0 lets the system pick one."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0..65535, got {text!r}")
    return port


def _codec(text: str) -> str:
    """A --codec value, as given, once parse_codec accepts it."""
    try:
        parse_codec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def gen_main(argv=None) -> int:
    _one_blas_thread()
    _load_pipeline()
    p = argparse.ArgumentParser(prog="rgbz-gen", description="Render a synthetic .rgbz container")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--fps", type=int, default=30)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--pattern", choices=container.PATTERNS, default="orbiting-sphere")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    try:
        hdr, frames = container.gen_synthetic(
            args.width, args.height, (args.fps, 1), args.frames, args.pattern, seed=args.seed
        )
    except (DimensionError, ValueError) as exc:  # StreamHeader's bounds, or frames < 0
        print(f"{p.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        count = container.write_container(args.out, hdr, frames)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    print(json.dumps({"out": args.out, "frames": count, "pattern": args.pattern}))
    return EXIT_OK


def send_main(argv=None) -> int:
    _one_blas_thread()
    p = argparse.ArgumentParser(prog="rgbz-send", description="Stream an .rgbz container through the relay")
    p.add_argument("--input", required=True, help=".rgbz container path")
    p.add_argument("--signal", type=_addr, required=True, help="signaling host:port")
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--codec", type=_codec, default="ref", help="ref | external:<command>")
    p.add_argument("--fps", type=_positive, default=None, help="override container fps")
    p.add_argument("--as-fast-as-possible", action="store_true")
    p.add_argument("--suppress-background", type=float, default=None, metavar="DIOPTERS")
    args = p.parse_args(argv)
    cfg = SenderConfig(
        source=args.input,
        signal_addr=args.signal,
        channel_id=args.channel,
        codec=args.codec,
        fps=0 if args.as_fast_as_possible else args.fps,
        suppress_cutoff=args.suppress_background,
    )
    try:
        report = run_sender(cfg)
    except (OSError, ContainerError) as exc:
        print(f"source error: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    except SignalingError as exc:
        print(f"signaling error: {exc}", file=sys.stderr)
        return EXIT_SIGNALING
    except RangeError as exc:
        print(f"{p.prog}: error: argument --suppress-background: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ThreecptError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def recv_main(argv=None) -> int:
    _one_blas_thread()
    p = argparse.ArgumentParser(prog="rgbz-recv", description="Receive a stream and feed the hologram sink")
    p.add_argument("--signal", type=_addr, required=True, help="signaling host:port")
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--codec", type=_codec, default="ref", help="ref | external:<command>")
    p.add_argument("--resample", choices=("nearest", "bilinear"), default="nearest")
    p.add_argument("--dump-dir", default=None, help="write each replayed frame's planes here")
    p.add_argument("--latency-json", default=None)
    args = p.parse_args(argv)
    cfg = ReceiverConfig(
        signal_addr=args.signal,
        channel_id=args.channel,
        codec=args.codec,
        resample=args.resample,
        dump_dir=args.dump_dir,
        latency_json=args.latency_json,
    )
    try:
        report, latency = run_receiver(cfg)
    except SignalingError as exc:
        print(f"signaling error: {exc}", file=sys.stderr)
        return EXIT_SIGNALING
    except DesyncError as exc:
        print(f"protocol desync: {exc}", file=sys.stderr)
        return EXIT_DESYNC
    except ThreecptError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except OSError as exc:  # a --dump-dir or --latency-json write; sockets raise TransportError
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = report.to_dict()
    if latency.count:
        out["latency"] = latency.summary()
    print(json.dumps(out))
    return EXIT_VALIDATION if report.validation_failures else EXIT_OK


def relay_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rgbz-relay", description="Run the signaling + relay service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--signal-port", type=_port, default=43700)
    p.add_argument("--relay-port", type=_port, default=43701)
    p.add_argument("--ttl-seconds", type=_positive, default=120.0)
    p.add_argument("--max-channels", type=_at_least_one, default=256)
    args = p.parse_args(argv)
    try:
        server = relay.RelayServer(
            host=args.host,
            signal_port=args.signal_port,
            relay_port=args.relay_port,
            ttl_seconds=args.ttl_seconds,
            max_channels=args.max_channels,
        )
    except SignalingError as exc:
        print(f"startup error: {exc}", file=sys.stderr)
        return EXIT_SIGNALING
    server.start()
    print(f"signaling on {args.host}:{server.signal_port}, relay on {args.host}:{server.relay_port}")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(send_main())
