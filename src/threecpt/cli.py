"""Executable endpoints: rgbz-gen, rgbz-send, rgbz-recv, rgbz-relay.

The sender and receiver are also importable as run_sender / run_receiver so
integration tests can drive loopback pipelines in-process.

Exit codes: 0 success, 2 source error or bad argument, 3 signaling error,
4 relay/transport error, 5 protocol desync, 6 validation-failure threshold
exceeded.
"""

from __future__ import annotations

import argparse
import json
import queue
import shlex
import sys
import threading
import time
from dataclasses import dataclass

from . import codec, container, relay, replay, transport
from .errors import (
    AdapterError,
    ContainerError,
    DesyncError,
    SignalingError,
    ThreecptError,
    TranscoderError,
    ValidationError,
)
from .frames import StreamHeader, suppress_background
from .latency import LatencyReport
from .superframe import pack_superframe, superframe_byte_size, unpack_superframe

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


def _wall_us() -> int:
    return time.time_ns() // 1000


def _drain(q: queue.Queue) -> None:
    """Discard queued items up to the end-of-work marker (None)."""
    while q.get() is not None:
        pass


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


def _close_session(session, errors: list) -> None:
    """Reap an external session, if any, recording a failure in errors."""
    if session is None:
        return
    try:
        session.close()
    except TranscoderError as exc:
        errors.append(exc)


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


def run_sender(cfg: SenderConfig) -> SenderReport:
    """File source -> pack -> encode -> relay. Raises on setup failures;
    the CLI wrapper maps exception types to exit codes."""
    command = parse_codec(cfg.codec)
    hdr, frames = container.read_container(cfg.source)
    fps = hdr.fps if cfg.fps is None else cfg.fps
    interval = 0.0 if fps == 0 else 1.0 / fps

    grant = relay.register_channel(cfg.signal_addr, "sender", cfg.channel_id)
    conn = relay.attach(grant, "sender")
    report = SenderReport(
        superframe_bytes_per_frame=superframe_byte_size(hdr.width, hdr.height)
    )

    # encode stage feeds a bounded queue, one list of units per frame (an
    # external encoder may have output nothing yet, or several frames at
    # once), so the stage runs at most PIPELINE_QUEUE_FRAMES frames ahead;
    # the socket writer paces frames and sends their units
    work: queue.Queue = queue.Queue(maxsize=PIPELINE_QUEUE_FRAMES)
    encode_error = []
    stop = threading.Event()  # set when the writer fails

    def encode_stage():
        session = None
        try:
            if command is not None:
                session = codec.ExternalSession(hdr, command)
            for frame in frames:
                if stop.is_set():
                    break
                if cfg.suppress_cutoff is not None:
                    frame = suppress_background(frame, cfg.suppress_cutoff, hdr.range)
                sf = pack_superframe(frame)
                if session is None:
                    work.put([codec.ref_encode(sf)])
                else:
                    session.send_frame(sf)
                    work.put(session.units())
                report.frames_sent += 1
            if session is not None:
                session.close_input()
                work.put(session.units(wait=True))
        except Exception as exc:  # surfaced by the writer side
            encode_error.append(exc)
        finally:
            _close_session(session, encode_error)
            work.put(None)

    encoder = threading.Thread(target=encode_stage, daemon=True)
    encoder.start()

    clock = {"start": time.monotonic()}
    ended = []  # the writer took the end-of-work marker

    def paced_units():
        for i, units in enumerate(iter(work.get, None)):
            if i == 0:
                # pacing clock starts when the first frame is ready to send,
                # so cold-start encoding cost doesn't count as lateness
                clock["start"] = time.monotonic()
            if interval:
                deadline = clock["start"] + i * interval
                now = time.monotonic()
                if now < deadline:
                    time.sleep(deadline - now)
                elif now - deadline > LATE_SLACK_FRAC * interval:
                    report.late_frames += 1
            for au in units:
                yield au, _wall_us()
        ended.append(True)

    try:
        send = transport.send_stream(conn, hdr, paced_units(), channel_id=cfg.channel_id)
    except BaseException:
        stop.set()
        if not ended:
            _drain(work)  # unblock the encode stage so it can stop and reap
        raise
    finally:
        encoder.join()
        conn.close()
    if encode_error:
        raise encode_error[0]
    report.packets_sent = send.packets_sent
    report.bytes_sent = send.bytes_sent
    report.wall_time_s = time.monotonic() - clock["start"]
    return report


@dataclass
class ReceiverConfig:
    signal_addr: tuple
    channel_id: int
    codec: str = "ref"
    resample: str = "nearest"
    dump_dir: str | None = None  # write each replayed frame's planes here
    latency_json: str | None = None
    max_validation_failures: int = 0
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


def run_receiver(cfg: ReceiverConfig) -> tuple[ReceiverReport, LatencyReport]:
    """Relay -> decode -> unpack -> replay prep -> sink, with latency samples."""
    command = parse_codec(cfg.codec)
    grant = relay.register_channel(cfg.signal_addr, "receiver", cfg.channel_id)
    conn = relay.attach(grant, "receiver")
    report = ReceiverReport()
    latency = LatencyReport()

    # the socket reader decodes and unpacks each unit and hands the frame to
    # the replay stage through a bounded queue; replay is the slower of the
    # two, so one hand-off keeps both busy, and a decode error stops the
    # reader at once
    decoded: queue.Queue = queue.Queue(maxsize=PIPELINE_QUEUE_FRAMES)
    errors = []

    def replay_stage(hdr: StreamHeader):
        replayable = (hdr.width, hdr.height) == (replay.SOURCE_WIDTH, replay.SOURCE_HEIGHT)
        try:
            for frame in iter(decoded.get, None):
                if not replayable:
                    continue
                try:
                    buf = replay.prepare_for_replay(frame, hdr.range, cfg.resample)
                    replay.sink_consume(buf, dump_dir=cfg.dump_dir, seq=report.replayed_frames)
                    report.replayed_frames += 1
                except ValidationError as exc:
                    report.validation_failures += 1
                    print(f"frame validation failed: {exc}", file=sys.stderr)
        except Exception as exc:
            errors.append(exc)
            _drain(decoded)  # keep the reader from blocking on a full queue

    with conn:
        receiver = transport.recv_stream(conn)
        hdr = receiver.header
        replayer = threading.Thread(target=replay_stage, args=(hdr,), daemon=True)
        replayer.start()
        external = None

        def emit(sf):
            frame = unpack_superframe(sf, hdr)
            report.frames_received += 1
            if cfg.frame_hook is not None:
                cfg.frame_hook(frame)
            decoded.put(frame)

        try:
            for packet_header, au in receiver.units():
                recv_us = _wall_us()
                if au.codec_id is codec.CodecId.REF_LOSSLESS:
                    sfs = [codec.ref_decode(au, hdr)]
                else:
                    if external is None:
                        if command is None:
                            raise AdapterError(
                                f"stream carries {au.codec_id.name} units, "
                                f"receiver codec is {cfg.codec!r}"
                            )
                        external = codec.ExternalSession(hdr, command)
                    external.send_bytes(au.payload)
                    sfs = external.frames()
                for sf in sfs:
                    latency.add(recv_us, packet_header.timestamp_us)
                    emit(sf)
            if external is not None:
                external.close_input()
                for sf in external.frames(wait=True):
                    emit(sf)
        finally:
            _close_session(external, errors)
            decoded.put(None)
            replayer.join()
    if errors:
        raise errors[0]
    report.gap_count = receiver.report.gap_count
    report.payload_bytes = receiver.report.payload_bytes
    report.truncated = receiver.report.truncated
    if cfg.latency_json and latency.count:
        latency.write_json(cfg.latency_json)
    return report, latency


# --- argparse front ends ---


def _addr(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def _codec_error(p: argparse.ArgumentParser, value: str) -> int | None:
    """EXIT_USAGE, after argparse's usage message, if value is not a valid
    --codec; None if it is."""
    try:
        parse_codec(value)
    except ValueError as exc:
        p.print_usage(sys.stderr)
        print(f"{p.prog}: error: argument --codec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return None


def gen_main(argv=None) -> int:
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
        count = container.write_container(args.out, hdr, frames)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_SOURCE
    print(json.dumps({"out": args.out, "frames": count, "pattern": args.pattern}))
    return EXIT_OK


def send_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rgbz-send", description="Stream an .rgbz container through the relay")
    p.add_argument("--input", required=True, help=".rgbz container path")
    p.add_argument("--signal", type=_addr, required=True, help="signaling host:port")
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--codec", default="ref", help="ref | external:<command>")
    p.add_argument("--fps", type=float, default=None, help="override container fps")
    p.add_argument("--as-fast-as-possible", action="store_true")
    p.add_argument("--suppress-background", type=float, default=None, metavar="DIOPTERS")
    args = p.parse_args(argv)
    if (code := _codec_error(p, args.codec)) is not None:
        return code
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
    except ThreecptError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def recv_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rgbz-recv", description="Receive a stream and feed the hologram sink")
    p.add_argument("--signal", type=_addr, required=True, help="signaling host:port")
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--codec", default="ref", help="ref | external:<command>")
    p.add_argument("--resample", choices=("nearest", "bilinear"), default="nearest")
    p.add_argument("--dump-dir", default=None, help="write each replayed frame's planes here")
    p.add_argument("--latency-json", default=None)
    p.add_argument("--max-validation-failures", type=int, default=0)
    args = p.parse_args(argv)
    if (code := _codec_error(p, args.codec)) is not None:
        return code
    cfg = ReceiverConfig(
        signal_addr=args.signal,
        channel_id=args.channel,
        codec=args.codec,
        resample=args.resample,
        dump_dir=args.dump_dir,
        latency_json=args.latency_json,
        max_validation_failures=args.max_validation_failures,
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
    out = report.to_dict()
    if latency.count:
        out["latency"] = latency.summary()
    print(json.dumps(out))
    if report.validation_failures > cfg.max_validation_failures:
        return EXIT_VALIDATION
    return EXIT_OK


def relay_main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rgbz-relay", description="Run the signaling + relay service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--signal-port", type=int, default=43700)
    p.add_argument("--relay-port", type=int, default=43701)
    p.add_argument("--ttl-seconds", type=float, default=120.0)
    p.add_argument("--max-channels", type=int, default=256)
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
