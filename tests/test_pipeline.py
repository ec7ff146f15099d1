"""Loopback integration tests for the sender/receiver endpoints."""

import contextlib
import itertools
import json
import shutil
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest

from threecpt import cli, codec, container, replay, transport
from threecpt.errors import AdapterError, BitstreamError, ThreecptError, TransportError
from threecpt.frames import StreamHeader
from threecpt.relay import RelayServer
from threecpt.superframe import pack_superframe, superframe_byte_size

from util import (
    closed_port,
    fake_relay,
    fake_signaling,
    frame_checksum,
    make_frame,
    new_threads,
    wait_until,
)

CAT = shutil.which("cat") or "cat"


@pytest.fixture
def server():
    with RelayServer(ttl_seconds=60.0) as srv:
        yield srv


def run_pipeline(server, source, channel=1, sender_kw=None, receiver_kw=None):
    addr = (server.host, server.signal_port)
    received = []
    receiver_cfg = cli.ReceiverConfig(
        signal_addr=addr,
        channel_id=channel,
        frame_hook=received.append,
        **(receiver_kw or {}),
    )
    result = {}

    def rx():
        result["report"], result["latency"] = cli.run_receiver(receiver_cfg)

    t = threading.Thread(target=rx)
    t.start()
    sender_cfg = cli.SenderConfig(
        source=str(source), signal_addr=addr, channel_id=channel, **(sender_kw or {})
    )
    send_report = cli.run_sender(sender_cfg)
    t.join(timeout=60)
    assert not t.is_alive(), "receiver did not finish"
    return send_report, result["report"], result["latency"], received


def write_stream(tmp_path, w=64, h=48, frames=10):
    hdr, fs = container.gen_synthetic(w, h, (30, 1), frames)
    path = tmp_path / "stream.rgbz"
    container.write_container(path, hdr, fs)
    return path, fs


# a 32,903-byte REF unit whose runs decode exactly to the 1024x1024
# superframe it declares (4 MiB, 127x the payload)
OVERSIZED_UNIT = (
    codec.REF_HEADER.pack(codec.REF_MAGIC, 1024, 512)
    + bytes([255, 0]) * 16448
    + bytes([64, 0])
)
VGA = StreamHeader(width=640, height=480)


def peer_sending(hdr, payload):
    """A fake signaling and relay pair whose sender streams hdr and one REF
    unit carrying payload. Returns the signaling address and both threads."""
    au = codec.EncodedAccessUnit(codec.CodecId.REF_LOSSLESS, codec.FLAG_KEYFRAME, payload)
    units = [(au, 0)]
    grant, relay_t = fake_relay(lambda conn: transport.send_stream(conn, hdr, units))
    addr, signal_t = fake_signaling(grant)
    return addr, (relay_t, signal_t)


def wire_packet(ptype, payload):
    """One packet's bytes as a sender writes them."""
    header = transport.PacketHeader(ptype, payload_len=len(payload))
    return transport.encode_packet(transport.FramePacket(header, payload))


class TestEndToEnd:
    def test_lossless_small_stream(self, server, tmp_path):
        path, frames = write_stream(tmp_path, frames=10)
        send, recv, latency, received = run_pipeline(
            server, path, sender_kw={"fps": 0}
        )
        assert send.frames_sent == recv.frames_received == 10
        assert recv.gap_count == 0 and not recv.truncated
        assert [frame_checksum(f) for f in received] == [
            frame_checksum(f) for f in frames
        ]
        assert latency.count == 10

    def test_packet_count_arithmetic(self, server, tmp_path):
        path, _ = write_stream(tmp_path, frames=5)
        send, _, _, _ = run_pipeline(server, path, channel=2, sender_kw={"fps": 0})
        assert send.packets_sent == 7  # header + 5 units + end-of-stream

    def test_suppress_background_applied(self, server, tmp_path):
        path, frames = write_stream(tmp_path, frames=3)
        _, _, _, received = run_pipeline(
            server,
            path,
            channel=3,
            sender_kw={"fps": 0, "suppress_cutoff": 1.0},
        )
        # the far background sits below the mid-range cutoff, so it is zeroed
        assert all((f.depth.codes[0, 0] == 0) for f in received)
        assert any(f.depth.codes.any() for f in received)  # sphere survives

    def test_external_codec_passthrough(self, server, tmp_path):
        path, frames = write_stream(tmp_path, frames=6)
        codec_arg = f"external:{CAT}"
        send, recv, _, received = run_pipeline(
            server,
            path,
            channel=4,
            sender_kw={"fps": 0, "codec": codec_arg},
            receiver_kw={"codec": codec_arg},
        )
        assert len(received) == 6
        assert [frame_checksum(f) for f in received] == [
            frame_checksum(f) for f in frames
        ]

    def test_external_codec_reports_frames_not_units(self, server, tmp_path):
        # cat hands the stream back in reads that need not match frames, so
        # the sender sends fewer access units than frames
        path, _ = write_stream(tmp_path, frames=20)
        codec_arg = f"external:{CAT}"
        send, recv, _, _ = run_pipeline(
            server,
            path,
            channel=6,
            sender_kw={"fps": 0, "codec": codec_arg},
            receiver_kw={"codec": codec_arg},
        )
        assert send.frames_sent == recv.frames_received == 20

    def test_external_units_to_ref_receiver_is_adapter_error(self, server, tmp_path):
        path, _ = write_stream(tmp_path, frames=3)
        addr = (server.host, server.signal_port)
        sender_cfg = cli.SenderConfig(
            source=str(path), signal_addr=addr, channel_id=7, codec=f"external:{CAT}", fps=0
        )
        t = threading.Thread(target=cli.run_sender, args=(sender_cfg,))
        t.start()
        with pytest.raises(AdapterError, match="EXTERNAL"):
            cli.run_receiver(cli.ReceiverConfig(signal_addr=addr, channel_id=7))
        t.join(timeout=30)
        assert not t.is_alive(), "sender did not finish"

    def test_sender_stops_and_reaps_when_the_peer_drops(self, tmp_path, monkeypatch):
        path, _ = write_stream(tmp_path, frames=20)
        sessions = []

        class RecordedSession(codec.ExternalSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(codec, "ExternalSession", RecordedSession)
        before = set(threading.enumerate())
        grant, _ = fake_relay(lambda conn: conn.recv(1000, socket.MSG_WAITALL))
        addr, _ = fake_signaling(grant)
        cfg = cli.SenderConfig(
            source=str(path), signal_addr=addr, channel_id=9, codec=f"external:{CAT}", fps=50
        )
        raised = []

        def send():
            try:
                cli.run_sender(cfg)
            except TransportError as exc:
                raised.append(exc)

        t = threading.Thread(target=send, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive(), "run_sender did not return"
        assert raised
        assert wait_until(lambda: not new_threads(before), timeout=2)
        assert len(sessions) == 1 and sessions[0].child.returncode is not None
        assert sessions[0].report.frames_in < 20  # the encode stage stopped early

    def test_unit_for_a_larger_frame_fails_before_decoding(self):
        assert len(OVERSIZED_UNIT) == 32_903
        addr, threads = peer_sending(VGA, OVERSIZED_UNIT)
        cfg = cli.ReceiverConfig(signal_addr=addr, channel_id=9)
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError, match="declares 1024x1024"):
                cli.run_receiver(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for t in threads:
            t.join(timeout=5)
        assert peak < 2 * 2_457_600  # twice the stream's own superframe

    def test_receiver_runs_one_stage_thread(self):
        hdr, frames = container.gen_synthetic(64, 48, (30, 1), 5)
        units = [(codec.ref_encode(pack_superframe(f)), 0) for f in frames]
        before = set(threading.enumerate())
        grant, relay_t = fake_relay(lambda conn: transport.send_stream(conn, hdr, units))
        addr, signal_t = fake_signaling(grant)
        peers = {relay_t, signal_t}
        alive = []  # the receiver's own threads, seen as each frame is decoded

        def hook(frame):
            alive.append([t for t in new_threads(before) if t not in peers])

        cfg = cli.ReceiverConfig(signal_addr=addr, channel_id=9, frame_hook=hook)
        report, _ = cli.run_receiver(cfg)
        assert report.frames_received == 5
        assert [len(threads) for threads in alive] == [1] * 5  # the socket reader
        for t in peers:
            t.join(timeout=5)
        assert wait_until(lambda: not new_threads(before))

    def test_bad_unit_stops_the_receiver_while_the_stream_is_open(self):
        au = codec.EncodedAccessUnit(codec.CodecId.REF_LOSSLESS, codec.FLAG_KEYFRAME, OVERSIZED_UNIT)

        def hold_open(conn):
            conn.sendall(
                wire_packet(transport.PTYPE_STREAM_HEADER, transport.serialize_stream_header(VGA))
                + wire_packet(transport.PTYPE_ACCESS_UNIT, transport.serialize_access_unit(au))
            )
            # neither end the stream nor close: wait for the receiver to close
            conn.settimeout(10)
            try:
                conn.recv(1)
            except OSError:
                pass

        before = set(threading.enumerate())
        grant, relay_t = fake_relay(hold_open)
        addr, signal_t = fake_signaling(grant)
        start = time.monotonic()
        with pytest.raises(BitstreamError, match="declares 1024x1024"):
            cli.run_receiver(cli.ReceiverConfig(signal_addr=addr, channel_id=9))
        assert time.monotonic() - start < 5.0
        for t in (relay_t, signal_t):
            t.join(timeout=5)
        assert wait_until(lambda: not new_threads(before))

    def test_stream_not_640x480_received_but_not_replayed(self, server, tmp_path, capsys):
        path, _ = write_stream(tmp_path, frames=3)  # 64x48
        _, recv, _, received = run_pipeline(server, path, channel=7, sender_kw={"fps": 0})
        assert (recv.frames_received, len(received), recv.replayed_frames) == (3, 3, 0)
        assert capsys.readouterr().err == (
            "frames are received but not replayed: the stream is 64x48, replay takes 640x480\n"
        )

    def test_dump_mode_writes_files(self, server, tmp_path):
        hdr, fs = container.gen_synthetic(640, 480, (30, 1), 2)
        path = tmp_path / "full.rgbz"
        container.write_container(path, hdr, fs)
        dump = tmp_path / "dump"
        _, recv, _, _ = run_pipeline(
            server,
            path,
            channel=5,
            sender_kw={"fps": 0},
            receiver_kw={"dump_dir": str(dump)},
        )
        assert recv.replayed_frames == 2
        assert sorted(p.name for p in dump.iterdir()) == [
            "frame_0.pgm",
            "frame_0.ppm",
            "frame_1.pgm",
            "frame_1.ppm",
        ]
        # each file is a binary PNM of one plane of the frame's SLM buffer
        for seq, frame in enumerate(fs):
            el = replay.prepare_for_replay(frame, hdr.range, "nearest").elements
            for name, magic, plane in (("ppm", b"P6", el[:, :, :3]), ("pgm", b"P5", el[:, :, 3])):
                raw = (dump / f"frame_{seq}.{name}").read_bytes()
                kind, size, maxval, body = raw.split(b"\n", 3)
                assert (kind, size, maxval) == (magic, b"2048 2048", b"255")
                assert body == plane.tobytes()


class TestReplayStage:
    def clip(self, tmp_path, frames):
        hdr, fs = container.gen_synthetic(640, 480, (30, 1), frames)
        path = tmp_path / "clip.rgbz"
        container.write_container(path, hdr, fs)
        return path

    def test_failed_validation_drops_the_held_buffer(self, server, tmp_path, monkeypatch):
        prepare = replay.prepare_for_replay
        filled = []  # each call's buffer

        def dirty_first(*args, **kwargs):
            buf = prepare(*args, **kwargs)
            if not filled:
                buf.elements[0, 0, 0] = 1  # outside the embed window
            filled.append(buf.elements)
            return buf

        monkeypatch.setattr(replay, "prepare_for_replay", dirty_first)
        path = self.clip(tmp_path, 4)
        _, recv, _, _ = run_pipeline(server, path, channel=6, sender_kw={"fps": 0})
        assert (recv.validation_failures, recv.replayed_frames) == (1, 3)
        assert filled[1] is not filled[0]
        assert filled[2] is filled[1] and filled[3] is filled[1]

    def test_replay_failure_stops_the_reader(self, server, tmp_path, monkeypatch, capsys):
        path = self.clip(tmp_path, 60)  # 2 s at the clip's 30 fps
        regular = tmp_path / "regular"
        regular.write_bytes(b"")
        sink = replay.sink_consume
        sunk = []  # when each sink call started

        def timed_sink(*args, **kwargs):
            sunk.append(time.monotonic())
            return sink(*args, **kwargs)

        monkeypatch.setattr(replay, "sink_consume", timed_sink)
        before = set(threading.enumerate())
        result = {}

        def rx():
            argv = ["--signal", f"{server.host}:{server.signal_port}", "--channel", "7"]
            result["code"] = cli.recv_main(argv + ["--dump-dir", str(regular / "dump")])
            result["end"] = time.monotonic()

        t = threading.Thread(target=rx)
        t.start()
        sender_cfg = cli.SenderConfig(
            source=str(path), signal_addr=(server.host, server.signal_port), channel_id=7
        )
        with pytest.raises(ThreecptError):  # the receiver hangs up mid-clip
            cli.run_sender(sender_cfg)
        t.join(timeout=30)
        assert not t.is_alive(), "receiver did not finish"
        assert result["code"] == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert len(sunk) == 1
        assert result["end"] - sunk[0] < 10 / 30  # a few frame intervals
        assert wait_until(lambda: not new_threads(before))

    def test_replay_failure_wakes_a_reader_held_by_a_stalled_peer(self, tmp_path, capsys):
        hdr, frames = container.gen_synthetic(640, 480, (30, 1), 1)
        au = codec.ref_encode(pack_superframe(frames[0]))
        regular = tmp_path / "regular"
        regular.write_bytes(b"")

        def hold_open(conn):
            conn.sendall(
                wire_packet(transport.PTYPE_STREAM_HEADER, transport.serialize_stream_header(hdr))
                + wire_packet(transport.PTYPE_ACCESS_UNIT, transport.serialize_access_unit(au))
            )
            # neither end the stream nor close: hold it for 10 s or until the receiver closes
            conn.settimeout(10)
            try:
                conn.recv(1)
            except OSError:
                pass

        before = set(threading.enumerate())
        grant, relay_t = fake_relay(hold_open)
        (host, port), signal_t = fake_signaling(grant)
        start = time.monotonic()
        argv = ["--signal", f"{host}:{port}", "--channel", "9", "--dump-dir", str(regular / "d")]
        code = cli.recv_main(argv)
        assert time.monotonic() - start < 1.0
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("cannot write output: ")
        for t in (relay_t, signal_t):
            t.join(timeout=5)
        assert wait_until(lambda: not new_threads(before))

    def test_failed_validation_exits_6(self, server, tmp_path, monkeypatch, capsys):
        prepare = replay.prepare_for_replay
        calls = []

        def dirty_first(*args, **kwargs):
            buf = prepare(*args, **kwargs)
            if not calls:
                buf.elements[0, 0, 0] = 1  # outside the embed window
            calls.append(buf)
            return buf

        monkeypatch.setattr(replay, "prepare_for_replay", dirty_first)
        path = self.clip(tmp_path, 3)
        addr = (server.host, server.signal_port)
        result = {}

        def rx():
            result["code"] = cli.recv_main(["--signal", f"{addr[0]}:{addr[1]}", "--channel", "8"])

        t = threading.Thread(target=rx)
        t.start()
        cli.run_sender(cli.SenderConfig(source=str(path), signal_addr=addr, channel_id=8, fps=0))
        t.join(timeout=30)
        assert result["code"] == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["validation_failures"], report["replayed_frames"]) == (1, 2)
        assert err.startswith("frame validation failed: ") and err.count("\n") == 1


def recorded_reads(monkeypatch):
    """The frame readers that run_sender gets from read_container."""
    readers = []
    read = container.read_container

    def recording(path):
        hdr, frames = read(path)
        readers.append(frames)
        return hdr, frames

    monkeypatch.setattr(container, "read_container", recording)
    return readers


def with_bad_pad_byte(path, w, h, seq):
    """Set a nonzero RGB0 pad byte in frame seq of the clip at path."""
    raw = bytearray(path.read_bytes())
    raw[container._HEADER.size + seq * (8 + w * h * 5) + 8 + 3] = 1
    path.write_bytes(bytes(raw))


class TestSenderFailsMidStream:
    """An encode stage that fails mid-stream ends the stream without
    END_OF_STREAM, so the receiver reports it truncated."""

    def stream(self, server, path, channel, codec_arg="ref", receiver_codec="ref"):
        result = {}

        def rx():
            cfg = cli.ReceiverConfig(
                signal_addr=(server.host, server.signal_port),
                channel_id=channel,
                codec=receiver_codec,
            )
            result["report"], _ = cli.run_receiver(cfg)

        t = threading.Thread(target=rx)
        t.start()
        code = cli.send_main(
            [
                "--input",
                str(path),
                "--signal",
                f"{server.host}:{server.signal_port}",
                "--channel",
                str(channel),
                "--codec",
                codec_arg,
                "--as-fast-as-possible",
            ]
        )
        t.join(timeout=30)
        assert not t.is_alive(), "receiver did not finish"
        return code, result["report"]

    def test_failing_external_encoder(self, server, tmp_path):
        # the encoder passes one superframe through, swallows the rest and
        # exits 3
        path, _ = write_stream(tmp_path, frames=6)
        one = superframe_byte_size(64, 48)
        encoder = f"external:sh -c 'head -c {one}; cat >/dev/null; exit 3'"
        code, recv = self.stream(server, path, 11, encoder, f"external:{CAT}")
        assert code == cli.EXIT_TRANSPORT
        assert recv.truncated and recv.frames_received < 6

    def test_bad_frame_in_the_clip(self, server, tmp_path):
        path, _ = write_stream(tmp_path, frames=6)
        with_bad_pad_byte(path, 64, 48, seq=4)
        code, recv = self.stream(server, path, 12)
        assert code == cli.EXIT_SOURCE
        assert recv.truncated and recv.frames_received == 4


@pytest.mark.parametrize("exit_path", ["done", "bad-frame", "peer-drops", "no-signaling"])
def test_sender_closes_the_clip(exit_path, server, tmp_path, monkeypatch):
    path, _ = write_stream(tmp_path, frames=20)
    readers = recorded_reads(monkeypatch)
    addr = (server.host, server.signal_port)
    if exit_path == "bad-frame":
        with_bad_pad_byte(path, 64, 48, seq=3)
    elif exit_path == "peer-drops":
        grant, _ = fake_relay(lambda conn: conn.recv(1000, socket.MSG_WAITALL))
        addr, _ = fake_signaling(grant)
    elif exit_path == "no-signaling":
        addr = ("127.0.0.1", closed_port())
    receiver = None
    if exit_path in ("done", "bad-frame"):
        cfg = cli.ReceiverConfig(signal_addr=addr, channel_id=13)
        receiver = threading.Thread(target=cli.run_receiver, args=(cfg,))
        receiver.start()
    cfg = cli.SenderConfig(source=str(path), signal_addr=addr, channel_id=13, fps=50)
    try:
        cli.run_sender(cfg)
    except ThreecptError:
        assert exit_path != "done"
    finally:
        if receiver is not None:
            receiver.join(timeout=30)
    assert len(readers) == 1 and readers[0]._file.closed


class TestCliMains:
    def test_gen_main_writes_container(self, tmp_path, capsys):
        out = tmp_path / "gen.rgbz"
        code = cli.gen_main(
            ["--width", "32", "--height", "24", "--frames", "4", "--out", str(out)]
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["frames"] == 4
        hdr, frames = container.read_container(out)
        assert len(list(frames)) == 4 and hdr.width == 32

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--width", "3"),
            ("--height", "0"),
            ("--width", "70000"),
            ("--height", "70000"),
            ("--fps", "0"),
            ("--fps", "70000"),
            ("--frames", "-2"),
        ],
    )
    def test_gen_main_bad_argument_is_usage_error(self, flag, value, tmp_path, capsys):
        out = tmp_path / "gen.rgbz"
        args = ["--width", "32", "--height", "24", "--frames", "1", flag, value]
        code = cli.gen_main([*args, "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("rgbz-gen: error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--signal-port", "70000"),
            ("--relay-port", "-1"),
            ("--ttl-seconds", "0"),
            ("--ttl-seconds", "nan"),
        ],
    )
    def test_relay_main_out_of_range_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.relay_main([flag, value])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: rgbz-relay") and f"argument {flag}" in err
        assert "Traceback" not in err

    def test_relay_main_no_channels_is_one_usage_line(self, capsys):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                cli.relay_main(["--max-channels", value])
            assert exc.value.code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error" in line] == [
                f"rgbz-relay: error: argument --max-channels: must be at least 1, got '{value}'"
            ]

    @pytest.mark.parametrize("main", [cli.send_main, cli.recv_main], ids=["send", "recv"])
    @pytest.mark.parametrize("port", ["70000", "-1", ""])
    def test_signal_port_out_of_range_is_usage_error(self, main, port, tmp_path, capsys):
        path, _ = write_stream(tmp_path, frames=1)
        args = ["--signal", f"127.0.0.1:{port}", "--channel", "1"]
        with pytest.raises(SystemExit) as exc:
            main(["--input", str(path), *args] if main is cli.send_main else args)
        assert exc.value.code == cli.EXIT_USAGE
        assert "argument --signal" in capsys.readouterr().err

    def test_send_main_missing_source_exit_code(self, server):
        code = cli.send_main(
            [
                "--input",
                "/nonexistent/stream.rgbz",
                "--signal",
                f"{server.host}:{server.signal_port}",
                "--channel",
                "9",
            ]
        )
        assert code == cli.EXIT_SOURCE

    def test_send_main_unreachable_signaling(self, tmp_path):
        path, _ = write_stream(tmp_path, frames=1)
        code = cli.send_main(
            ["--input", str(path), "--signal", "127.0.0.1:1", "--channel", "9"]
        )
        assert code == cli.EXIT_SIGNALING

    def test_recv_main_unreachable_signaling(self):
        code = cli.recv_main(["--signal", "127.0.0.1:1", "--channel", "9"])
        assert code == cli.EXIT_SIGNALING

    @pytest.mark.parametrize("role", ["send", "recv"])
    def test_refused_relay_port_exit_code(self, role, tmp_path):
        grant = f"OK {closed_port()} {'00' * 16}\n".encode()
        (host, port), t = fake_signaling(grant)
        args = ["--signal", f"{host}:{port}", "--channel", "9"]
        if role == "send":
            path, _ = write_stream(tmp_path, frames=1)
            code = cli.send_main(["--input", str(path), *args])
        else:
            code = cli.recv_main(args)
        t.join(timeout=5)
        assert code == cli.EXIT_TRANSPORT

    @pytest.mark.parametrize("role", ["send", "recv"])
    def test_overlong_signaling_reply_is_signaling_error(self, role, tmp_path, capsys):
        (host, port), t = fake_signaling(b"x" * 2000)  # no newline within 1024 bytes
        args = ["--signal", f"{host}:{port}", "--channel", "9"]
        if role == "send":
            path, _ = write_stream(tmp_path, frames=1)
            code = cli.send_main(["--input", str(path), *args])
        else:
            code = cli.recv_main(args)
        t.join(timeout=5)
        assert code == cli.EXIT_SIGNALING
        err = capsys.readouterr().err
        assert err.startswith("signaling error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("role", ["send", "recv"])
    @pytest.mark.parametrize("value", ["bogus", "external", "external:", "external: ", "h264:x"])
    def test_bad_codec_is_usage_error(self, role, value, tmp_path, capsys):
        # the signaling port is closed: reaching it would exit 3, not 2
        args = ["--signal", f"127.0.0.1:{closed_port()}", "--channel", "9", "--codec", value]
        with pytest.raises(SystemExit) as exc:
            if role == "send":
                path, _ = write_stream(tmp_path, frames=1)
                cli.send_main(["--input", str(path), *args])
            else:
                cli.recv_main(args)
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: rgbz-{role}")
        assert "argument --codec" in err
        assert "Traceback" not in err

    def test_cutoff_outside_the_clips_range_is_usage_error(self, tmp_path, capsys):
        path, _ = write_stream(tmp_path, frames=1)  # disparity range [0, 2]
        # the signaling port is closed: reaching it would exit 3, not 2
        args = ["--signal", f"127.0.0.1:{closed_port()}", "--channel", "9"]
        code = cli.send_main(["--input", str(path), *args, "--suppress-background", "9"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("rgbz-send: error: argument --suppress-background: ")
        assert err.count("\n") == 1 and "outside range [0.0, 2.0]" in err

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_fps_not_positive_and_finite_is_usage_error(self, value, tmp_path, capsys):
        path, _ = write_stream(tmp_path, frames=1)
        args = ["--signal", f"127.0.0.1:{closed_port()}", "--channel", "9"]
        with pytest.raises(SystemExit) as exc:
            cli.send_main(["--input", str(path), *args, "--fps", value])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: rgbz-send") and "argument --fps" in err

    @pytest.mark.parametrize("value", ["ref", "external:cat", "external:sh -c 'cat'"])
    def test_parse_codec(self, value):
        command = cli.parse_codec(value)
        assert command == (None if value == "ref" else value[len("external:") :])

    def test_send_main_truncated_container_is_source_error(self, tmp_path):
        path, _ = write_stream(tmp_path, frames=2)
        path.write_bytes(path.read_bytes()[:-1])
        # the signaling port is closed: reaching it would exit 3, not 2
        code = cli.send_main(
            ["--input", str(path), "--signal", f"127.0.0.1:{closed_port()}", "--channel", "9"]
        )
        assert code == cli.EXIT_SOURCE

    def test_send_main_non_increasing_timestamp_is_source_error(self, tmp_path):
        path, _ = write_stream(tmp_path, w=4, h=2, frames=2)
        raw = bytearray(path.read_bytes())
        first = container._HEADER.size
        second = first + 8 + 4 * 2 * 5  # timestamp, color and depth of frame 0
        raw[second : second + 8] = raw[first : first + 8]
        path.write_bytes(bytes(raw))
        code = cli.send_main(
            ["--input", str(path), "--signal", f"127.0.0.1:{closed_port()}", "--channel", "9"]
        )
        assert code == cli.EXIT_SOURCE

    @pytest.mark.parametrize(
        "payload, message",
        [
            (OVERSIZED_UNIT, "unit declares 1024x1024, stream is 640x960"),
            (
                codec.REF_HEADER.pack(codec.REF_STORED, 640, 480) + bytes(2_457_599),
                "stored body has 2457599",
            ),
        ],
        ids=["unit-for-a-larger-frame", "stored-body-one-byte-short"],
    )
    def test_recv_main_bad_ref_unit_is_transport_error(self, payload, message, capsys):
        (host, port), threads = peer_sending(VGA, payload)
        code = cli.recv_main(["--signal", f"{host}:{port}", "--channel", "9"])
        for t in threads:
            t.join(timeout=5)
        assert code == cli.EXIT_TRANSPORT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_recv_main_connection_reset_is_transport_error(self, capsys):
        header = transport.serialize_stream_header(VGA)

        def reset_after_header(conn):
            conn.sendall(wire_packet(transport.PTYPE_STREAM_HEADER, header))
            # closing with SO_LINGER 0 resets the connection
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        grant, relay_t = fake_relay(reset_after_header)
        (host, port), signal_t = fake_signaling(grant)
        code = cli.recv_main(["--signal", f"{host}:{port}", "--channel", "9"])
        relay_t.join(timeout=5)
        signal_t.join(timeout=5)
        assert code == cli.EXIT_TRANSPORT
        err = capsys.readouterr().err
        assert "connection failed" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--dump-dir", "--latency-json"])
    def test_recv_main_unwritable_output_is_usage_error(self, flag, tmp_path, capsys):
        regular = tmp_path / "regular"
        regular.write_bytes(b"")
        target = regular / "dump" if flag == "--dump-dir" else tmp_path / "missing" / "lat.json"
        before = set(threading.enumerate())
        payload = codec.ref_encode(pack_superframe(make_frame(640, 480))).payload
        (host, port), threads = peer_sending(VGA, payload)
        code = cli.recv_main(["--signal", f"{host}:{port}", "--channel", "9", flag, str(target)])
        for t in threads:
            t.join(timeout=5)
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert wait_until(lambda: not new_threads(before))

    def test_recv_main_stream_header_over_the_bound_is_desync(self, capsys):
        # all-zero runs declaring a 4 GiB superframe; the receiver may read none
        huge = StreamHeader(width=32766, height=16384)
        payload = codec.REF_HEADER.pack(codec.REF_MAGIC, 32766, 16384) + bytes([255, 0]) * 64
        au = codec.EncodedAccessUnit(codec.CodecId.REF_LOSSLESS, codec.FLAG_KEYFRAME, payload)

        def send(conn):
            # the receiver may close before the unit is written
            with contextlib.suppress(TransportError):
                transport.send_stream(conn, huge, [(au, 0)])

        before = set(threading.enumerate())
        grant, relay_t = fake_relay(send)
        (host, port), signal_t = fake_signaling(grant)
        tracemalloc.start()
        try:
            code = cli.recv_main(["--signal", f"{host}:{port}", "--channel", "9"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for t in (relay_t, signal_t):
            t.join(timeout=5)
        assert code == cli.EXIT_DESYNC
        err = capsys.readouterr().err
        assert err.startswith("protocol desync: stream header declares 32766x16384")
        assert "Traceback" not in err
        assert peak < 4 * 1024 * 1024
        assert wait_until(lambda: not new_threads(before))

    def test_recv_main_wire_version_mismatch_is_desync(self):
        header = bytearray(transport.PacketHeader(transport.PTYPE_STREAM_HEADER).pack())
        header[4] = transport.VERSION - 1  # the previous wire version
        grant, relay_t = fake_relay(lambda conn: conn.sendall(bytes(header)))
        (host, port), signal_t = fake_signaling(grant)
        code = cli.recv_main(["--signal", f"{host}:{port}", "--channel", "9"])
        relay_t.join(timeout=5)
        signal_t.join(timeout=5)
        assert code == cli.EXIT_DESYNC

    def test_send_and_recv_mains_loopback(self, server, tmp_path, capsys):
        path, _ = write_stream(tmp_path, frames=4)
        lat_json = tmp_path / "lat.json"
        result = {}

        def rx():
            result["code"] = cli.recv_main(
                [
                    "--signal",
                    f"{server.host}:{server.signal_port}",
                    "--channel",
                    "6",
                    "--latency-json",
                    str(lat_json),
                ]
            )

        t = threading.Thread(target=rx)
        t.start()
        code = cli.send_main(
            [
                "--input",
                str(path),
                "--signal",
                f"{server.host}:{server.signal_port}",
                "--channel",
                "6",
                "--as-fast-as-possible",
            ]
        )
        t.join(timeout=30)
        assert code == 0 and result["code"] == 0
        obj = json.loads(lat_json.read_text())
        assert len(obj["samples_us"]) == 4


class TestAhead:
    """cli._ahead, the one hand-off between an endpoint's two stages."""

    def test_items_arrive_in_order_at_most_depth_plus_one_ahead(self):
        before = set(threading.enumerate())
        made = []

        def count():
            for i in range(20):
                made.append(i)
                yield i

        got = []
        for item in cli._ahead(count(), depth=3):
            got.append(item)
            if item == 0:
                # the producer fills the queue and blocks with one more in hand
                assert wait_until(lambda: len(made) == 1 + 3 + 1)
                time.sleep(0.05)
            assert len(made) - len(got) <= 3 + 1
        assert got == list(range(20))
        assert not new_threads(before)

    def test_an_error_arrives_after_the_items_before_it(self):
        before = set(threading.enumerate())

        def failing():
            yield 1
            yield 2
            raise BitstreamError("bad unit")

        got = []
        with pytest.raises(BitstreamError, match="bad unit"):
            for item in cli._ahead(failing()):
                got.append(item)
        assert got == [1, 2]
        assert not new_threads(before)

    @pytest.mark.parametrize("taken", [0, 1, 5])
    def test_closing_early_closes_the_generator_on_its_own_thread(self, taken):
        before = set(threading.enumerate())
        made = []
        closed_on = []

        def endless():
            try:
                while True:
                    made.append(len(made))
                    yield made[-1]
            finally:
                closed_on.append(threading.current_thread())

        ahead = cli._ahead(endless(), depth=2)
        assert [next(ahead) for _ in range(taken + 1)] == list(range(taken + 1))
        ahead.close()
        assert len(closed_on) == 1 and closed_on[0] is not threading.current_thread()
        assert len(made) <= taken + 1 + 2 + 1  # stopped at its next item
        assert not new_threads(before)

    def test_many_pipelines_at_a_short_switch_interval(self):
        before = set(threading.enumerate())
        closed = []
        got = {}

        def numbers():
            try:
                yield from range(300)
            finally:
                closed.append(True)

        def consume(taken):
            ahead = cli._ahead(numbers(), depth=2)
            got[taken] = list(itertools.islice(ahead, taken))
            ahead.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [threading.Thread(target=consume, args=(n,)) for n in (1, 2, 150, 299, 300)]
            for t in consumers:
                t.start()
            for t in consumers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in consumers)
        assert got == {n: list(range(n)) for n in (1, 2, 150, 299, 300)}
        assert len(closed) == 5
        assert not new_threads(before)
