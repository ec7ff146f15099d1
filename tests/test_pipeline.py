"""Loopback integration tests for the sender/receiver endpoints."""

import json
import shutil
import socket
import threading
import time
import tracemalloc

import pytest

from threecpt import cli, codec, container, transport
from threecpt.errors import AdapterError, BitstreamError, TransportError
from threecpt.frames import StreamHeader
from threecpt.relay import RelayServer
from threecpt.superframe import pack_superframe

from util import (
    closed_port,
    fake_relay,
    fake_signaling,
    frame_checksum,
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
        assert [len(threads) for threads in alive] == [1] * 5  # the replay stage
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
        assert len(frames) == 4 and hdr.width == 32

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
    @pytest.mark.parametrize("value", ["bogus", "external", "external:", "external: ", "h264:x"])
    def test_bad_codec_is_usage_error(self, role, value, tmp_path, capsys):
        # the signaling port is closed: reaching it would exit 3, not 2
        args = ["--signal", f"127.0.0.1:{closed_port()}", "--channel", "9", "--codec", value]
        if role == "send":
            path, _ = write_stream(tmp_path, frames=1)
            code = cli.send_main(["--input", str(path), *args])
        else:
            code = cli.recv_main(args)
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: rgbz-{role}")
        assert "argument --codec" in err
        assert "Traceback" not in err

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
