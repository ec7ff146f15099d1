"""Loopback integration tests for the sender/receiver endpoints."""

import json
import shutil
import threading

import pytest

from threecpt import cli, container
from threecpt.errors import AdapterError
from threecpt.relay import RelayServer

from util import closed_port, fake_signaling, frame_checksum

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
            receiver_kw={"sink": "dump", "dump_dir": str(dump)},
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
