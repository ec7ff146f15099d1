"""What importing threecpt loads: the lazy package exports, and a relay
process that runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import threecpt

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package exported when it still imported each submodule eagerly
EXPORTS = {
    "frames": [
        "ColorImage",
        "DepthMap",
        "DisparityRange",
        "Orientation",
        "PixelFormat",
        "RgbzFrame",
        "StreamHeader",
        "apply_orientation",
        "dequantize_disparity",
        "fill_depth_gaps",
        "quantize_disparity",
        "suppress_background",
    ],
    "superframe": ["Superframe", "pack_superframe", "superframe_byte_size", "unpack_superframe"],
    "codec": ["CodecId", "EncodedAccessUnit", "ExternalSession", "ref_decode", "ref_encode", "ref_work"],
    "transport": [
        "FramePacket",
        "PacketDecoder",
        "PacketHeader",
        "encode_packet",
        "recv_stream",
        "send_stream",
    ],
    "relay": ["ChannelGrant", "RelayServer", "attach", "register_channel"],
    "replay": ["SlmBuffer", "prepare_for_replay", "sink_consume"],
    "container": ["gen_synthetic", "read_container", "write_container"],
    "latency": ["LatencyReport"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# Runs in a child process with numpy blocked: importing it raises ImportError.
# The package and the CLI module import, and the relay they carry pairs one
# channel and splices bytes both ways.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None

import threecpt
assert not [m for m in sys.modules if m.startswith("threecpt.")], sys.modules
from threecpt import cli

try:
    cli.codec
except ImportError:
    pass
else:
    raise AssertionError("numpy is not blocked")

relay = cli.relay  # the module rgbz-relay (cli.relay_main) serves with
with relay.RelayServer() as srv:
    addr = (srv.host, srv.signal_port)
    grants = [relay.register_channel(addr, role, 3) for role in ("sender", "receiver")]
    tx, rx = (relay.attach(g, role) for g, role in zip(grants, ("sender", "receiver")))
    with tx, rx:
        tx.sendall(b"forward")
        assert relay._read_exact(rx, 7) == b"forward"
        rx.sendall(b"back")
        assert relay._read_exact(tx, 4) == b"back"
print(sorted(m for m in sys.modules if m.startswith("threecpt")))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_relay_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY],
        env=child_env(), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        ["threecpt", "threecpt.cli", "threecpt.errors", "threecpt.latency", "threecpt.relay"]
    )


# Runs in a fresh child: the CLI module and one relay session, registered,
# attached and spliced, load none of the modules that map libcrypto.
WITHOUT_OPENSSL = """
import sys
from threecpt import cli

with cli.relay.RelayServer() as srv:
    addr = (srv.host, srv.signal_port)
    grants = [cli.relay.register_channel(addr, role, 5) for role in ("sender", "receiver")]
    tx, rx = (cli.relay.attach(g, role) for g, role in zip(grants, ("sender", "receiver")))
    with tx, rx:
        tx.sendall(b"spliced")
        assert cli.relay._read_exact(rx, 7) == b"spliced"
print(sorted(m for m in ("_hashlib", "hashlib", "hmac", "ssl") if m in sys.modules))
"""


def test_relay_session_loads_no_openssl():
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_OPENSSL],
        env=child_env(), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs in a fresh child whose _operator lacks the private compare: the relay
# falls back to hmac's public one and still checks keys.
WITHOUT_PRIVATE_COMPARE = """
import _operator
del _operator._compare_digest
import hmac
from threecpt import relay

assert relay._compare_digest is hmac.compare_digest
with relay.RelayServer() as srv:
    grant = relay.register_channel((srv.host, srv.signal_port), "sender", 5)
    wrong = relay.ChannelGrant(5, grant.relay_host, grant.relay_port, bytes(16))
    try:
        relay.attach(wrong, "sender")
    except relay.RelayAuthError:
        pass
    else:
        raise AssertionError("a wrong key was accepted")
    relay.attach(grant, "sender").close()
print("ok")
"""


def test_relay_falls_back_to_public_compare():
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_PRIVATE_COMPARE],
        env=child_env(), capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# Runs in a fresh child: rgbz-send on a missing clip fails (exit 2) after it
# has loaded the pipeline; then the threads the process has, and the
# OpenBLAS thread count it left set.
SEND_MISSING_CLIP = """
import os, sys
from threecpt import cli

code = cli.send_main(["--input", sys.argv[1], "--signal", "127.0.0.1:9", "--channel", "1"])
assert "numpy" in sys.modules
print(code, len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("chosen", [None, "2"], ids=["default", "caller-set"])
def test_endpoint_loads_numpy_with_one_blas_thread(chosen, tmp_path):
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if chosen is not None:
        env["OPENBLAS_NUM_THREADS"] = chosen
    proc = subprocess.run(
        [sys.executable, "-c", SEND_MISSING_CLIP, str(tmp_path / "missing.rgbz")],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    code, tasks, blas = proc.stdout.split()
    assert code == "2" and blas == (chosen or "1")
    if chosen is None:
        assert tasks == "1"


# Runs in a fresh child, so the pipeline names are patched on cli before cli
# has bound any of them: the sender and receiver must call the patched ones.
PATCHED_FIRST = """
import sys, threading
from threecpt import cli, container
from threecpt import frames, superframe
from threecpt.relay import RelayServer

calls = {}
def count(owner, name):
    fn = getattr(owner, name)
    def counted(*args, **kw):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kw)
    setattr(cli, name, counted)

assert "pack_superframe" not in vars(cli)
count(frames, "suppress_background")
count(superframe, "pack_superframe")
count(superframe, "unpack_superframe")
hdr, clip = container.gen_synthetic(64, 48, (30, 1), 5)
container.write_container(sys.argv[1], hdr, clip)
with RelayServer() as srv:
    addr = (srv.host, srv.signal_port)
    rx = threading.Thread(target=cli.run_receiver, args=(cli.ReceiverConfig(addr, 1),))
    rx.start()
    cli.run_sender(cli.SenderConfig(sys.argv[1], addr, 1, fps=0, suppress_cutoff=0.5))
    rx.join(timeout=30)
print(sorted(calls.items()))
"""


def test_pipeline_calls_names_patched_before_first_use(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PATCHED_FIRST, str(tmp_path / "clip.rgbz")],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        [("pack_superframe", 5), ("suppress_background", 5), ("unpack_superframe", 5)]
    )


@pytest.mark.parametrize("module,name", NAMES)
def test_export_resolves_to_its_submodule_object(module, name):
    namespace = {}
    exec(f"from threecpt import {name}", namespace)
    expected = getattr(sys.modules[f"threecpt.{module}"], name)
    assert namespace[name] is expected
    assert getattr(threecpt, name) is expected


def test_dir_lists_every_export():
    assert len(NAMES) == 39
    assert sorted(threecpt.__all__) == sorted(name for _, name in NAMES)
    assert set(dir(threecpt)) >= set(threecpt.__all__)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        threecpt.no_such_name
    with pytest.raises(ImportError):
        exec("from threecpt import no_such_name", {})
