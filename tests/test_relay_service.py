"""The relay's service loop: its thread, its stop, its listeners' sockets,
and a relay that runs out of descriptors and recovers."""

import gc
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from threecpt.errors import SignalingError
from threecpt.relay import TICK_S, RelayServer

from util import new_threads

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a child process, since it lowers the process's descriptor limit.
# Clients connect to the signaling listener until the process is out of
# descriptors; one descriptor kept in reserve then goes to one more client,
# so the relay's accept of that client fails with EMFILE. Once the clients
# are closed and the limit restored, a new register must succeed.
EXHAUST = """
import errno, os, resource, socket, time
from threecpt.relay import RelayServer, register_channel

soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
with RelayServer() as srv:
    addr = (srv.host, srv.signal_port)
    spare = os.open(os.devnull, os.O_RDONLY)
    resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
    clients = []
    try:
        for _ in range(80):
            clients.append(socket.create_connection(addr, timeout=1))
    except OSError as exc:
        assert exc.errno == errno.EMFILE, exc
    assert len(clients) < 80, "never ran out of descriptors"
    os.close(spare)
    clients.append(socket.create_connection(addr, timeout=1))
    time.sleep(0.5)  # the relay's accept meets EMFILE
    for c in clients:
        c.close()
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    start = time.monotonic()
    register_channel(addr, "sender", 1, timeout=3)
    print(f"registered after {time.monotonic() - start:.2f} s, {len(clients)} clients")
"""


def test_start_adds_one_thread_and_stop_ends_it_within_a_tick():
    before = set(threading.enumerate())
    srv = RelayServer().start()
    assert len(new_threads(before)) == 1
    start = time.monotonic()
    srv.stop()
    assert time.monotonic() - start < 2 * TICK_S
    assert not new_threads(before)


@pytest.mark.parametrize("listener", ["signal_port", "relay_port"])
def test_failed_bind_closes_the_listeners(listener):
    with socket.create_server(("127.0.0.1", 0)) as held:
        with pytest.raises(SignalingError, match="cannot bind"):
            RelayServer(**{listener: held.getsockname()[1]})
    gc.collect()  # an unclosed listener warns here, and the warning is an error


def test_relay_serves_again_after_running_out_of_descriptors():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", EXHAUST], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("registered after ")
