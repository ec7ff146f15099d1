"""Shared test helpers."""

import binascii
import socket
import threading
import time

import numpy as np

from threecpt.frames import ColorImage, DepthMap, RgbzFrame
from threecpt.relay import _PREAMBLE, ACCEPTED


def make_frame(width, height, seed=0, timestamp_us=0, seq=0):
    """Random valid RgbzFrame."""
    rng = np.random.default_rng(seed)
    color = np.zeros((height, width, 4), dtype=np.uint8)
    color[:, :, :3] = rng.integers(0, 256, size=(height, width, 3))
    codes = rng.integers(0, 256, size=(height, width)).astype(np.uint8)
    return RgbzFrame(
        color=ColorImage(color),
        depth=DepthMap.all_valid(codes),
        timestamp_us=timestamp_us,
        seq=seq,
    )


def frame_checksum(frame):
    """Content checksum over color bytes and depth codes."""
    return binascii.crc32(
        frame.color.tobytes() + np.ascontiguousarray(frame.depth.codes).tobytes()
    )


def fake_signaling(reply: bytes):
    """A one-shot signaling listener that answers any request with reply.
    Returns its address and the thread serving it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.recv(1024)
                conn.sendall(reply)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    return listener.getsockname(), t


def fake_relay(serve):
    """A one-shot relay listener that accepts any attach preamble, then runs
    serve(conn) on the attached connection and closes it. Returns a grant
    line for fake_signaling that points at it, and the thread serving it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.recv(_PREAMBLE.size, socket.MSG_WAITALL)
                conn.sendall(ACCEPTED)
                serve(conn)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return f"OK {listener.getsockname()[1]} {'00' * 16}\n".encode(), t


def closed_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as s:
        return s.getsockname()[1]


def wait_until(cond, timeout=5.0):
    """Poll cond until it is true; False if timeout seconds pass first."""
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def new_threads(before):
    """Live threads that are not in the collection before."""
    return [t for t in threading.enumerate() if t not in before]
