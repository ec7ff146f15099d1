"""Shared test helpers."""

import binascii
import socket
import threading

import numpy as np

from threecpt.frames import ColorImage, DepthMap, RgbzFrame


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


def closed_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as s:
        return s.getsockname()[1]
