"""Self-hosted rendezvous: signaling registry plus a byte-agnostic relay.

Both endpoints dial out: the sender and receiver each register a channel id
with the signaling listener, get back a grant (relay port + 16-byte key
from ``os.urandom``), then attach to the relay listener, which compares the
key in constant time. Once both roles of a channel are attached the relay
splices the two connections byte-for-byte. All packet logic stays in the
transport layer; the relay never inspects stream bytes.

The splice buffers no frames: each direction is one blocking loop that
receives into one held 64 KiB buffer (``PUMP_BYTES``) and sends what
arrived before it receives again, so TCP backpressure from a slow receiver
reaches the sender directly and no chunk allocates a buffer of its own.
A channel is released when both directions have ended: the relay closes
both sockets and forgets the channel, so its id can be registered again.
A register that finds both clients of a paired channel gone gets a fresh
channel at once, before that release has run.
A parked (not yet paired) attach whose client has gone is closed and its
role freed when a register or attach next asks for that role.

One service thread accepts on both listeners, one handler thread per
connection, and every tick (``TICK_S``) drops unpaired channels older than
the TTL. A failed accept (say, out of descriptors) waits one tick and the
loop goes on: only ``stop()`` ends it.

Wire surfaces:

* Signaling (TCP, UTF-8 lines, one request per connection):
  ``REG <sender|receiver> <channel_id>\\n`` ->
  ``OK <relay_port> <key_hex>\\n`` or ``ERR <code> <message>\\n``.
* Relay attach preamble (binary): magic ``3CPA``, role byte (0x01 sender,
  0x02 receiver), channel_id u64 BE, 16 key bytes. The relay answers one
  byte: 0x00 parked/paired, 0xFF rejected.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

try:
    # hmac.compare_digest without hashlib: hmac falls back to this constant-time
    # compare when _hashlib is absent, and hashlib would map libcrypto
    from _operator import _compare_digest
except ImportError:  # an interpreter without the private name: the public compare
    from hmac import compare_digest as _compare_digest

from .errors import RelayAuthError, SignalingError

ATTACH_MAGIC = b"3CPA"
ROLE_SENDER = 0x01
ROLE_RECEIVER = 0x02
_ROLE_BYTES = {"sender": ROLE_SENDER, "receiver": ROLE_RECEIVER}

_PREAMBLE = struct.Struct(">4sBQ16s")

ACCEPTED = b"\x00"
REJECTED = b"\xff"

TICK_S = 0.2  # how often the service loop expires channels and checks for stop()
PUMP_BYTES = 65536  # each splice direction's held receive buffer


def _quiet_close(sock: socket.socket):
    # shut down first: close() alone does not wake a pump blocked in recv
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _client_gone(sock: socket.socket) -> bool:
    """Whether the client of a parked (blocking) socket has closed or reset
    it: a non-blocking peek that finds EOF or fails."""
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        return False
    except OSError:
        return True


def _pump(src: socket.socket, dst: socket.socket):
    """Copy src to dst through one held buffer until src ends or either
    side fails, then pass the end on to dst's peer."""
    buf = memoryview(bytearray(PUMP_BYTES))
    try:
        while n := src.recv_into(buf):
            dst.sendall(buf[:n])
    except OSError:
        pass
    try:
        dst.shutdown(socket.SHUT_WR)
    except OSError:
        pass


@dataclass(frozen=True)
class ChannelGrant:
    channel_id: int
    relay_host: str
    relay_port: int
    key: bytes

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError("channel key must be 16 bytes")
        if not 0 < self.relay_port < 65536:
            raise ValueError(f"relay port {self.relay_port} out of range")


@dataclass
class _Channel:
    key: bytes
    created_at: float
    attached: dict = field(default_factory=dict)  # role -> socket

    def holds(self, role: str) -> bool:
        """Whether role is attached. A role parked on an unpaired channel
        whose client has gone is closed and freed first."""
        sock = self.attached.get(role)
        if sock is not None and len(self.attached) < 2 and _client_gone(sock):
            _quiet_close(sock)
            del self.attached[role]
        return role in self.attached

    def ended(self) -> bool:
        """Whether the channel was paired and both its clients have gone, so
        its session is over even if its splice has not released it yet."""
        return len(self.attached) == 2 and all(map(_client_gone, self.attached.values()))


class RelayServer:
    """Runs both listeners and channel expiry on one background thread."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        signal_port: int = 0,
        relay_port: int = 0,
        ttl_seconds: float = 120.0,
        max_channels: int = 256,
    ):
        self.host = host
        self.ttl = ttl_seconds
        self.max_channels = max_channels
        self._channels: dict[int, _Channel] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

        listeners = []
        try:
            for port in (signal_port, relay_port):
                listeners.append(socket.create_server((host, port), backlog=64))
        except OSError as exc:  # create_server has closed the socket it failed to bind
            for sock in listeners:
                sock.close()
            raise SignalingError(f"cannot bind {host}:{port}: {exc}") from exc
        self._signal_sock, self._relay_sock = listeners
        self.signal_port = self._signal_sock.getsockname()[1]
        self.relay_port = self._relay_sock.getsockname()[1]

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        with self._lock:
            for chan in self._channels.values():
                for sock in chan.attached.values():
                    _quiet_close(sock)
            self._channels.clear()
        self._signal_sock.close()
        self._relay_sock.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _serve(self):
        """Accept on both listeners and expire channels every tick, until stopped."""
        handlers = {self._signal_sock: self._handle_signaling, self._relay_sock: self._handle_attach}
        poller = select.poll()  # unlike epoll, it opens no descriptor of its own
        for listener in handlers:
            listener.setblocking(False)  # an accept racing a client reset must not block
            poller.register(listener, select.POLLIN)
        while not self._stop.is_set():
            poller.poll(TICK_S * 1000)
            for listener, handler in handlers.items():
                try:
                    conn, _ = listener.accept()
                except BlockingIOError:  # nothing to accept, or the client went first
                    continue
                except OSError:  # e.g. EMFILE; the connection waits in the backlog
                    self._stop.wait(TICK_S)
                    continue
                threading.Thread(target=handler, args=(conn,), daemon=True).start()
            self._expire()

    def _expire(self):
        """Drop unpaired channels older than the TTL, closing parked sockets."""
        cutoff = time.monotonic() - self.ttl
        with self._lock:
            for cid, chan in list(self._channels.items()):
                if len(chan.attached) < 2 and chan.created_at < cutoff:
                    del self._channels[cid]
                    for sock in chan.attached.values():
                        _quiet_close(sock)

    # --- signaling ---

    def _handle_signaling(self, conn: socket.socket):
        with conn:
            conn.settimeout(5)
            try:
                line = _read_line(conn)
                reply = self._signaling_reply(line)
            except (OSError, SignalingError) as exc:
                reply = f"ERR malformed {exc}\n"
            try:
                conn.sendall(reply.encode())
            except OSError:
                pass

    def _signaling_reply(self, line: str) -> str:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "REG":
            return "ERR malformed expected 'REG <role> <channel_id>'\n"
        _, role, chan_str = parts
        if role not in _ROLE_BYTES:
            return f"ERR bad-role unknown role {role}\n"
        try:
            channel_id = int(chan_str)
        except ValueError:
            return f"ERR malformed channel id {chan_str!r}\n"
        if not 0 <= channel_id < 2**64:
            return "ERR malformed channel id out of u64 range\n"

        with self._lock:
            chan = self._channels.get(channel_id)
            if chan is not None and chan.ended():
                # a fresh channel takes the id; _splice releases only its own
                del self._channels[channel_id]
                chan = None
            if chan is None:
                if len(self._channels) >= self.max_channels:
                    return f"ERR capacity at max {self.max_channels} channels\n"
                chan = _Channel(key=os.urandom(16), created_at=time.monotonic())
                self._channels[channel_id] = chan
            if chan.holds(role):
                return f"ERR conflict {role} already attached on channel {channel_id}\n"
            return f"OK {self.relay_port} {chan.key.hex()}\n"

    # --- relay ---

    def _handle_attach(self, conn: socket.socket):
        conn.settimeout(10)
        try:
            raw = _read_exact(conn, _PREAMBLE.size)
            magic, role_byte, channel_id, key = _PREAMBLE.unpack(raw)
        except OSError:
            _quiet_close(conn)
            return
        role = {ROLE_SENDER: "sender", ROLE_RECEIVER: "receiver"}.get(role_byte)
        # parked sockets are blocking: with a timeout set, the non-blocking
        # peek in holds() would first wait up to that timeout for data
        conn.settimeout(None)
        with self._lock:
            chan = self._channels.get(channel_id)
            ok = (
                magic == ATTACH_MAGIC
                and role is not None
                and chan is not None
                and _compare_digest(key, chan.key)
                and not chan.holds(role)
            )
            if ok:
                chan.attached[role] = conn
                paired = len(chan.attached) == 2
        if not ok:
            try:
                conn.sendall(REJECTED)
            except OSError:
                pass
            _quiet_close(conn)
            return
        try:
            conn.sendall(ACCEPTED)
        except OSError:
            _quiet_close(conn)
            return
        if paired:
            self._splice(channel_id, chan)

    def _splice(self, channel_id: int, chan: _Channel):
        """Run sender->receiver on this thread and receiver->sender on one
        more; once both directions end, close both sockets and release the
        channel unless it was already dropped and its id registered anew."""
        sender, receiver = chan.attached["sender"], chan.attached["receiver"]
        backward = threading.Thread(target=_pump, args=(receiver, sender), daemon=True)
        backward.start()
        _pump(sender, receiver)
        backward.join()
        _quiet_close(sender)
        _quiet_close(receiver)
        with self._lock:
            if self._channels.get(channel_id) is chan:
                del self._channels[channel_id]


# --- client side ---


def register_channel(
    signal_addr: tuple[str, int], role: str, channel_id: int, timeout: float = 5.0
) -> ChannelGrant:
    """Ask the signaling server for a grant on the given channel."""
    if role not in _ROLE_BYTES:
        raise ValueError(f"role must be sender or receiver, got {role!r}")
    try:
        with socket.create_connection(signal_addr, timeout=timeout) as conn:
            conn.sendall(f"REG {role} {channel_id}\n".encode())
            line = _read_line(conn)
    except OSError as exc:
        raise SignalingError(f"signaling at {signal_addr} unreachable: {exc}") from exc
    parts = line.split()
    if parts[:1] != ["OK"]:
        raise SignalingError(f"registration refused: {line.strip() or 'no reply'}")
    try:
        _, port, key = parts
        return ChannelGrant(
            channel_id=channel_id,
            relay_host=signal_addr[0],
            relay_port=int(port),
            key=bytes.fromhex(key),
        )
    except ValueError as exc:
        raise SignalingError(f"malformed grant {line.strip()!r}: {exc}") from exc


def attach(grant: ChannelGrant, role: str, timeout: float = 10.0) -> socket.socket:
    """Dial the relay and attach; returns the spliced socket."""
    try:
        conn = socket.create_connection((grant.relay_host, grant.relay_port), timeout=timeout)
    except OSError as exc:
        raise RelayAuthError(f"relay unreachable: {exc}") from exc
    try:
        conn.sendall(
            _PREAMBLE.pack(ATTACH_MAGIC, _ROLE_BYTES[role], grant.channel_id, grant.key)
        )
        verdict = _read_exact(conn, 1)
    except OSError as exc:
        conn.close()
        raise RelayAuthError(f"relay attach failed: {exc}") from exc
    if verdict != ACCEPTED:
        conn.close()
        raise RelayAuthError(f"relay rejected attach on channel {grant.channel_id}")
    conn.settimeout(None)
    return conn


def _read_exact(conn: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise OSError(f"connection closed after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def _read_line(conn: socket.socket, limit: int = 1024) -> str:
    buf = bytearray()
    while not buf.endswith(b"\n"):
        if len(buf) > limit:
            raise SignalingError(f"signaling line longer than {limit} bytes")
        chunk = conn.recv(1)
        if not chunk:
            break
        buf.extend(chunk)
    return buf.decode("utf-8", errors="replace")
