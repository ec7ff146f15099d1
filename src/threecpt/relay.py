"""Self-hosted rendezvous: signaling registry plus a byte-agnostic relay.

Both endpoints dial out: the sender and receiver each register a channel id
with the signaling listener, get back a grant (relay port + 16-byte key),
then attach to the relay listener. Once both roles of a channel are
attached the relay splices the two connections byte-for-byte. All packet
logic stays in the transport layer; the relay never inspects stream bytes.

The splice buffers no frames: each direction is one blocking recv/sendall
loop, so TCP backpressure from a slow receiver reaches the sender directly.
A channel is released when both directions have ended: the relay closes
both sockets and forgets the channel, so its id can be registered again.
A register that finds both clients of a paired channel gone gets a fresh
channel at once, before that release has run.
A parked (not yet paired) attach whose client has gone is closed and its
role freed when a register or attach next asks for that role.

Wire surfaces:

* Signaling (TCP, UTF-8 lines, one request per connection):
  ``REG <sender|receiver> <channel_id>\\n`` ->
  ``OK <relay_port> <key_hex>\\n`` or ``ERR <code> <message>\\n``.
* Relay attach preamble (binary): magic ``3CPA``, role byte (0x01 sender,
  0x02 receiver), channel_id u64 BE, 16 key bytes. The relay answers one
  byte: 0x00 parked/paired, 0xFF rejected.
"""

from __future__ import annotations

import secrets
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .errors import RelayAuthError, SignalingError

ATTACH_MAGIC = b"3CPA"
ROLE_SENDER = 0x01
ROLE_RECEIVER = 0x02
_ROLE_BYTES = {"sender": ROLE_SENDER, "receiver": ROLE_RECEIVER}

_PREAMBLE = struct.Struct(">4sBQ16s")

ACCEPTED = b"\x00"
REJECTED = b"\xff"


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
    """Copy src to dst until src ends or either side fails, then pass the
    end on to dst's peer."""
    try:
        while data := src.recv(65536):
            dst.sendall(data)
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
    """Runs the signaling and relay listeners on background threads."""

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
        self._threads: list[threading.Thread] = []

        self._signal_sock = self._listen(signal_port)
        self._relay_sock = self._listen(relay_port)
        self.signal_port = self._signal_sock.getsockname()[1]
        self.relay_port = self._relay_sock.getsockname()[1]

    def _listen(self, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.host, port))
        except OSError as exc:
            raise SignalingError(f"cannot bind {self.host}:{port}: {exc}") from exc
        sock.listen(64)
        sock.settimeout(0.2)
        return sock

    def start(self):
        for target, args in (
            (self._serve, (self._signal_sock, self._handle_signaling)),
            (self._serve, (self._relay_sock, self._handle_attach)),
            (self._sweep_expired, ()),
        ):
            t = threading.Thread(target=target, args=args, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=2)
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

    def _serve(self, listener: socket.socket, handler):
        """Accept on listener until stopped, one handler thread per connection."""
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=handler, args=(conn,), daemon=True).start()

    # --- signaling ---

    def _handle_signaling(self, conn: socket.socket):
        with conn:
            conn.settimeout(5)
            try:
                line = _read_line(conn)
                reply = self._signaling_reply(line)
            except (OSError, ValueError) as exc:
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
                chan = _Channel(key=secrets.token_bytes(16), created_at=time.monotonic())
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
                and secrets.compare_digest(key, chan.key)
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

    # --- expiry ---

    def _sweep_expired(self):
        while not self._stop.wait(min(1.0, self.ttl / 4)):
            now = time.monotonic()
            with self._lock:
                expired = [
                    cid
                    for cid, chan in self._channels.items()
                    if len(chan.attached) < 2 and now - chan.created_at > self.ttl
                ]
                for cid in expired:
                    chan = self._channels.pop(cid)
                    for sock in chan.attached.values():
                        _quiet_close(sock)


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
            raise ValueError("line too long")
        chunk = conn.recv(1)
        if not chunk:
            break
        buf.extend(chunk)
    return buf.decode("utf-8", errors="replace")
