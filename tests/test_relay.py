import hashlib
import itertools
import random
import socket
import threading
import time

import pytest

from threecpt.errors import RelayAuthError, SignalingError
from threecpt.relay import ChannelGrant, RelayServer, _pump, attach, register_channel

from util import closed_port, fake_signaling, new_threads, wait_until


@pytest.fixture
def server():
    with RelayServer(ttl_seconds=60.0) as srv:
        yield srv


def signal_addr(srv):
    return (srv.host, srv.signal_port)


def open_pair(srv, cid):
    """Register and attach both roles of channel cid; returns (sender, receiver)."""
    gs = register_channel(signal_addr(srv), "sender", cid)
    gr = register_channel(signal_addr(srv), "receiver", cid)
    return attach(gs, "sender"), attach(gr, "receiver")


def run_session(srv, cid, payload):
    """One complete session on channel cid; returns what the receiver got."""
    tx, rx = open_pair(srv, cid)
    tx.sendall(payload)
    tx.close()
    received = bytearray()
    while chunk := rx.recv(65536):
        received.extend(chunk)
    rx.close()
    return bytes(received)


class TestSignaling:
    def test_fresh_register_returns_grant(self, server):
        grant = register_channel(signal_addr(server), "sender", 1)
        assert grant.channel_id == 1
        assert grant.relay_port == server.relay_port
        assert len(grant.key) == 16

    def test_both_roles_share_key(self, server):
        a = register_channel(signal_addr(server), "sender", 42)
        b = register_channel(signal_addr(server), "receiver", 42)
        assert a.key == b.key and a.channel_id == b.channel_id

    def test_register_idempotent_before_attach(self, server):
        a = register_channel(signal_addr(server), "sender", 3)
        b = register_channel(signal_addr(server), "sender", 3)
        assert a.key == b.key

    def test_unreachable_signaling(self):
        with pytest.raises(SignalingError):
            register_channel(("127.0.0.1", 1), "sender", 1, timeout=0.5)

    @pytest.mark.parametrize(
        "reply",
        [
            b"",
            b"OK 5000\n",
            b"OK notaport " + b"00" * 16 + b"\n",
            b"OK 5000 nothex\n",
            b"OK 5000 0011\n",
            b"OK 70000 " + b"00" * 16 + b"\n",
            b"OK 5000 " + b"00" * 16 + b" extra\n",
        ],
        ids=["no-reply", "no-key", "bad-port", "bad-hex", "short-key",
             "port-range", "extra-field"],
    )
    def test_malformed_grant_is_signaling_error(self, reply):
        addr, t = fake_signaling(reply)
        with pytest.raises(SignalingError):
            register_channel(addr, "sender", 1)
        t.join(timeout=5)

    def test_bad_role_rejected(self, server):
        with pytest.raises(ValueError):
            register_channel(signal_addr(server), "observer", 1)

    def test_capacity_limit(self):
        with RelayServer(ttl_seconds=60, max_channels=2) as srv:
            register_channel(signal_addr(srv), "sender", 1)
            register_channel(signal_addr(srv), "sender", 2)
            with pytest.raises(SignalingError, match="capacity"):
                register_channel(signal_addr(srv), "sender", 3)


class TestAttach:
    def test_splice_preserves_bytes(self, server):
        grant_s = register_channel(signal_addr(server), "sender", 10)
        grant_r = register_channel(signal_addr(server), "receiver", 10)
        payload = bytes(range(256)) * 1000
        received = bytearray()

        def rx():
            conn = attach(grant_r, "receiver")
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)
            conn.close()

        t = threading.Thread(target=rx)
        t.start()
        conn = attach(grant_s, "sender")
        conn.sendall(payload)
        conn.close()
        t.join(timeout=10)
        assert bytes(received) == payload

    def test_wrong_key_rejected(self, server):
        register_channel(signal_addr(server), "sender", 11)
        bogus = ChannelGrant(11, server.host, server.relay_port, b"\x00" * 16)
        with pytest.raises(RelayAuthError):
            attach(bogus, "sender")

    @pytest.mark.parametrize("at", [0, 15], ids=["first-byte", "last-byte"])
    def test_key_one_byte_off_rejected(self, server, at):
        grant = register_channel(signal_addr(server), "sender", 15)
        key = bytearray(grant.key)
        key[at] ^= 0x01
        with pytest.raises(RelayAuthError):
            attach(ChannelGrant(15, grant.relay_host, grant.relay_port, bytes(key)), "sender")
        attach(grant, "sender").close()  # the role is still free for the granted key

    def test_unknown_channel_rejected(self, server):
        bogus = ChannelGrant(999, server.host, server.relay_port, b"\x00" * 16)
        with pytest.raises(RelayAuthError):
            attach(bogus, "sender")

    def test_refused_relay_port_is_auth_error(self):
        grant = ChannelGrant(1, "127.0.0.1", closed_port(), b"\x00" * 16)
        with pytest.raises(RelayAuthError, match="unreachable"):
            attach(grant, "sender")

    def test_double_sender_attach_rejected(self, server):
        grant = register_channel(signal_addr(server), "sender", 12)
        first = attach(grant, "sender")
        with pytest.raises(RelayAuthError):
            attach(grant, "sender")
        first.close()

    def test_second_register_after_attach_conflicts(self, server):
        grant = register_channel(signal_addr(server), "sender", 13)
        conn = attach(grant, "sender")
        with pytest.raises(SignalingError, match="conflict"):
            register_channel(signal_addr(server), "sender", 13)
        conn.close()

    def test_forwarding_latency_under_100ms(self, server):
        grant_s = register_channel(signal_addr(server), "sender", 14)
        grant_r = register_channel(signal_addr(server), "receiver", 14)
        got = threading.Event()

        def rx():
            conn = attach(grant_r, "receiver")
            conn.recv(16)
            got.set()
            conn.close()

        t = threading.Thread(target=rx)
        t.start()
        conn = attach(grant_s, "sender")
        time.sleep(0.05)  # let both sides finish attaching
        start = time.monotonic()
        conn.sendall(b"ping")
        assert got.wait(timeout=1.0)
        assert time.monotonic() - start < 0.1
        conn.close()
        t.join()


def test_pump_copies_odd_chunks_exactly_and_passes_eof_on():
    payload = random.Random(16).randbytes(3_000_017)
    sizes = itertools.cycle([1, 4093, 65537, 7, 100_003, 65535])
    writer, src = socket.socketpair()
    dst, reader = socket.socketpair()

    def write():
        pos = 0
        while pos < len(payload):
            n = next(sizes)
            writer.sendall(payload[pos : pos + n])
            pos += n
        writer.shutdown(socket.SHUT_WR)

    with writer, src, dst, reader:
        threads = [threading.Thread(target=write), threading.Thread(target=_pump, args=(src, dst))]
        for t in threads:
            t.start()
        received = bytearray()
        reader.settimeout(10)
        while chunk := reader.recv(100_000):  # b"" only once the pump shut dst's write side
            received.extend(chunk)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    assert bytes(received) == payload


class TestChannelIsolation:
    def test_eight_concurrent_channels(self, server):
        n_channels = 8
        per_channel = 2_000_000  # ~2 MB of distinct patterned bytes each

        def payload_for(cid):
            return bytes((cid * 37 + i) % 256 for i in range(256)) * (per_channel // 256)

        digests = {}
        lock = threading.Lock()

        def rx(cid, grant):
            conn = attach(grant, "receiver")
            h = hashlib.sha256()
            total = 0
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                h.update(chunk)
                total += len(chunk)
            conn.close()
            with lock:
                digests[cid] = (total, h.hexdigest())

        def tx(cid, grant):
            conn = attach(grant, "sender")
            conn.sendall(payload_for(cid))
            conn.close()

        threads = []
        for cid in range(n_channels):
            gs = register_channel(signal_addr(server), "sender", cid)
            gr = register_channel(signal_addr(server), "receiver", cid)
            threads.append(threading.Thread(target=rx, args=(cid, gr)))
            threads.append(threading.Thread(target=tx, args=(cid, gs)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for cid in range(n_channels):
            payload = payload_for(cid)
            assert digests[cid] == (len(payload), hashlib.sha256(payload).hexdigest())


class TestChannelRelease:
    def test_channel_id_reused_for_consecutive_sessions(self, server):
        before = set(threading.enumerate())
        for i in range(5):
            payload = bytes([i]) * 20_000
            assert run_session(server, 20, payload) == payload
            assert wait_until(lambda: 20 not in server._channels)
        assert wait_until(lambda: not new_threads(before))

    def test_ended_session_id_registers_again_at_once(self, server):
        before = set(threading.enumerate())
        for i in range(50):
            payload = bytes([i]) * 20_000
            assert run_session(server, 21, payload) == payload  # no wait for the release
        assert wait_until(lambda: not server._channels and not new_threads(before))

    def test_more_sequential_sessions_than_max_channels(self):
        with RelayServer(ttl_seconds=60, max_channels=2) as srv:
            before = set(threading.enumerate())
            for cid in range(100, 105):
                payload = cid.to_bytes(8, "big") * 1000
                assert run_session(srv, cid, payload) == payload
                assert wait_until(lambda: not srv._channels)
            assert wait_until(lambda: not new_threads(before))

    def test_sender_write_fails_when_receiver_drops(self, server):
        before = set(threading.enumerate())
        tx, rx = open_pair(server, 30)
        chunk = b"\x5a" * 65536
        tx.sendall(chunk)
        assert rx.recv(1024)
        rx.close()
        deadline = time.monotonic() + 5.0
        with pytest.raises(OSError) as err:
            while True:
                tx.settimeout(max(deadline - time.monotonic(), 0.01))
                tx.sendall(chunk)
        assert not isinstance(err.value, TimeoutError), "sender hung"
        tx.close()
        assert wait_until(lambda: not server._channels and not new_threads(before))

    def test_live_pair_runs_on_two_relay_threads(self, server):
        before = set(threading.enumerate())
        tx, rx = open_pair(server, 31)
        assert wait_until(lambda: len(new_threads(before)) == 2)
        tx.sendall(b"ping")
        assert rx.recv(16) == b"ping"
        tx.close()
        rx.close()
        assert wait_until(lambda: not server._channels and not new_threads(before))

    def test_stop_ends_live_sessions(self):
        srv = RelayServer(ttl_seconds=60).start()
        before = set(threading.enumerate())
        tx, rx = open_pair(srv, 32)
        srv.stop()
        rx.settimeout(5)
        assert rx.recv(16) == b""
        tx.close()
        rx.close()
        assert wait_until(lambda: not new_threads(before))


class TestParkedAttach:
    def test_role_of_a_gone_parked_client_is_freed(self, server):
        before = set(threading.enumerate())
        grant = register_channel(signal_addr(server), "sender", 7)
        attach(grant, "sender").close()
        time.sleep(0.5)
        start = time.monotonic()
        again = register_channel(signal_addr(server), "sender", 7)
        assert time.monotonic() - start < 1.0
        assert again.key == grant.key
        attach(again, "sender").close()
        assert wait_until(lambda: not new_threads(before))

    def test_live_parked_client_keeps_its_role(self, server):
        before = set(threading.enumerate())
        grant = register_channel(signal_addr(server), "sender", 8)
        conn = attach(grant, "sender")
        conn.sendall(b"early bytes")  # unread data must not count as gone
        time.sleep(0.5)
        with pytest.raises(SignalingError, match="conflict"):
            register_channel(signal_addr(server), "sender", 8)
        with pytest.raises(RelayAuthError):
            attach(grant, "sender")
        conn.close()
        assert wait_until(lambda: not new_threads(before))


class TestTtl:
    def test_unpaired_channel_expires(self):
        with RelayServer(ttl_seconds=0.3) as srv:
            grant = register_channel(signal_addr(srv), "sender", 77)
            time.sleep(1.0)
            with pytest.raises(RelayAuthError):
                attach(grant, "sender")
