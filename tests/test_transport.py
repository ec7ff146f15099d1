import socket
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecpt.codec import CodecId, EncodedAccessUnit, ref_encode
from threecpt.errors import (
    DesyncError,
    FormatError,
    ProtocolError,
    SanityError,
    TransportError,
    VersionError,
)
from threecpt.frames import StreamHeader
from threecpt.replay import SLM_BUFFER_BYTES
from threecpt.superframe import pack_superframe
from threecpt.transport import (
    FLAG_KEYFRAME,
    HEADER_SIZE,
    MAX_PAYLOAD,
    MAX_SUPERFRAME_BYTES,
    PTYPE_ACCESS_UNIT,
    PTYPE_END_OF_STREAM,
    PTYPE_STREAM_HEADER,
    VERSION,
    FramePacket,
    PacketDecoder,
    PacketHeader,
    SendReport,
    deserialize_access_unit,
    deserialize_stream_header,
    encode_packet,
    recv_stream,
    send_stream,
    serialize_access_unit,
    serialize_stream_header,
)

from util import make_frame


def unit(seed=0, n=20):
    return EncodedAccessUnit(CodecId.EXTERNAL, 0, bytes([seed % 256] * n))


class TestPacketLayout:
    def test_header_is_exactly_36_bytes(self):
        wire = PacketHeader(PTYPE_END_OF_STREAM, channel_id=7, seq=3).pack()
        assert len(wire) == HEADER_SIZE == 36
        assert wire[:4] == b"3CPT"

    def test_golden_bytes(self):
        hdr = PacketHeader(
            PTYPE_ACCESS_UNIT, flags=1, channel_id=0x0102, seq=5, timestamp_us=9, payload_len=0
        )
        wire = hdr.pack()
        assert wire.hex() == (
            "33435054"  # "3CPT"
            "02"  # version
            "01"  # ptype ACCESS_UNIT
            "0001"  # flags
            "0000000000000102"  # channel
            "0000000000000005"  # seq
            "0000000000000009"  # timestamp
            "00000000"  # payload_len
        )

    def test_roundtrip(self):
        p = FramePacket(
            PacketHeader(PTYPE_ACCESS_UNIT, 1, 42, 17, 123456, 4), b"abcd"
        )
        [out] = PacketDecoder().feed(encode_packet(p))
        assert out == p

    def test_payload_length_mismatch_rejected(self):
        p = FramePacket(PacketHeader(PTYPE_ACCESS_UNIT, payload_len=5), b"abcd")
        with pytest.raises(FormatError):
            encode_packet(p)

    def test_bad_magic_is_desync(self):
        wire = bytearray(encode_packet(FramePacket(PacketHeader(PTYPE_END_OF_STREAM))))
        wire[0] = 0x00
        with pytest.raises(DesyncError):
            PacketDecoder().feed(bytes(wire))

    def test_unknown_version_rejected(self):
        wire = bytearray(encode_packet(FramePacket(PacketHeader(PTYPE_END_OF_STREAM))))
        for version in (VERSION - 1, VERSION + 1):
            wire[4] = version
            with pytest.raises(VersionError):
                PacketDecoder().feed(bytes(wire))

    def test_unknown_ptype_is_desync(self):
        wire = bytearray(encode_packet(FramePacket(PacketHeader(PTYPE_END_OF_STREAM))))
        wire[5] = 3
        with pytest.raises(DesyncError):
            PacketDecoder().feed(bytes(wire))

    def test_payload_sanity_bound(self):
        wire = bytearray(PacketHeader(PTYPE_ACCESS_UNIT).pack())
        wire[-4:] = (MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(SanityError):
            PacketDecoder().feed(bytes(wire))


class Recorder:
    """Socket stand-in for send_stream: keeps the bytes of each sendmsg
    call, joined, and takes at most limit bytes of a call."""

    def __init__(self, limit=None):
        self.sent = []
        self.limit = limit

    def sendmsg(self, buffers):
        data = b"".join(buffers)[: self.limit]
        self.sent.append(data)
        return len(data)


class TestSendFraming:
    HDR = StreamHeader(width=16, height=6)

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "run-length"])
    def test_send_stream_writes_the_one_packet_layout(self, stored):
        frame = make_frame(16, 6, seed=2)
        if not stored:
            frame.color.data[:] = 9
            frame.depth.codes[:] = 9
        au = ref_encode(pack_superframe(frame))
        assert au.payload[0] == (0x53 if stored else 0x52)
        sock = Recorder()
        report = send_stream(sock, self.HDR, [(au, 1234)], channel_id=7)
        head = serialize_stream_header(self.HDR)
        payload = serialize_access_unit(au)
        expected = [
            encode_packet(
                FramePacket(PacketHeader(PTYPE_STREAM_HEADER, 0, 7, 0, 0, len(head)), head)
            ),
            encode_packet(
                FramePacket(
                    PacketHeader(PTYPE_ACCESS_UNIT, FLAG_KEYFRAME, 7, 0, 1234, len(payload)),
                    payload,
                )
            ),
            encode_packet(FramePacket(PacketHeader(PTYPE_END_OF_STREAM, 0, 7, 1))),
        ]
        assert sock.sent == expected
        assert report == SendReport(
            units_sent=1,
            packets_sent=3,
            bytes_sent=sum(map(len, expected)),
            payload_bytes=len(head) + len(payload),
            unit_payload_bytes=len(payload),
            last_seq=0,
        )

    def test_partial_sends_resume_where_they_stopped(self):
        hdr = StreamHeader(width=64, height=48)
        units = [(ref_encode(pack_superframe(make_frame(64, 48, seed=i))), i) for i in range(3)]
        whole, partial = Recorder(), Recorder(limit=1000)
        send_stream(whole, hdr, units)
        send_stream(partial, hdr, units)
        assert max(map(len, partial.sent)) == 1000 < max(map(len, whole.sent))
        assert b"".join(partial.sent) == b"".join(whole.sent)

    def test_stored_unit_is_framed_without_a_copy(self):
        au = ref_encode(pack_superframe(make_frame(640, 480, seed=3)))
        assert au.payload[0] == 0x53
        calls = []

        class Discard:
            def sendmsg(self, buffers):
                calls.append(list(buffers))
                return sum(map(len, buffers))

        tracemalloc.start()
        try:
            send_stream(Discard(), StreamHeader(width=640, height=480), [(au, 0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        payload = serialize_access_unit(au)
        header = PacketHeader(PTYPE_ACCESS_UNIT, FLAG_KEYFRAME, 0, 0, 0, len(payload))
        assert b"".join(calls[1]) == encode_packet(FramePacket(header, payload))


class TestFragmentation:
    def packets(self):
        return [
            FramePacket(
                PacketHeader(PTYPE_ACCESS_UNIT, 0, 1, i, i * 1000, 10 + i),
                bytes(range(10 + i)),
            )
            for i in range(4)
        ]

    def test_byte_at_a_time(self):
        wire = b"".join(encode_packet(p) for p in self.packets())
        decoder = PacketDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i : i + 1]))
        assert out == self.packets()
        assert decoder.pending_bytes == 0

    def test_two_packets_one_chunk(self):
        a, b = self.packets()[:2]
        out = PacketDecoder().feed(encode_packet(a) + encode_packet(b))
        assert out == [a, b]

    @given(st.data())
    @settings(max_examples=200)
    def test_any_partition_parses_identically(self, data):
        wire = b"".join(encode_packet(p) for p in self.packets())
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(wire)), min_size=0, max_size=12)
            )
        )
        bounds = [0] + cuts + [len(wire)]
        decoder = PacketDecoder()
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            out.extend(decoder.feed(wire[lo:hi]))
        assert out == self.packets()

    @given(st.lists(st.binary(max_size=300), min_size=1, max_size=5), st.data())
    @settings(max_examples=200)
    def test_segmentation_matches_whole_packet_feeds(self, payloads, data):
        wires = [
            encode_packet(FramePacket(PacketHeader(PTYPE_ACCESS_UNIT, 0, 1, i, 0, len(p)), p))
            for i, p in enumerate(payloads)
        ]
        # the last packet may be cut short, so some bytes stay pending
        wires[-1] = wires[-1][: data.draw(st.integers(0, len(wires[-1])))]
        whole = PacketDecoder()
        expected = [p for w in wires for p in whole.feed(w)]
        wire = b"".join(wires)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=12)))
        bounds = [0] + cuts + [len(wire)]
        decoder = PacketDecoder()
        out = [p for lo, hi in zip(bounds, bounds[1:]) for p in decoder.feed(wire[lo:hi])]
        assert out == expected
        assert decoder.pending_bytes == whole.pending_bytes

    def test_allocation_grows_with_the_bytes_fed(self):
        # a header declaring the largest payload allocates nothing by itself
        header = PacketHeader(PTYPE_ACCESS_UNIT, payload_len=MAX_PAYLOAD).pack()
        body = bytes(1024)
        decoder = PacketDecoder()
        tracemalloc.start()
        try:
            assert decoder.feed(header) == []
            assert decoder.feed(body) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 + len(header) + len(body)
        assert decoder.pending_bytes == len(header) + len(body)

    def test_superframe_sized_packet_one_byte_chunks(self):
        # a full 640x480 access unit fragmented into single-byte chunks
        au = ref_encode(pack_superframe(make_frame(64, 48)))
        packet = FramePacket(
            PacketHeader(PTYPE_ACCESS_UNIT, 1, 0, 0, 0, len(au.payload)), au.payload
        )
        wire = encode_packet(packet)
        decoder = PacketDecoder()
        out = []
        step = 1
        for i in range(0, len(wire), step):
            out.extend(decoder.feed(wire[i : i + step]))
        assert out == [packet]


def loopback():
    return socket.socketpair()


class TestStreams:
    HDR = StreamHeader(width=8, height=6)

    def run_stream(self, units):
        a, b = loopback()
        result = {}

        def rx():
            receiver = recv_stream(b)
            result["header"] = receiver.header
            result["units"] = [(h, u) for h, u in receiver.units()]
            result["report"] = receiver.report

        t = threading.Thread(target=rx)
        t.start()
        report = send_stream(a, self.HDR, units, channel_id=9)
        a.close()
        t.join()
        b.close()
        return report, result

    def test_empty_stream_is_two_packets(self):
        report, result = self.run_stream([])
        assert report.packets_sent == 2
        assert result["header"] == self.HDR
        assert result["units"] == []
        assert not result["report"].truncated

    @pytest.mark.parametrize("n", [0, 5])
    def test_end_of_stream_seq_is_unit_count(self, n):
        a, b = loopback()
        report = send_stream(a, self.HDR, [(unit(i), i) for i in range(n)])
        a.close()
        wire = bytearray()
        while chunk := b.recv(65536):
            wire += chunk
        b.close()
        last = PacketDecoder().feed(bytes(wire))[-1].header
        assert last.ptype == PTYPE_END_OF_STREAM
        assert last.seq == report.units_sent == n

    def test_n_units_n_plus_two_packets(self):
        units = [(unit(i), i * 1000) for i in range(5)]
        report, result = self.run_stream(units)
        assert report.packets_sent == 7
        assert [h.seq for h, _ in result["units"]] == list(range(5))
        assert [h.timestamp_us for h, _ in result["units"]] == [i * 1000 for i in range(5)]

    def test_loopback_100_units_ordered(self):
        units = [(unit(i, n=100), i) for i in range(100)]
        report, result = self.run_stream(units)
        assert result["report"].units_received == 100
        assert [u.payload for _, u in result["units"]] == [u.payload for u, _ in units]
        assert result["report"].gap_count == 0
        assert result["report"].payload_bytes == report.unit_payload_bytes

    def test_stream_header_survives_wire(self):
        hdr = StreamHeader(width=640, height=480, fps_num=24, fps_den=1)
        assert deserialize_stream_header(serialize_stream_header(hdr)) == hdr

    @pytest.mark.parametrize(
        "bad",
        [{"pf": 2}, {"pf": 0}, {"dmin": -1.0}, {"dmin": 2.0, "dmax": 1.0},
         {"dmin": 1.0, "dmax": 1.0}, {"fps_num": 0}],
        ids=["pixel-format-2", "pixel-format-0", "negative-min", "inverted", "empty",
             "zero-fps"],
    )
    def test_bad_stream_header_is_format_error(self, bad):
        fields = {"w": 640, "h": 480, "fps_num": 30, "fps_den": 1, "dmin": 0.0,
                  "dmax": 2.0, "pf": 1} | bad
        raw = struct.pack(">HHHHddB", *fields.values())
        with pytest.raises(FormatError):
            deserialize_stream_header(raw)

    @pytest.mark.parametrize(
        "raw",
        [bytes([9, 1, 0x52]), bytes([0, 1, 0x52]), bytes([1, 0, 0x52])],
        ids=["codec-9", "codec-0", "ref-without-keyframe"],
    )
    def test_bad_access_unit_is_format_error(self, raw):
        with pytest.raises(FormatError):
            deserialize_access_unit(raw)

    def test_truncated_stream_reported(self):
        a, b = loopback()
        a.sendall(
            encode_packet(
                FramePacket(
                    PacketHeader(
                        PTYPE_STREAM_HEADER,
                        payload_len=len(serialize_stream_header(self.HDR)),
                    ),
                    serialize_stream_header(self.HDR),
                )
            )
        )
        payload = serialize_access_unit(unit(1))
        a.sendall(
            encode_packet(
                FramePacket(
                    PacketHeader(PTYPE_ACCESS_UNIT, 0, 0, 0, 0, len(payload)), payload
                )
            )
        )
        a.close()  # no END_OF_STREAM
        receiver = recv_stream(b)
        received = list(receiver.units())
        b.close()
        assert len(received) == 1
        assert receiver.report.truncated

    def test_seq_gap_counted_not_fatal(self):
        a, b = loopback()
        a.sendall(
            encode_packet(
                FramePacket(
                    PacketHeader(
                        PTYPE_STREAM_HEADER,
                        payload_len=len(serialize_stream_header(self.HDR)),
                    ),
                    serialize_stream_header(self.HDR),
                )
            )
        )
        for seq in [0, 1, 2, 3, 4, 6, 7]:  # seq 5 dropped sender-side
            payload = serialize_access_unit(unit(seq))
            a.sendall(
                encode_packet(
                    FramePacket(
                        PacketHeader(PTYPE_ACCESS_UNIT, 0, 0, seq, 0, len(payload)),
                        payload,
                    )
                )
            )
        a.sendall(
            encode_packet(FramePacket(PacketHeader(PTYPE_END_OF_STREAM, seq=8)))
        )
        a.close()
        receiver = recv_stream(b)
        received = list(receiver.units())
        b.close()
        assert len(received) == 7
        assert receiver.report.gap_count == 1
        assert not receiver.report.truncated

    @pytest.mark.parametrize(
        "width,height,accepted",
        [(2048, 1024, True), (1024, 2048, True), (2048, 1026, False), (32766, 16384, False)],
    )
    def test_stream_header_over_the_bound_is_sanity_error(self, width, height, accepted):
        assert MAX_SUPERFRAME_BYTES == SLM_BUFFER_BYTES
        a, b = loopback()
        with a, b:
            send_stream(a, StreamHeader(width=width, height=height), [(unit(0), 0)])
            if accepted:
                assert recv_stream(b).header.width == width
            else:
                with pytest.raises(SanityError, match=f"declares {width}x{height}"):
                    recv_stream(b)

    def test_unit_before_header_is_protocol_error(self):
        a, b = loopback()
        payload = serialize_access_unit(unit(0))
        a.sendall(
            encode_packet(
                FramePacket(
                    PacketHeader(PTYPE_ACCESS_UNIT, 0, 0, 0, 0, len(payload)), payload
                )
            )
        )
        a.close()
        with pytest.raises(ProtocolError):
            recv_stream(b)
        b.close()

    def test_connection_closed_before_header(self):
        a, b = loopback()
        a.close()
        with pytest.raises(TransportError):
            recv_stream(b)
        b.close()

    @pytest.mark.parametrize("after_header", [False, True], ids=["before-header", "mid-stream"])
    def test_connection_reset_is_transport_error(self, after_header):
        # a TCP peer that closes with SO_LINGER 0 resets the connection
        with socket.create_server(("127.0.0.1", 0)) as listener:
            b = socket.create_connection(listener.getsockname())
            a, _ = listener.accept()
        with b:
            if after_header:
                header = serialize_stream_header(self.HDR)
                packet_header = PacketHeader(PTYPE_STREAM_HEADER, payload_len=len(header))
                packet = FramePacket(packet_header, header)
                a.sendall(encode_packet(packet))
                receiver = recv_stream(b)
            a.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            a.close()
            with pytest.raises(TransportError, match="connection failed"):
                if after_header:
                    list(receiver.units())
                else:
                    recv_stream(b)
