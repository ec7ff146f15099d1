import socket
import struct
import threading

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
from threecpt.superframe import pack_superframe
from threecpt.transport import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    PTYPE_ACCESS_UNIT,
    PTYPE_END_OF_STREAM,
    PTYPE_STREAM_HEADER,
    FramePacket,
    PacketDecoder,
    PacketHeader,
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
            "01"  # version
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
        wire[4] = 2
        with pytest.raises(VersionError):
            PacketDecoder().feed(bytes(wire))

    def test_payload_sanity_bound(self):
        wire = bytearray(PacketHeader(PTYPE_ACCESS_UNIT).pack())
        wire[-4:] = (MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(SanityError):
            PacketDecoder().feed(bytes(wire))


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
