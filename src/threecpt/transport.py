"""TCP wire protocol: fixed 36-byte packet header, length-delimited payloads.

Every packet is a 36-byte big-endian header followed by payload_len payload
bytes. TCP delivers the stream with arbitrary segmentation, so the decoder
reassembles packets from whatever chunk boundaries arrive. See docs/wire.md
for the byte-by-byte layout with hex dumps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .codec import CodecId, EncodedAccessUnit
from .errors import (
    DesyncError,
    FormatError,
    ProtocolError,
    SanityError,
    TransportError,
    VersionError,
)
from .frames import DisparityRange, PixelFormat, StreamHeader

MAGIC = b"3CPT"
VERSION = 1

PTYPE_STREAM_HEADER = 0
PTYPE_ACCESS_UNIT = 1
PTYPE_END_OF_STREAM = 2

FLAG_KEYFRAME = 0x0001

MAX_PAYLOAD = 64 * 1024 * 1024  # sanity bound

HEADER = struct.Struct(">4sBBHQQQI")
HEADER_SIZE = HEADER.size  # 36

_STREAM_HEADER = struct.Struct(">HHHHddB")


@dataclass(frozen=True)
class PacketHeader:
    ptype: int
    flags: int = 0
    channel_id: int = 0
    seq: int = 0
    timestamp_us: int = 0
    payload_len: int = 0

    def pack(self) -> bytes:
        return HEADER.pack(
            MAGIC,
            VERSION,
            self.ptype,
            self.flags,
            self.channel_id,
            self.seq,
            self.timestamp_us,
            self.payload_len,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "PacketHeader":
        magic, version, ptype, flags, channel_id, seq, ts, plen = HEADER.unpack(raw)
        if magic != MAGIC:
            raise DesyncError(f"bad packet magic {magic!r}")
        if version != VERSION:
            raise VersionError(f"unsupported wire version {version}")
        if plen > MAX_PAYLOAD:
            raise SanityError(f"payload_len {plen} exceeds {MAX_PAYLOAD}")
        return cls(ptype, flags, channel_id, seq, ts, plen)


@dataclass(frozen=True)
class FramePacket:
    header: PacketHeader
    payload: bytes = b""


def encode_packet(packet: FramePacket) -> bytes:
    if packet.header.payload_len != len(packet.payload):
        raise FormatError(
            f"header says {packet.header.payload_len} payload bytes, "
            f"got {len(packet.payload)}"
        )
    return packet.header.pack() + packet.payload


class PacketDecoder:
    """Incremental packet reassembler; feed chunks in arrival order."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[FramePacket]:
        """Absorb one chunk; return every packet completed by it."""
        self._buf.extend(chunk)
        packets = []
        while True:
            if len(self._buf) < HEADER_SIZE:
                break
            header = PacketHeader.unpack(bytes(self._buf[:HEADER_SIZE]))
            total = HEADER_SIZE + header.payload_len
            if len(self._buf) < total:
                break
            payload = bytes(self._buf[HEADER_SIZE:total])
            del self._buf[:total]
            packets.append(FramePacket(header, payload))
        return packets

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# --- payload serializations ---


def serialize_stream_header(hdr: StreamHeader) -> bytes:
    return _STREAM_HEADER.pack(
        hdr.width,
        hdr.height,
        hdr.fps_num,
        hdr.fps_den,
        hdr.range.min_diopters,
        hdr.range.max_diopters,
        hdr.pixel_format.value,
    )


def deserialize_stream_header(raw: bytes) -> StreamHeader:
    if len(raw) != _STREAM_HEADER.size:
        raise FormatError(f"stream header payload must be {_STREAM_HEADER.size} bytes")
    w, h, num, den, dmin, dmax, pf = _STREAM_HEADER.unpack(raw)
    try:
        return StreamHeader(
            width=w,
            height=h,
            fps_num=num,
            fps_den=den,
            range=DisparityRange(dmin, dmax),
            pixel_format=PixelFormat(pf),
        )
    except ValueError as exc:
        raise FormatError(f"bad stream header: {exc}") from exc


def serialize_access_unit(au: EncodedAccessUnit) -> bytes:
    return bytes([au.codec_id.value, au.flags & 0xFF]) + au.payload


def deserialize_access_unit(raw: bytes) -> EncodedAccessUnit:
    if len(raw) < 3:
        raise FormatError("access unit payload too short")
    try:
        return EncodedAccessUnit(CodecId(raw[0]), raw[1], raw[2:])
    except ValueError as exc:
        raise FormatError(f"bad access unit: {exc}") from exc


# --- stream send/receive over a connected socket ---


@dataclass
class SendReport:
    units_sent: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    payload_bytes: int = 0
    unit_payload_bytes: int = 0
    last_seq: int = -1


@dataclass
class EndReport:
    units_received: int = 0
    payload_bytes: int = 0
    gap_count: int = 0
    truncated: bool = False


def send_stream(conn, hdr: StreamHeader, units, channel_id: int = 0) -> SendReport:
    """Send STREAM_HEADER, one ACCESS_UNIT per (unit, timestamp_us), then
    END_OF_STREAM. Blocks on socket backpressure (bounded memory)."""
    report = SendReport()

    def _send(ptype, payload, seq=0, timestamp_us=0, flags=0):
        packet = FramePacket(
            PacketHeader(ptype, flags, channel_id, seq, timestamp_us, len(payload)),
            payload,
        )
        wire = encode_packet(packet)
        try:
            conn.sendall(wire)
        except OSError as exc:
            raise TransportError(
                f"connection failed after seq {report.last_seq}: {exc}"
            ) from exc
        report.packets_sent += 1
        report.bytes_sent += len(wire)
        report.payload_bytes += len(payload)

    _send(PTYPE_STREAM_HEADER, serialize_stream_header(hdr))
    seq = 0
    for au, timestamp_us in units:
        flags = FLAG_KEYFRAME if au.keyframe else 0
        payload = serialize_access_unit(au)
        _send(PTYPE_ACCESS_UNIT, payload, seq, timestamp_us, flags)
        report.unit_payload_bytes += len(payload)
        report.last_seq = seq
        report.units_sent += 1
        seq += 1
    _send(PTYPE_END_OF_STREAM, b"", seq)
    return report


class StreamReceiver:
    """Receives one stream: header first, then access units in seq order.

    Sequence gaps are counted in the end report, not fatal (TCP preserves
    order; gaps can only come from sender-side drops). The report is
    complete once units() is exhausted.
    """

    def __init__(self, conn, recv_size: int = 65536):
        self.conn = conn
        self.recv_size = recv_size
        self.report = EndReport()
        self._decoder = PacketDecoder()
        self._queue: list[FramePacket] = []
        self.header: StreamHeader | None = None
        self._read_header()

    def _next_packet(self) -> FramePacket | None:
        while not self._queue:
            chunk = self.conn.recv(self.recv_size)
            if not chunk:
                return None
            self._queue.extend(self._decoder.feed(chunk))
        return self._queue.pop(0)

    def _read_header(self):
        packet = self._next_packet()
        if packet is None:
            raise TransportError("connection closed before stream header")
        if packet.header.ptype != PTYPE_STREAM_HEADER:
            raise ProtocolError(
                f"expected STREAM_HEADER first, got ptype {packet.header.ptype}"
            )
        self.header = deserialize_stream_header(packet.payload)

    def units(self):
        """Yield (PacketHeader, EncodedAccessUnit) until end of stream."""
        expected_seq = 0
        while True:
            packet = self._next_packet()
            if packet is None:
                self.report.truncated = True
                return
            if packet.header.ptype == PTYPE_END_OF_STREAM:
                return
            if packet.header.ptype == PTYPE_STREAM_HEADER:
                raise ProtocolError("duplicate STREAM_HEADER mid-stream")
            if packet.header.ptype != PTYPE_ACCESS_UNIT:
                raise ProtocolError(f"unknown ptype {packet.header.ptype}")
            if packet.header.seq < expected_seq:
                raise ProtocolError(
                    f"seq went backwards: {packet.header.seq} < {expected_seq}"
                )
            if packet.header.seq > expected_seq:
                self.report.gap_count += packet.header.seq - expected_seq
            expected_seq = packet.header.seq + 1
            self.report.units_received += 1
            self.report.payload_bytes += len(packet.payload)
            yield packet.header, deserialize_access_unit(packet.payload)


def recv_stream(conn) -> StreamReceiver:
    """Open a receiver on a connected socket; see StreamReceiver."""
    return StreamReceiver(conn)
