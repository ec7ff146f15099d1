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
from .superframe import superframe_byte_size

MAGIC = b"3CPT"
VERSION = 2

PTYPE_STREAM_HEADER = 0
PTYPE_ACCESS_UNIT = 1
PTYPE_END_OF_STREAM = 2

FLAG_KEYFRAME = 0x0001

MAX_PAYLOAD = 64 * 1024 * 1024  # sanity bound

RECV_SIZE = 65536  # bytes a receiver asks of its socket per recv

# the largest superframe a receiver takes, that of a 2048x1024 stream: the
# 16 MiB of replay.SLM_BUFFER_BYTES. Receiver policy, not part of the format
MAX_SUPERFRAME_BYTES = 16 * 1024 * 1024

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
        if ptype not in (PTYPE_STREAM_HEADER, PTYPE_ACCESS_UNIT, PTYPE_END_OF_STREAM):
            raise DesyncError(f"unknown packet type {ptype}")
        if plen > MAX_PAYLOAD:
            raise SanityError(f"payload_len {plen} exceeds {MAX_PAYLOAD}")
        return cls(ptype, flags, channel_id, seq, ts, plen)


@dataclass(frozen=True)
class FramePacket:
    header: PacketHeader
    payload: bytes = b""


def encode_packet(packet: FramePacket) -> bytes:
    """The packet's bytes: its header, then its payload."""
    size = len(packet.payload)
    if packet.header.payload_len != size:
        raise FormatError(f"header says {packet.header.payload_len} payload bytes, got {size}")
    return packet.header.pack() + packet.payload


class PacketDecoder:
    """Incremental packet reassembler; feed chunks in arrival order. Each
    payload is its own bytearray, which grows only as its bytes arrive, so a
    header alone allocates nothing and each byte is copied once."""

    def __init__(self):
        # the packet in progress: its header bytes, its header once they are
        # all in, and the payload bytes so far
        self._head = bytearray()
        self._header: PacketHeader | None = None
        self._payload = bytearray()

    def feed(self, chunk: bytes) -> list[FramePacket]:
        """Absorb one chunk; return every packet completed by it."""
        packets = []
        pos = 0
        with memoryview(chunk) as view:
            while True:
                if self._header is None:
                    take = HEADER_SIZE - len(self._head)
                    self._head += view[pos : pos + take]
                    pos += take
                    if len(self._head) < HEADER_SIZE:
                        break
                    self._header = PacketHeader.unpack(self._head)
                take = self._header.payload_len - len(self._payload)
                self._payload += view[pos : pos + take]
                pos += take
                if len(self._payload) < self._header.payload_len:
                    break
                packets.append(FramePacket(self._header, self._payload))
                self._head, self._header, self._payload = bytearray(), None, bytearray()
        return packets

    @property
    def pending_bytes(self) -> int:
        return len(self._head) + len(self._payload)


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


def _unit_prefix(au: EncodedAccessUnit) -> bytes:
    """The codec id and flags byte in front of a unit's payload."""
    return bytes([au.codec_id.value, au.flags & 0xFF])


def serialize_access_unit(au: EncodedAccessUnit) -> bytes:
    return _unit_prefix(au) + au.payload


def deserialize_access_unit(raw: bytes) -> EncodedAccessUnit:
    """The unit in a packet payload; its payload is a view on raw."""
    if len(raw) < 3:
        raise FormatError("access unit payload too short")
    try:
        return EncodedAccessUnit(CodecId(raw[0]), raw[1], memoryview(raw)[2:])
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


def _send_buffers(conn, buffers: list[memoryview]) -> None:
    """Write the byte views in buffers to conn in order, with conn.sendmsg,
    until the kernel has taken them all; a partial send is resumed where it
    stopped, on a view of the rest."""
    buffers = [b for b in buffers if len(b)]
    while buffers:
        sent = conn.sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers[0])
            buffers.pop(0)
        if sent:
            buffers[0] = buffers[0][sent:]


def send_stream(conn, hdr: StreamHeader, units, channel_id: int = 0) -> SendReport:
    """Send STREAM_HEADER, one ACCESS_UNIT per (unit, timestamp_us), then
    END_OF_STREAM. Blocks on socket backpressure (bounded memory). Each
    packet goes to conn in one sendmsg call of two buffers (more calls only
    when the kernel takes part of it): the packet header with the unit's
    prefix, then the unit's payload, which is not copied."""
    report = SendReport()

    def _send(ptype, prefix, body=b"", seq=0, timestamp_us=0, flags=0):
        # the header and prefix are joined; the body goes to the kernel as it is
        body = memoryview(body).cast("B")
        payload_len = len(prefix) + len(body)
        head = PacketHeader(ptype, flags, channel_id, seq, timestamp_us, payload_len).pack()
        try:
            _send_buffers(conn, [memoryview(head + prefix), body])
        except OSError as exc:
            raise TransportError(
                f"connection failed after seq {report.last_seq}: {exc}"
            ) from exc
        report.packets_sent += 1
        report.bytes_sent += HEADER_SIZE + payload_len
        report.payload_bytes += payload_len
        return payload_len

    _send(PTYPE_STREAM_HEADER, serialize_stream_header(hdr))
    seq = 0
    for au, timestamp_us in units:
        flags = FLAG_KEYFRAME if au.keyframe else 0
        report.unit_payload_bytes += _send(
            PTYPE_ACCESS_UNIT, _unit_prefix(au), au.payload, seq, timestamp_us, flags
        )
        report.last_seq = seq
        report.units_sent += 1
        seq += 1
    _send(PTYPE_END_OF_STREAM, b"", seq=seq)
    return report


def _read_packets(conn):
    """Yield each packet as its last byte arrives on conn, until it closes."""
    decoder = PacketDecoder()
    while True:
        try:
            chunk = conn.recv(RECV_SIZE)
        except OSError as exc:
            raise TransportError(f"connection failed: {exc}") from exc
        if not chunk:
            return
        yield from decoder.feed(chunk)


class StreamReceiver:
    """Receives one stream: header first, then access units in seq order.

    A header that declares a superframe over MAX_SUPERFRAME_BYTES raises
    SanityError before any unit is read, so no peer sizes what the receiver
    allocates beyond that.

    Sequence gaps are counted in the end report, not fatal (TCP preserves
    order; gaps can only come from sender-side drops). The report is
    complete once units() is exhausted. A failed connection raises
    TransportError.
    """

    def __init__(self, conn):
        self.report = EndReport()
        self._packets = _read_packets(conn)
        packet = next(self._packets, None)
        if packet is None:
            raise TransportError("connection closed before stream header")
        if packet.header.ptype != PTYPE_STREAM_HEADER:
            raise ProtocolError(
                f"expected STREAM_HEADER first, got ptype {packet.header.ptype}"
            )
        self.header: StreamHeader = deserialize_stream_header(packet.payload)
        size = superframe_byte_size(self.header.width, self.header.height)
        if size > MAX_SUPERFRAME_BYTES:
            raise SanityError(
                f"stream header declares {self.header.width}x{self.header.height}, a "
                f"{size}-byte superframe; this receiver takes at most {MAX_SUPERFRAME_BYTES}"
            )

    def units(self):
        """Yield (PacketHeader, EncodedAccessUnit) until end of stream."""
        expected_seq = 0
        for packet in self._packets:
            if packet.header.ptype == PTYPE_END_OF_STREAM:
                return
            if packet.header.ptype == PTYPE_STREAM_HEADER:
                raise ProtocolError("duplicate STREAM_HEADER mid-stream")
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
        self.report.truncated = True


def recv_stream(conn) -> StreamReceiver:
    """Open a receiver on a connected socket; see StreamReceiver."""
    return StreamReceiver(conn)
