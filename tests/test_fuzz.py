"""Arbitrary peer and file bytes into the decoders that parse them.

Whatever arrives, only a ThreecptError may escape; the reference decoder
also may not allocate more than the frame its stream header declares
allows, a receiver nothing beyond the largest superframe it takes whatever
the header declares, and the container reader nothing a header's frame
count asks for.
"""

import io
import itertools
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from threecpt import container
from threecpt.codec import (
    REF_HEADER,
    REF_MAGIC,
    REF_STORED,
    CodecId,
    EncodedAccessUnit,
    ref_decode,
    ref_encode,
    ref_work,
)
from threecpt.errors import ThreecptError
from threecpt.frames import StreamHeader
from threecpt.superframe import Superframe
from threecpt.transport import (
    HEADER,
    MAGIC,
    MAX_SUPERFRAME_BYTES,
    PTYPE_ACCESS_UNIT,
    PTYPE_END_OF_STREAM,
    PTYPE_STREAM_HEADER,
    VERSION,
    FramePacket,
    PacketDecoder,
    PacketHeader,
    StreamReceiver,
    deserialize_access_unit,
    deserialize_stream_header,
    encode_packet,
    serialize_access_unit,
    serialize_stream_header,
)

MIB = 1024 * 1024

# a short random chunk repeated 1 to 32768 times, so bodies of every size
# up to 2 MiB come cheaply
bodies = st.builds(
    lambda chunk, k: chunk * (1 << k), st.binary(max_size=64), st.integers(0, 15)
)
dims = st.one_of(st.integers(0, 64), st.integers(0, 2**16 - 1))
# dimensions a stream header can declare: positive, even, at most u16
stream_dims = st.one_of(st.integers(1, 32), st.integers(1, 2**15 - 1)).map(lambda n: 2 * n)
tags = st.sampled_from([REF_MAGIC, REF_STORED])

SMALL = StreamHeader(width=2, height=2)


def decode_or_typed_error(fn, *args):
    try:
        return fn(*args)
    except ThreecptError:
        return None


def ref_unit(payload):
    return EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload)


@st.composite
def ref_units(draw):
    """A stream header and a REF payload for it: either tag, mostly the
    header's dimensions but sometimes any others, and a body of any length
    or, for frames up to 2 MiB, of exactly the size the unit declares."""
    hdr = StreamHeader(width=draw(stream_dims), height=draw(stream_dims))
    # other dimensions in one draw of four, so most units reach the body checks
    if draw(st.integers(0, 3)):
        width, half_height = hdr.width, hdr.height
    else:
        width, half_height = draw(st.tuples(dims, dims))
    size = width * 2 * half_height * 4
    if 0 < size <= 2 * MIB and draw(st.booleans()):
        chunk = draw(st.binary(min_size=1, max_size=64))
        body = (chunk * (size // len(chunk) + 1))[:size]
    else:
        body = draw(bodies)
    return hdr, REF_HEADER.pack(draw(tags), width, half_height) + body


class TestRefDecode:
    @given(
        st.one_of(
            st.binary(min_size=1, max_size=256),
            st.tuples(tags, st.binary(max_size=64)).map(
                lambda t: REF_HEADER.pack(t[0], SMALL.width, SMALL.height) + t[1]
            ),
        )
    )
    @example(REF_HEADER.pack(REF_STORED, 2, 2) + bytes(32))  # a valid stored unit
    @settings(max_examples=300)
    def test_random_payload(self, payload):
        decode_or_typed_error(ref_decode, ref_unit(payload), SMALL)

    @given(ref_units())
    # copied and widened the body before checking it: 224 KiB of zero runs
    # for the stream's own 32-byte frame
    @example((SMALL, REF_HEADER.pack(REF_MAGIC, SMALL.width, SMALL.height) + bytes(7) * (1 << 15)))
    # a unit for a larger frame than the stream's, whose runs decode to it
    @example(
        (
            StreamHeader(width=640, height=480),
            REF_HEADER.pack(REF_MAGIC, 1024, 512) + bytes([255, 0]) * 16448 + bytes([64, 0]),
        )
    )
    # a full-size stored frame, and one a byte short
    @example(
        (
            StreamHeader(width=640, height=480),
            REF_HEADER.pack(REF_STORED, 640, 480) + bytes(2_457_600),
        )
    )
    @example(
        (
            StreamHeader(width=640, height=480),
            REF_HEADER.pack(REF_STORED, 640, 480) + bytes(2_457_599),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_valid_header_random_body_is_bounded(self, case):
        hdr, payload = case
        event(f"tag 0x{payload[0]:02x}")
        au = ref_unit(payload)
        tracemalloc.start()
        try:
            decode_or_typed_error(ref_decode, au, hdr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        declared = hdr.width * 2 * hdr.height * 4  # the stream's superframe bytes
        assert peak < 2 * declared + MIB


def zero_unit_stream(hdr: StreamHeader) -> bytes:
    """The wire of a stream of hdr with one REF unit: for a superframe of up
    to 64 MiB, all-zero runs that decode to it, else a few runs."""
    size = hdr.width * 2 * hdr.height * 4
    full, rest = divmod(size, 255) if size <= 64 * MIB else (8, 0)
    body = bytes([255, 0]) * full + (bytes([rest, 0]) if rest else b"")
    au = ref_unit(REF_HEADER.pack(REF_MAGIC, hdr.width, hdr.height) + body)
    packets = [
        (PTYPE_STREAM_HEADER, serialize_stream_header(hdr)),
        (PTYPE_ACCESS_UNIT, serialize_access_unit(au)),
        (PTYPE_END_OF_STREAM, b""),
    ]
    return b"".join(
        encode_packet(FramePacket(PacketHeader(ptype, payload_len=len(p)), p))
        for ptype, p in packets
    )


class TestStreamHeaderBound:
    @given(st.builds(StreamHeader, width=stream_dims, height=stream_dims))
    @example(StreamHeader(width=2048, height=1024))  # the largest taken
    @example(StreamHeader(width=2048, height=1026))
    @example(StreamHeader(width=32766, height=16384))
    @settings(max_examples=100, deadline=None)
    def test_receiver_allocates_under_one_bound_whatever_the_header(self, hdr):
        wire = zero_unit_stream(hdr)
        conn = io.BytesIO(wire)
        conn.recv = conn.read
        accepted = hdr.width * hdr.height <= 2048 * 1024
        event("accepted" if accepted else "rejected")
        tracemalloc.start()
        try:
            receiver = decode_or_typed_error(StreamReceiver, conn)
            for _, au in receiver.units() if receiver else ():
                ref_decode(au, receiver.header)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (receiver is not None) == accepted
        assert peak < 2 * MAX_SUPERFRAME_BYTES + len(wire) + MIB


def rle_body(stream: bytes) -> bytes:
    """The reference codec's run-length pairs for stream (loop oracle): each
    run as (255, value) chunks first, then its nonzero remainder."""
    body = bytearray()
    for value, run in itertools.groupby(stream):
        full, rem = divmod(len(list(run)), 255)
        body += bytes([255, value]) * full + (bytes([rem, value]) if rem else b"")
    return bytes(body)


def residuals(data: np.ndarray) -> bytes:
    """Per-row, per-channel left-predictor residuals, modulo 256."""
    wide = data.astype(np.int16)
    wide[:, 1:, :] = wide[:, 1:, :] - data[:, :-1, :]
    return (wide % 256).astype(np.uint8).tobytes()


def constant_to_noise(width, height, noise, seed) -> np.ndarray:
    """Superframe bytes, each uniform noise with probability noise, else a constant."""
    rng = np.random.default_rng(seed)
    shape = (2 * height, width, 4)
    return np.where(
        rng.random(shape) < noise,
        rng.integers(0, 256, size=shape, dtype=np.uint8),
        np.uint8(rng.integers(0, 256)),
    ).astype(np.uint8)


# width, height, noise fraction and seed of a constant_to_noise superframe
ROUND_TRIP_CASES = (
    st.integers(1, 8).map(lambda n: 2 * n),
    st.integers(1, 8).map(lambda n: 2 * n),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)


class TestRefRoundTrip:
    @given(*ROUND_TRIP_CASES)
    @example(4, 4, 0.0, 0)  # constant: run-length, every run at most 255
    @example(16, 16, 0.0, 7)  # all zero: one run of 2048, split into 255s
    @example(4, 4, 1.0, 0)  # uniform noise: stored
    @settings(max_examples=300)
    def test_constant_to_noise(self, width, height, noise, seed):
        data = constant_to_noise(width, height, noise, seed)
        sf = Superframe(data)
        au = ref_encode(sf)
        body = rle_body(residuals(data))
        stored = len(body) > data.nbytes
        event("stored" if stored else "run-length")
        assert au.payload[0] == (REF_STORED if stored else REF_MAGIC)
        assert au.payload[REF_HEADER.size :] == (data.tobytes() if stored else body)
        hdr = StreamHeader(width=width, height=height)
        assert ref_decode(au, hdr) == sf

    @given(*ROUND_TRIP_CASES, st.binary(min_size=1, max_size=64))
    @example(16, 16, 0.0, 7, bytes([1]))  # zeros into a mask of all changes
    @example(4, 4, 1.0, 0, bytes([0]))  # noise into residuals of zero
    @settings(max_examples=300)
    def test_held_work_gives_the_same_unit(self, width, height, noise, seed, dirt):
        # work holding the given bytes over and over, as left by earlier frames
        work = ref_work(width, height)
        work[:] = np.resize(np.frombuffer(dirt, dtype=np.uint8), work.size)
        sf = Superframe(constant_to_noise(width, height, noise, seed))
        assert ref_encode(sf, work).payload == ref_encode(sf).payload


def container_bytes(width=4, height=2, frames=3) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.rgbz"
        hdr, clip = container.gen_synthetic(width, height, (30, 1), frames)
        container.write_container(path, hdr, clip)
        return path.read_bytes()


VALID_CONTAINER = container_bytes()
CONTAINER_HEADER = struct.Struct(">4sBHHHHddI")  # the .rgbz file header
container_header = st.builds(
    CONTAINER_HEADER.pack,
    st.sampled_from([container.MAGIC, b"RGBX"]),
    st.sampled_from([container.VERSION, 0, 255]),
    dims,
    dims,
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**16 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
)


def edited(raw: bytes, at: int, value: int, cut: int) -> bytes:
    """raw with the byte at `at` replaced and then cut to `cut` bytes."""
    return (raw[:at] + bytes([value]) + raw[at + 1 :])[:cut]


def read_every_frame(path):
    hdr, frames = container.read_container(path)
    with frames:
        return hdr, list(frames)


class TestReadContainer:
    @given(
        st.one_of(
            st.binary(max_size=128),
            st.tuples(container_header, st.binary(max_size=256)).map(b"".join),
            st.builds(
                edited,
                st.just(VALID_CONTAINER),
                st.integers(0, len(VALID_CONTAINER) - 1),
                st.integers(0, 255),
                st.integers(0, len(VALID_CONTAINER)),
            ),
        )
    )
    # a 640x480 header declaring 2**32 - 1 frames, with no frame behind it
    @example(
        CONTAINER_HEADER.pack(container.MAGIC, container.VERSION, 640, 480, 30, 1, 0.0, 2.0, 2**32 - 1)
    )
    @example(VALID_CONTAINER)
    @settings(max_examples=300, deadline=None)
    def test_random_file(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.rgbz"
            path.write_bytes(raw)
            tracemalloc.start()
            try:
                decode_or_typed_error(read_every_frame, path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * len(raw) + MIB


class TestPayloadDeserializers:
    @given(st.binary(max_size=64))
    @settings(max_examples=300)
    def test_access_unit(self, raw):
        au = decode_or_typed_error(deserialize_access_unit, raw)
        assert au is None or au.payload == raw[2:]

    @given(st.one_of(st.binary(max_size=48), st.binary(min_size=33, max_size=33)))
    @settings(max_examples=500)
    def test_stream_header(self, raw):
        decode_or_typed_error(deserialize_stream_header, raw)


class TestPacketDecoder:
    @given(st.lists(st.binary(max_size=80), max_size=8))
    @settings(max_examples=300)
    def test_random_chunks(self, chunks):
        decoder = PacketDecoder()
        for chunk in chunks:
            if decode_or_typed_error(decoder.feed, chunk) is None:
                break

    @given(
        st.integers(0, 255),
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**32 - 1),
        st.binary(max_size=64),
    )
    @settings(max_examples=300)
    def test_valid_prefix_random_fields(self, ptype, flags, payload_len, tail):
        # a well-formed magic and version, so the other fields get checked
        raw = HEADER.pack(MAGIC, VERSION, ptype, flags, 0, 0, 0, payload_len) + tail
        packets = decode_or_typed_error(PacketDecoder().feed, raw)
        for packet in packets or []:
            assert len(packet.payload) == packet.header.payload_len
