"""Arbitrary peer bytes into the decoders that parse them.

Whatever arrives, only a ThreecptError may escape; the reference decoder
also may not allocate more than the frame its header declares allows.
"""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from threecpt.codec import REF_HEADER, REF_MAGIC, CodecId, EncodedAccessUnit, ref_decode
from threecpt.errors import ThreecptError
from threecpt.transport import (
    HEADER,
    MAGIC,
    VERSION,
    PacketDecoder,
    deserialize_access_unit,
    deserialize_stream_header,
)

MIB = 1024 * 1024

# a short random chunk repeated 1 to 32768 times, so bodies of every size
# up to 2 MiB come cheaply
bodies = st.builds(
    lambda chunk, k: chunk * (1 << k), st.binary(max_size=64), st.integers(0, 15)
)
dims = st.one_of(st.integers(0, 64), st.integers(0, 2**16 - 1))


def decode_or_typed_error(fn, *args):
    try:
        return fn(*args)
    except ThreecptError:
        return None


def ref_unit(payload):
    return EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload)


class TestRefDecode:
    @given(st.binary(min_size=1, max_size=256))
    @settings(max_examples=300)
    def test_random_payload(self, payload):
        decode_or_typed_error(ref_decode, ref_unit(payload))

    @given(dims, dims, bodies)
    @example(0, 0, bytes(7) * (1 << 15))  # copied and widened the body before checking it
    @settings(max_examples=500, deadline=None)
    def test_valid_header_random_body_is_bounded(self, width, half_height, body):
        au = ref_unit(REF_HEADER.pack(REF_MAGIC, width, half_height) + body)
        tracemalloc.start()
        try:
            decode_or_typed_error(ref_decode, au)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        declared = width * 2 * half_height * 4  # superframe bytes
        assert peak < 2 * declared + MIB


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
