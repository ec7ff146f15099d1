import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecpt.errors import DimensionError, FormatError
from threecpt.frames import ColorImage, DepthMap, RgbzFrame, StreamHeader
from threecpt.superframe import (
    HEADROOM,
    Superframe,
    headroom,
    pack_superframe,
    superframe_byte_size,
    unpack_superframe,
)

from util import make_frame


def hdr_for(frame):
    return StreamHeader(width=frame.width, height=frame.height)


class TestByteSize:
    def test_vga_source(self):
        assert superframe_byte_size(640, 480) == 2_457_600

    def test_single_pixel(self):
        assert superframe_byte_size(1, 1) == 8

    def test_field_size(self):
        assert superframe_byte_size(2048, 1024) == 16_777_216

    @pytest.mark.parametrize("w,h", [(0, 1), (1, 0), (-2, 4)])
    def test_zero_dimension_rejected(self, w, h):
        with pytest.raises(DimensionError):
            superframe_byte_size(w, h)


class TestPack:
    def test_640x480_yields_claimed_bytes(self):
        frame = make_frame(640, 480)
        assert len(pack_superframe(frame).tobytes()) == 2_457_600

    def test_single_pixel_layout(self):
        color = np.array([[[10, 20, 30, 0]]], dtype=np.uint8)
        depth = DepthMap.all_valid(np.array([[77]], dtype=np.uint8))
        sf = pack_superframe(RgbzFrame(color=ColorImage(color), depth=depth))
        assert sf.tobytes() == bytes([10, 20, 30, 0, 77, 77, 77, 0])

    def test_depth_half_is_grayscale(self):
        sf = pack_superframe(make_frame(6, 4, seed=2))
        bottom = sf.data[4:]
        assert np.array_equal(bottom[:, :, 0], bottom[:, :, 1])
        assert np.array_equal(bottom[:, :, 0], bottom[:, :, 2])
        assert not bottom[:, :, 3].any()

    def test_byte_count_matches_formula(self):
        frame = make_frame(10, 6)
        sf = pack_superframe(frame)
        assert len(sf.tobytes()) == superframe_byte_size(10, 6)

    def test_data_sits_headroom_bytes_into_its_buffer(self):
        sf = pack_superframe(make_frame(10, 6))
        buf = headroom(sf)
        assert buf.nbytes == HEADROOM + sf.data.nbytes
        assert np.shares_memory(buf[HEADROOM:], sf.data)
        assert sf.data.ctypes.data % 8 == 0

    @pytest.mark.parametrize(
        "data",
        [
            np.zeros((12, 10, 4), dtype=np.uint8),
            np.zeros(HEADROOM + 480, dtype=np.uint8)[HEADROOM:].reshape(12, 10, 4)[:, ::2],
            np.zeros(HEADROOM + 481, dtype=np.uint8)[HEADROOM:-1].reshape(12, 10, 4),
            np.zeros(HEADROOM - 1 + 480, dtype=np.uint8)[HEADROOM - 1 :].reshape(12, 10, 4),
        ],
        ids=["own-memory", "strided", "bytes-after", "short-headroom"],
    )
    def test_other_layouts_have_no_headroom(self, data):
        assert headroom(Superframe(data)) is None


class TestUnpack:
    def test_inverse_of_pack(self):
        frame = make_frame(8, 6, seed=3)
        sf = pack_superframe(frame)
        out = unpack_superframe(sf, hdr_for(frame))
        assert out.color == frame.color
        assert np.array_equal(out.depth.codes, frame.depth.codes)
        assert out.depth.validity.all()

    def test_luma_average_recovers_code_after_channel_noise(self):
        # hand-built 4x2 superframe (2x2 content) with R != G in the depth half
        data = np.zeros((4, 2, 4), dtype=np.uint8)
        data[0] = [[1, 2, 3, 0], [4, 5, 6, 0]]
        data[2, 0, :3] = [10, 11, 13]  # mean 11.33 -> 11
        data[2, 1, :3] = [10, 12, 13]  # mean 11.67 -> 12
        out = unpack_superframe(Superframe(data), StreamHeader(width=2, height=2))
        assert list(out.depth.codes[0]) == [11, 12]
        assert not out.depth.codes[1].any()

    def test_wrong_header_height_rejected(self):
        sf = pack_superframe(make_frame(4, 4))
        with pytest.raises(FormatError):
            unpack_superframe(sf, StreamHeader(width=4, height=2))

    @given(
        st.integers(1, 8).map(lambda n: 2 * n),
        st.integers(1, 8).map(lambda n: 2 * n),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_lossless_roundtrip_property(self, w, h, seed):
        frame = make_frame(w, h, seed=seed)
        out = unpack_superframe(pack_superframe(frame), hdr_for(frame))
        assert out.color == frame.color
        assert np.array_equal(out.depth.codes, frame.depth.codes)


class TestSuperframeType:
    def test_odd_height_rejected(self):
        with pytest.raises(DimensionError):
            Superframe(np.zeros((3, 2, 4), dtype=np.uint8))

    def test_from_bytes_length_checked(self):
        with pytest.raises(FormatError):
            Superframe.from_bytes(b"\x00" * 10, 2, 2)
