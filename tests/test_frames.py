import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecpt.errors import DimensionError, UnfillableError
from threecpt.frames import (
    ColorImage,
    DepthMap,
    DisparityRange,
    Orientation,
    RgbzFrame,
    StreamHeader,
    apply_orientation,
    dequantize_disparity,
    fill_depth_gaps,
    quantize_disparity,
    suppress_background,
)

from util import make_frame

R02 = DisparityRange(0.0, 2.0)


def quantize_oracle(d, rng):
    """Scalar hand evaluation of the quantization formula."""
    if not math.isfinite(d):
        return 0, False
    norm = min(max((d - rng.min_diopters) / (rng.max_diopters - rng.min_diopters), 0.0), 1.0)
    return math.floor(255.0 * norm + 0.5), True


class TestDisparityRange:
    def test_valid(self):
        r = DisparityRange(0.5, 3.0)
        assert r.span == 2.5

    @pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (1.0, 1.0), (-0.1, 1.0)])
    def test_invalid(self, lo, hi):
        with pytest.raises(ValueError):
            DisparityRange(lo, hi)


class TestColorImage:
    def test_pad_byte_enforced(self):
        data = np.zeros((2, 2, 4), dtype=np.uint8)
        data[0, 0, 3] = 1
        with pytest.raises(ValueError):
            ColorImage(data)
        # a non-contiguous view of the same pixels is checked the same way
        with pytest.raises(ValueError, match="pad byte"):
            ColorImage(np.rot90(data))

    def test_byte_length(self):
        img = make_frame(3, 5).color
        assert len(img.tobytes()) == 3 * 5 * 4


class TestStreamHeader:
    def test_defaults_match_source_format(self):
        hdr = StreamHeader()
        assert (hdr.width, hdr.height) == (640, 480)

    @pytest.mark.parametrize(
        "w,h", [(0, 480), (640, 0), (641, 480), (640, 481), (65536, 480), (640, 65536)]
    )
    def test_rejects_odd_or_zero(self, w, h):
        with pytest.raises(DimensionError):
            StreamHeader(width=w, height=h)

    @pytest.mark.parametrize("num,den", [(0, 1), (30, 0), (65536, 1), (30, 65536)])
    def test_fps_terms_out_of_u16_rejected(self, num, den):
        with pytest.raises(ValueError, match="fps"):
            StreamHeader(fps_num=num, fps_den=den)

    def test_u16_limits_accepted(self):
        hdr = StreamHeader(width=65534, height=65534, fps_num=65535, fps_den=65535)
        assert (hdr.width, hdr.fps) == (65534, 1.0)


class TestQuantize:
    def test_min_maps_to_zero(self):
        m = quantize_disparity(np.full((2, 2), R02.min_diopters), R02)
        assert (m.codes == 0).all() and m.validity.all()

    def test_max_maps_to_255(self):
        m = quantize_disparity(np.full((2, 2), R02.max_diopters), R02)
        assert (m.codes == 255).all() and m.validity.all()

    def test_midpoint_rounds_half_up(self):
        m = quantize_disparity(np.array([[1.0]]), R02)
        assert m.codes[0, 0] == 128  # round(127.5) with round-half-up

    def test_matches_hand_formula_on_random_input(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(-0.5, 2.5, size=10)
        m = quantize_disparity(d.reshape(1, 10), R02)
        for i, val in enumerate(d):
            code, valid = quantize_oracle(val, R02)
            assert m.codes[0, i] == code
            assert m.validity[0, i] == valid

    def test_non_finite_invalid(self):
        m = quantize_disparity(np.array([[np.nan, np.inf, 1.0]]), R02)
        assert list(m.codes[0]) == [0, 0, 128]
        assert list(m.validity[0]) == [False, False, True]

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            quantize_disparity(np.zeros((0, 3)), R02)


class TestDequantize:
    def test_endpoints(self):
        assert dequantize_disparity(0, R02) == R02.min_diopters
        assert dequantize_disparity(255, R02) == R02.max_diopters

    def test_code_128(self):
        assert dequantize_disparity(128, R02) == pytest.approx(128 / 255 * 2.0)

    def test_roundtrip_within_half_step_all_codes(self):
        # brute force over every code: dequantize then quantize must recover
        # the code, and the reconstruction error stays within half a step
        step = R02.span / 255
        for code in range(256):
            d = dequantize_disparity(code, R02)
            m = quantize_disparity(np.array([[d]]), R02)
            assert m.codes[0, 0] == code
            assert abs(float(d) - dequantize_disparity(code, R02)) <= step / 2

    @given(st.floats(min_value=-1.0, max_value=3.0, allow_nan=False))
    def test_quantization_error_bound(self, d):
        m = quantize_disparity(np.array([[d]]), R02)
        recon = dequantize_disparity(m.codes[0, 0], R02)
        clamped = min(max(d, R02.min_diopters), R02.max_diopters)
        assert abs(recon - clamped) <= R02.span / 255 / 2 + 1e-12


def fill_oracle(codes, validity):
    """Independent brute-force expanding-window median fill (even counts
    take the floored mean of the two middle values)."""
    h, w = codes.shape
    out = codes.copy()
    for y in range(h):
        for x in range(w):
            if validity[y, x]:
                continue
            for radius in range(1, max(h, w) + 1):
                vals = sorted(
                    codes[j, i]
                    for j in range(max(0, y - radius), min(h, y + radius + 1))
                    for i in range(max(0, x - radius), min(w, x + radius + 1))
                    if validity[j, i]
                )
                if vals:
                    n = len(vals)
                    out[y, x] = (int(vals[(n - 1) // 2]) + int(vals[n // 2])) // 2
                    break
    return out


class TestFillDepthGaps:
    def test_all_valid_is_noop(self):
        m = make_frame(4, 4, seed=1).depth
        assert fill_depth_gaps(m) == m

    def test_center_hole_takes_median_of_eight(self):
        codes = np.arange(9, dtype=np.uint8).reshape(3, 3) * 10
        validity = np.ones((3, 3), dtype=bool)
        validity[1, 1] = False
        filled = fill_depth_gaps(DepthMap(codes, validity))
        neighbors = sorted(v for i, v in enumerate(codes.reshape(-1)) if i != 4)
        mid = (int(neighbors[3]) + int(neighbors[4])) // 2
        assert filled.codes[1, 1] == mid

    def test_even_count_median_floors_mean_of_middles(self):
        codes = np.array([[10, 0, 20]], dtype=np.uint8)
        validity = np.array([[True, False, True]])
        filled = fill_depth_gaps(DepthMap(codes, validity))
        assert filled.codes[0, 1] == 15  # (10 + 20) // 2

    def test_all_invalid_rejected(self):
        m = DepthMap(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2), dtype=bool))
        with pytest.raises(UnfillableError):
            fill_depth_gaps(m)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_matches_oracle(self, h, w, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        validity = rng.random((h, w)) < 0.6
        if not validity.any():
            validity[0, 0] = True
        filled = fill_depth_gaps(DepthMap(codes, validity))
        assert filled.validity.all()
        assert np.array_equal(filled.codes, fill_oracle(codes, validity))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 256, size=(5, 5)).astype(np.uint8)
        validity = rng.random((5, 5)) < 0.5
        validity[2, 2] = True
        once = fill_depth_gaps(DepthMap(codes, validity))
        assert fill_depth_gaps(once) == once


class TestOrientation:
    def test_identity(self):
        f = make_frame(4, 2, seed=3)
        assert apply_orientation(f, Orientation.DEG_0) == f

    def test_180_reverses_pixels(self):
        f = make_frame(2, 1, seed=4)
        rot = apply_orientation(f, Orientation.DEG_180)
        assert np.array_equal(rot.color.data[0, 0], f.color.data[0, 1])
        assert np.array_equal(rot.color.data[0, 1], f.color.data[0, 0])
        assert rot.depth.codes[0, 0] == f.depth.codes[0, 1]

    def test_four_quarter_turns_identity(self):
        f = make_frame(5, 3, seed=5)
        out = f
        for _ in range(4):
            out = apply_orientation(out, Orientation.DEG_90)
        assert out == f

    def test_90_swaps_dimensions(self):
        f = make_frame(6, 4)
        rot = apply_orientation(f, Orientation.DEG_90)
        assert (rot.width, rot.height) == (4, 6)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(Orientation)))
    @settings(max_examples=40)
    def test_preserves_pixel_multiset(self, seed, orientation):
        f = make_frame(4, 3, seed=seed)
        rot = apply_orientation(f, orientation)

        def pixel_multiset(frame):
            rgb = frame.color.data[:, :, :3].reshape(-1, 3)
            codes = frame.depth.codes.reshape(-1, 1)
            rows = np.hstack([rgb, codes])
            return sorted(map(tuple, rows))

        assert pixel_multiset(rot) == pixel_multiset(f)


def suppress_oracle(frame, cutoff, rng):
    """The per-byte form of suppress_background: dequantize every code and
    zero each far pixel's color bytes through a (h, w) mask."""
    disparity = dequantize_disparity(frame.depth.codes, rng)
    far = (disparity < cutoff) | (frame.depth.codes == 0)
    color = frame.color.data.copy()
    color[far] = 0
    codes = frame.depth.codes.copy()
    codes[far] = 0
    return color, codes


def assert_suppressed_like_oracle(frame, cutoff, rng):
    out = suppress_background(frame, cutoff, rng)
    color, codes = suppress_oracle(frame, cutoff, rng)
    assert out.color.data.tobytes() == color.tobytes()
    assert out.depth.codes.tobytes() == codes.tobytes()
    assert np.array_equal(out.depth.validity, frame.depth.validity)


class TestSuppressBackground:
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.sampled_from([R02, DisparityRange(0.25, 3.7), DisparityRange(1.0, 1.5)]),
    )
    @settings(max_examples=200)
    def test_matches_per_byte_oracle(self, w, h, seed, frac, rng):
        f = make_frame(w, h, seed=seed)
        codes = f.depth.codes.copy()
        codes[np.random.default_rng(seed).random((h, w)) < 0.2] = 0  # code-0 pixels
        f = RgbzFrame(color=f.color, depth=DepthMap.all_valid(codes))
        assert_suppressed_like_oracle(f, rng.min_diopters + frac * rng.span, rng)

    @pytest.mark.parametrize("code", [0, 1, 77, 128, 254, 255])
    @pytest.mark.parametrize("rng", [R02, DisparityRange(0.25, 3.7)], ids=["0-2", "0.25-3.7"])
    def test_cutoff_exactly_at_a_code(self, code, rng):
        # the code whose dequantized value is the cutoff is kept, the one
        # below it is not
        f = make_frame(32, 16, seed=code)
        codes = f.depth.codes.copy()
        codes[0, :4] = [0, max(code - 1, 0), code, min(code + 1, 255)]
        f = RgbzFrame(color=f.color, depth=DepthMap.all_valid(codes))
        cutoff = float(dequantize_disparity(code, rng))
        assert_suppressed_like_oracle(f, cutoff, rng)
        out = suppress_background(f, cutoff, rng)
        assert (out.depth.codes[0, 2] == 0) == (code == 0)

    def test_non_contiguous_input_matches_oracle(self):
        # a rot90 view: neither plane is C-contiguous
        f = make_frame(24, 16, seed=5)
        view = RgbzFrame(
            color=ColorImage(np.rot90(f.color.data)),
            depth=DepthMap(np.rot90(f.depth.codes), np.rot90(f.depth.validity)),
        )
        assert not view.color.data.flags.c_contiguous
        assert_suppressed_like_oracle(view, 0.9, R02)
        out = suppress_background(view, 0.9, R02)
        assert out.color.data.flags.c_contiguous


    def test_cutoff_at_min_zeroes_only_code_zero(self):
        f = make_frame(8, 8, seed=6)
        out = suppress_background(f, R02.min_diopters, R02)
        zero_mask = f.depth.codes == 0
        assert (out.depth.codes[zero_mask] == 0).all()
        assert np.array_equal(out.depth.codes[~zero_mask], f.depth.codes[~zero_mask])
        assert np.array_equal(out.color.data[~zero_mask], f.color.data[~zero_mask])

    def test_cutoff_above_range_rejected(self):
        f = make_frame(2, 2)
        with pytest.raises(ValueError):
            suppress_background(f, R02.max_diopters + 0.1, R02)

    def test_disc_survives_far_field_removed(self):
        h = w = 64
        yy, xx = np.mgrid[0:h, 0:w]
        disc = (xx - 32) ** 2 + (yy - 32) ** 2 <= 10**2
        codes = np.where(disc, 200, 10).astype(np.uint8)
        color = np.zeros((h, w, 4), dtype=np.uint8)
        color[:, :, 0] = 50
        f = RgbzFrame(color=ColorImage(color), depth=DepthMap.all_valid(codes))
        out = suppress_background(f, 1.0, R02)  # mid-range plane
        survivors = int(np.count_nonzero(out.depth.codes))
        assert survivors == int(disc.sum())
        assert (out.color.data[~disc] == 0).all()
        assert np.array_equal(out.color.data[disc], f.color.data[disc])

    def test_never_increases_codes(self):
        f = make_frame(8, 8, seed=9)
        out = suppress_background(f, 1.3, R02)
        assert (out.depth.codes <= f.depth.codes).all()
