import zlib

import numpy as np
import pytest

from threecpt.errors import DimensionError, ValidationError
from threecpt.frames import ColorImage, DepthMap, DisparityRange, RgbzFrame
from threecpt import replay
from threecpt.container import gen_synthetic
from threecpt.replay import (
    EMBED_X,
    EMBED_Y,
    FIELD_HEIGHT,
    FIELD_WIDTH,
    SLM_BUFFER_BYTES,
    UPSCALED_HEIGHT,
    UPSCALED_WIDTH,
    SlmBuffer,
    prepare_for_replay,
    sink_consume,
)

from replay_oracle import reference_buffer
from util import make_frame

R02 = DisparityRange(0.0, 2.0)
MODES = ("nearest", "bilinear")
WINDOW = (
    slice(EMBED_Y, EMBED_Y + UPSCALED_HEIGHT),
    slice(EMBED_X, EMBED_X + UPSCALED_WIDTH),
)


def frame_from_rgbz(rgb, codes):
    return RgbzFrame(
        color=ColorImage.from_rgb(np.asarray(rgb, dtype=np.uint8)),
        depth=DepthMap.all_valid(np.asarray(codes, dtype=np.uint8)),
    )


def source_elements(frame):
    """(480, 640, 4) source (R, G, B, Z) elements."""
    return np.concatenate([frame.color.data[:, :, :3], frame.depth.codes[:, :, None]], axis=2)


def halves(left, right):
    """640x480 array whose left half is left and right half is right."""
    return np.where(np.arange(640) < 320, left, right)[None, :].repeat(480, axis=0)


def sphere_frames():
    _, frames = gen_synthetic(640, 480, (30, 1), 12, "orbiting-sphere")
    return frames[::4]


def oracle_inputs():
    yield from (pytest.param(make_frame(640, 480, seed=s), id=f"noise{s}") for s in range(3))
    yield from (pytest.param(f, id=f"sphere{i}") for i, f in enumerate(sphere_frames()))
    yield pytest.param(
        frame_from_rgbz(np.full((480, 640, 3), 255), np.full((480, 640), 255)), id="all255"
    )
    checker = 255 * ((np.arange(480)[:, None] + np.arange(640)) % 2)
    yield pytest.param(frame_from_rgbz(checker[:, :, None].repeat(3, 2), checker), id="checker")
    # lane isolation: a carry across lanes, lanes left wide or a swapped
    # lane order each change some channel next to a full-scale neighbour
    opposed = np.stack([checker, 255 - checker, checker], axis=2)
    yield pytest.param(frame_from_rgbz(opposed, 255 - checker), id="opposed-checker")
    stripes = np.broadcast_to(255 * (np.arange(640) % 2), (480, 640))
    for c, name in enumerate("RGB"):
        rgb = np.zeros((480, 640, 3))
        rgb[:, :, c] = stripes
        yield pytest.param(frame_from_rgbz(rgb, stripes), id=f"stripes-{name}")


class TestOracle:
    """prepare_for_replay against the three-stage float reference chain."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("frame", oracle_inputs())
    def test_buffer_equals_reference(self, frame, mode):
        buf = prepare_for_replay(frame, R02, mode)
        assert np.array_equal(buf.elements, reference_buffer(frame, mode))


class TestBandSeams:
    """Bilinear reads one halo row across each band edge: bands of one row
    make every row a seam, and 7 rows leave a partial last band."""

    @pytest.mark.parametrize("band_rows", [1, 7, 32, 480])
    @pytest.mark.parametrize(
        "frame", [p for p in oracle_inputs() if p.id in ("noise0", "opposed-checker")]
    )
    def test_bilinear_equals_reference(self, frame, band_rows, monkeypatch):
        monkeypatch.setattr(replay, "BAND_ROWS", band_rows)
        buf = prepare_for_replay(frame, R02, "bilinear")
        assert np.array_equal(buf.elements, reference_buffer(frame, "bilinear"))


class TestHeldBuffer:
    """A buffer passed back in as out is refilled to a fresh buffer's bytes."""

    def test_refill_matches_fresh_across_modes(self):
        frames = [make_frame(640, 480, seed=7), *sphere_frames()]
        held = None
        for frame, mode in zip(frames, ("nearest", "bilinear", "nearest")):
            buf = prepare_for_replay(frame, R02, mode, out=held)
            if held is not None:
                assert buf.elements is held.elements
            assert np.array_equal(buf.elements, prepare_for_replay(frame, R02, mode).elements)
            held = buf

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("stale", ["all-ff", "previous-noise"])
    def test_stale_window_rewritten_and_surround_kept(self, mode, stale):
        # the window ends as a fresh buffer's, whatever it held, and the
        # caller's bytes outside it stay as they were
        elements = np.resize(np.arange(251, dtype=np.uint8), (2048, 2048, 4))
        if stale == "all-ff":
            elements[WINDOW] = 0xFF
        else:
            previous = make_frame(640, 480, seed=12)
            elements[WINDOW] = prepare_for_replay(previous, R02, mode).elements[WINDOW]
        before = elements.copy()
        frame = make_frame(640, 480, seed=13)
        buf = prepare_for_replay(frame, R02, mode, out=SlmBuffer(elements, R02))
        fresh = prepare_for_replay(frame, R02, mode).elements
        assert buf.elements is elements
        assert np.array_equal(elements[WINDOW], fresh[WINDOW])
        elements[WINDOW] = before[WINDOW]
        assert np.array_equal(elements, before)

    def test_non_contiguous_out_rejected(self):
        strided = np.zeros((2048, 2048, 8), dtype=np.uint8)[:, :, ::2]
        with pytest.raises(ValueError):
            prepare_for_replay(make_frame(640, 480), R02, out=SlmBuffer(strided, R02))


class TestDimensionAlgebra:
    def test_constants(self):
        assert (EMBED_X, EMBED_Y) == (384, 32)
        assert (FIELD_WIDTH, FIELD_HEIGHT) == (2048, 1024)
        assert SLM_BUFFER_BYTES == 16_777_216

    def test_chain_640x480(self):
        for mode in MODES:
            buf = prepare_for_replay(make_frame(640, 480), R02, mode)
            rows, cols = np.nonzero(buf.elements.any(axis=2))
            assert (rows.min(), rows.max() + 1) == (EMBED_Y, EMBED_Y + 960)
            assert (cols.min(), cols.max() + 1) == (EMBED_X, EMBED_X + 1280)


class TestUpscale:
    def test_nearest_replicates_2x2(self):
        f = make_frame(640, 480, seed=10)
        window = prepare_for_replay(f, R02, "nearest").elements[WINDOW]
        blocks = window.reshape(480, 2, 640, 2, 4)
        assert np.array_equal(blocks, np.broadcast_to(source_elements(f)[:, None, :, None], blocks.shape))

    def test_bilinear_2x1_hand_case(self):
        # [A | B] halves -> [A, 0.75A+0.25B, 0.25A+0.75B, B] across the seam
        # at half-pixel centers, on every row; the edges keep A and B
        a, b = 40, 120
        rgb = halves(a, b)[:, :, None].repeat(3, axis=2)
        buf = prepare_for_replay(frame_from_rgbz(rgb, halves(10, 200)), R02, "bilinear")
        window = buf.elements[WINDOW]
        expected = [a, round(0.75 * a + 0.25 * b), round(0.25 * a + 0.75 * b), b]
        for row in (0, 1, 500, 959):
            assert list(window[row, 638:642, 0]) == expected
            assert (window[row, :638, :3] == a).all()
            assert (window[row, 642:, :3] == b).all()

    def test_bilinear_depth_stays_nearest(self):
        f = frame_from_rgbz(np.zeros((480, 640, 3)), halves(10, 200))
        window = prepare_for_replay(f, R02, "bilinear").elements[WINDOW]
        assert list(window[0, 636:644, 3]) == [10] * 4 + [200] * 4  # no phantom codes
        g = make_frame(640, 480, seed=11)
        window = prepare_for_replay(g, R02, "bilinear").elements[WINDOW]
        assert np.array_equal(window[:, :, 3], np.repeat(np.repeat(g.depth.codes, 2, 0), 2, 1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            prepare_for_replay(make_frame(640, 480), R02, "cubic")


class TestEmbed:
    def test_placement_and_zero_surround(self):
        f = make_frame(640, 480, seed=1)
        mask = np.ones((2048, 2048), dtype=bool)
        mask[WINDOW] = False
        for mode in MODES:
            # the window's corner elements are the source's corners in both
            # modes: the bilinear edge clamp leaves a corner pixel unmixed
            elements = prepare_for_replay(f, R02, mode).elements
            assert (elements[EMBED_Y, EMBED_X] == source_elements(f)[0, 0]).all()
            assert (elements[EMBED_Y + 959, EMBED_X + 1279] == source_elements(f)[-1, -1]).all()
            assert not elements[mask].any()

    def test_checksum_equality(self):
        f = make_frame(640, 480, seed=2)
        window = prepare_for_replay(f, R02, "nearest").elements[WINDOW].astype(np.int64)
        assert window[:, :, :3].sum() == 4 * f.color.data[:, :, :3].astype(np.int64).sum()
        assert window[:, :, 3].sum() == 4 * f.depth.codes.astype(np.int64).sum()

    def test_wrong_dims_rejected(self):
        with pytest.raises(DimensionError):
            prepare_for_replay(make_frame(1280, 960), R02)


class TestPad:
    def test_byte_length(self):
        for mode in MODES:
            buf = prepare_for_replay(make_frame(640, 480), R02, mode)
            assert len(buf.tobytes()) == 16_777_216

    def test_row_1024_is_zero(self):
        f = frame_from_rgbz(np.full((480, 640, 3), 255), np.full((480, 640), 255))
        for mode in MODES:
            buf = prepare_for_replay(f, R02, mode)
            assert not buf.elements[1024:].any()
            assert (buf.elements[WINDOW] == 255).all()

    def test_composition_roundtrip(self):
        # every source depth code, and in nearest mode every source element,
        # sits at the top-left of its 2x2 block in the window
        f = make_frame(640, 480, seed=4)
        for mode in MODES:
            window = prepare_for_replay(f, R02, mode).elements[WINDOW]
            assert np.array_equal(window[::2, ::2, 3], f.depth.codes)
            if mode == "nearest":
                assert np.array_equal(window[::2, ::2], source_elements(f))

    def test_wrong_dims_rejected(self):
        with pytest.raises(DimensionError):
            SlmBuffer(np.zeros((100, 100, 4), dtype=np.uint8), R02)


class TestPrepareForReplay:
    def test_output_shape(self):
        buf = prepare_for_replay(make_frame(640, 480), R02)
        assert buf.elements.shape == (2048, 2048, 4)

    def test_all_zero_in_all_zero_out(self):
        f = frame_from_rgbz(np.zeros((480, 640, 3)), np.zeros((480, 640)))
        buf = prepare_for_replay(f, R02)
        assert not buf.elements.any()

    def test_single_lit_pixel_maps_to_four_elements(self):
        rgb = np.zeros((480, 640, 3), dtype=np.uint8)
        rgb[0, 0] = [100, 0, 0]
        codes = np.zeros((480, 640), dtype=np.uint8)
        codes[0, 0] = 200
        buf = prepare_for_replay(frame_from_rgbz(rgb, codes), R02, "nearest")
        lit = np.argwhere(buf.elements.any(axis=2))
        assert sorted(map(tuple, lit)) == [
            (EMBED_Y, EMBED_X),
            (EMBED_Y, EMBED_X + 1),
            (EMBED_Y + 1, EMBED_X),
            (EMBED_Y + 1, EMBED_X + 1),
        ]
        assert (buf.elements[EMBED_Y, EMBED_X] == [100, 0, 0, 200]).all()

    def test_nearest_multiplies_nonzero_multiplicity_by_four(self):
        f = make_frame(640, 480, seed=5)
        buf = prepare_for_replay(f, R02, "nearest")

        src = np.concatenate(
            [f.color.data[:, :, :3], f.depth.codes[:, :, None]], axis=2
        ).reshape(-1, 4)
        src_nonzero = src[src.any(axis=1)]
        dst = buf.elements.reshape(-1, 4)
        dst_nonzero = dst[dst.any(axis=1)]
        assert len(dst_nonzero) == 4 * len(src_nonzero)
        src_sorted = src_nonzero[np.lexsort(src_nonzero.T)]
        dst_sorted = dst_nonzero[np.lexsort(dst_nonzero.T)]
        assert np.array_equal(np.repeat(src_sorted, 4, axis=0), dst_sorted)

    def test_z_channel_equals_transmitted_code(self):
        f = make_frame(640, 480, seed=6)
        buf = prepare_for_replay(f, R02, "nearest")
        window_z = buf.elements[EMBED_Y : EMBED_Y + 960, EMBED_X : EMBED_X + 1280, 3]
        assert np.array_equal(window_z, np.repeat(np.repeat(f.depth.codes, 2, 0), 2, 1))

    def test_wrong_input_dims_rejected(self):
        with pytest.raises(DimensionError):
            prepare_for_replay(make_frame(320, 240), R02)


def lit_rows(rows):
    """640x480 frame whose source rows in rows are nonzero in every byte and
    whose other rows are zero, so the window rows they map to are empty."""
    lit = np.zeros((480, 1), bool)
    lit[rows] = True
    rng = np.random.default_rng(5)
    rgb = np.where(lit[:, :, None], rng.integers(1, 256, (480, 640, 3)), 0)
    return frame_from_rgbz(rgb, np.where(lit, rng.integers(1, 256, (480, 640)), 0))


def single_lit(y, x):
    rgb = np.zeros((480, 640, 3))
    rgb[y, x] = 200
    return frame_from_rgbz(rgb, np.zeros((480, 640)))


def assert_whole_window_stats(buf):
    """sink_consume's stats equal adler32 and the nonzero-element count of
    the whole window, each taken in one call."""
    window = buf.elements[WINDOW]
    stats = sink_consume(buf)
    assert stats.checksum_adler32 == zlib.adler32(np.ascontiguousarray(window))
    assert stats.nonzero_elements == np.count_nonzero(window.view("<u4"))


# zero runs of whole window rows at the top, in the middle and at the bottom,
# single nonzero elements, and windows with all or none of their elements zero
def sink_inputs():
    yield pytest.param(lit_rows(slice(40, None)), id="zero-top")
    yield pytest.param(lit_rows(np.r_[0:100, 160:480]), id="zero-middle")
    yield pytest.param(lit_rows(slice(None, 448)), id="zero-bottom-64-rows")
    yield pytest.param(lit_rows(slice(None, 455)), id="zero-bottom")
    yield pytest.param(single_lit(200, 3), id="single-element")
    yield pytest.param(single_lit(31, 639), id="single-at-row-end")
    yield pytest.param(frame_from_rgbz(np.zeros((480, 640, 3)), np.zeros((480, 640))), id="all-zero")
    yield pytest.param(lit_rows(slice(None)), id="no-zero-element")
    yield pytest.param(sphere_frames()[1], id="sphere")


class TestSink:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("frame", sink_inputs())
    def test_stats_equal_whole_window_reference(self, frame, mode):
        assert_whole_window_stats(prepare_for_replay(frame, R02, mode))

    # bands of one row fold every zero row alone, 7 leaves a short last band
    # (the fold's byte count), 960 makes the window one band
    @pytest.mark.parametrize("band_rows", [1, 7, 32, UPSCALED_HEIGHT])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("frame", sink_inputs())
    def test_band_seams_equal_whole_window_reference(self, frame, mode, band_rows, monkeypatch):
        monkeypatch.setattr(replay, "SINK_BAND_ROWS", band_rows)
        assert_whole_window_stats(prepare_for_replay(frame, R02, mode))

    @pytest.mark.parametrize("y", [0, UPSCALED_HEIGHT // 2, UPSCALED_HEIGHT - 1])
    @pytest.mark.parametrize("x", [0, UPSCALED_WIDTH - 1])
    def test_one_nonzero_element(self, y, x):
        elements = np.zeros((2048, 2048, 4), np.uint8)
        elements[EMBED_Y + y, EMBED_X + x, 3] = 9
        window = elements[WINDOW]
        stats = sink_consume(SlmBuffer(elements, R02))
        assert stats.checksum_adler32 == zlib.adler32(np.ascontiguousarray(window))
        assert stats.nonzero_elements == 1

    def test_valid_buffer_counts_match_source(self):
        f = make_frame(640, 480, seed=7)
        src = np.concatenate(
            [f.color.data[:, :, :3], f.depth.codes[:, :, None]], axis=2
        ).reshape(-1, 4)
        expected = 4 * int(src.any(axis=1).sum())
        stats = sink_consume(prepare_for_replay(f, R02))
        assert stats.nonzero_elements == expected

    def test_padding_violation_named(self):
        buf = prepare_for_replay(make_frame(640, 480), R02)
        buf.elements[1500, 3, 0] = 1
        with pytest.raises(ValidationError, match="row 1500"):
            sink_consume(buf)

    @pytest.mark.parametrize("byte", range(4))
    @pytest.mark.parametrize(
        "y, x",
        [pytest.param(FIELD_HEIGHT, 0, id="first-pad-row"), pytest.param(2047, 2047, id="last-element")],
    )
    def test_padding_violation_at(self, y, x, byte):
        buf = prepare_for_replay(make_frame(640, 480), R02)
        buf.elements[y, x, byte] = 1
        with pytest.raises(ValidationError, match=rf"^padding-violation: nonzero byte in row {y}$"):
            sink_consume(buf)

    def test_embed_window_violation(self):
        buf = prepare_for_replay(make_frame(640, 480), R02)
        buf.elements[0, 0, 0] = 1  # outside the embed window
        with pytest.raises(ValidationError, match="embed-window"):
            sink_consume(buf)

    # the surround is checked in 8-byte words: one nonzero byte in any of an
    # element's 4 bytes, next to each window edge or at the field's last row
    @pytest.mark.parametrize("byte", range(4))
    @pytest.mark.parametrize(
        "y, x",
        [
            pytest.param(EMBED_Y, EMBED_X - 1, id="left"),
            pytest.param(EMBED_Y, EMBED_X + UPSCALED_WIDTH, id="right"),
            pytest.param(EMBED_Y - 1, EMBED_X, id="above"),
            pytest.param(EMBED_Y + UPSCALED_HEIGHT, EMBED_X + UPSCALED_WIDTH - 1, id="below"),
            pytest.param(FIELD_HEIGHT - 1, FIELD_WIDTH - 1, id="last-field-row"),
        ],
    )
    def test_embed_window_violation_at(self, y, x, byte):
        buf = prepare_for_replay(make_frame(640, 480), R02)
        buf.elements[y, x, byte] = 1
        with pytest.raises(ValidationError, match="embed-window"):
            sink_consume(buf)

    def test_all_zero_buffer_valid(self):
        buf = SlmBuffer(np.zeros((2048, 2048, 4), dtype=np.uint8), R02)
        stats = sink_consume(buf)
        assert stats.nonzero_elements == 0

    def test_does_not_mutate_buffer(self):
        buf = prepare_for_replay(make_frame(640, 480, seed=8), R02)
        before = buf.tobytes()
        sink_consume(buf)
        assert buf.tobytes() == before

    def test_dump_writes_ppm_and_pgm(self, tmp_path):
        buf = prepare_for_replay(make_frame(640, 480, seed=9), R02)
        sink_consume(buf, dump_dir=tmp_path, seq=3)
        ppm = (tmp_path / "frame_3.ppm").read_bytes()
        pgm = (tmp_path / "frame_3.pgm").read_bytes()
        assert ppm.startswith(b"P6\n2048 2048\n255\n")
        assert pgm.startswith(b"P5\n2048 2048\n255\n")
        assert len(ppm) == 17 + 2048 * 2048 * 3
        assert len(pgm) == 17 + 2048 * 2048
