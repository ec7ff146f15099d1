import os
import tracemalloc

import numpy as np
import pytest

from threecpt.container import (
    ORBIT_HZ,
    gen_synthetic,
    read_container,
    sphere_center,
    write_container,
)
from threecpt.errors import ContainerError, DimensionError
from threecpt.frames import StreamHeader

from util import make_frame

HEADER_BYTES = 33  # 4+1+2+2+2+2+8+8+4
FRAME_BYTES = 8 + 16 * 12 * 5  # a small_stream frame: timestamp, color, depth


def small_stream(frames=3, w=16, h=12):
    return gen_synthetic(w, h, (30, 1), frames)


class TestSynthetic:
    def test_file_size_arithmetic(self, tmp_path):
        hdr, frames = gen_synthetic(640, 480, (30, 1), 60)
        path = tmp_path / "a.rgbz"
        write_container(path, hdr, frames)
        per_frame = 8 + 640 * 480 * 4 + 640 * 480
        assert path.stat().st_size == HEADER_BYTES + 60 * per_frame

    def test_same_seed_bit_identical(self, tmp_path):
        for name in ("a.rgbz", "b.rgbz"):
            hdr, frames = gen_synthetic(32, 24, (30, 1), 5, seed=11)
            write_container(tmp_path / name, hdr, frames)
        assert (tmp_path / "a.rgbz").read_bytes() == (tmp_path / "b.rgbz").read_bytes()

    def test_orbit_moves_sphere(self):
        # at 30 fps, frame 30 is t = 1 s; with a 0.25 Hz orbit the disc has
        # swept a quarter turn
        c0 = sphere_center(640, 480, 0.0)
        c30 = sphere_center(640, 480, 1.0)
        assert c0 != c30
        assert c0 == (640 / 2 + 0.25 * 640, 480 / 2)
        assert c30[0] == pytest.approx(640 / 2)
        assert c30[1] == pytest.approx(480 / 2 + 0.25 * 480)
        assert ORBIT_HZ == 0.25

    def test_depth_actually_varies(self):
        _, frames = gen_synthetic(64, 48, (30, 1), 2)
        assert len(np.unique(frames[0].depth.codes)) > 2

    def test_gradient_pattern(self):
        _, frames = gen_synthetic(32, 24, (30, 1), 2, pattern="gradient-sweep")
        assert not np.array_equal(frames[0].color.data, frames[1].color.data)

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            gen_synthetic(15, 10, (30, 1), 1)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(16, 12, (30, 1), 1, pattern="plasma")


class TestRoundTrip:
    def test_write_then_read_identical(self, tmp_path):
        hdr, frames = small_stream()
        path = tmp_path / "s.rgbz"
        write_container(path, hdr, frames)
        hdr2, frames2 = read_container(path)
        assert hdr2 == hdr
        assert list(frames2) == frames

    def test_timestamps_and_seq(self, tmp_path):
        hdr, frames = small_stream(frames=4)
        path = tmp_path / "s.rgbz"
        write_container(path, hdr, frames)
        _, out = read_container(path)
        out = list(out)
        assert [f.seq for f in out] == [0, 1, 2, 3]
        ts = [f.timestamp_us for f in out]
        assert ts == sorted(ts) and len(set(ts)) == 4


class TestMalformed:
    def write_sample(self, tmp_path):
        hdr, frames = small_stream()
        path = tmp_path / "s.rgbz"
        write_container(path, hdr, frames)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="offset 0"):
            read_container(path)

    def test_bad_version(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="version"):
            read_container(path)

    def test_truncated_mid_frame_names_offset(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ContainerError, match="offset"):
            read_container(path)

    def test_frame_count_mismatch(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[HEADER_BYTES - 4 : HEADER_BYTES] = (5).to_bytes(4, "big")
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError):
            read_container(path)

    @pytest.mark.parametrize(
        "offset, value",
        [(9, bytes(2)), (13, bytes.fromhex("7ff8000000000000")), (21, bytes(8))],
        ids=["fps-zero", "min-nan", "max-not-above-min"],
    )
    def test_bad_fps_or_range_is_container_error(self, tmp_path, offset, value):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="offset 9"):
            read_container(path)

    def test_nonzero_pad_byte_is_container_error(self, tmp_path):
        # only when its frame is reached: frames before it are yielded
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        color_at = HEADER_BYTES + 2 * FRAME_BYTES + 8  # frame 2's color
        raw[color_at + 4 * 7 + 3] = 1  # pad byte of its eighth pixel
        path.write_bytes(bytes(raw))
        _, frames = read_container(path)
        assert [f.seq for f in (next(frames), next(frames))] == [0, 1]
        with pytest.raises(ContainerError, match=f"offset {color_at}$"):
            next(frames)
        with pytest.raises(StopIteration):  # the error ended the reader
            next(frames)

    @pytest.mark.parametrize("field", ["timestamp", "length"])
    def test_bad_last_frame_rejected_before_any_frame(self, tmp_path, field):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        last = HEADER_BYTES + 2 * FRAME_BYTES
        if field == "timestamp":
            raw[last : last + 8] = raw[last - FRAME_BYTES : last - FRAME_BYTES + 8]
            match = f"non-increasing timestamp .* at offset {last}"
        else:
            raw = raw[:-1]
            match = f"incomplete frame at offset {last}"
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match=match):
            read_container(path)

    def test_non_increasing_timestamp_rejected_on_write(self, tmp_path):
        hdr, frames = small_stream(frames=2)
        frames = [frames[0], frames[1].__class__(
            color=frames[1].color,
            depth=frames[1].depth,
            timestamp_us=frames[0].timestamp_us,
            seq=1,
        )]
        with pytest.raises(ContainerError):
            write_container(tmp_path / "bad.rgbz", hdr, frames)

    def test_wrong_frame_dims_rejected_on_write(self, tmp_path):
        hdr, _ = small_stream()
        with pytest.raises(DimensionError):
            write_container(tmp_path / "bad.rgbz", hdr, [make_frame(8, 8, timestamp_us=1)])


class TestStreaming:
    def test_generator_write_matches_list_write(self, tmp_path):
        hdr, frames = small_stream(frames=4)
        write_container(tmp_path / "list.rgbz", hdr, frames)
        assert write_container(tmp_path / "gen.rgbz", hdr, (f for f in frames)) == 4
        raw = (tmp_path / "list.rgbz").read_bytes()
        assert (tmp_path / "gen.rgbz").read_bytes() == raw
        assert int.from_bytes(raw[HEADER_BYTES - 4 : HEADER_BYTES], "big") == 4

    def test_write_leaves_a_shared_offset_at_the_end_of_the_data(self, tmp_path):
        # a caller that shares the descriptor truncates the file at its offset
        hdr, frames = small_stream(frames=3)
        write_container(tmp_path / "list.rgbz", hdr, frames)
        path = tmp_path / "shared.rgbz"
        path.write_bytes(bytes(10 * FRAME_BYTES))  # an older, longer clip
        fd = os.open(path, os.O_RDWR)
        try:
            write_container(os.dup(fd), hdr, iter(frames))
            end = os.lseek(fd, 0, os.SEEK_CUR)
            os.ftruncate(fd, end)
        finally:
            os.close(fd)
        assert end == HEADER_BYTES + 3 * FRAME_BYTES == path.stat().st_size
        assert path.read_bytes() == (tmp_path / "list.rgbz").read_bytes()

    def test_reader_closes_its_file(self, tmp_path):
        hdr, frames = small_stream(frames=3)
        write_container(tmp_path / "s.rgbz", hdr, frames)
        _, exhausted = read_container(tmp_path / "s.rgbz")
        assert len(list(exhausted)) == 3
        with read_container(tmp_path / "s.rgbz")[1] as stopped_early:
            next(stopped_early)
        for reader in (exhausted, stopped_early):
            assert reader._file.closed

    def test_memory_stays_near_one_frame(self, tmp_path):
        w, h, count = 160, 120, 64
        frame_bytes = 8 + w * h * 5
        hdr, frames = gen_synthetic(w, h, (30, 1), 1)
        clip = (
            frames[0].__class__(
                color=frames[0].color, depth=frames[0].depth, timestamp_us=i, seq=i
            )
            for i in range(count)
        )
        write_container(tmp_path / "long.rgbz", hdr, clip)
        tracemalloc.start()
        try:
            _, reader = read_container(tmp_path / "long.rgbz")
            seen = sum(1 for _ in reader)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen == count
        # the frame being read and the one the consumer still holds, each
        # with its w*h validity mask; holding the clip would be 64 frames
        assert peak < 3 * frame_bytes
