import shutil
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecpt.codec import (
    MAX_UNIT_BYTES,
    STDERR_TAIL_BYTES,
    CodecId,
    EncodedAccessUnit,
    ExternalSession,
    ref_decode,
    ref_encode,
    ref_work,
)
from threecpt.container import gen_synthetic
from threecpt.errors import AdapterError, BitstreamError, TranscoderError
from threecpt.frames import StreamHeader, suppress_background
from threecpt.superframe import Superframe, pack_superframe, superframe_byte_size

from util import make_frame

CAT = shutil.which("cat") or "cat"


def random_superframe(w, h, seed=0):
    return pack_superframe(make_frame(w, h, seed=seed))


def hdr_of(sf):
    """The stream header a superframe belongs to."""
    return StreamHeader(width=sf.width, height=sf.height // 2)


def constant_superframe(w, h, value=0):
    return Superframe(np.full((2 * h, w, 4), value, dtype=np.uint8))


def both_branches(w, h, seed=0):
    """A stored (noise) and a run-length (constant) superframe of one size."""
    return random_superframe(w, h, seed=seed), constant_superframe(w, h, value=3)


class TestRefCodec:
    def test_roundtrip(self):
        for sf, tag in zip(both_branches(16, 10, seed=1), (0x53, 0x52)):
            au = ref_encode(sf)
            assert au.payload[0] == tag
            assert ref_decode(au, hdr_of(sf)) == sf

    def test_deterministic(self):
        sf = random_superframe(12, 8, seed=2)
        assert ref_encode(sf).payload == ref_encode(sf).payload

    def test_keyframe_always_set(self):
        assert ref_encode(random_superframe(2, 2)).keyframe

    def test_hand_encoded_payload(self):
        # 1x2 superframe bytes [5,5,5,0, 9,9,9,0]: width 1, so every pixel
        # is a row start and the residuals are the bytes verbatim;
        # run-length pairs (3,5)(1,0)(3,9)(1,0) after the 5-byte header.
        # The 8-byte body ties the 8 raw bytes, so it stays run-length
        data = np.array([[[5, 5, 5, 0]], [[9, 9, 9, 0]]], dtype=np.uint8)
        au = ref_encode(Superframe(data))
        expected = bytes([0x52, 0, 1, 0, 1]) + bytes([3, 5, 1, 0, 3, 9, 1, 0])
        assert au.payload == expected

    def test_hand_encoded_left_prediction_within_row(self):
        # superframe 4x2, one row of color, one of depth:
        # row 0 [10,20,30,0][12,21,28,0][12,21,28,0][12,21,28,0] has
        # residuals [10,20,30,0, 2,1,254,0, 0,0,0,0, 0,0,0,0] per channel
        # against the left pixel; row 1 [7,7,7,0][7,7,7,0][9,9,9,0][9,9,9,0]
        # has [7,7,7,0, 0,0,0,0, 2,2,2,0, 0,0,0,0]
        data = np.array(
            [
                [[10, 20, 30, 0], [12, 21, 28, 0], [12, 21, 28, 0], [12, 21, 28, 0]],
                [[7, 7, 7, 0], [7, 7, 7, 0], [9, 9, 9, 0], [9, 9, 9, 0]],
            ],
            dtype=np.uint8,
        )
        au = ref_encode(Superframe(data))
        # runs (1,10)(1,20)(1,30)(1,0)(1,2)(1,1)(1,254)(9,0) (3,7)(5,0)(3,2)(5,0):
        # a 24-byte body against 32 raw bytes
        body = bytes(
            [1, 10, 1, 20, 1, 30, 1, 0, 1, 2, 1, 1, 1, 254, 9, 0, 3, 7, 5, 0, 3, 2, 5, 0]
        )
        assert au.payload == bytes([0x52, 0, 4, 0, 1]) + body

    def test_hand_encoded_stored(self):
        # superframe 2x2 [10,20,30,0][12,21,28,0] / [7,7,7,0][7,7,7,0]: its
        # runs (1,10)(1,20)(1,30)(1,0)(1,2)(1,1)(1,254)(1,0)(3,7)(5,0) take
        # 20 bytes against 16 raw, so the unit stores the bytes verbatim
        data = np.array(
            [[[10, 20, 30, 0], [12, 21, 28, 0]], [[7, 7, 7, 0], [7, 7, 7, 0]]],
            dtype=np.uint8,
        )
        au = ref_encode(Superframe(data))
        assert au.payload == bytes([0x53, 0, 2, 0, 1]) + data.tobytes()

    def test_compressible_full_frame_is_run_length(self):
        hdr, frames = gen_synthetic(640, 480, (30, 1), 1)
        sf = pack_superframe(frames[0])
        au = ref_encode(sf)
        assert au.payload[0] == 0x52
        assert ref_decode(au, hdr) == sf

    def test_stored_unit_shares_the_packed_superframe(self):
        sf = random_superframe(16, 10, seed=5)
        au = ref_encode(sf)
        assert au.payload[0] == 0x53 and au.payload.readonly
        assert np.shares_memory(np.frombuffer(au.payload, dtype=np.uint8), sf.data)
        assert ref_decode(au, hdr_of(sf)) == sf

    def test_caller_built_superframe_is_copied_to_identical_bytes(self):
        packed = random_superframe(16, 10, seed=5)
        built = Superframe(packed.data.copy())
        au = ref_encode(built)
        assert not np.shares_memory(np.frombuffer(au.payload, dtype=np.uint8), built.data)
        assert au.payload == ref_encode(packed).payload

    def test_noise_full_frame_is_stored_at_raw_size(self):
        sf = random_superframe(640, 480, seed=7)
        au = ref_encode(sf)
        assert au.payload[0] == 0x53
        assert len(au.payload) == 5 + superframe_byte_size(640, 480)
        assert ref_decode(au, hdr_of(sf)) == sf

    def test_constant_frame_compresses_below_one_percent(self):
        sf = constant_superframe(640, 480)
        au = ref_encode(sf)
        assert len(au.payload) < 0.01 * 2_457_600

    def test_truncated_payload_rejected(self):
        for sf in both_branches(4, 4, seed=3):
            au = ref_encode(sf)
            broken = EncodedAccessUnit(CodecId.REF_LOSSLESS, au.flags, au.payload[:-1])
            with pytest.raises(BitstreamError):
                ref_decode(broken, hdr_of(sf))

    def test_dimension_byte_count_mismatch_rejected(self):
        for sf in both_branches(4, 4, seed=4):
            au = ref_encode(sf)
            # declare a larger frame than the body holds, in a stream of that size
            tampered = bytes(au.payload[:1]) + bytes([0, 8, 0, 8]) + au.payload[5:]
            with pytest.raises(BitstreamError, match="needs 512 bytes"):
                ref_decode(
                    EncodedAccessUnit(CodecId.REF_LOSSLESS, au.flags, tampered),
                    StreamHeader(width=8, height=8),
                )

    def test_unit_for_another_frame_size_rejected(self):
        for sf in both_branches(4, 4, seed=4):
            with pytest.raises(BitstreamError, match="stream is 8x12"):
                ref_decode(ref_encode(sf), StreamHeader(width=8, height=6))

    def test_overlong_stream_rejected_before_expanding(self):
        # 1 MiB of (255, 0) runs would expand to ~134 MB; the header declares 2x4
        payload = bytes([0x52, 0, 2, 0, 2]) + bytes([255, 0]) * (512 * 1024)
        au = EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload)
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError):
                ref_decode(au, StreamHeader(width=2, height=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024

    def test_zero_run_rejected(self):
        payload = bytes([0x52, 0, 2, 0, 2]) + bytes([0, 7])
        with pytest.raises(BitstreamError, match="zero-length"):
            ref_decode(
                EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload),
                StreamHeader(width=2, height=2),
            )

    def test_unknown_tag_rejected(self):
        sf = constant_superframe(2, 2)
        payload = bytes([0x54]) + ref_encode(sf).payload[1:]
        with pytest.raises(BitstreamError, match="0x54"):
            ref_decode(EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload), hdr_of(sf))

    def test_codec_id_mismatch_rejected(self):
        sf = random_superframe(2, 2)
        wrong = EncodedAccessUnit(CodecId.EXTERNAL, 0, ref_encode(sf).payload)
        with pytest.raises(AdapterError):
            ref_decode(wrong, hdr_of(sf))

    def test_long_run_split(self):
        sf = Superframe(np.full((4, 512, 4), 7, dtype=np.uint8))
        au = ref_encode(sf)
        assert au.payload[0] == 0x52
        assert ref_decode(au, hdr_of(sf)) == sf

    @given(
        st.integers(1, 6).map(lambda n: 2 * n),
        st.integers(1, 6).map(lambda n: 2 * n),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_roundtrip_property(self, w, h, seed):
        sf = random_superframe(w, h, seed=seed)
        assert ref_decode(ref_encode(sf), hdr_of(sf)) == sf


def suppressed_sphere():
    """The 640x480 orbiting-sphere superframe with its background suppressed
    at 0.5 diopters, the sphere-30fps content."""
    hdr, clip = gen_synthetic(640, 480, (30, 1), 5, "orbiting-sphere", seed=1)
    return pack_superframe(suppress_background(clip[4], 0.5, hdr.range))


class TestRefWork:
    def test_held_work_gives_the_units_of_fresh_work(self):
        rng = np.random.default_rng(5)
        noise = Superframe(rng.integers(0, 256, size=(960, 640, 4), dtype=np.uint8))
        sequence = [
            noise,
            suppressed_sphere(),
            constant_superframe(640, 480),
            random_superframe(2, 2, seed=3),
            noise,
        ]
        held = {}  # one work per frame size, each dirtied before its first use
        for sf in sequence:
            size = (sf.width, sf.height // 2)
            if size not in held:
                held[size] = rng.integers(0, 256, size=ref_work(*size).size, dtype=np.uint8)
            assert ref_encode(sf, held[size]).payload == ref_encode(sf).payload
        assert [ref_encode(sf).payload[0] for sf in sequence] == [0x53, 0x52, 0x52, 0x53, 0x53]

    @pytest.mark.parametrize(
        "work",
        [
            np.empty(2 * 8 * 12 * 4 - 1, np.uint8),
            np.empty(2 * 8 * 12 * 4 + 1, np.uint8),
            np.empty(2 * 8 * 12 * 4, np.int8),
            np.empty((2, 8 * 12 * 4), np.uint8),
        ],
        ids=["short", "long", "int8", "two-d"],
    )
    def test_work_of_another_size_or_dtype_is_value_error(self, work):
        with pytest.raises(ValueError, match="work for a 8x12 superframe"):
            ref_encode(random_superframe(8, 6), work)

    def test_held_work_encode_peaks_below_two_superframes(self):
        sf = suppressed_sphere()
        work = ref_work(640, 480)
        tracemalloc.start()
        try:
            au = ref_encode(sf, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert au.payload[0] == 0x52
        assert peak < 2 * superframe_byte_size(640, 480)


class TestAccessUnit:
    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, b"")

    def test_ref_requires_keyframe_flag(self):
        with pytest.raises(ValueError):
            EncodedAccessUnit(CodecId.REF_LOSSLESS, 0, b"x")


class TestExternalSession:
    HDR = StreamHeader(width=8, height=6)

    def test_passthrough_roundtrip_identity(self):
        session = ExternalSession(self.HDR, CAT)
        sf = random_superframe(8, 6, seed=5)
        session.send_frame(sf)
        session.close_input()
        assert session.frames(wait=True) == [sf]
        session.close()

    FAILS_ON_EXIT = "sh -c 'cat >/dev/null; exit 3'"

    def test_with_block_error_wins_over_the_exit_failure(self):
        with pytest.raises(AdapterError, match="inside the block"):
            with ExternalSession(self.HDR, self.FAILS_ON_EXIT) as session:
                raise AdapterError("inside the block")
        assert session.child.returncode == 3

    def test_with_block_raises_the_exit_failure_on_a_clean_exit(self):
        with pytest.raises(TranscoderError, match="exited 3"):
            with ExternalSession(self.HDR, self.FAILS_ON_EXIT) as session:
                session.send_frame(random_superframe(8, 6, seed=1))
        assert session.child.returncode == 3

    def test_nonexistent_command_spawn_error(self):
        with pytest.raises(TranscoderError):
            ExternalSession(self.HDR, "/nonexistent/transcoder-binary")

    @pytest.mark.parametrize("command", ["", "   ", "cat 'unclosed"])
    def test_empty_or_unparsable_command_is_transcoder_error(self, command):
        with pytest.raises(TranscoderError):
            ExternalSession(self.HDR, command)

    def test_chatty_stderr_does_not_stall_the_child(self):
        # 200 kB on stderr is three pipe buffers: unread, it blocks the child
        session = ExternalSession(
            self.HDR, "sh -c 'head -c 200000 /dev/zero >&2; cat'", timeout=2
        )
        start = time.monotonic()
        report = session.close()
        assert time.monotonic() - start < 2
        assert report.stderr == bytes(STDERR_TAIL_BYTES)

    def test_thirty_frames_in_order(self):
        session = ExternalSession(self.HDR, CAT)
        frames = [random_superframe(8, 6, seed=i) for i in range(30)]
        decoded = []
        for sf in frames:
            session.send_frame(sf)
            decoded += session.frames()
        session.close_input()
        decoded += session.frames(wait=True)
        report = session.close()
        assert decoded == frames
        assert report.frames_in == report.frames_out == 30

    def test_frames_wait_reads_to_eof(self):
        session = ExternalSession(self.HDR, CAT)
        for i in range(4):
            session.send_frame(random_superframe(8, 6, seed=i))
        session.close_input()
        assert len(session.frames(wait=True)) == 4
        report = session.close()
        assert report.frames_in == report.frames_out == 4

    def test_frames_returns_every_frame_a_write_completes(self):
        session = ExternalSession(self.HDR, CAT)
        frames = [random_superframe(8, 6, seed=i) for i in range(2)]
        session.send_bytes(b"".join(sf.tobytes() for sf in frames))
        deadline = time.monotonic() + 5
        while not (decoded := session.frames()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert decoded == frames
        session.close()

    def test_partial_trailing_frame_is_error(self):
        session = ExternalSession(self.HDR, CAT)
        session.send_bytes(random_superframe(8, 6).tobytes()[:-1])
        session.close_input()
        with pytest.raises(TranscoderError, match="mid-frame"):
            session.frames(wait=True)
        session.close()

    def test_close_is_idempotent(self):
        session = ExternalSession(self.HDR, CAT)
        first = session.close()
        assert session.close() is first

    def test_child_killed_mid_stream_errors_not_hangs(self):
        session = ExternalSession(self.HDR, CAT)
        session.send_frame(random_superframe(8, 6))
        session.child.send_signal(signal.SIGKILL)
        time.sleep(0.1)
        start = time.monotonic()
        with pytest.raises(TranscoderError):
            session.send_frame(random_superframe(8, 6, seed=1))
        with pytest.raises(TranscoderError, match="exited -9"):
            session.close()
        assert time.monotonic() - start < 10

    def test_units_reassemble_to_frames(self):
        enc = ExternalSession(self.HDR, CAT)
        dec = ExternalSession(self.HDR, CAT)
        frames = [random_superframe(8, 6, seed=i) for i in range(5)]
        units = []
        for sf in frames:
            enc.send_frame(sf)
            units += enc.units()
        enc.close_input()
        units += enc.units(wait=True)
        assert units and units[0].keyframe and not any(u.keyframe for u in units[1:])
        for au in units:
            dec.send_bytes(au.payload)
        dec.close_input()
        assert dec.frames(wait=True) == frames
        enc.close()
        dec.close()

    def test_units_stay_within_the_unit_bound(self):
        size = MAX_UNIT_BYTES + 1000
        session = ExternalSession(self.HDR, f"head -c {size} /dev/zero")
        session.close_input()
        units = session.units(wait=True)
        assert [len(u.payload) for u in units] == [MAX_UNIT_BYTES, 1000]
        session.close()

    def test_session_rejects_mismatched_dimensions(self):
        session = ExternalSession(self.HDR, CAT)
        with pytest.raises(AdapterError):
            session.send_frame(random_superframe(4, 4))
        session.close()

    def test_raw_side_carries_exact_interchange_bytes(self):
        sf = random_superframe(8, 6, seed=9)
        session = ExternalSession(self.HDR, CAT)
        session.send_frame(sf)
        session.close_input()
        (out,) = session.frames(wait=True)
        assert out.tobytes() == sf.tobytes()
        assert len(sf.tobytes()) == superframe_byte_size(8, 6)
        session.close()


