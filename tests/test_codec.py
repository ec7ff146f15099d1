import shutil
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threecpt.codec import (
    CodecId,
    EncodedAccessUnit,
    external_close,
    external_open,
    ref_decode,
    ref_encode,
)
from threecpt.errors import AdapterError, BitstreamError, TranscoderError
from threecpt.frames import StreamHeader
from threecpt.superframe import Superframe, pack_superframe, superframe_byte_size

from util import make_frame

CAT = shutil.which("cat") or "cat"


def random_superframe(w, h, seed=0):
    return pack_superframe(make_frame(w, h, seed=seed))


class TestRefCodec:
    def test_roundtrip(self):
        sf = random_superframe(16, 10, seed=1)
        assert ref_decode(ref_encode(sf)) == sf

    def test_deterministic(self):
        sf = random_superframe(12, 8, seed=2)
        assert ref_encode(sf).payload == ref_encode(sf).payload

    def test_keyframe_always_set(self):
        assert ref_encode(random_superframe(2, 2)).keyframe

    def test_hand_encoded_payload(self):
        # 1x2 superframe bytes [5,5,5,0, 9,9,9,0]: width 1, so every pixel
        # is a row start and the residuals are the bytes verbatim;
        # run-length pairs (3,5)(1,0)(3,9)(1,0) after the 5-byte header
        data = np.array([[[5, 5, 5, 0]], [[9, 9, 9, 0]]], dtype=np.uint8)
        au = ref_encode(Superframe(data))
        expected = bytes([0x52, 0, 1, 0, 1]) + bytes([3, 5, 1, 0, 3, 9, 1, 0])
        assert au.payload == expected

    def test_hand_encoded_left_prediction_within_row(self):
        # one row, two pixels [10,20,30,0][12,21,28,0]:
        # residuals [10,20,30,0, 2,1,254,0] per-channel against the left
        # pixel; color rows and depth rows encode the same way
        data = np.array(
            [[[10, 20, 30, 0], [12, 21, 28, 0]], [[7, 7, 7, 0], [7, 7, 7, 0]]],
            dtype=np.uint8,
        )
        au = ref_encode(Superframe(data))
        # residual stream 10,20,30,0,2,1,254,0,7,7,7,0,0,0,0,0 -> runs
        # (1,10)(1,20)(1,30)(1,0)(1,2)(1,1)(1,254)(1,0)(3,7)(5,0)
        body = bytes(
            [1, 10, 1, 20, 1, 30, 1, 0, 1, 2, 1, 1, 1, 254, 1, 0, 3, 7, 5, 0]
        )
        assert au.payload == bytes([0x52, 0, 2, 0, 1]) + body

    def test_constant_frame_compresses_below_one_percent(self):
        sf = Superframe(np.full((960, 640, 4), 0, dtype=np.uint8))
        au = ref_encode(sf)
        assert len(au.payload) < 0.01 * 2_457_600

    def test_truncated_payload_rejected(self):
        au = ref_encode(random_superframe(4, 4, seed=3))
        broken = EncodedAccessUnit(CodecId.REF_LOSSLESS, au.flags, au.payload[:-1])
        with pytest.raises(BitstreamError):
            ref_decode(broken)

    def test_dimension_byte_count_mismatch_rejected(self):
        au = ref_encode(random_superframe(4, 4, seed=4))
        # declare a larger frame than the run-length stream decodes to
        tampered = bytes([0x52, 0, 8, 0, 8]) + au.payload[5:]
        with pytest.raises(BitstreamError):
            ref_decode(EncodedAccessUnit(CodecId.REF_LOSSLESS, au.flags, tampered))

    def test_overlong_stream_rejected_before_expanding(self):
        # 1 MiB of (255, 0) runs would expand to ~134 MB; the header declares 2x2
        payload = bytes([0x52, 0, 2, 0, 1]) + bytes([255, 0]) * (512 * 1024)
        au = EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload)
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError):
                ref_decode(au)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024

    def test_zero_run_rejected(self):
        payload = bytes([0x52, 0, 1, 0, 1]) + bytes([0, 7])
        with pytest.raises(BitstreamError):
            ref_decode(EncodedAccessUnit(CodecId.REF_LOSSLESS, 1, payload))

    def test_codec_id_mismatch_rejected(self):
        au = ref_encode(random_superframe(2, 2))
        wrong = EncodedAccessUnit(CodecId.EXTERNAL, 0, au.payload)
        with pytest.raises(AdapterError):
            ref_decode(wrong)

    def test_long_run_split(self):
        sf = Superframe(np.full((2, 512, 4), 7, dtype=np.uint8))
        assert ref_decode(ref_encode(sf)) == sf

    @given(
        st.integers(1, 6).map(lambda n: 2 * n),
        st.integers(1, 6).map(lambda n: 2 * n),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_roundtrip_property(self, w, h, seed):
        sf = random_superframe(w, h, seed=seed)
        assert ref_decode(ref_encode(sf)) == sf


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
        session = external_open(self.HDR, CAT)
        sf = random_superframe(8, 6, seed=5)
        session.send_frame(sf)
        out = session.recv_frame(timeout=5)
        assert out == sf
        session.close()

    def test_nonexistent_command_spawn_error(self):
        with pytest.raises(TranscoderError):
            external_open(self.HDR, "/nonexistent/transcoder-binary")

    def test_thirty_frames_in_order(self):
        session = external_open(self.HDR, CAT)
        frames = [random_superframe(8, 6, seed=i) for i in range(30)]
        decoded = []
        for sf in frames:
            session.send_frame(sf)
            decoded.append(session.recv_frame(timeout=5))
        report = external_close(session)
        assert decoded == frames
        assert report.frames_in == report.frames_out == 30

    def test_close_counts_unread_frames(self):
        session = external_open(self.HDR, CAT)
        for i in range(4):
            session.send_frame(random_superframe(8, 6, seed=i))
        report = session.close()
        assert report.frames_in == report.frames_out == 4

    def test_close_is_idempotent(self):
        session = external_open(self.HDR, CAT)
        first = session.close()
        assert session.close() is first

    def test_child_killed_mid_stream_errors_not_hangs(self):
        session = external_open(self.HDR, CAT, mode="transcode")
        session.send_frame(random_superframe(8, 6))
        assert session.recv_frame(timeout=5) is not None
        session.child.send_signal(signal.SIGKILL)
        time.sleep(0.1)
        start = time.monotonic()
        with pytest.raises(TranscoderError):
            session.send_frame(random_superframe(8, 6, seed=1))
            session.recv_frame(timeout=2)
            session.close()
        assert time.monotonic() - start < 10

    def test_encode_mode_units_reassemble(self):
        enc = external_open(self.HDR, CAT, mode="encode")
        dec = external_open(self.HDR, CAT, mode="decode")
        frames = [random_superframe(8, 6, seed=i) for i in range(5)]
        for sf in frames:
            enc.send_frame(sf)
        enc.close_input()
        units = []
        while (au := enc.recv_unit(timeout=5)) is not None:
            units.append(au)
        assert units and units[0].keyframe and not any(u.keyframe for u in units[1:])
        for au in units:
            dec.send_bytes(au.payload)
        dec.close_input()
        decoded = []
        while (sf := dec.recv_frame(timeout=5)) is not None:
            decoded.append(sf)
        assert decoded == frames
        enc.close()
        dec.close()

    def test_session_rejects_mismatched_dimensions(self):
        session = external_open(self.HDR, CAT)
        with pytest.raises(AdapterError):
            session.send_frame(random_superframe(4, 4))
        session.close()

    def test_raw_side_carries_exact_interchange_bytes(self):
        sf = random_superframe(8, 6, seed=9)
        session = external_open(self.HDR, CAT)
        session.send_frame(sf)
        out = session.recv_frame(timeout=5)
        assert out.tobytes() == sf.tobytes()
        assert len(sf.tobytes()) == superframe_byte_size(8, 6)
        session.close()
