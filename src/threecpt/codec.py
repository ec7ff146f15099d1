"""Codec boundary: encode superframes to access units and back.

Two paths:

* REF_LOSSLESS -- a deterministic, bit-exact intra-only codec built in for
  reproducible tests and for streaming without an external encoder.
* EXTERNAL -- a child transcoder process (H.264-class, e.g. ffmpeg) reached
  over its standard streams, carrying the bit-exact superframe interchange
  format on the raw side.

REF_LOSSLESS payload layout (big-endian):

    byte 0        magic 0x52
    bytes 1..2    u16 width
    bytes 3..4    u16 half-height (content height; superframe is twice this)
    bytes 5..     run-length stream: (count u8 in 1..255, value u8) pairs

The run-length stream covers the per-row left-predictor residuals of the
superframe bytes: each channel byte is differenced modulo 256 against the
same channel of the pixel to its left (the leftmost pixel of each row is
kept verbatim), rows concatenated top to bottom in the interchange byte
order. See docs/refcodec.md for a worked example.
"""

from __future__ import annotations

import enum
import queue
import shlex
import struct
import subprocess
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AdapterError, BitstreamError, TranscoderError
from .frames import StreamHeader
from .superframe import Superframe, superframe_byte_size

REF_MAGIC = 0x52
REF_HEADER = struct.Struct(">BHH")

FLAG_KEYFRAME = 0x01


class CodecId(enum.Enum):
    REF_LOSSLESS = 1
    EXTERNAL = 2


@dataclass(frozen=True)
class EncodedAccessUnit:
    """One encoded frame's worth of bitstream."""

    codec_id: CodecId
    flags: int
    payload: bytes

    def __post_init__(self):
        if not self.payload:
            raise ValueError("access unit payload must be non-empty")
        if self.codec_id is CodecId.REF_LOSSLESS and not (self.flags & FLAG_KEYFRAME):
            raise ValueError("REF_LOSSLESS units are intra-only; keyframe flag required")

    @property
    def keyframe(self) -> bool:
        return bool(self.flags & FLAG_KEYFRAME)


def _row_residuals(data: np.ndarray) -> np.ndarray:
    resid = data.copy()
    # left predictor per channel, modulo 256 (uint8 subtraction wraps)
    resid[:, 1:, :] = data[:, 1:, :] - data[:, :-1, :]
    return resid.reshape(-1)


def _rle_encode(stream: np.ndarray) -> bytes:
    change = np.flatnonzero(stream[1:] != stream[:-1])
    starts = np.empty(len(change) + 1, dtype=np.intp)
    starts[0] = 0
    np.add(change, 1, out=starts[1:])
    runs = np.empty(len(starts), dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=runs[:-1])
    runs[-1] = len(stream) - starts[-1]
    vals = stream.take(starts)

    if runs.max(initial=1) <= 255:
        counts = runs.astype(np.uint8)
    else:
        # split runs longer than 255 into full chunks plus a remainder
        full, rem = np.divmod(runs, 255)
        reps = full + (rem > 0)
        counts = np.full(int(reps.sum()), 255, dtype=np.uint8)
        last = np.cumsum(reps) - 1
        counts[last[rem > 0]] = rem[rem > 0]
        vals = np.repeat(vals, reps)
    out = np.empty(2 * len(counts), dtype=np.uint8)
    out[0::2] = counts
    out[1::2] = vals
    return out.tobytes()


def ref_encode(sf: Superframe) -> EncodedAccessUnit:
    """Encode a superframe with the deterministic lossless reference codec."""
    header = REF_HEADER.pack(REF_MAGIC, sf.width, sf.height // 2)
    resid = _row_residuals(np.ascontiguousarray(sf.data))
    return EncodedAccessUnit(
        codec_id=CodecId.REF_LOSSLESS,
        flags=FLAG_KEYFRAME,
        payload=header + _rle_encode(resid),
    )


def ref_decode(au: EncodedAccessUnit) -> Superframe:
    """Exact inverse of ref_encode."""
    if au.codec_id is not CodecId.REF_LOSSLESS:
        raise AdapterError(f"expected REF_LOSSLESS unit, got {au.codec_id.name}")
    payload = au.payload
    if len(payload) < REF_HEADER.size:
        raise BitstreamError(f"payload too short for header: {len(payload)} bytes")
    magic, width, half_height = REF_HEADER.unpack_from(payload)
    if magic != REF_MAGIC:
        raise BitstreamError(f"bad reference-codec magic 0x{magic:02x}")
    body = payload[REF_HEADER.size :]
    if len(body) % 2:
        raise BitstreamError("run-length stream has a dangling byte")
    pairs = np.frombuffer(body, dtype=np.uint8).reshape(-1, 2)
    counts = pairs[:, 0].astype(np.intp)
    if not counts.all():
        raise BitstreamError("zero-length run in run-length stream")
    # check the decoded length before expanding, so the payload cannot make
    # the decoder allocate more than the frame it declares
    decoded = int(counts.sum())
    expected = superframe_byte_size(width, half_height)
    if decoded != expected:
        raise BitstreamError(
            f"declared {width}x{2 * half_height} needs {expected} bytes, "
            f"run-length stream decodes to {decoded}"
        )
    resid = np.repeat(pairs[:, 1], counts).reshape(2 * half_height, width, 4)
    rows = np.cumsum(resid, axis=1, dtype=np.uint8)  # wraps mod 256
    return Superframe(rows)


@dataclass
class FlushReport:
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    stderr: bytes = b""


class _StdoutDrain(threading.Thread):
    """Reads child stdout continuously so the feed side can't deadlock."""

    def __init__(self, pipe):
        super().__init__(daemon=True)
        self.pipe = pipe
        self.chunks: queue.Queue = queue.Queue()

    def run(self):
        while True:
            # read1 returns whatever the pipe has; plain read would block
            # for the full 64 KiB and sit on short transcoder flushes
            chunk = self.pipe.read1(65536)
            if not chunk:
                break
            self.chunks.put(chunk)
        self.chunks.put(None)  # EOF sentinel


class ExternalSession:
    """A child transcoder reached over its standard streams.

    Raw superframes (the interchange format) go on one side, an opaque
    bitstream on the other, depending on the mode:

    * ``transcode`` -- raw in, raw out (command does encode+decode; used for
      round-trip quality measurement, or ``cat`` as a pass-through oracle).
    * ``encode``    -- raw in, bitstream out, chunked at flush boundaries.
    * ``decode``    -- bitstream in, raw out.

    The feed and drain sides run concurrently (drain on a background
    thread) so a full pipe can never deadlock the caller.
    """

    def __init__(
        self,
        hdr: StreamHeader,
        command: str,
        mode: str = "transcode",
        handshake_timeout: float = 5.0,
    ):
        if mode not in ("transcode", "encode", "decode"):
            raise ValueError(f"unknown session mode {mode!r}")
        self.hdr = hdr
        self.mode = mode
        self.frame_bytes = superframe_byte_size(hdr.width, hdr.height)
        self.timeout = handshake_timeout
        self.report = FlushReport()
        self._pending = bytearray()
        self._closed = False
        self._eof = False
        self._first_unit = True
        try:
            self.child = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise TranscoderError(f"cannot spawn transcoder {command!r}: {exc}") from exc
        self._drain = _StdoutDrain(self.child.stdout)
        self._drain.start()

    # --- feed side ---

    def send_frame(self, sf: Superframe) -> None:
        if sf.width != self.hdr.width or sf.height != 2 * self.hdr.height:
            raise AdapterError(
                f"superframe {sf.width}x{sf.height} does not match session "
                f"{self.hdr.width}x{2 * self.hdr.height}"
            )
        self._write(sf.tobytes())
        self.report.frames_in += 1

    def send_bytes(self, payload: bytes) -> None:
        self._write(payload)

    def _write(self, data: bytes) -> None:
        if self._closed:
            raise AdapterError("session is closed")
        try:
            self.child.stdin.write(data)
            self.child.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise TranscoderError(f"transcoder pipe broke: {self._diagnostics()}") from exc
        self.report.bytes_in += len(data)

    # --- drain side ---

    def recv_frame(self, timeout: float | None = None) -> Superframe | None:
        """Next raw superframe from the child, or None at clean EOF."""
        raw = self._read_exact(self.frame_bytes, timeout)
        if raw is None:
            return None
        self.report.frames_out += 1
        return Superframe.from_bytes(raw, self.hdr.width, 2 * self.hdr.height)

    def recv_unit(self, timeout: float | None = None) -> EncodedAccessUnit | None:
        """Next bitstream chunk as an access unit, or None at EOF.

        Chunk boundaries are the transcoder's flush boundaries; the
        transport layer length-delimits them, so alignment to frames is
        not required. Only the first unit is marked keyframe (conservative
        default when the transcoder exposes no signaling).
        """
        chunk = self._next_chunk(timeout)
        if chunk is None:
            return None
        flags = FLAG_KEYFRAME if self._first_unit else 0
        self._first_unit = False
        self.report.bytes_out += len(chunk)
        return EncodedAccessUnit(CodecId.EXTERNAL, flags, chunk)

    def _next_chunk(self, timeout):
        if self._pending:
            chunk = bytes(self._pending)
            self._pending.clear()
            return chunk
        if self._eof:
            return None
        try:
            chunk = self._drain.chunks.get(timeout=timeout if timeout else self.timeout)
        except queue.Empty:
            raise TranscoderError(f"transcoder output timed out: {self._diagnostics()}")
        if chunk is None:
            self._eof = True
        return chunk

    def _read_exact(self, n: int, timeout):
        while len(self._pending) < n:
            if self._eof:
                chunk = None
            else:
                try:
                    chunk = self._drain.chunks.get(
                        timeout=timeout if timeout else self.timeout
                    )
                except queue.Empty:
                    raise TranscoderError(
                        f"transcoder output timed out: {self._diagnostics()}"
                    )
            if chunk is None:
                self._eof = True
                if self._pending:
                    raise TranscoderError(
                        f"transcoder output ended mid-frame "
                        f"({len(self._pending)}/{n} bytes): {self._diagnostics()}"
                    )
                return None
            self._pending.extend(chunk)
        raw = bytes(self._pending[:n])
        del self._pending[:n]
        self.report.bytes_out += n
        return raw

    def _drain_nowait(self) -> None:
        while not self._eof:
            try:
                chunk = self._drain.chunks.get_nowait()
            except queue.Empty:
                return
            if chunk is None:
                self._eof = True
                return
            self._pending.extend(chunk)

    def poll_unit(self) -> EncodedAccessUnit | None:
        """recv_unit without blocking; None when nothing is buffered yet."""
        self._drain_nowait()
        if not self._pending:
            return None
        chunk = bytes(self._pending)
        self._pending.clear()
        flags = FLAG_KEYFRAME if self._first_unit else 0
        self._first_unit = False
        self.report.bytes_out += len(chunk)
        return EncodedAccessUnit(CodecId.EXTERNAL, flags, chunk)

    def poll_frame(self) -> Superframe | None:
        """recv_frame without blocking; None until a full frame is buffered."""
        self._drain_nowait()
        if len(self._pending) < self.frame_bytes:
            return None
        raw = bytes(self._pending[: self.frame_bytes])
        del self._pending[: self.frame_bytes]
        self.report.bytes_out += self.frame_bytes
        self.report.frames_out += 1
        return Superframe.from_bytes(raw, self.hdr.width, 2 * self.hdr.height)

    def close_input(self) -> None:
        """Close the child's stdin so it can flush; keep draining output."""
        try:
            self.child.stdin.close()
        except OSError:
            pass

    def _diagnostics(self) -> str:
        code = self.child.poll()
        return f"exit={code} stderr={self.report.stderr[-500:]!r}"

    # --- lifecycle ---

    def close(self) -> FlushReport:
        """Close input, drain remaining output, reap the child. Idempotent."""
        if self._closed:
            return self.report
        self._closed = True
        try:
            self.child.stdin.close()
        except OSError:
            pass
        # drain everything still in flight
        while not self._eof:
            try:
                chunk = self._drain.chunks.get(timeout=self.timeout)
            except queue.Empty:
                self.child.kill()
                break
            if chunk is None:
                self._eof = True
                break
            self._pending.extend(chunk)
        if self.mode != "decode":
            while len(self._pending) >= self.frame_bytes and self.mode == "transcode":
                del self._pending[: self.frame_bytes]
                self.report.frames_out += 1
                self.report.bytes_out += self.frame_bytes
        try:
            returncode = self.child.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.child.kill()
            returncode = self.child.wait()
        self.report.stderr = self.child.stderr.read() or b""
        self.child.stderr.close()
        self.child.stdout.close()
        if returncode != 0:
            raise TranscoderError(
                f"transcoder exited {returncode}: {self.report.stderr[-2000:]!r}"
            )
        return self.report


def external_open(hdr: StreamHeader, command: str, mode: str = "transcode") -> ExternalSession:
    """Spawn an external transcoder session; see ExternalSession."""
    return ExternalSession(hdr, command, mode=mode)


def external_close(session: ExternalSession) -> FlushReport:
    return session.close()
