"""Codec boundary: encode superframes to access units and back.

Two paths:

* REF_LOSSLESS -- a deterministic, bit-exact intra-only codec built in for
  reproducible tests and for streaming without an external encoder.
* EXTERNAL -- a child transcoder process (H.264-class, e.g. ffmpeg) reached
  over its standard streams through ExternalSession, carrying the bit-exact
  superframe interchange format on the raw side. Feed it with send_frame or
  send_bytes; read its output with frames() or units(), which return what
  has arrived so far, or everything up to EOF with ``wait=True``.

REF_LOSSLESS payload layout (big-endian):

    byte 0        tag: 0x52 run-length body, 0x53 stored body
    bytes 1..2    u16 width
    bytes 3..4    u16 half-height (content height; superframe is twice this)
    bytes 5..     0x52: run-length stream, (count u8 in 1..255, value u8) pairs
                  0x53: the superframe bytes verbatim, width*2*half-height*4

The run-length stream covers the per-row left-predictor residuals of the
superframe bytes: each channel byte is differenced modulo 256 against the
same channel of the pixel to its left (the leftmost pixel of each row is
kept verbatim), rows concatenated top to bottom in the interchange byte
order. The encoder stores a frame whose run-length stream would be longer
than the superframe (ties stay run-length), so no unit body exceeds the raw
frame. See docs/refcodec.md for worked examples.
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
from .superframe import HEADROOM, Superframe, headroom, superframe_byte_size

REF_MAGIC = 0x52  # run-length body
REF_STORED = 0x53  # the superframe bytes verbatim
REF_HEADER = struct.Struct(">BHH")

FLAG_KEYFRAME = 0x01

# largest EXTERNAL unit payload, well inside the wire's 64 MiB bound
MAX_UNIT_BYTES = 16 * 1024 * 1024

# how much of a transcoder's stderr a session keeps for its error messages
STDERR_TAIL_BYTES = 4096


class CodecId(enum.Enum):
    REF_LOSSLESS = 1
    EXTERNAL = 2


@dataclass(frozen=True)
class EncodedAccessUnit:
    """One encoded frame's worth of bitstream. The payload is bytes-like: a
    received unit's is a memoryview on its packet's payload, and so is a
    stored unit's on its packed superframe (see ref_encode)."""

    codec_id: CodecId
    flags: int
    payload: bytes | memoryview

    def __post_init__(self):
        if not self.payload:
            raise ValueError("access unit payload must be non-empty")
        if self.codec_id is CodecId.REF_LOSSLESS and not (self.flags & FLAG_KEYFRAME):
            raise ValueError("REF_LOSSLESS units are intra-only; keyframe flag required")

    @property
    def keyframe(self) -> bool:
        return bool(self.flags & FLAG_KEYFRAME)


def ref_work(width: int, half_height: int) -> np.ndarray:
    """Work memory for ref_encode of one frame size, to hold across frames:
    two superframe-sized planes, the row residuals and the change mask."""
    return np.empty(2 * superframe_byte_size(width, half_height), dtype=np.uint8)


def _rle_encode(stream: np.ndarray, change: np.ndarray, limit: int) -> np.ndarray | None:
    """Run-length pairs of stream, or None when they would be longer than
    limit bytes; change is stream[1:] != stream[:-1]."""
    # every change starts a pair, so changes + 1 pairs is a lower bound:
    # when even that does not fit, skip building the runs
    changes = np.count_nonzero(change)
    if 2 * (changes + 1) > limit:
        return None
    # int32 indices where they suffice halve the index arrays
    index = np.int32 if len(stream) < 2**31 else np.intp
    # each run ends where the stream changes, and the last at its end
    ends = np.empty(changes + 1, dtype=index)
    ends[:-1] = np.flatnonzero(change)
    ends[-1] = len(stream) - 1
    runs = np.empty_like(ends)
    runs[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=runs[1:])
    # split each run into full chunks of 255, its last chunk holding the
    # rest (1..255)
    reps = (runs + 254) // 255
    pairs = int(reps.sum())
    if 2 * pairs > limit:
        return None
    out = np.empty((pairs, 2), dtype=np.uint8)
    out[:, 0] = 255
    out[np.cumsum(reps, dtype=index) - 1, 0] = runs - 255 * (reps - 1)
    out[:, 1] = np.repeat(stream.take(ends), reps)
    return out.reshape(-1)


def ref_encode(sf: Superframe, work: np.ndarray | None = None) -> EncodedAccessUnit:
    """Encode a superframe with the deterministic lossless reference codec:
    run-length residuals, or the bytes verbatim when the runs would be
    longer than the superframe.

    work is ref_work memory for the superframe's size, which a caller
    encoding frame after frame holds so that no call allocates it afresh;
    without it the call allocates its own. Its contents on entry never
    change the unit, and nothing in the unit refers to it. Work of another
    size or dtype is a ValueError.

    A stored unit of a superframe from pack_superframe is a read-only view
    on the superframe's memory: its header is written into the superframe's
    headroom, so the superframe must stay unchanged while the unit is in
    use. A superframe laid out any other way is copied into a stored unit.
    """
    data = np.ascontiguousarray(sf.data)
    size = data.nbytes
    if work is None:
        work = ref_work(sf.width, sf.height // 2)
    if work.dtype != np.uint8 or work.shape != (2 * size,):
        raise ValueError(
            f"work for a {sf.width}x{sf.height} superframe must be ({2 * size},) "
            f"uint8, got {work.shape} {work.dtype}"
        )
    # left predictor per channel, modulo 256 (uint8 subtraction wraps); each
    # row's leftmost pixel is kept verbatim
    resid = work[:size]
    rows = resid.reshape(data.shape)
    rows[:, 0] = data[:, 0]
    np.subtract(data[:, 1:], data[:, :-1], out=rows[:, 1:])
    change = work[size + 1 :].view(np.bool_)
    np.not_equal(resid[1:], resid[:-1], out=change)
    body = _rle_encode(resid, change, size)
    if body is not None:
        payload = b"".join((REF_HEADER.pack(REF_MAGIC, sf.width, sf.height // 2), body))
    elif (room := headroom(sf)) is not None:
        # the header goes into the bytes in front of the data, so the unit
        # is a view on the superframe
        unit = room[HEADROOM - REF_HEADER.size :]
        REF_HEADER.pack_into(unit, 0, REF_STORED, sf.width, sf.height // 2)
        payload = memoryview(unit).toreadonly()
    else:
        payload = b"".join((REF_HEADER.pack(REF_STORED, sf.width, sf.height // 2), data))
    return EncodedAccessUnit(codec_id=CodecId.REF_LOSSLESS, flags=FLAG_KEYFRAME, payload=payload)


def ref_decode(au: EncodedAccessUnit, hdr: StreamHeader) -> Superframe:
    """Exact inverse of ref_encode, for a unit of the stream hdr declares.

    The unit's frame size is checked against hdr, and its body against that
    size, before anything is allocated, so no payload can make the decoder
    allocate more than the stream's own superframe. A stored unit decodes
    to a view on its payload, so the payload must stay unchanged while the
    superframe is in use.
    """
    if au.codec_id is not CodecId.REF_LOSSLESS:
        raise AdapterError(f"expected REF_LOSSLESS unit, got {au.codec_id.name}")
    payload = au.payload
    if len(payload) < REF_HEADER.size:
        raise BitstreamError(f"payload too short for header: {len(payload)} bytes")
    tag, width, half_height = REF_HEADER.unpack_from(payload)
    if tag not in (REF_MAGIC, REF_STORED):
        raise BitstreamError(f"bad reference-codec tag 0x{tag:02x}")
    if (width, half_height) != (hdr.width, hdr.height):
        raise BitstreamError(
            f"unit declares {width}x{2 * half_height}, stream is "
            f"{hdr.width}x{2 * hdr.height}"
        )
    expected = superframe_byte_size(width, half_height)
    body = np.frombuffer(payload, dtype=np.uint8, offset=REF_HEADER.size)
    if tag == REF_STORED:
        if len(body) != expected:
            raise BitstreamError(
                f"declared {width}x{2 * half_height} needs {expected} bytes, "
                f"stored body has {len(body)}"
            )
        return Superframe(body.reshape(2 * half_height, width, 4))
    # check the run-length stream in place, as bytes, and its decoded
    # length before expanding it
    if len(body) % 2:
        raise BitstreamError("run-length stream has a dangling byte")
    pairs = body.reshape(-1, 2)
    counts = pairs[:, 0]
    if not counts.all():
        raise BitstreamError("zero-length run in run-length stream")
    decoded = int(counts.sum(dtype=np.int64))
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
    bytes_out: int = 0
    stderr: bytes = b""  # the child's last STDERR_TAIL_BYTES of stderr


def _drain(pipe, keep) -> threading.Thread:
    """Start a daemon thread that reads pipe until EOF, so the child can
    never block on it full, handing each chunk to keep and then b"" at EOF."""

    def run():
        with pipe:
            # read1 returns whatever the pipe has; plain read would block
            # for the full 64 KiB and sit on short transcoder flushes
            while chunk := pipe.read1(65536):
                keep(chunk)
        keep(b"")

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class ExternalSession:
    """A child transcoder reached over its standard streams.

    Input goes in as raw superframes (send_frame, the interchange format)
    or as bitstream bytes (send_bytes); output comes back as raw
    superframes (frames) or as opaque access units (units). The command
    decides which side is which: an encoder takes frames and gives units,
    a decoder takes units' bytes and gives frames, and ``cat`` passes
    frames through unchanged.

    One background thread drains each of the child's stdout and stderr, so
    a full pipe can never deadlock the feed side or the child. frames and
    units return what has arrived so far without blocking, or with
    ``wait=True`` everything up to EOF (call close_input first); every wait
    for output is bounded by ``timeout``.
    """

    def __init__(self, hdr: StreamHeader, command: str, timeout: float = 5.0):
        self.hdr = hdr
        self.frame_bytes = superframe_byte_size(hdr.width, hdr.height)
        self.timeout = timeout
        self.report = FlushReport()
        self._pending = bytearray()
        self._chunks: queue.Queue = queue.Queue()  # stdout, then b"" at EOF
        self._closed = False
        self._eof = False
        try:
            argv = shlex.split(command)
        except ValueError as exc:
            raise TranscoderError(f"cannot parse transcoder {command!r}: {exc}") from exc
        if not argv:
            raise TranscoderError("empty transcoder command")
        try:
            self.child = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise TranscoderError(f"cannot spawn transcoder {command!r}: {exc}") from exc
        self._drains = (
            _drain(self.child.stdout, self._chunks.put),
            _drain(self.child.stderr, self._keep_stderr),
        )

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

    def close_input(self) -> None:
        """Close the child's stdin so it can flush; output stays readable."""
        try:
            self.child.stdin.close()
        except OSError:
            pass

    # --- drain side ---

    def _fill(self, wait: bool) -> None:
        """Move the drain thread's chunks into _pending: those already
        queued, or with wait every chunk up to EOF."""
        while not self._eof:
            try:
                chunk = self._chunks.get(block=wait, timeout=self.timeout)
            except queue.Empty:
                if wait:
                    raise TranscoderError(
                        f"transcoder output timed out: {self._diagnostics()}"
                    ) from None
                return
            self._eof = not chunk
            self._pending.extend(chunk)

    def frames(self, wait: bool = False) -> list[Superframe]:
        """Every complete raw superframe the child has output so far (with
        wait, up to EOF). Output that ends mid-frame is a TranscoderError."""
        self._fill(wait)
        size = self.frame_bytes
        count, partial = divmod(len(self._pending), size)
        if self._eof and partial:
            raise TranscoderError(
                f"transcoder output ended mid-frame ({partial}/{size} bytes): "
                f"{self._diagnostics()}"
            )
        with memoryview(self._pending) as view:
            out = [
                Superframe.from_bytes(
                    view[i * size : (i + 1) * size], self.hdr.width, 2 * self.hdr.height
                )
                for i in range(count)
            ]
        del self._pending[: count * size]
        self.report.frames_out += count
        self.report.bytes_out += count * size
        return out

    def units(self, wait: bool = False) -> list[EncodedAccessUnit]:
        """The child's output so far (with wait, up to EOF) as access units.

        Unit boundaries are wherever the output was read; the transport
        length-delimits units, so they need not align with frames. Only the
        first unit of the session is marked keyframe (a conservative default
        when the transcoder exposes no signaling).
        """
        self._fill(wait)
        out = []
        with memoryview(self._pending) as view:
            for start in range(0, len(view), MAX_UNIT_BYTES):
                chunk = bytes(view[start : start + MAX_UNIT_BYTES])
                flags = FLAG_KEYFRAME if self.report.bytes_out == 0 else 0
                self.report.bytes_out += len(chunk)
                out.append(EncodedAccessUnit(CodecId.EXTERNAL, flags, chunk))
        self._pending.clear()
        return out

    def _keep_stderr(self, chunk: bytes) -> None:
        self.report.stderr = (self.report.stderr + chunk)[-STDERR_TAIL_BYTES:]

    def _diagnostics(self) -> str:
        code = self.child.poll()
        return f"exit={code} stderr={self.report.stderr[-500:]!r}"

    # --- lifecycle ---

    def __enter__(self) -> "ExternalSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Reap the child; its failure is raised only if the block raised nothing."""
        try:
            self.close()
        except TranscoderError:
            if exc_type is None:
                raise

    def close(self) -> FlushReport:
        """Close input, discard unread output and reap the child; raises
        TranscoderError if the child exits nonzero. Idempotent."""
        if self._closed:
            return self.report
        self._closed = True
        self.close_input()
        try:
            returncode = self.child.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.child.kill()
            returncode = self.child.wait()
        for drain in self._drains:
            drain.join(self.timeout)
        if returncode != 0:
            raise TranscoderError(
                f"transcoder exited {returncode}: {self.report.stderr[-2000:]!r}"
            )
        return self.report
