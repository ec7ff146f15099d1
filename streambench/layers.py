"""Per-layer metrics from the spans of traced sessions.

Durations are per frame (the span's seq) and reported as the median over
every frame of every traced session, in ms, unless the name says otherwise.
Self time is a span's duration minus the part its child spans cover; only
transport.units (socket wait plus packet dispatch) has children on the
receiver, the PacketDecoder.feed calls made while it waited.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# the stage threads of cli.run_sender / cli.run_receiver and the calls each makes per frame
STAGES = {
    "encode": ("send", ("frames.suppress", "superframe.pack", "codec.encode")),
    "decode": ("recv", ("codec.decode", "superframe.unpack")),
    "replay": ("recv", ("replay.prepare", "replay.sink")),
}
# the work a single thread would do per frame with nothing overlapped
SERIAL = (
    ("send", "frames.suppress"),
    ("send", "superframe.pack"),
    ("send", "codec.encode"),
    ("recv", "transport.feed"),
    ("recv", "codec.decode"),
    ("recv", "superframe.unpack"),
    ("recv", "replay.prepare"),
    ("recv", "replay.sink"),
)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _Frames:
    """Span durations of one process's session, per name and frame seq."""

    def __init__(self, spans: list):
        self.ms = defaultdict(lambda: defaultdict(float))  # name -> seq -> ms
        self.bounds = defaultdict(dict)  # name -> seq -> (start_ns, end_ns)
        self.counts = defaultdict(int)  # name -> summed byte counts
        for name, seq, t0, t1, parent, count in spans:
            if parent is not None and spans[parent][0] == "transport.units":
                seq = spans[parent][1]  # a feed belongs to the unit it completes toward
            if t1 is None:
                continue
            self.ms[name][seq] += (t1 - t0) / 1e6
            self.bounds[name][seq] = (t0, t1)
            if count is not None:
                self.counts[name] += count

    def per_frame(self, name: str) -> list[float]:
        return [ms for seq, ms in self.ms[name].items() if seq >= 0]

    def total(self, name: str) -> float:
        return sum(self.ms[name].values())


def _stage(frames: _Frames, names) -> tuple[list, float, float]:
    """Queue waits (ms) between consecutive frames, busy and lifetime (ms)."""
    per_seq = defaultdict(list)
    for name in names:
        for seq, bounds in frames.bounds[name].items():
            per_seq[seq].append(bounds)
    if not per_seq:
        return [], 0.0, 0.0
    order = sorted(per_seq)
    spans = [(min(b[0] for b in per_seq[s]), max(b[1] for b in per_seq[s])) for s in order]
    waits = [(nxt[0] - cur[1]) / 1e6 for cur, nxt in zip(spans, spans[1:])]
    busy = sum(frames.total(n) for n in names)
    life = (spans[-1][1] - spans[0][0]) / 1e6
    return waits, busy, life


def per_layer(traced: list, e2e: dict) -> dict:
    """traced: [(Session, verdict)] of traced sessions; e2e: untraced metrics."""
    sides = [
        {"send": _Frames(s.send_spans), "recv": _Frames(s.recv_spans), "s": s, "v": v}
        for s, v in traced
    ]

    def frames_median(side, name):
        return _median(ms for x in sides for ms in x[side].per_frame(name))

    def sessions_median(fn):
        return _median(fn(x) for x in sides)

    m = {}
    m["container.read_ms"] = (sessions_median(lambda x: x["send"].total("container.read")), "ms")
    m["relay.attach_ms"] = (
        sessions_median(lambda x: x["send"].total("relay.register") + x["send"].total("relay.attach")),
        "ms",
    )
    for key, side, name in (
        ("frames.suppress_ms", "send", "frames.suppress"),
        ("superframe.pack_ms", "send", "superframe.pack"),
        ("codec.encode_ms", "send", "codec.encode"),
        ("codec.decode_ms", "recv", "codec.decode"),
        ("superframe.unpack_ms", "recv", "superframe.unpack"),
        ("transport.feed_ms", "recv", "transport.feed"),
        ("transport.send_block_ms", "send", "transport.sendall"),
        ("replay.prepare_ms", "recv", "replay.prepare"),
        ("replay.sink_ms", "recv", "replay.sink"),
    ):
        m[key] = (frames_median(side, name), "ms")

    frames_sent = sum(x["s"].sender_report.get("frames_sent", 0) for x in sides)
    raw = sum(
        x["s"].sender_report.get("frames_sent", 0)
        * x["s"].sender_report.get("superframe_bytes_per_frame", 0)
        for x in sides
    )
    encoded = sum(x["send"].counts["codec.encode"] for x in sides)
    wire = sum(x["s"].sender_report.get("bytes_sent", 0) for x in sides)
    m["codec.ratio"] = (encoded / raw if raw else 0.0, "ratio")
    m["transport.wire_kb_per_frame"] = (wire / frames_sent / 1e3 if frames_sent else 0.0, "kB")

    def spliced_mb(x):
        return x["s"].sender_report.get("bytes_sent", 0) / 1e6

    m["relay.spliced_mb"] = (sessions_median(spliced_mb), "MB")
    m["relay.cpu_ms_per_mb"] = (
        sessions_median(lambda x: 1e3 * x["s"].cpu_s.get("relay", 0.0) / max(spliced_mb(x), 1e-9)),
        "ms/MB",
    )
    m["relay.transit_ms"] = (
        _median((arrival / 1e3 - ts) / 1e3 for x in sides for _, ts, arrival in x["s"].units),
        "ms",
    )

    for stage, (side, names) in STAGES.items():
        waits, busy, life = [], 0.0, 0.0
        for x in sides:
            w, b, lt = _stage(x[side], names)
            waits += w
            busy += b
            life += lt
        m[f"cli.{stage}_queue_wait_ms"] = (_median(waits), "ms")
        m[f"cli.{stage}_busy_frac"] = (busy / life if life else 0.0, "frac")

    serial = []
    for x in sides:
        seqs = set(x["recv"].ms["replay.sink"]) & set(x["send"].ms["codec.encode"])
        for seq in seqs:
            serial.append(sum(x[side].ms[name].get(seq, 0.0) for side, name in SERIAL))
    m["cli.serial_ms_per_frame"] = (_median(serial), "ms")

    reported = [us for x in sides for us in x["s"].latency_us]
    m["latency.reported_p50_ms"] = (_median(reported) / 1e3, "ms")

    traced_fps = _median(x["v"]["fps"] for x in sides if x["v"]["fps"] is not None)
    traced_lat = _median(
        x["v"]["latency_p50_ms"] for x in sides if x["v"]["latency_p50_ms"] is not None
    )
    m["trace.fps_delta"] = (traced_fps - e2e["fps"][0], "1/s")
    m["trace.latency_p50_delta_ms"] = (traced_lat - e2e["latency_p50_ms"][0], "ms")
    return m
