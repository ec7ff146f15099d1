"""End-to-end streaming benchmark for threecpt.

    python3 streambench/run.py --workload sphere-30fps --seed 1 --seconds 15 --trace 0

Each session streams one seeded 640x480 clip through the shipped path:
`rgbz-send` (child process) -> `rgbz-relay` (child process, fresh per
session, ephemeral ports) -> `cli.run_receiver` in this process. Sessions
repeat until --seconds have passed (at least MIN_SESSIONS). Frames are
observed from outside, by wrapping `transport.recv_stream` (its units()
iterator) and `replay.sink_consume`; src/ is never edited. Every displayed
frame's checksum is compared with the clip's expected value.

Between sessions, with no child alive, a fixed probe (hostspeed.py) times
the host; --trace 0 prints the end-to-end metrics at the probe's reference
speed, with the measured values beside them. --trace 1 alternates untraced and
traced sessions and prints the per-layer metrics from the traced ones, plus
the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Details and spans go to
.streambench/ in the checkout. See streambench/README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import Probe
from workloads import FPS, WORKLOADS, make_clip

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".streambench"

MIN_SESSIONS = 3
MIN_TRACED_PAIRS = 2
RELAY_START_TIMEOUT_S = 10.0
SESSION_TIMEOUT_S = 60.0  # a session normally takes a few seconds
RECEIVER_GRACE_S = 15.0  # after the children are killed, the receiver must return
EXIT_TIMEOUT_S = 10.0
LATE_MS = 100.0  # three frame intervals at 30 fps: one per pipeline stage
CHANNEL = 1


@dataclass
class Session:
    traced: bool
    sent: int
    problems: list = field(default_factory=list)
    launch_ns: int = 0  # wall clock when the sender was started
    units: list = field(default_factory=list)  # (seq, packet timestamp_us, arrival wall ns)
    displayed: list = field(default_factory=list)  # (wall ns at sink return, checksum or None)
    cpu_s: dict = field(default_factory=dict)  # process -> user + system CPU seconds
    relay_hwm_kb: int = 0
    probe_s: list = field(default_factory=list)  # host speed probe just before the session
    sender_report: dict = field(default_factory=dict)
    latency_us: list = field(default_factory=list)  # the receiver's own LatencyReport samples
    recv_spans: list = field(default_factory=list)
    send_spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "threecpt" / "__init__.py").is_file():
        print(f"threecpt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import threecpt

    if Path(threecpt.__file__).resolve().parent != SRC / "threecpt":
        print(f"imported threecpt from {threecpt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so every child is still stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    host = host_facts(args.seed)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    sessions: list[Session] = []
    clip = OUT / f"clip-{workload.name}.rgbz"  # kept between runs; see write_in_place
    try:
        with open(clip, "ab") as held:
            fcntl.flock(held, fcntl.LOCK_EX)  # a second run of the workload in this checkout waits
            expected = make_clip(workload, args.seed, clip)
            probe = Probe()
            start = time.monotonic()
            while True:
                n_traced = sum(s.traced for s in sessions)
                enough = (
                    len(sessions) - n_traced >= MIN_TRACED_PAIRS and n_traced >= MIN_TRACED_PAIRS
                    if args.trace
                    else len(sessions) >= MIN_SESSIONS
                )
                if enough and time.monotonic() - start >= args.seconds:
                    break
                traced = bool(args.trace) and len(sessions) % 2 == 1
                probe_s = probe.run()
                session = run_session(workload, clip, len(expected), traced, work)
                session.probe_s = probe_s
                sessions.append(session)
                if not session.ok:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = [judge(s, expected, workload) for s in sessions]
    attempted = sum(s.sent for s in sessions)
    failed = sum(v["failed"] for v in verdicts)
    plain = [(s, v) for s, v in zip(sessions, verdicts) if not s.traced]
    e2e = end_to_end(plain, workload)
    slowdown = probe.slowdown()
    at_ref = at_reference_speed(e2e, slowdown, workload.paced)
    if args.trace:
        from layers import per_layer

        traced = [(s, v) for s, v in zip(sessions, verdicts) if s.traced]
        metrics = per_layer(traced, e2e)
    else:
        # the bounded end-to-end metrics are the ones BENCHMARK.json names
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounded = {**e2e, **at_ref}
        metrics = {m["name"]: bounded[m["name"]] for m in spec["end_to_end"]}

    problems = [p for s in sessions for p in s.problems]
    correct = failed == 0 and not problems
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {
        "host": host,
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "problems": problems,
        "host_slowdown": slowdown,
        "probe_s": probe.times_s,
        "end_to_end": e2e,
        "at_reference_speed": at_ref,
        "metrics": metrics,
        "sessions": [
            {
                "traced": s.traced,
                "sent": s.sent,
                "cpu_s": s.cpu_s,
                "relay_hwm_kb": s.relay_hwm_kb,
                "probe_s": s.probe_s,
                "sender_report": s.sender_report,
                **v,
            }
            for s, v in zip(sessions, verdicts)
        ],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        spans = [
            {"session": i, "receiver": s.recv_spans, "sender": s.send_spans}
            for i, s in enumerate(sessions)
            if s.traced
        ]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    print(" ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload {workload.name}: {workload.why}")
    for p in problems:
        print(f"problem: {p}")
    print(f"host slowdown {slowdown:.4g} (lower quartile of {len(probe.times_s)} probe timings)")
    for name, (value, unit) in e2e.items():
        if name in at_ref:
            print(f"{name} {at_ref[name][0]:.6g} {unit} at reference speed, {value:.6g} measured")
        else:
            print(f"{name} {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


def host_facts(seed: int) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ffmpeg": shutil.which("ffmpeg") is not None,
        "seed": seed,
    }


# --- one session ---


def run_session(workload, clip: Path, n_frames: int, traced: bool, work: Path) -> Session:
    from threecpt import cli

    session = Session(traced=traced, sent=n_frames)
    relay_proc = sender_proc = None
    relay_err = open(work / "relay.err", "w+b")
    sender_out = open(work / "sender.out", "w+b")
    sender_err = open(work / "sender.err", "w+b")
    spans_path = work / "sender-spans.json"
    timed_out = threading.Event()
    receiver_done = threading.Event()
    watchdog_lock = threading.Lock()
    killer = None
    try:
        relay_proc = subprocess.Popen(
            [sys.executable, "-u", str(HERE / "relay_child.py"), str(os.getpid())],
            stdout=subprocess.PIPE,
            stderr=relay_err,
            cwd=ROOT,
        )
        signal_addr = read_relay_addr(relay_proc)
        if signal_addr is None:
            session.problems.append("relay did not report its ports")
            return session

        send_args = [
            "--input", str(clip),
            "--signal", f"{signal_addr[0]}:{signal_addr[1]}",
            "--channel", str(CHANNEL),
        ]
        if not workload.paced:
            send_args.append("--as-fast-as-possible")
        if workload.suppress is not None:
            send_args += ["--suppress-background", str(workload.suppress)]
        sender_cmd = [sys.executable, str(HERE / "sender_child.py"), str(os.getpid())]
        if traced:
            sender_cmd += ["--spans-out", str(spans_path)]

        def on_timeout():
            # under the lock, so no child is killed once the receiver is
            # done and the main thread may be reaping them
            with watchdog_lock:
                if receiver_done.is_set():
                    return
                timed_out.set()
                os.kill(sender_proc.pid, signal.SIGKILL)
                os.kill(relay_proc.pid, signal.SIGKILL)
            # children are gone, so the receiver's socket is closed; if it
            # still has not returned it hangs on its own and the run is over
            if not receiver_done.wait(RECEIVER_GRACE_S):
                print("receiver hung after its peers were killed", file=sys.stderr)
                os._exit(3)

        killer = threading.Timer(SESSION_TIMEOUT_S, on_timeout)
        killer.daemon = True
        cfg = cli.ReceiverConfig(
            signal_addr=signal_addr, channel_id=CHANNEL, resample=workload.resample
        )
        with Observed(session):
            session.launch_ns = time.time_ns()
            sender_proc = subprocess.Popen(
                sender_cmd + ["--"] + send_args,
                stdout=sender_out,
                stderr=sender_err,
                cwd=ROOT,
            )
            killer.start()
            cpu0 = time.process_time()
            try:
                _, latency = cli.run_receiver(cfg)
                session.latency_us = list(latency.samples_us)
            except Exception as exc:  # any receiver failure fails the session's frames
                session.problems.append(f"receiver raised {type(exc).__name__}: {exc}")
            finally:
                with watchdog_lock:
                    receiver_done.set()
            session.cpu_s["receiver"] = time.process_time() - cpu0

        code, session.cpu_s["sender"] = reap(sender_proc, EXIT_TIMEOUT_S)
        if code != 0:
            session.problems.append(f"sender exit {code}: {tail(sender_err)}")
        session.relay_hwm_kb = peak_rss_kb(relay_proc.pid)
        os.kill(relay_proc.pid, signal.SIGINT)
        code, session.cpu_s["relay"] = reap(relay_proc, EXIT_TIMEOUT_S)
        if code != 0:
            session.problems.append(f"relay exit {code}: {tail(relay_err, 3000)}")
        if timed_out.is_set():
            session.problems.append(f"session exceeded {SESSION_TIMEOUT_S:.0f} s")
        if leftover_children():
            session.problems.append("a child process outlived the session")
        sender_out.seek(0)
        lines = sender_out.read().decode(errors="replace").strip().splitlines()
        if lines:
            try:
                session.sender_report = json.loads(lines[-1])
            except json.JSONDecodeError:
                session.problems.append("sender printed no report")
        if traced and spans_path.exists():
            session.send_spans = json.loads(spans_path.read_text())
        return session
    finally:
        if killer is not None:
            killer.cancel()
        for proc in (sender_proc, relay_proc):
            if proc is not None and proc.returncode is None:
                os.kill(proc.pid, signal.SIGKILL)
                reap(proc, EXIT_TIMEOUT_S)
                session.problems.append(f"killed leftover {proc.args[-1]}")
        if relay_proc is not None:
            relay_proc.stdout.close()
        for f in (relay_err, sender_out, sender_err):
            f.close()


class Observed:
    """Wrap the receiver's public calls for one session.

    Always: units() records each unit's seq, packet timestamp and arrival,
    and sink_consume records its return time and checksum. The k-th
    sink_consume call belongs to the k-th unit. Traced sessions add spans
    around every receiver-side call.
    """

    def __init__(self, session: Session):
        self.session = session

    def __enter__(self):
        from threecpt import cli, codec, replay, transport
        from threecpt.errors import ValidationError
        from spans import Patches, Recorder

        s = self.session
        rec = Recorder() if s.traced else None
        self.rec, self.patches = rec, Patches()
        if rec is not None:
            for owner, attr, name in (
                (transport, "recv_stream", "transport.recv_stream"),
                (codec, "ref_decode", "codec.decode"),
                (cli, "unpack_superframe", "superframe.unpack"),
                (replay, "prepare_for_replay", "replay.prepare"),
                (replay, "sink_consume", "replay.sink"),
            ):
                self.patches.wrap(rec, owner, attr, name)
            self.patches.wrap(
                rec, transport.PacketDecoder, "feed", "transport.feed",
                seq_of=lambda args: -1, count_of=lambda args, _: len(args[1]),
            )

        recv_stream, sink_consume = transport.recv_stream, replay.sink_consume

        def observed_recv_stream(conn):
            receiver = recv_stream(conn)
            units = receiver.units

            def observed_units():
                it = units()
                while True:
                    idx = rec.enter("transport.units") if rec else None
                    try:
                        ph, au = next(it)
                    except StopIteration:
                        if rec:
                            rec.spans[idx][0] = "transport.end"
                        return
                    finally:
                        if rec:
                            rec.exit(idx)
                    s.units.append((ph.seq, ph.timestamp_us, time.time_ns()))
                    yield ph, au

            receiver.units = observed_units
            return receiver

        def observed_sink_consume(buf, *args, **kwargs):
            try:
                stats = sink_consume(buf, *args, **kwargs)
            except ValidationError:
                s.displayed.append((time.time_ns(), None))
                raise
            s.displayed.append((time.time_ns(), stats.checksum_adler32))
            return stats

        self.patches.set(transport, "recv_stream", observed_recv_stream)
        self.patches.set(replay, "sink_consume", observed_sink_consume)
        return self

    def __exit__(self, *exc):
        self.patches.restore()
        if self.rec is not None:
            self.session.recv_spans = self.rec.spans


def read_relay_addr(proc) -> tuple[str, int] | None:
    ready, _, _ = select.select([proc.stdout], [], [], RELAY_START_TIMEOUT_S)
    if not ready:
        return None
    line = proc.stdout.readline().decode(errors="replace")
    m = re.search(r"signaling on ([\d.]+):(\d+)", line)
    return (m.group(1), int(m.group(2))) if m else None


def reap(proc, timeout: float) -> tuple[int | None, float]:
    """Wait for a child with a timeout (then kill it); return its exit code
    (None if it had to be killed) and its own user + system CPU seconds.

    Children are signalled with os.kill, never Popen.kill or send_signal:
    those poll first and would reap the child, losing its rusage."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not killed:
            os.kill(proc.pid, signal.SIGKILL)
            killed = True
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed else proc.returncode), usage.ru_utime + usage.ru_stime


def peak_rss_kb(pid: int) -> int:
    """VmHWM of the live child. It belongs to the address space the child
    built after exec, so memory the parent held at fork is not counted
    (ru_maxrss from wait4 would count it)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    m = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
    return int(m.group(1)) if m else 0


def leftover_children() -> bool:
    try:
        return os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        return False


def tail(f, n: int = 400) -> str:
    f.seek(0)
    return f.read()[-n:].decode(errors="replace").strip()


# --- verdicts and end-to-end metrics ---


def judge(s: Session, expected: list[int], workload) -> dict:
    """Per-session frame accounting: failed frames, latencies, timings."""
    seqs = [u[0] for u in s.units]
    good = {}
    for k, (t_ns, checksum) in enumerate(s.displayed):
        seq = seqs[k] if k < len(seqs) else None
        if seq is not None and 0 <= seq < len(expected) and checksum == expected[seq]:
            good.setdefault(seq, t_ns)
    failed = s.sent if not s.ok else s.sent - len(good)
    units = {u[0]: u for u in s.units}
    latency_ms, age_ms = [], []
    for seq, t_ns in sorted(good.items()):
        _, ts_us, arrival_ns = units[seq]
        age_ms.append((t_ns / 1e3 - ts_us) / 1e3)
        if workload.paced:
            # due time: the schedule the sender keeps, so its stalls count
            latency_ms.append((t_ns / 1e3 - s.units[0][1] - seq * 1e6 / FPS) / 1e3)
        else:
            # no schedule: from arrival, i.e. the receiver's full queues over
            # fps (Little's law), so here it restates fps
            latency_ms.append((t_ns - arrival_ns) / 1e6)
    late = s.sent - sum(ms <= LATE_MS for ms in latency_ms)
    shown = [t for t, _ in s.displayed]
    ranked = sorted(latency_ms)
    verdict = {
        "failed": failed,
        "displayed": len(good),
        "late": late,
        "latency_ms": latency_ms,
        "latency_p50_ms": statistics.median(ranked) if ranked else None,
        # nearest rank; a 200-frame session leaves 10 samples above it
        "latency_p95_ms": ranked[math.ceil(0.95 * len(ranked)) - 1] if ranked else None,
        "frame_age_ms": age_ms,
        "setup_s": (shown[0] - s.launch_ns) / 1e9 if shown else None,
        "fps": (len(shown) - 1) / ((shown[-1] - shown[0]) / 1e9) if len(shown) > 1 else None,
        "cpu_ms_per_frame": 1e3 * sum(s.cpu_s.values()) / len(good) if good else None,
        "relay_rss_peak_mb": s.relay_hwm_kb / 1024,
    }
    return verdict


def end_to_end(plain: list, workload) -> dict:
    """name -> (value, unit): medians over sessions, so a few sessions
    caught in a slow spell of a shared host do not set the figure."""

    def med(key):
        vals = [v[key] for _, v in plain if v[key] is not None]
        return statistics.median(vals) if vals else float("nan")

    age = [ms for _, v in plain for ms in v["frame_age_ms"]]
    sent = sum(s.sent for s, _ in plain)
    return {
        "setup_s": (med("setup_s"), "s"),
        "fps": (med("fps"), "1/s"),
        "latency_p50_ms": (med("latency_p50_ms"), "ms"),
        "latency_p95_ms": (med("latency_p95_ms"), "ms"),
        "latency_samples": (sum(len(v["latency_ms"]) for _, v in plain), "count"),
        "frame_age_p50_ms": (statistics.median(age) if age else float("nan"), "ms"),
        "late_frac": (
            sum(v["late"] for _, v in plain) / sent if sent and workload.paced else float("nan"),
            "frac",
        ),
        "failed_frac": (sum(v["failed"] for _, v in plain) / sent if sent else float("nan"), "frac"),
        "cpu_ms_per_frame": (med("cpu_ms_per_frame"), "ms"),
        "relay_rss_peak_mb": (med("relay_rss_peak_mb"), "MB"),
        "sessions": (len(plain), "count"),
    }


def at_reference_speed(e2e: dict, slowdown: float, paced: bool) -> dict:
    """The speed-bound end-to-end figures a host at the probe's reference
    speed would give: times divided by the slowdown, an unpaced fps
    multiplied by it. A paced fps is the schedule's and memory is not a
    speed, so those are left out and stay as measured."""
    out = {}
    for name in ("setup_s", "latency_p50_ms", "latency_p95_ms", "cpu_ms_per_frame"):
        value, unit = e2e[name]
        out[name] = (value / slowdown, unit)
    if not paced:
        value, unit = e2e["fps"]
        out["fps"] = (value * slowdown, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
