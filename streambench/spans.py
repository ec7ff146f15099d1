"""In-memory spans recorded around threecpt's public calls.

A span is [name, seq, start_ns, end_ns, parent, count]: `seq` is the frame
the call belongs to (the k-th call of a per-frame function is frame k,
because the pipeline keeps frame order end to end), `parent` is the index
of the innermost traced call still open on the same thread, or None, and
`count` is a byte count taken at the boundary, or None. Times are
CLOCK_MONOTONIC nanoseconds, which every process on the host shares.
Spans stay in memory and are written out once, when the session ends.
"""

from __future__ import annotations

import json
import threading
import time

now_ns = time.monotonic_ns


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, seq: int | None = None) -> int:
        """Open a span; seq defaults to this name's call count."""
        stack = self._stack()
        with self._lock:
            if seq is None:
                seq = self._calls.get(name, 0)
                self._calls[name] = seq + 1
            idx = len(self.spans)
            self.spans.append([name, seq, now_ns(), None, stack[-1] if stack else None, None])
        stack.append(idx)
        return idx

    def exit(self, idx: int, count: int | None = None) -> None:
        span = self.spans[idx]
        span[3] = now_ns()
        span[5] = count
        self._stack().pop()

    def wrap(self, name: str, fn, seq_of=None, count_of=None):
        """Return fn traced as `name`; seq_of(args) may name the frame and
        count_of(args, result) the bytes the call moved."""

        def traced(*args, **kwargs):
            idx = self.enter(name, seq_of(args) if seq_of else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(idx, count_of(args, result) if count_of else None)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


class Patches:
    """Replace module attributes for one session and put them back after."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, rec: Recorder, owner, attr: str, name: str, **how) -> None:
        self.set(owner, attr, rec.wrap(name, getattr(owner, attr), **how))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class TracedSocket:
    """Socket stand-in whose sendall is a span; everything else passes through."""

    def __init__(self, sock, rec: Recorder, name: str, seq_of):
        self._sock = sock
        self.sendall = rec.wrap(name, sock.sendall, seq_of, lambda args, _: len(args[0]))

    def __getattr__(self, attr):
        return getattr(self._sock, attr)
