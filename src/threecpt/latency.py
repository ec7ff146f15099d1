"""One-way latency accounting from embedded frame timestamps.

Each sample is the receiver's wall-clock completion time minus the sender's
embedded timestamp, in microseconds. Samples are only meaningful when both
sides share a clock (same host) or the caller corrects for a known offset;
cross-host reports carry that caveat. Summary statistics: min, median
(mean of the two middles for even counts, floored to the microsecond),
p95 by nearest rank (sorted[ceil(0.95 * n) - 1]), and max. Schema in docs/latency.md.
"""

from __future__ import annotations

import json
import math

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ThreecptError

CLOCK_NOTE = "same-host timestamps; no clock offset applied"


class EmptyReportError(ThreecptError):
    """No latency samples were collected."""


@dataclass
class LatencyReport:
    samples_us: list = field(default_factory=list)

    def add(self, recv_wall_us: int, sender_timestamp_us: int) -> None:
        self.samples_us.append(recv_wall_us - sender_timestamp_us)

    @property
    def count(self) -> int:
        return len(self.samples_us)

    @property
    def min_us(self) -> int:
        return self.summary()["min_us"]

    @property
    def median_us(self) -> int:
        return self.summary()["median_us"]

    @property
    def p95_us(self) -> int:
        return self.summary()["p95_us"]

    @property
    def max_us(self) -> int:
        return self.summary()["max_us"]

    def summary(self) -> dict:
        """count, min_us, median_us, p95_us and max_us, from one sort."""
        ordered = sorted(self.samples_us)
        n = len(ordered)
        if not n:
            raise EmptyReportError("latency report has zero samples")
        mid = n // 2
        return {
            "count": n,
            "min_us": ordered[0],
            "median_us": ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) // 2,
            "p95_us": ordered[math.ceil(0.95 * n) - 1],
            "max_us": ordered[-1],
        }

    def write_json(self, path: str | Path) -> None:
        obj = {"samples_us": self.samples_us, "clock_note": CLOCK_NOTE, **self.summary()}
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")
