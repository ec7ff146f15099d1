"""Shared start-up for the benchmark's child processes."""

import ctypes
import os
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_PR_SET_PDEATHSIG = 1


def start(parent: int) -> None:
    """Put src/ on sys.path and die with the benchmark process.

    If the benchmark is killed outright it cannot stop its children; the
    kernel then sends them SIGKILL (Linux prctl PR_SET_PDEATHSIG).
    """
    sys.path.insert(0, str(SRC))
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before prctl took effect
        sys.exit(1)
