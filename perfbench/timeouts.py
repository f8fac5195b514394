"""Per-op time limits by SIGALRM, so a hung op ends as a failed op.

respfd is pure Python, so the signal handler runs between bytecodes of
whatever loop is hung and unwinds it with `OpTimeout`.  OpTimeout derives
from BaseException so that no `except Exception` inside the program can
swallow it.
"""

from __future__ import annotations

import signal


class OpTimeout(BaseException):
    pass


class Deadline:
    """`with Deadline(seconds):` raises OpTimeout in the body after `seconds`."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False
