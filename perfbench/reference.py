"""Host-speed gauge: program time measured in units of a fixed reference task.

The host is shared, and its speed drifts by up to ~1.9x in phases from a
few milliseconds to tens of seconds long; the same query mix read 122k
and 234k tweets/s minutes apart. Pure-Python work slows in step with the
program, so a small fixed task, timed every few milliseconds during a
repetition of program work and between repetitions, reads the host's
speed at each moment. Each stretch of the repetition is divided by the
task's time around it, and the sum is the repetition's cost in runs of
the task: it moves when the program's work changes and hardly when the
host's speed does.

The task builds dict rows, folds case, tests substrings, groups and sums,
the kind of work the engine does per tweet. It depends on nothing the
program or the seed provides. Probing is taken off the clock: every time
a workload reads from :meth:`Gauge.tick` or :meth:`Gauge.clock` excludes
the time spent in the task.

A probe is timed in CPU time of the thread that runs it. The program's
threads share one GIL, so while a probe runs they wait; when the
interpreter switches away from the probe, they run, and that time is
theirs: it is neither part of the probe's time nor taken off the clock.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import signal
import sqlite3
import statistics
import threading
import time
from typing import Callable, Iterator

WORDS = ("obama", "goal", "the", "quake", "news", "health", "vote", "city",
         "tevez", "breaking")

#: Rows per run of the task (~0.25 ms on a 2-core Xeon host).
ROWS = 400

#: Seconds between probes taken by :meth:`Gauge.tick` and
#: :meth:`Gauge.sampling`.
EVERY = 0.01

#: A stretch of program time is scaled by the median of the probes taken
#: within this many seconds of it.
SPAN = 0.05

#: Runs of the task in one probe taken between repetitions.
BETWEEN = 8

#: Seconds of one run of :func:`task` on a 2-core Xeon host in its fast
#: phases. A cost times this is seconds at that speed (``setup_s``).
REFERENCE_SECONDS = 0.00025


def task(rows: int = ROWS) -> int:
    """One run of the reference work."""
    groups: dict[int, int] = {}
    for i in range(rows):
        row = {"id": i, "text": f"{WORDS[i % 10]} {i} {WORDS[i * 7 % 10]}",
               "followers": i % 97}
        text = row["text"].lower()
        if "o" in text and row["followers"] > 10:
            key = row["followers"] % 13
            groups[key] = groups.get(key, 0) + len(text)
    return sum(groups.values())


_STORE: sqlite3.Connection | None = None


def _store() -> sqlite3.Connection:
    global _STORE
    if _STORE is None:
        _STORE = sqlite3.connect(":memory:", check_same_thread=False)
        _STORE.execute("CREATE TABLE rows (id INTEGER PRIMARY KEY, "
                       "created_at REAL, text TEXT, payload TEXT)")
        _STORE.execute("CREATE INDEX rows_time ON rows (created_at)")
    return _STORE


def store_task(rows: int = 25) -> int:
    """One run of the reference work of a store writer: encode a JSON
    payload and insert an indexed row, per row; the transaction is rolled
    back, so every run starts from an empty table."""
    conn = _store()
    for i in range(rows):
        text = f"{WORDS[i % 10]} {i} {WORDS[i * 7 % 10]}"
        payload = json.dumps({"user": {"id": i, "name": WORDS[i % 10],
                                       "followers": i % 97},
                              "geo": [40.0 + i / 100, -74.0], "text": text})
        conn.execute("INSERT INTO rows VALUES (?, ?, ?, ?)",
                     (i, 1e9 + i, text, payload))
    conn.rollback()
    return rows


class Gauge:
    """Probes the host, on a clock that the probing does not advance.

    Use one gauge per run. Call :meth:`tick` often from inside a
    repetition (a stream tap, say), on the thread that does the work while
    the others wait for it; call :meth:`probe` between repetitions. Read
    times from :meth:`tick` or :meth:`clock`, and convert a repetition's
    interval with :meth:`cost`.
    """

    def __init__(self, every: float = EVERY, span: float = SPAN,
                 task: Callable[[], object] = task) -> None:
        self.task = task
        self.every = every
        self.span = span
        self.times: list[float] = []
        self.values: list[float] = []
        self._offset = 0.0
        self._due = time.perf_counter() + every

    def clock(self) -> float:
        """Seconds on the gauge's clock."""
        return time.perf_counter() - self._offset

    def _run(self) -> None:
        at = time.perf_counter() - self._offset
        begin = time.thread_time()
        self.task()
        took = time.thread_time() - begin
        self.times.append(at)
        self.values.append(took)
        self._offset += took

    def tick(self) -> float:
        """The gauge's clock now; probes first when a probe is due."""
        now = time.perf_counter()
        at = now - self._offset
        if now >= self._due:
            self._run()
            self._due = time.perf_counter() + self.every
        return at

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every ``every`` seconds from a timer signal while the
        block runs, for main-thread work with no place to tick, such as
        generating the inputs. Does nothing when the gauge never ticks or
        off the main thread."""
        if (math.isinf(self.every)
                or threading.current_thread() is not threading.main_thread()):
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self._run())
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def probe(self, runs: int = BETWEEN) -> None:
        """Probe ``runs`` times now, between repetitions."""
        for _ in range(runs):
            self._run()

    def _speed(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.times, a - self.span)
        hi = bisect.bisect_right(self.times, b + self.span)
        if lo == hi:  # no probe near: the nearest few on either side
            lo, hi = max(lo - 3, 0), hi + 3
        return statistics.median(self.values[lo:hi])

    def cost(self, start: float, end: float) -> float:
        """Runs of the task the interval ``[start, end]`` of the gauge's
        clock was worth: each stretch between probes divided by the
        median probe around it."""
        if not self.values:
            raise ValueError("no probes taken")
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        points = [start, *self.times[lo:hi], end]
        return sum((b - a) / self._speed(a, b)
                   for a, b in zip(points, points[1:]))
