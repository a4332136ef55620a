"""Span recording around the public entry points of the ``repro`` layers.

The traced run patches methods and module functions of the program from
here, the benchmark's own code; no file of the program changes. A span
records its name, start, end, parent span, thread, time inside it and
how many calls it covers. Per-item entry points (a tweet delivered, a
sentiment classified, a row pulled) would make millions of spans, so
calls of one name under one parent are *coalesced* into one record whose
``busy`` time sums the calls; ``start``/``end`` then bound the first and
last call. Spans stay in memory and are written out when the run ends.

Self time of a span is its busy time minus the busy time of its children
on the same thread. A child recorded on another thread (a writer or shard
thread working for a span of the main thread) runs concurrently with its
parent, so it is not subtracted; it keeps its own self time on its own
thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# Record layout (lists, for in-place updates on the hot path).
NAME, START, END, PARENT, THREAD, BUSY, COUNT, CHILDREN = range(8)


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self.items: dict[str, int] = defaultdict(int)
        self.seen: dict[str, list[Any]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # Bottom frame: the thread's root, holding its coalesced roots.
            stack = self._local.stack = [[None, {}, 0.0]]
        return stack

    def _new(self, name: str, now: float, parent: int | None) -> int:
        record = [name, now, now, parent, threading.current_thread().name,
                  0.0, 0, {}]
        with self._lock:
            self.records.append(record)
            return len(self.records) - 1

    def begin(self, name: str, coalesce: bool = True) -> list[Any]:
        """Open a span under the thread's current span."""
        stack = self._stack()
        top = stack[-1]
        now = time.perf_counter()
        rid = top[1].get(name) if coalesce else None
        if rid is None:
            rid = self._new(name, now, top[0])
            if coalesce:
                top[1][name] = rid
        frame = [rid, self.records[rid][CHILDREN], now]
        stack.append(frame)
        return frame

    def end(self, frame: list[Any]) -> None:
        now = time.perf_counter()
        self._stack().pop()
        record = self.records[frame[0]]
        record[END] = now
        record[BUSY] += now - frame[2]
        record[COUNT] += 1

    def span(self, name: str, coalesce: bool = False) -> "_Span":
        """Context manager form of :meth:`begin`/:meth:`end`."""
        return _Span(self, name, coalesce)

    # -- patching ----------------------------------------------------------

    def wrap_call(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` (coalesced per parent)."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = recorder.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(frame)

        self._patch(owner, attr, original, traced)

    def wrap_iter(self, owner: Any, attr: str, name: str,
                  owns_iterator: bool, remember: bool = False) -> None:
        """Time every ``next()`` of the iterator ``owner.attr(self)``
        returns. ``owns_iterator``: closing the wrapper closes the inner
        iterator (true for generator methods, false for ``__iter__`` of an
        object that hands out one shared iterator). ``remember`` keeps
        each iterated object in ``seen[name]`` for its public counters."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if remember:
                recorder.seen[name].append(obj)
            inner = original(obj, *args, **kwargs)
            try:
                while True:
                    frame = recorder.begin(name, True)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.end(frame)
                    recorder.items[name] += 1
                    yield item
            finally:
                if owns_iterator:
                    inner.close()

        self._patch(owner, attr, original, traced)

    def _patch(self, owner: Any, attr: str, original: Any,
               replacement: Callable[..., Any]) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name over all threads."""
        totals: dict[str, float] = defaultdict(float)
        for record, own in zip(self.records, self_times(self.records)):
            totals[record[NAME]] += own
        return dict(totals)

    def busy(self, name: str) -> float:
        return sum(r[BUSY] for r in self.records if r[NAME] == name)

    def calls(self, name: str) -> int:
        return sum(r[COUNT] for r in self.records if r[NAME] == name)

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        origin = min((r[START] for r in self.records), default=0.0)
        spans = [
            {
                "id": index,
                "name": r[NAME],
                "start": r[START] - origin,
                "end": r[END] - origin,
                "parent": r[PARENT],
                "thread": r[THREAD],
                "busy": r[BUSY],
                "count": r[COUNT],
            }
            for index, r in enumerate(self.records)
        ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": spans}, out)


class _Span:
    def __init__(self, recorder: Recorder, name: str, coalesce: bool) -> None:
        self._recorder = recorder
        self._name = name
        self._coalesce = coalesce
        self._frame: list[Any] | None = None

    def __enter__(self) -> "_Span":
        self._frame = self._recorder.begin(self._name, self._coalesce)
        return self

    def __exit__(self, *_exc: Any) -> None:
        assert self._frame is not None
        self._recorder.end(self._frame)


def self_times(records: list[list[Any]]) -> list[float]:
    """Self time of each record: its busy time minus the busy time of its
    children recorded on the same thread."""
    own = [r[BUSY] for r in records]
    for r in records:
        parent = r[PARENT]
        if parent is not None and records[parent][THREAD] == r[THREAD]:
            own[parent] -= r[BUSY]
    return own


def install(recorder: Recorder) -> None:
    """Patch the public entry points of each layer the benchmark names."""
    from repro.engine import multitenant, session
    from repro.engine.executor import QueryHandle
    from repro.engine.latency import ManagedCall
    from repro.engine.parallel import ShardedExecution
    from repro.engine.planner import Planner
    from repro.nlp.sentiment import SentimentClassifier
    from repro.storage.historical import StorageWriter
    from repro.storage.tweetlog import SqliteTweetLog
    from repro.twitinfo.app import TrackedEvent, TwitInfoApp
    from repro.twitinfo.dashboard import Dashboard
    from repro.twitter.stream import StreamConnection

    call = recorder.wrap_call
    it = recorder.wrap_iter
    # sql / planner
    call(session, "parse", "sql.parse")
    call(multitenant, "parse", "sql.parse")
    call(Planner, "plan", "engine.plan")
    # twitter: the connection's generator, which also runs the tap
    it(StreamConnection, "__iter__", "twitter.deliver", owns_iterator=True,
       remember=True)
    # engine: every row a caller pulls from a query handle
    it(QueryHandle, "__iter__", "engine.execute", owns_iterator=False)
    # engine.latency
    for method in ("__call__", "prefetch", "drain"):
        call(ManagedCall, method, "latency.call")
    # nlp
    call(SentimentClassifier, "classify", "nlp.classify")
    call(SentimentClassifier, "score", "nlp.classify")
    # engine.parallel: the parent-side merge
    it(ShardedExecution, "merged", "parallel.merge", owns_iterator=True)
    # storage
    call(StorageWriter, "write", "storage.tap")
    call(StorageWriter, "stop", "storage.stop")
    call(SqliteTweetLog, "extend", "storage.insert")
    call(SqliteTweetLog, "commit", "storage.commit")
    it(SqliteTweetLog, "scan", "storage.scan", owns_iterator=True)
    # twitinfo
    call(TwitInfoApp, "track_many", "twitinfo.track_many")
    call(TrackedEvent, "ingest", "twitinfo.ingest")
    call(TrackedEvent, "detect_peaks", "twitinfo.peaks")
    call(TwitInfoApp, "dashboard", "twitinfo.panels")
    call(Dashboard, "render_html", "twitinfo.render")
