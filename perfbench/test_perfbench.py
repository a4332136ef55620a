"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import spans  # noqa: E402
from stats import Samples, TooFewSamples, min_samples, percentile  # noqa: E402


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    assert min_samples(q) == needed
    values = list(range(needed))
    percentile(values, q)
    with pytest.raises(TooFewSamples, match=f"needs {needed} samples"):
        percentile(values[:-1], q)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    shuffled = values[50:] + values[:50]
    assert percentile(shuffled, 50) == 50.0
    assert percentile(shuffled, 90) == 90.0
    # Ten samples (91..100) lie beyond p90.
    assert sum(v > percentile(values, 90) for v in values) == 10


def test_samples_record_each_count():
    samples = Samples()
    samples.percentiles("latency", list(range(250)), (50, 90))
    assert samples.mean("tours", [1.0, 2.0, 6.0]) == 3.0
    assert samples.counts == {"latency": 250, "tours": 3}
    with pytest.raises(TooFewSamples):
        samples.mean("empty", [])


# -- host-speed gauge ---------------------------------------------------------


def gauge_with(times, values, span=0.05):
    gauge = reference.Gauge(span=span)
    gauge.times, gauge.values = list(times), list(values)
    return gauge


def test_cost_divides_each_stretch_by_the_probes_around_it():
    # The host runs at speed 1 until t=1, then twice as slow; probes are
    # 0.1 s apart, and each stretch takes the median of those within
    # 0.05 s of it.
    times = [i / 10 for i in range(21)]
    values = [1.0 if t < 1.0 else 2.0 for t in times]
    gauge = gauge_with(times, values)
    assert gauge.cost(0.0, 0.5) == pytest.approx(0.5)
    assert gauge.cost(1.1, 1.6) == pytest.approx(0.25)
    # Twice the work in the slow phase costs what it does in the fast one.
    assert gauge.cost(1.1, 2.0) == pytest.approx(gauge.cost(0.0, 0.45))


def test_cost_uses_nearest_probes_when_none_is_close():
    gauge = gauge_with([0.0, 0.0, 10.0, 10.0], [1.0, 1.0, 3.0, 3.0])
    # Stretch [4, 6] has no probe within 0.05 s: the nearest on either
    # side count.
    assert gauge.cost(4.0, 6.0) == pytest.approx(2.0 / 2.0)
    with pytest.raises(ValueError, match="no probes"):
        reference.Gauge().cost(0.0, 1.0)


def test_probing_is_taken_off_the_clock():
    gauge = reference.Gauge(every=0.0)
    start = gauge.tick()  # probes: due at once
    gauge.probe(runs=50)
    assert len(gauge.values) == 51
    elapsed = gauge.clock() - start
    assert elapsed < sum(gauge.values) / 10
    assert gauge.times == sorted(gauge.times)
    never = reference.Gauge(every=float("inf"))
    never.tick()
    assert never.values == []


def test_sampling_probes_main_thread_work_from_a_timer():
    gauge = reference.Gauge(every=0.002)
    with gauge.sampling():
        start = gauge.clock()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        end = gauge.clock()
    assert len(gauge.values) >= 5
    assert gauge.cost(start, end) > 0
    count = len(gauge.values)
    deadline = time.perf_counter() + 0.02
    while time.perf_counter() < deadline:
        pass
    assert len(gauge.values) == count  # the timer is off after the block


# -- self time ----------------------------------------------------------------


def record(name, parent, thread, busy):
    return [name, 0.0, busy, parent, thread, busy, 1, {}]


def test_self_time_subtracts_nested_children():
    records = [
        record("query", None, "main", 10.0),
        record("deliver", 0, "main", 4.0),
        record("tap", 1, "main", 1.5),
        record("classify", 0, "main", 2.0),
    ]
    assert spans.self_times(records) == [4.0, 2.5, 1.5, 2.0]


def test_self_time_keeps_cross_thread_children():
    # A writer-thread span caused by the main thread's query runs
    # concurrently: it does not reduce the query's self time.
    records = [
        record("query", None, "main", 10.0),
        record("insert", 0, "writer", 6.0),
        record("commit", 1, "writer", 1.0),
        record("deliver", 0, "main", 3.0),
    ]
    assert spans.self_times(records) == [7.0, 5.0, 1.0, 3.0]


def test_recorder_nests_coalesces_and_separates_threads():
    recorder = spans.Recorder()
    with recorder.span("op"):
        for _ in range(3):
            frame = recorder.begin("deliver")
            with recorder.span("tap", coalesce=True):
                pass
            recorder.end(frame)

    def writer():
        with recorder.span("insert"):
            with recorder.span("commit", coalesce=True):
                pass

    thread = threading.Thread(target=writer, name="writer")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()

    by_name = {r[spans.NAME]: r for r in recorder.records}
    assert len(recorder.records) == 5  # deliver and tap coalesced
    assert by_name["deliver"][spans.COUNT] == 3
    assert by_name["tap"][spans.COUNT] == 3
    assert recorder.records[by_name["tap"][spans.PARENT]] is by_name["deliver"]
    assert by_name["insert"][spans.PARENT] is None
    assert by_name["insert"][spans.THREAD] == "writer"
    own = recorder.self_times()
    for name in ("op", "deliver", "tap", "insert", "commit"):
        assert own[name] >= 0.0
    total = sum(own[n] for n in ("op", "deliver", "tap"))
    assert total == pytest.approx(by_name["op"][spans.BUSY])


def test_wrap_iter_times_each_item_and_closes_inner():
    closed = []

    class Source:
        def items(self):
            try:
                yield from range(5)
            finally:
                closed.append(True)

    recorder = spans.Recorder()
    recorder.wrap_iter(Source, "items", "source", owns_iterator=True)
    try:
        iterator = Source().items()
        assert [next(iterator), next(iterator)] == [0, 1]
        iterator.close()
    finally:
        recorder.uninstall()
    assert closed == [True]
    assert recorder.items["source"] == 2
    assert recorder.calls("source") == 2
    assert Source.items.__name__ == "items" and list(Source().items()) == [
        0, 1, 2, 3, 4]
