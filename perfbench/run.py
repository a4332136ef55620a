"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-queries --seed 2011 \\
        --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken from a traced
run of the same workload. The line before it is the run's metadata
(seed, host, sample counts, the workload's named metrics, checks).
Spans of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sqlite3  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _startup_seconds() -> float:
    """Seconds from process start to this module's first line (Linux;
    0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as uptime:
            now = float(uptime.read().split()[0])
    except OSError:
        return 0.0
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, now - started - (time.perf_counter() - _T0))


_STARTUP = _startup_seconds()

#: Per-layer metrics read from span self times (name → span name).
SELF_TIME = {
    "twitter.deliver_s": "twitter.deliver",
    "sql.parse_s": "sql.parse",
    "engine.plan_s": "engine.plan",
    "engine.execute_self_s": "engine.execute",
    "latency.self_s": "latency.call",
    "parallel.merge_s": "parallel.merge",
    "storage.tap_s": "storage.tap",
    "storage.insert_s": "storage.insert",
    "storage.scan_s": "storage.scan",
    "twitinfo.ingest_s": "twitinfo.ingest",
    "twitinfo.peaks_s": "twitinfo.peaks",
    "twitinfo.panels_s": "twitinfo.panels",
    "twitinfo.render_s": "twitinfo.render",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _host() -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gil": True if gil is None else gil(),
        "sqlite": sqlite3.sqlite_version,
    }


def _store_features() -> dict:
    from repro.storage import HistoricalStore

    with HistoricalStore(":memory:") as store:
        return {"fts5": store.fts_enabled, "rtree": store.rtree_enabled}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wall_rate(run) -> float:
    """The workload's tweets per wall second."""
    named = run.named.get("stream_tweets_per_s") or run.named[
        "archive_tweets_per_s"]
    return named[0]


def _layer_metrics(spec: dict, run, recorder, untraced) -> dict:
    own = recorder.self_times()
    counters = dict(run.layer)
    connections = recorder.seen["twitter.deliver"]
    counters["twitter.generate_s"] = recorder.busy("twitter.generate")
    counters["twitter.scanned"] = sum(c.stats.scanned for c in connections)
    counters["twitter.delivered"] = sum(c.stats.delivered for c in connections)
    counters["nlp.classify_calls"] = recorder.calls("nlp.classify")
    counters["nlp.classify_s"] = recorder.busy("nlp.classify")
    counters["storage.commit_s"] = recorder.busy("storage.commit")
    served = run.layer.get("storage.rows_served", 0)
    counters["storage.rows_examined_per_row"] = (
        recorder.items["storage.scan"] / served if served else 0.0)
    if "serial_tweets_per_s" in untraced.named:
        counters["parallel.serial_tweets_per_s"] = (
            untraced.named["serial_tweets_per_s"][0])
    for metric, span in SELF_TIME.items():
        counters[metric] = own.get(span, 0.0)
    counters["trace.overhead_ratio"] = _wall_rate(untraced) / _wall_rate(run)
    return {
        m["name"]: {"value": float(counters.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import spans
    import workloads

    spec = _spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads.WORKLOADS or args.workload not in why:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(why)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    imported = time.perf_counter() - _T0

    if args.trace:
        # The same work twice in one process: untraced for the overhead
        # base, then traced for the layers. Neither probes the host
        # inside a repetition, so the spans hold program work alone and
        # the two wall rates compare.
        untraced = workloads.Run(args.seed, args.seconds, OUT_DIR,
                                 checking=False, probing=False)
        workload(untraced)
        recorder = spans.Recorder()
        spans.install(recorder)
        run = workloads.Run(args.seed, args.seconds, OUT_DIR,
                            recorder=recorder, probing=False)
        workload(run)
        recorder.uninstall()
        recorder.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = _layer_metrics(spec, run, recorder, untraced)
    else:
        run = workloads.Run(args.seed, args.seconds, OUT_DIR)
        workload(run)
        values = dict(run.e2e)
        values["setup_s"] = _STARTUP + imported + run.setup_seconds
        run.named["setup_wall_s"] = (
            _STARTUP + imported + run.setup_wall_seconds, "s")
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {
            m["name"]: {"value": values.get(m["name"], math.nan),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    bad = [name for name, m in metrics.items()
           if not math.isfinite(m["value"])]
    if bad:
        print(f"no finite value for {bad}; errors: {run.errors}",
              file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "host": _host(),
        "store": run.meta.get("store") or _store_features(),
        "tweets": run.meta.get("tweets"),
        "measured_s": run.meta.get("measured_s"),
        "samples": run.samples.counts,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in run.named.items()},
        "ops_failed_ratio": run.failed / max(run.attempted, 1),
        "checks": run.checks,
        "errors": run.errors,
        "extra": {k: v for k, v in run.meta.items()
                  if k not in ("store", "tweets", "measured_s")},
    }
    print(json.dumps({"meta": meta}, default=str))
    correct = bool(run.checks) and all(run.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
