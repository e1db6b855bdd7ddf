#!/usr/bin/env python3
"""Compare two NEVERMIND benchmark JSON files for timing regressions.

Every bench binary that measures wall-clock time (bench_train,
bench_serve, bench_net, bench_cluster, bench_scale) writes a
BENCH_*.json with metric fields named by convention: names ending in ``_s`` are timings in
seconds and names ending in ``_ms`` are timings in milliseconds (both
lower is better; ``_ms`` values are converted to seconds so --min-time
applies uniformly), names ending in ``_per_s`` are throughputs (higher
is better), names ending in ``_bytes`` are memory footprints
(lower is better, no minimum floor — bytes do not jitter the way a
5 ms timing does), names ending in ``_weeks`` are detection latencies
in whole weeks (lower is better, no minimum floor; ratios are computed
on value+1 so a perfect zero-week lag neither divides by zero nor
flags an infinite regression when it slips to one week — e.g.
bench_drift's ``detection_lag_weeks``), and names ending in
``speedup`` are dimensionless
ratios of a reference time over an optimized time (higher is better —
e.g. bench_train's ``simd_stump_speedup``, scalar over AVX2). This
tool diffs a baseline file against a candidate file (or two
directories of BENCH_*.json files, matched by name) and fails when any
timing slowed down — or any throughput or speedup dropped, or any
memory footprint grew — by more than the threshold (default 20%).

A missing baseline is not an error: the first run on a fresh checkout
(or a brand-new bench) has nothing to compare against, so the tool
warns and reports success instead of crashing.

Timings below a minimum (default 0.05 s) are skipped: at smoke sizes a
scheduler hiccup easily doubles a 5 ms measurement, and such fields say
nothing about real throughput. Throughput fields have no such floor
(they are already normalized per second of measured work), but
non-positive values are skipped as unmeasured.

Usage:
    check_bench.py BASELINE.json CANDIDATE.json [--threshold 0.2]
    check_bench.py baseline_dir/ candidate_dir/  [--min-time 0.05]
    check_bench.py --self-test

Exit status: 0 = no regression, 1 = regression found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def metric_fields(obj, prefix=""):
    """Yield (dotted_path, kind, value) for every metric field.

    kind is "throughput" for numeric fields ending in _per_s (higher is
    better), "speedup" for numeric fields ending in speedup (higher is
    better, dimensionless, no --min-time floor), "memory" for numeric
    fields ending in _bytes (lower is better, no --min-time floor),
    "weeks" for numeric fields ending in _weeks (lower is better, no
    --min-time floor, compared on value+1 so zero-week lags work),
    and "time" for other numeric fields ending in _s or _ms (lower is
    better; _ms values come back in seconds so thresholds and
    --min-time apply uniformly). The _per_s check runs first — a
    _per_s name also ends in _s, and classifying it as a timing would
    invert the comparison.

    Lists are keyed by a stable attribute when the elements carry one
    (the benches key runs by "threads"; bench_scale keys its runs by
    "lines") and by index otherwise, so the same run matches across
    files even if ordering changed.
    """
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            path = f"{prefix}.{key}" if prefix else key
            if key.endswith("_per_s") and isinstance(value, (int, float)):
                yield path, "throughput", float(value)
            elif key.endswith("speedup") and isinstance(value, (int, float)):
                yield path, "speedup", float(value)
            elif key.endswith("_bytes") and isinstance(value, (int, float)):
                yield path, "memory", float(value)
            elif key.endswith("_weeks") and isinstance(value, (int, float)):
                yield path, "weeks", float(value)
            elif key.endswith("_ms") and isinstance(value, (int, float)):
                yield path, "time", float(value) / 1000.0
            elif key.endswith("_s") and isinstance(value, (int, float)):
                yield path, "time", float(value)
            else:
                yield from metric_fields(value, path)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            label = i
            if isinstance(item, dict) and "threads" in item:
                label = f"threads={item['threads']}"
            elif isinstance(item, dict) and "lines" in item:
                label = f"lines={item['lines']}"
            yield from metric_fields(item, f"{prefix}[{label}]")


def compare(baseline, candidate, threshold, min_time):
    """Return a list of human-readable regression messages."""
    base = {path: (kind, v) for path, kind, v in metric_fields(baseline)}
    cand = {path: (kind, v) for path, kind, v in metric_fields(candidate)}
    regressions = []
    for path, (kind, base_value) in sorted(base.items()):
        if path not in cand:
            continue  # field removed or renamed; not a perf signal
        cand_kind, cand_value = cand[path]
        if cand_kind != kind:
            continue
        if kind == "time":
            if base_value < min_time or cand_value < min_time:
                continue
            ratio = cand_value / base_value
            if ratio > 1.0 + threshold:
                regressions.append(
                    f"{path}: {base_value:.3f}s -> {cand_value:.3f}s "
                    f"(+{(ratio - 1.0) * 100.0:.0f}%)"
                )
        elif kind == "memory":  # growth is the regression, no time floor
            if base_value <= 0.0 or cand_value <= 0.0:
                continue  # unmeasured (e.g. memprobe disabled)
            ratio = cand_value / base_value
            if ratio > 1.0 + threshold:
                regressions.append(
                    f"{path}: {base_value:.0f}B -> {cand_value:.0f}B "
                    f"(+{(ratio - 1.0) * 100.0:.0f}%)"
                )
        elif kind == "weeks":  # detection lag: growth regresses, +1 basis
            if base_value < 0.0 or cand_value < 0.0:
                continue  # -1 means the detector never fired: unmeasured
            ratio = (cand_value + 1.0) / (base_value + 1.0)
            if ratio > 1.0 + threshold:
                regressions.append(
                    f"{path}: {base_value:.0f}wk -> {cand_value:.0f}wk "
                    f"(+{(ratio - 1.0) * 100.0:.0f}%)"
                )
        elif kind == "speedup":  # dimensionless ratio: a drop regresses
            if base_value <= 0.0 or cand_value <= 0.0:
                continue  # unmeasured (e.g. no AVX2 on the host)
            ratio = cand_value / base_value
            if ratio < 1.0 - threshold:
                regressions.append(
                    f"{path}: {base_value:.2f}x -> {cand_value:.2f}x "
                    f"(-{(1.0 - ratio) * 100.0:.0f}%)"
                )
        else:  # throughput: a drop is the regression
            if base_value <= 0.0 or cand_value <= 0.0:
                continue
            ratio = cand_value / base_value
            if ratio < 1.0 - threshold:
                regressions.append(
                    f"{path}: {base_value:.1f}/s -> {cand_value:.1f}/s "
                    f"(-{(1.0 - ratio) * 100.0:.0f}%)"
                )
    return regressions


def compare_files(base_path, cand_path, threshold, min_time):
    # No baseline yet (first run, or a bench that just grew its first
    # JSON): nothing to regress against — warn and pass.
    if not Path(base_path).exists():
        print(f"warning: no baseline at {base_path}; nothing to compare",
              file=sys.stderr)
        return []
    with open(base_path) as f:
        baseline = json.load(f)
    with open(cand_path) as f:
        candidate = json.load(f)
    return compare(baseline, candidate, threshold, min_time)


def compare_dirs(base_dir, cand_dir, threshold, min_time):
    regressions = []
    matched = 0
    for base_path in sorted(base_dir.glob("BENCH_*.json")):
        cand_path = cand_dir / base_path.name
        if not cand_path.exists():
            continue
        matched += 1
        for msg in compare_files(base_path, cand_path, threshold, min_time):
            regressions.append(f"{base_path.name}: {msg}")
    if matched == 0:
        print("warning: no matching BENCH_*.json pairs found", file=sys.stderr)
    return regressions


def self_test():
    baseline = {
        "bench": "train",
        "runs": [
            {"threads": 1, "exact_train_s": 10.0, "hist_train_s": 2.0},
            {"threads": 2, "exact_train_s": 6.0, "hist_train_s": 1.2},
        ],
        "encode_s": 0.5,
        "tiny_s": 0.001,
    }
    # Unchanged candidate: no regressions.
    assert compare(baseline, baseline, 0.2, 0.05) == []
    # 50% slower histogram training at 1 thread: flagged.
    slow = json.loads(json.dumps(baseline))
    slow["runs"][0]["hist_train_s"] = 3.0
    msgs = compare(baseline, slow, 0.2, 0.05)
    assert len(msgs) == 1 and "hist_train_s" in msgs[0], msgs
    # Same run found even when the list order flips.
    flipped = json.loads(json.dumps(slow))
    flipped["runs"].reverse()
    assert compare(baseline, flipped, 0.2, 0.05) == msgs
    # Sub-min-time jitter is ignored no matter how large relatively.
    jitter = json.loads(json.dumps(baseline))
    jitter["tiny_s"] = 0.04
    assert compare(baseline, jitter, 0.2, 0.05) == []
    # Improvements are never flagged.
    fast = json.loads(json.dumps(baseline))
    fast["runs"][0]["exact_train_s"] = 1.0
    assert compare(baseline, fast, 0.2, 0.05) == []

    # --- higher-is-better throughput fields (_per_s) -----------------
    serve = {
        "bench": "serve",
        "ingest_rows_per_s": 100000.0,
        "query_per_s": 5000.0,
        "p99_latency_s": 0.2,
        "runs": [{"threads": 1, "query_per_s": 4000.0}],
    }
    # Unchanged: clean.
    assert compare(serve, serve, 0.2, 0.05) == []
    # A 50% throughput DROP is a regression (direction inverted vs _s).
    dropped = json.loads(json.dumps(serve))
    dropped["ingest_rows_per_s"] = 50000.0
    msgs = compare(serve, dropped, 0.2, 0.05)
    assert len(msgs) == 1 and "ingest_rows_per_s" in msgs[0], msgs
    # A throughput INCREASE is never flagged...
    faster = json.loads(json.dumps(serve))
    faster["query_per_s"] = 20000.0
    faster["runs"][0]["query_per_s"] = 16000.0
    assert compare(serve, faster, 0.2, 0.05) == []
    # ...even though the same ratio as a timing would be a regression.
    slower_time = json.loads(json.dumps(serve))
    slower_time["p99_latency_s"] = 0.8
    msgs = compare(serve, slower_time, 0.2, 0.05)
    assert len(msgs) == 1 and "p99_latency_s" in msgs[0], msgs
    # Nested throughput fields are found and direction-checked too.
    nested_drop = json.loads(json.dumps(serve))
    nested_drop["runs"][0]["query_per_s"] = 1000.0
    msgs = compare(serve, nested_drop, 0.2, 0.05)
    assert len(msgs) == 1 and "threads=1" in msgs[0], msgs
    # Unmeasured (zero) throughputs are skipped, not divided by.
    zero = json.loads(json.dumps(serve))
    zero["query_per_s"] = 0.0
    assert compare(zero, serve, 0.2, 0.05) == []
    assert compare(serve, zero, 0.2, 0.05) == []

    # --- millisecond timing fields (_ms, lower is better) ------------
    net = {
        "bench": "net",
        "score_per_s": 20000.0,
        "score_p99_ms": 400.0,
        "ping_p50_ms": 60.0,
    }
    # Unchanged: clean.
    assert compare(net, net, 0.2, 0.05) == []
    # A latency INCREASE is a regression, same direction as _s fields.
    slower_ms = json.loads(json.dumps(net))
    slower_ms["score_p99_ms"] = 800.0
    msgs = compare(net, slower_ms, 0.2, 0.05)
    assert len(msgs) == 1 and "score_p99_ms" in msgs[0], msgs
    # A latency improvement is never flagged.
    faster_ms = json.loads(json.dumps(net))
    faster_ms["score_p99_ms"] = 100.0
    faster_ms["ping_p50_ms"] = 55.0
    assert compare(net, faster_ms, 0.2, 0.05) == []
    # _ms values are compared in seconds: 60 ms sits above a 50 ms
    # floor (flagged when doubled) but ducks under a 100 ms floor.
    doubled_ping = json.loads(json.dumps(net))
    doubled_ping["ping_p50_ms"] = 120.0
    msgs = compare(net, doubled_ping, 0.2, 0.05)
    assert len(msgs) == 1 and "ping_p50_ms" in msgs[0], msgs
    assert compare(net, doubled_ping, 0.2, 0.1) == []

    # --- memory fields (_bytes, lower is better, no time floor) ------
    mem = {
        "bench": "train",
        "dataplane": {
            "view_alloc_bytes": 9000000,
            "view_peak_rss_bytes": 200000,
            "copy_peak_rss_bytes": 1000000,
        },
    }
    # Unchanged: clean.
    assert compare(mem, mem, 0.2, 0.05) == []
    # A 50% allocation-bytes GROWTH is a regression.
    grown = json.loads(json.dumps(mem))
    grown["dataplane"]["view_alloc_bytes"] = 13500000
    msgs = compare(mem, grown, 0.2, 0.05)
    assert len(msgs) == 1 and "view_alloc_bytes" in msgs[0], msgs
    # Shrinking memory is an improvement, never flagged.
    shrunk = json.loads(json.dumps(mem))
    shrunk["dataplane"]["view_peak_rss_bytes"] = 50000
    assert compare(mem, shrunk, 0.2, 0.05) == []
    # The --min-time floor does NOT apply: a small-but-real byte count
    # doubling is still flagged (0.05 would hide any timing this size).
    small = json.loads(json.dumps(mem))
    small["dataplane"]["view_peak_rss_bytes"] = 400000
    msgs = compare(mem, small, 0.2, 0.05)
    assert len(msgs) == 1 and "view_peak_rss_bytes" in msgs[0], msgs
    # Zero (unmeasured, e.g. /proc absent) is skipped in either slot.
    zero_mem = json.loads(json.dumps(mem))
    zero_mem["dataplane"]["copy_peak_rss_bytes"] = 0
    assert compare(zero_mem, mem, 0.2, 0.05) == []
    assert compare(mem, zero_mem, 0.2, 0.05) == []

    # --- bench_train "store" section (nmarena feature store) ---------
    # Mixed conventions in one section: write throughput (_per_s,
    # higher is better), load timings (_s), file size and phase peak
    # RSS (_bytes); the peak_rss_approx marker is a bool, not a metric.
    store = {
        "bench": "train",
        "store": {
            "rows": 5000,
            "cols": 120,
            "file_bytes": 2400000,
            "encode_write_s": 1.5,
            "write_rows_per_s": 3300.0,
            "eager_load_s": 0.4,
            "mmap_load_s": 0.01,
            "eager_peak_rss_bytes": 2500000,
            "mmap_peak_rss_bytes": 300000,
            "peak_rss_approx": True,
        },
    }
    # Unchanged: clean (bools and count fields are not metrics).
    assert compare(store, store, 0.2, 0.05) == []
    # A write-throughput drop is a regression.
    slow_write = json.loads(json.dumps(store))
    slow_write["store"]["write_rows_per_s"] = 2000.0
    msgs = compare(store, slow_write, 0.2, 0.05)
    assert len(msgs) == 1 and "write_rows_per_s" in msgs[0], msgs
    # A slower eager load is a regression; the artefact growing is too.
    slow_load = json.loads(json.dumps(store))
    slow_load["store"]["eager_load_s"] = 0.8
    slow_load["store"]["file_bytes"] = 4000000
    msgs = compare(store, slow_load, 0.2, 0.05)
    assert len(msgs) == 2, msgs
    assert any("eager_load_s" in m for m in msgs), msgs
    assert any("file_bytes" in m for m in msgs), msgs
    # mmap load sits under the --min-time floor by design: its jitter
    # must not flag (that is the whole point of the floor).
    jitter_mmap = json.loads(json.dumps(store))
    jitter_mmap["store"]["mmap_load_s"] = 0.04
    assert compare(store, jitter_mmap, 0.2, 0.05) == []
    # Phase peak RSS growth is flagged even at approx fidelity — the
    # marker flips comparisons off only by zeroing the metric, never
    # silently.
    rss_grown = json.loads(json.dumps(store))
    rss_grown["store"]["mmap_peak_rss_bytes"] = 600000
    msgs = compare(store, rss_grown, 0.2, 0.05)
    assert len(msgs) == 1 and "mmap_peak_rss_bytes" in msgs[0], msgs

    # --- speedup fields (dimensionless ratio, higher is better) ------
    simd = {
        "bench": "train",
        "simd": {
            "avx2_available": True,
            "scalar_stump_s": 4.0,
            "avx2_stump_s": 1.0,
            "simd_stump_speedup": 4.0,
        },
        "runs": [{"threads": 1, "speedup": 3.0, "locator_speedup": 2.5}],
    }
    # Unchanged: clean.
    assert compare(simd, simd, 0.2, 0.05) == []
    # The AVX2 kernel losing its edge is a regression even though the
    # component timings (scalar slower, avx2 unchanged) would not flag.
    eroded = json.loads(json.dumps(simd))
    eroded["simd"]["simd_stump_speedup"] = 2.0
    msgs = compare(simd, eroded, 0.2, 0.05)
    assert len(msgs) == 1 and "simd_stump_speedup" in msgs[0], msgs
    # A speedup gain is an improvement, never flagged.
    gained = json.loads(json.dumps(simd))
    gained["simd"]["simd_stump_speedup"] = 8.0
    assert compare(simd, gained, 0.2, 0.05) == []
    # Zero means unmeasured (no AVX2 on that host): skipped both ways.
    no_avx2 = json.loads(json.dumps(simd))
    no_avx2["simd"]["simd_stump_speedup"] = 0.0
    assert compare(no_avx2, simd, 0.2, 0.05) == []
    assert compare(simd, no_avx2, 0.2, 0.05) == []
    # Per-run hist-vs-exact speedups are keyed through the runs list.
    run_drop = json.loads(json.dumps(simd))
    run_drop["runs"][0]["locator_speedup"] = 1.0
    msgs = compare(simd, run_drop, 0.2, 0.05)
    assert len(msgs) == 1 and "locator_speedup" in msgs[0], msgs

    # --- bench_cluster (distributed serving) -------------------------
    # Mixed conventions again: ingest/query throughputs (_per_s),
    # request latencies and the two failure-detection latencies (_ms);
    # the byte-identity verdicts are bools and the shard/line counts
    # are plain integers — none of those are perf metrics.
    clus = {
        "bench": "cluster",
        "nodes": 3,
        "replication": 2,
        "deterministic": True,
        "rejoin_deterministic": True,
        "failover_detect_ms": 80.0,
        "membership_detect_ms": 290.0,
        "ingest_per_s": 40000.0,
        "ingest_p99_ms": 90.0,
        "query_per_s": 15000.0,
        "query_p99_ms": 70.0,
        "rejoin_lines_restored": 193,
        "newcomer_primary_shards": 4,
    }
    # Unchanged: clean (verdict bools and counts are not metrics).
    assert compare(clus, clus, 0.2, 0.05) == []
    # Slower failure detection is a regression — the whole point of the
    # membership layer is how fast the cluster routes around a death.
    slow_detect = json.loads(json.dumps(clus))
    slow_detect["failover_detect_ms"] = 200.0
    msgs = compare(clus, slow_detect, 0.2, 0.05)
    assert len(msgs) == 1 and "failover_detect_ms" in msgs[0], msgs
    # A replicated-ingest throughput drop is a regression; faster
    # detection plus higher query throughput is never flagged.
    slow_ingest = json.loads(json.dumps(clus))
    slow_ingest["ingest_per_s"] = 20000.0
    msgs = compare(clus, slow_ingest, 0.2, 0.05)
    assert len(msgs) == 1 and "ingest_per_s" in msgs[0], msgs
    better = json.loads(json.dumps(clus))
    better["membership_detect_ms"] = 100.0
    better["query_per_s"] = 60000.0
    assert compare(clus, better, 0.2, 0.05) == []

    # --- bench_drift (detection lag in weeks, lower is better) -------
    # The AUC fields carry no metric suffix on purpose (quality, not
    # perf); the lag is compared on value+1 so a zero-week detection
    # neither divides by zero nor flags an infinite regression.
    drift = {
        "bench": "drift",
        "spatial": {"spatial_auc": 0.97, "locator_auc": 0.62},
        "drift": {
            "onset_week": 34,
            "detection_lag_weeks": 2.0,
            "auc_recovery": 0.05,
            "replay_1t_s": 30.0,
        },
    }
    # Unchanged: clean (AUCs and week numbers are not perf metrics).
    assert compare(drift, drift, 0.2, 0.05) == []
    # Slower detection is a regression: 2wk -> 5wk is (5+1)/(2+1) = 2x.
    slow_lag = json.loads(json.dumps(drift))
    slow_lag["drift"]["detection_lag_weeks"] = 5.0
    msgs = compare(drift, slow_lag, 0.2, 0.05)
    assert len(msgs) == 1 and "detection_lag_weeks" in msgs[0], msgs
    # Faster detection is an improvement, never flagged.
    fast_lag = json.loads(json.dumps(drift))
    fast_lag["drift"]["detection_lag_weeks"] = 0.0
    assert compare(drift, fast_lag, 0.2, 0.05) == []
    # A zero-week baseline slipping to one week is (1+1)/(0+1) = 2x:
    # flagged, with no division blow-up on the zero.
    zero_lag = json.loads(json.dumps(fast_lag))
    one_lag = json.loads(json.dumps(fast_lag))
    one_lag["drift"]["detection_lag_weeks"] = 1.0
    msgs = compare(zero_lag, one_lag, 0.2, 0.05)
    assert len(msgs) == 1 and "detection_lag_weeks" in msgs[0], msgs
    # -1 means the monitor never fired: unmeasured, skipped both ways.
    never = json.loads(json.dumps(drift))
    never["drift"]["detection_lag_weeks"] = -1.0
    assert compare(never, drift, 0.2, 0.05) == []
    assert compare(drift, never, 0.2, 0.05) == []
    # The replay timing still obeys the ordinary _s convention.
    slow_replay = json.loads(json.dumps(drift))
    slow_replay["drift"]["replay_1t_s"] = 60.0
    msgs = compare(drift, slow_replay, 0.2, 0.05)
    assert len(msgs) == 1 and "replay_1t_s" in msgs[0], msgs

    # --- bench_scale (streaming pipeline, runs keyed by "lines") -----
    # Each run mixes conventions: stream throughputs (_per_s, higher is
    # better), phase timings (_s), phase-peak RSS and the artefact size
    # (_bytes, lower is better); the identity verdicts and rss_bounded
    # are bools and the lines/rows counts are plain integers — none of
    # those are perf metrics.
    scale = {
        "bench": "scale",
        "window_weeks": 8,
        "identity": {"lines": 10000, "chunks_identical": True,
                     "artefact_identical": True, "kernel_identical": True},
        "runs": [
            {"lines": 10000, "tables_s": 0.4, "stream_encode_s": 2.0,
             "stream_lines_per_s": 5000.0, "stream_line_weeks_per_s": 200000.0,
             "stream_peak_rss_bytes": 30000000,
             "artefact_file_bytes": 25000000, "rss_bounded": True},
            {"lines": 1000000, "tables_s": 40.0, "stream_encode_s": 210.0,
             "stream_lines_per_s": 4700.0, "stream_line_weeks_per_s": 190000.0,
             "stream_peak_rss_bytes": 1200000000,
             "artefact_file_bytes": 2500000000, "rss_bounded": True},
        ],
    }
    # Unchanged: clean (verdict bools, window/lines counts not metrics).
    assert compare(scale, scale, 0.2, 0.05) == []
    # A streamed-throughput drop at 1M lines is a regression, matched by
    # the "lines" key even when the run order flips.
    slow_stream = json.loads(json.dumps(scale))
    slow_stream["runs"][1]["stream_lines_per_s"] = 2000.0
    slow_stream["runs"].reverse()
    msgs = compare(scale, slow_stream, 0.2, 0.05)
    assert len(msgs) == 1 and "lines=1000000" in msgs[0], msgs
    assert "stream_lines_per_s" in msgs[0], msgs
    # Peak RSS growing past the threshold is a regression — the whole
    # point of the streaming pipeline is the residency bound.
    rss_up = json.loads(json.dumps(scale))
    rss_up["runs"][1]["stream_peak_rss_bytes"] = 5200000000
    msgs = compare(scale, rss_up, 0.2, 0.05)
    assert len(msgs) == 1 and "stream_peak_rss_bytes" in msgs[0], msgs
    # A faster encode phase is an improvement, never flagged.
    fast_scale = json.loads(json.dumps(scale))
    fast_scale["runs"][0]["stream_encode_s"] = 1.0
    fast_scale["runs"][0]["stream_lines_per_s"] = 10000.0
    assert compare(scale, fast_scale, 0.2, 0.05) == []

    # --- missing baseline: warn-and-pass, not a crash ----------------
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cand_path = Path(tmp) / "BENCH_train.json"
        cand_path.write_text(json.dumps(simd))
        assert compare_files(Path(tmp) / "absent.json", cand_path,
                             0.2, 0.05) == []
    print("check_bench.py self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="baseline JSON file or dir")
    parser.add_argument("candidate", nargs="?", help="candidate JSON file or dir")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="relative slowdown that counts as a regression "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--min-time", type=float, default=0.05,
                        help="ignore timings below this many seconds")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.print_usage(sys.stderr)
        return 2

    base = Path(args.baseline)
    cand = Path(args.candidate)
    if base.is_dir() != cand.is_dir():
        print("error: baseline and candidate must both be files or both dirs",
              file=sys.stderr)
        return 2
    if base.is_dir():
        regressions = compare_dirs(base, cand, args.threshold, args.min_time)
    else:
        regressions = compare_files(base, cand, args.threshold, args.min_time)

    if regressions:
        print(f"{len(regressions)} timing regression(s) past "
              f"{args.threshold * 100:.0f}%:")
        for msg in regressions:
            print(f"  {msg}")
        return 1
    print("no timing regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
