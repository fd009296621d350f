#!/usr/bin/env python3
"""CI validator for fairchain --trace / --metrics output.

Usage:
    tools/check_trace.py TRACE.json [--metrics METRICS.jsonl]
                         [--require-shard-tracks N]
                         [--require-span NAME]...
                         [--require-metric NAME]...
                         [--max-shard-skew FRACTION]

Checks that TRACE.json is a well-formed Chrome/Perfetto trace-event
document of the shape src/obs/export.cpp pins:

  * one JSON object with a "traceEvents" array and displayTimeUnit "ms";
  * every event has a string "name", a one-letter "ph" in {X, M, i},
    and integer "pid"/"tid";
  * complete ("X") events carry numeric ts >= 0 and dur >= 0;
  * the parent process track (pid 0) is named "fairchain", and every
    pid that hosts span events also hosts a process_name metadata
    event — no orphan tracks in the viewer;
  * shard tracks are named "shard <s>" at pid s + 1.

--require-shard-tracks N additionally demands at least N distinct shard
tracks that each carry at least one span (the proof that a sharded run
streamed worker spans back over the pipe).  --require-span NAME (give it
multiple times) demands at least one "X" event with that exact name.

--max-shard-skew FRACTION asserts scheduler balance: each shard track's
busy fraction is the summed duration of its "campaign.chunk" spans over
the common wall window (first chunk start to last chunk end across all
shards), and the spread max - min across shards must not exceed
FRACTION.  This is the load-balance contract of the demand-driven grant
dispatcher — a static j%N ownership of heterogeneous cells fails it.

--metrics validates the JSONL sidecar: one JSON object per line, each
either {"type":"counter","name",...,"value"} with a non-negative integer
value, or {"type":"histogram",...} with count/total_ns/p50_ns/p95_ns/
p99_ns and non-decreasing quantiles.  --require-metric NAME (repeatable,
needs --metrics) demands a metric with that exact name that recorded
something: a counter with value > 0 or a histogram with count > 0.

Exit status 0 when everything holds; 1 with one line per violation.
"""

import argparse
import json
import re
import sys

SHARD_TRACK_RE = re.compile(r"^shard (\d+)$")


def check_shard_skew(path, chunk_spans, max_shard_skew, errors):
    """chunk_spans: pid -> list of (ts, dur) for its campaign.chunk spans."""
    if len(chunk_spans) < 2:
        print(f"{path}: shard skew not measurable "
              f"({len(chunk_spans)} shard track(s) with chunk spans)")
        return
    window_start = min(ts for spans in chunk_spans.values()
                       for ts, _ in spans)
    window_end = max(ts + dur for spans in chunk_spans.values()
                     for ts, dur in spans)
    window = window_end - window_start
    if window <= 0:
        errors.append(f"{path}: degenerate chunk-span wall window")
        return
    fractions = {pid: sum(dur for _, dur in spans) / window
                 for pid, spans in chunk_spans.items()}
    skew = max(fractions.values()) - min(fractions.values())
    detail = ", ".join(f"shard {pid - 1}: {fraction:.3f}"
                       for pid, fraction in sorted(fractions.items()))
    print(f"{path}: shard busy fractions [{detail}], skew {skew:.3f}")
    if skew > max_shard_skew:
        errors.append(
            f"{path}: shard busy-fraction skew {skew:.3f} exceeds "
            f"--max-shard-skew {max_shard_skew}")


def check_trace(path, require_shard_tracks, require_spans, max_shard_skew,
                errors):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{path}: not parseable JSON: {exc}")
        return

    if not isinstance(document, dict):
        errors.append(f"{path}: top level is not a JSON object")
        return
    events = document.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path}: missing traceEvents array")
        return
    if document.get("displayTimeUnit") != "ms":
        errors.append(f"{path}: displayTimeUnit is not \"ms\"")

    process_names = {}   # pid -> name from process_name metadata
    span_pids = set()    # pids that host at least one "X" event
    span_names = set()
    chunk_spans = {}     # shard pid -> [(ts, dur)] of campaign.chunk spans
    for index, event in enumerate(events):
        where = f"{path}: event[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("name")
        phase = event.get("ph")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or empty name")
            continue
        if phase not in ("X", "M", "i"):
            errors.append(f"{where} ({name}): unexpected ph {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where} ({name}): {key} is not an integer")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"{where} ({name}): {key} is not a number >= 0")
            span_pids.add(event.get("pid"))
            span_names.add(name)
            pid = event.get("pid")
            ts, dur = event.get("ts"), event.get("dur")
            if (name == "campaign.chunk" and isinstance(pid, int) and
                    pid > 0 and isinstance(ts, (int, float)) and
                    isinstance(dur, (int, float))):
                chunk_spans.setdefault(pid, []).append((ts, dur))
        elif phase == "M" and name == "process_name":
            args = event.get("args")
            track = args.get("name") if isinstance(args, dict) else None
            if not isinstance(track, str) or not track:
                errors.append(f"{where}: process_name without args.name")
                continue
            pid = event.get("pid")
            if pid in process_names:
                errors.append(f"{path}: duplicate process_name for pid {pid}")
            process_names[pid] = track

    if process_names.get(0) != "fairchain":
        errors.append(f"{path}: pid 0 is not named \"fairchain\"")

    shard_tracks_with_spans = 0
    for pid, track in sorted(process_names.items()):
        if pid == 0:
            continue
        match = SHARD_TRACK_RE.match(track)
        if not match:
            errors.append(
                f"{path}: pid {pid} track {track!r} is not \"shard <s>\"")
            continue
        if int(match.group(1)) + 1 != pid:
            errors.append(
                f"{path}: track {track!r} must live at pid "
                f"{int(match.group(1)) + 1}, found pid {pid}")
        if pid in span_pids:
            shard_tracks_with_spans += 1

    for pid in sorted(span_pids - set(process_names)):
        errors.append(f"{path}: pid {pid} hosts spans but has no "
                      "process_name metadata (orphan track)")

    if shard_tracks_with_spans < require_shard_tracks:
        errors.append(
            f"{path}: {shard_tracks_with_spans} shard track(s) with spans, "
            f"required {require_shard_tracks}")
    for required in require_spans:
        if required not in span_names:
            errors.append(f"{path}: no span named {required!r}")
    if max_shard_skew is not None:
        check_shard_skew(path, chunk_spans, max_shard_skew, errors)

    print(f"{path}: {len(events)} events, "
          f"{len(span_names)} distinct span names, "
          f"{shard_tracks_with_spans} populated shard track(s)")


def check_metrics(path, require_metrics, errors):
    counters = 0
    histograms = 0
    recorded = set()  # names of metrics with a non-zero value or count
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        errors.append(f"{path}: unreadable: {exc}")
        return
    for number, line in enumerate(lines, start=1):
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: not a JSON object: {exc}")
            continue
        kind = record.get("type")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing metric name")
            continue
        if kind == "counter":
            counters += 1
            value = record.get("value")
            if not isinstance(value, int) or value < 0:
                errors.append(f"{where} ({name}): counter value must be a "
                              "non-negative integer")
            elif value > 0:
                recorded.add(name)
        elif kind == "histogram":
            histograms += 1
            for key in ("count", "total_ns"):
                if not isinstance(record.get(key), int):
                    errors.append(f"{where} ({name}): {key} must be an "
                                  "integer")
            if isinstance(record.get("count"), int) and record["count"] > 0:
                recorded.add(name)
            quantiles = [record.get(k) for k in ("p50_ns", "p95_ns",
                                                 "p99_ns")]
            if not all(isinstance(q, (int, float)) and q >= 0
                       for q in quantiles):
                errors.append(f"{where} ({name}): quantiles must be "
                              "numbers >= 0")
            elif not (quantiles[0] <= quantiles[1] <= quantiles[2]):
                errors.append(f"{where} ({name}): quantiles not "
                              f"non-decreasing: {quantiles}")
        else:
            errors.append(f"{where} ({name}): unknown type {kind!r}")
    for required in require_metrics:
        if required not in recorded:
            errors.append(f"{path}: no recorded metric named {required!r}")
    print(f"{path}: {counters} counter(s), {histograms} histogram(s)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", help="Chrome trace-event JSON from --trace")
    parser.add_argument("--metrics", help="metrics JSONL from --metrics")
    parser.add_argument("--require-shard-tracks", type=int, default=0,
                        help="minimum shard tracks that must carry spans")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="span name that must appear (repeatable)")
    parser.add_argument("--require-metric", action="append", default=[],
                        metavar="NAME",
                        help="metric that must have recorded a value "
                             "(repeatable; needs --metrics)")
    parser.add_argument("--max-shard-skew", type=float, default=None,
                        metavar="FRACTION",
                        help="maximum allowed spread of per-shard busy "
                             "fractions (campaign.chunk span time over the "
                             "common wall window)")
    args = parser.parse_args()
    if args.require_metric and not args.metrics:
        parser.error("--require-metric needs --metrics")

    errors = []
    check_trace(args.trace, args.require_shard_tracks, args.require_span,
                args.max_shard_skew, errors)
    if args.metrics:
        check_metrics(args.metrics, args.require_metric, errors)

    if errors:
        print("\nFAIL:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("\nOK: trace document is well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
