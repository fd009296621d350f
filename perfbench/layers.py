"""Per-layer metrics from one traced fairchain_cli run.

The CLI already records spans at the public entry points of each layer
(docs/OBSERVABILITY.md has the taxonomy).  This module reads the Chrome
trace (--trace) and the metrics JSONL (--metrics) of one run, attributes
every `campaign.chunk` span to the cell it ran, and reduces the result to
the per-layer metrics listed under "per_layer" in BENCHMARK.json.

A chunk span carries only its cell index, and cell indices restart in
every campaign, so a chunk is attributed in two steps: first to the
`campaign.run` span whose interval holds its start (shard workers share
the parent's trace epoch, so this holds across tracks), then to the cell
of that campaign, as read from the campaign CSV or the scenario's verdict
CSV.
"""

import contextlib
import csv
import io
import json
import re
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

PROTOCOLS = ("pow", "mlpos", "slpos", "cpos", "fslpos", "neo", "algorand",
             "eos")
CHAIN_PROTOCOLS = ("selfish", "forkrace")

NS = 1e-9  # seconds per nanosecond
US_TO_NS = 1e3  # trace-event ts/dur are microseconds


@dataclass(frozen=True)
class Cell:
    protocol: str
    miners: int
    steps: int
    reps: int


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: float
    dur_ns: float
    pid: int
    arg: int


def load_trace(path):
    """Returns the complete ("X") events of a --trace file as Spans."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    spans = []
    for event in document["traceEvents"]:
        if event.get("ph") != "X":
            continue
        spans.append(Span(event["name"], event["ts"] * US_TO_NS,
                          event["dur"] * US_TO_NS, event["pid"],
                          event.get("args", {}).get("v", 0)))
    return spans


def load_metrics(path):
    """Returns (counters, histograms) from a --metrics JSONL file."""
    counters, histograms = {}, {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["type"] == "counter":
                counters[record["name"]] = record["value"]
            else:
                histograms[record["name"]] = record
    return counters, histograms


def campaign_cells(csv_path):
    """Cell index -> Cell, from a campaign CSV (one row per checkpoint)."""
    cells = {}
    with open(csv_path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            cells.setdefault(int(row["cell"]), Cell(
                row["protocol"], int(row["miners"]), int(row["steps"]),
                int(row["replications"])))
    return cells


def verdict_cells(csv_path, steps, reps):
    """Cell index -> Cell, from a verdict CSV (one row per check).

    Verdict rows name the protocol and miner count but not the run
    length; `verify --reps/--steps` set it for every scenario alike.
    """
    cells = {}
    with open(csv_path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            cells.setdefault(int(row["cell"]), Cell(
                row["protocol"], int(row["miners"]), steps, reps))
    return cells


def attribute_chunks(spans, campaigns):
    """Pairs every campaign.chunk span with its Cell.

    `campaigns` lists each campaign's cell table in run order, one per
    `campaign.run` span.  Returns [(campaign index, cell index, Cell,
    chunk ns)].  Raises ValueError when a chunk lies outside every run or
    names a cell its campaign does not have.
    """
    runs = sorted((s for s in spans if s.name == "campaign.run"),
                  key=lambda s: s.start_ns)
    if len(runs) != len(campaigns):
        raise ValueError(f"{len(runs)} campaign.run span(s) for "
                         f"{len(campaigns)} campaign(s)")
    attributed = []
    for chunk in (s for s in spans if s.name == "campaign.chunk"):
        owner = next((i for i, run in enumerate(runs)
                      if run.start_ns <= chunk.start_ns
                      <= run.start_ns + run.dur_ns), None)
        if owner is None:
            raise ValueError(f"chunk of cell {chunk.arg} at "
                             f"{chunk.start_ns} ns is outside every run")
        cell = campaigns[owner].get(chunk.arg)
        if cell is None:
            raise ValueError(f"chunk names cell {chunk.arg}, which "
                             f"campaign {owner} does not have")
        attributed.append((owner, chunk.arg, cell, chunk.dur_ns))
    return attributed


def split_by(attributed, key):
    """key(Cell) -> (chunk ns, replication steps) over the chunks given.

    Steps count each cell once (reps x steps), however many chunks ran it.
    """
    time_ns, steps, seen = {}, {}, set()
    for owner, index, cell, dur_ns in attributed:
        group = key(cell)
        time_ns[group] = time_ns.get(group, 0.0) + dur_ns
        if (owner, index) not in seen:
            seen.add((owner, index))
            steps[group] = steps.get(group, 0) + cell.reps * cell.steps
    return {group: (time_ns[group], steps[group]) for group in time_ns}


def shard_busy_skew(spans):
    """Spread of per-shard busy fractions, as tools/check_trace.py
    --max-shard-skew computes it; 0 when fewer than two shard tracks ran
    chunks (pool backends record chunks on the parent, pid 0)."""
    chunk_spans = {}
    for span in spans:
        if span.name == "campaign.chunk" and span.pid > 0:
            chunk_spans.setdefault(span.pid, []).append(
                (span.start_ns, span.dur_ns))
    if len(chunk_spans) < 2:
        return 0.0
    tools = str(Path(__file__).resolve().parent.parent / "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    import check_trace  # pylint: disable=import-outside-toplevel

    # check_shard_skew reports the spread only on stdout.
    printed, errors = io.StringIO(), []
    with contextlib.redirect_stdout(printed):
        check_trace.check_shard_skew("trace", chunk_spans, float("inf"),
                                     errors)
    match = re.search(r"skew (\d+(?:\.\d+)?)$", printed.getvalue().strip())
    if errors or match is None:
        raise ValueError(f"shard skew not computed: {errors or printed}")
    return float(match.group(1))


def per_layer(spans, counters, histograms, campaigns, *, workers,
              traced_wall_s, untraced_wall_s, store_bytes_written,
              verdict_rows, is_verify):
    """Every per-layer metric of BENCHMARK.json, as name -> value.

    A metric whose layer the workload does not reach reads 0 (for
    example C-PoS shares on a PoW/ML-PoS sweep, or store metrics on a
    run without a store).
    """
    def total(name):
        return sum(s.dur_ns for s in spans if s.name == name) * NS

    def ns_per_step(split, group):
        time_ns, steps = split.get(group, (0.0, 0))
        return time_ns / steps if steps else 0.0

    def hist_p50_ms(name):
        return histograms.get(name, {}).get("p50_ns", 0.0) / 1e6

    attributed = attribute_chunks(spans, campaigns)
    chunk_ns = [dur for _, _, _, dur in attributed]
    all_chunk_ns = sum(chunk_ns)

    def share(time_ns):
        return time_ns / all_chunk_ns if all_chunk_ns else 0.0

    by_protocol = split_by(attributed, lambda c: c.protocol)
    by_miners = split_by(attributed, lambda c: (c.protocol, c.miners))
    run_s = total("campaign.run")

    metrics = {}
    for protocol in PROTOCOLS:
        metrics[f"protocol.{protocol}.cpu_share"] = share(
            by_protocol.get(protocol, (0.0, 0))[0])
        metrics[f"protocol.{protocol}.ns_per_step"] = ns_per_step(
            by_protocol, protocol)
    for miners in (2, 5, 10):
        metrics[f"protocol.cpos.ns_per_step.m{miners}"] = ns_per_step(
            by_miners, ("cpos", miners))
    for protocol in ("pow", "mlpos"):
        metrics[f"protocol.{protocol}.ns_per_step.m100000"] = ns_per_step(
            by_miners, (protocol, 100000))
    metrics["chain.cpu_share"] = share(sum(
        by_protocol.get(p, (0.0, 0))[0] for p in CHAIN_PROTOCOLS))
    for protocol in CHAIN_PROTOCOLS:
        metrics[f"chain.{protocol}.ns_per_event"] = ns_per_step(
            by_protocol, protocol)

    metrics["core.replication_s"] = (total("mc.replication_range") +
                                     total("mc.chain_replication_range"))
    metrics["core.execute_s"] = total("backend.execute")
    metrics["core.pool.steals"] = counters.get("campaign.steal_count", 0)
    metrics["core.shard.grant_wait_s"] = histograms.get(
        "campaign.grant_ns", {}).get("total_ns", 0) * NS
    metrics["core.shard.consume_s"] = total("shard.consume")
    metrics["core.shard.busy_skew"] = shard_busy_skew(spans)

    metrics["sim.run_s"] = run_s
    metrics["sim.busy_frac"] = (all_chunk_ns * NS / (workers * run_s)
                                if run_s else 0.0)
    metrics["sim.chunks"] = len(chunk_ns)
    metrics["sim.chunk_p50_ms"] = (statistics.median(chunk_ns) / 1e6
                                   if chunk_ns else 0.0)
    metrics["sim.chunk_max_ms"] = max(chunk_ns, default=0.0) / 1e6
    metrics["sim.cost_model.pred_over_obs"] = (
        counters.get("campaign.cost_total_ns", 0) / all_chunk_ns
        if all_chunk_ns else 0.0)
    metrics["sim.reduce_s"] = total("campaign.reduce")
    metrics["sim.emit_s"] = total("campaign.emit")
    metrics["sim.store_probe_s"] = total("campaign.store_probe")

    metrics["store.put_s"] = total("store.put")
    metrics["store.put_p50_ms"] = hist_p50_ms("store.put_ns")
    metrics["store.bytes_written"] = store_bytes_written
    metrics["store.load_s"] = total("store.load")
    metrics["store.load_p50_ms"] = hist_p50_ms("store.load_ns")
    metrics["store.hits"] = counters.get("store.hits", 0)
    metrics["store.misses"] = counters.get("store.misses", 0)

    metrics["verify.self_s"] = traced_wall_s - run_s if is_verify else 0.0
    metrics["verify.checks"] = verdict_rows
    metrics["obs.trace_overhead_frac"] = traced_wall_s / untraced_wall_s - 1
    return metrics
