#!/usr/bin/env python3
"""End-to-end benchmark of fairchain_cli campaigns, with a traced
per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of perfbench/workloads.py's workloads, or `all` to run each
in turn.  The script builds fairchain_cli from this checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), prepares the workload, then
invokes the CLI repeatedly for S seconds with tracing off and checks
every output.  With --trace 0 the last stdout line is a JSON object
carrying the end-to-end metrics of BENCHMARK.json (medians over the
invocations); with --trace 1 traced invocations follow (--trace and
--metrics on), and the object carries the per-layer metrics that
perfbench/layers.py computes from their traces (medians again).

Scratch files live under .bench_run/ and are removed at the end.
"""

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import VERIFY_REPS, VERIFY_STEPS, WORKERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times and for SETUP_SECONDS, so a
# millisecond set-up is still the median of many.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
MIN_SAMPLES = 3
# Traced invocations repeat for TRACE_SECONDS (at least once); each
# per-layer metric is their median, so a one-off stall does not set it.
TRACE_SECONDS = 3.0
RUN_BUDGET_S = 170  # a run must end well inside 180 s


class BenchError(Exception):
    pass


def parse_args():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


# --------------------------------------------------------------------------
# Build and run context
# --------------------------------------------------------------------------

def build():
    """Configures (once) and builds fairchain_cli; returns (dir, binary)."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no CMakeLists.txt in {ROOT}: not a fairchain "
                         "source checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DFAIRCHAIN_BUILD_TESTS=OFF"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "fairchain_cli", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return build_dir, build_dir / "fairchain_cli"


def source_digest():
    """SHA-256 over the sources, naming the code in checkouts without git."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("cmake", "src", "tools"):
        files += (p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(build_dir, cli, seed):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if match:
            cache[match.group(1)] = match.group(2)
    cpuinfo = Path("/proc/cpuinfo")
    cpuinfo = cpuinfo.read_text() if cpuinfo.exists() else ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else None,
        "avx512f": bool(re.search(r"\bavx512f\b", cpuinfo)),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "lane_simd": cache.get("FAIRCHAIN_LANE_SIMD"),
        "version": subprocess.run([str(cli), "version"], capture_output=True,
                                  text=True, check=True).stdout.strip(),
        "commit": commit or None,
        "source_sha256": source_digest(),
        "workers": WORKERS,
        "seed": seed,
    }


def refuse_bad_context(context):
    """A record from a non-Release build, or one with fewer CPUs than
    workers, measures the wrong thing: its gates could never arm."""
    if context["build_type"] != "Release":
        raise BenchError(f"CMAKE_BUILD_TYPE is {context['build_type']!r}, "
                         "not Release; refusing to record")
    if context["nproc"] < WORKERS:
        raise BenchError(f"{context['nproc']} CPU(s) for {WORKERS} workers; "
                         "refusing to record")


# --------------------------------------------------------------------------
# One CLI invocation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(cli, args, cwd, deadline):
    """Runs the CLI in `cwd` and returns its wall time, the user+sys CPU
    and peak RSS of its whole process tree (wait4 folds in every
    descendant it reaped: pool threads and shard workers), and stdout.
    The process group is killed at `deadline` (time.monotonic())."""
    log = cwd / "stdout.txt"
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(cli), *args], cwd=cwd, stdout=out,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"{' '.join(args[:2])} killed at the run deadline")
    return Invocation(wall_s, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode,
                      log.read_text())


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def scenario_listing(cli):
    """Scenario name -> cell count, from `fairchain_cli scenarios`."""
    listing = subprocess.run([str(cli), "scenarios"], capture_output=True,
                             text=True, check=True).stdout
    return {m.group(1): int(m.group(2)) for m in re.finditer(
        r"^\| ([a-z0-9-]+)\s*\| (\d+)\s*\|", listing, re.M)}


def scenario_checkpoints(cli, scenario):
    spec = subprocess.run([str(cli), "scenarios", scenario],
                          capture_output=True, text=True, check=True).stdout
    return int(re.search(r"^checkpoints=(\d+)$", spec, re.M).group(1))


class CampaignCheck:
    """Operation = one cell.  A cell fails if the CLI exited non-zero,
    or it lacks exactly `checkpoints` rows, or its rows' bytes differ from
    the first invocation of the run."""

    def __init__(self, cells, checkpoints):
        self.cells = cells
        self.checkpoints = checkpoints
        self.reference = None

    def __call__(self, invocation, out_dir):
        rows = {}
        csv_path = out_dir / "out.csv"
        if invocation.exit_code == 0 and csv_path.exists():
            for line in csv_path.read_bytes().splitlines()[1:]:
                rows.setdefault(int(line.split(b",", 2)[1]), []).append(line)
        if self.reference is None:
            self.reference = rows
        failed = sum(
            1 for cell in range(self.cells)
            if len(rows.get(cell, ())) != self.checkpoints
            or rows[cell] != self.reference.get(cell))
        consistent = set(rows) <= set(range(self.cells))
        return self.cells, failed, consistent


def read_verdicts(out_dir, scenario):
    path = out_dir / f"verify_{scenario}.csv"
    return path.read_bytes().splitlines()[1:] if path.exists() else []


class VerifyCheck:
    """Operation = one verdict check.  A check fails if its verdict row
    says FAIL or its bytes differ from the reference invocation's.  The
    CLI's per-scenario and `N failing check(s)` lines, its exit status and
    its store hit/miss line must agree with the verdict CSVs, or the run
    is not correct."""

    SCENARIO_RE = re.compile(
        r"^verify (\S+): (\d+)/(\d+) checks passed across (\d+) cells", re.M)
    TOTAL_RE = re.compile(r"^verify --all: (\d+) scenario\(s\), "
                          r"(\d+) failing check\(s\)$", re.M)
    STORE_RE = re.compile(r"^store .*: (\d+) hit\(s\), (\d+) miss\(es\)",
                          re.M)

    def __init__(self, listing, warm):
        self.listing = listing
        self.warm = warm
        self.reference = None  # scenario -> verdict rows
        self.order = []  # scenarios in the order the CLI ran them

    def __call__(self, invocation, out_dir):
        text = invocation.stdout
        reported = {m.group(1): tuple(int(g) for g in m.group(2, 3, 4))
                    for m in self.SCENARIO_RE.finditer(text)}
        total = self.TOTAL_RE.search(text)
        store = self.STORE_RE.search(text)
        verdicts = {name: read_verdicts(out_dir, name) for name in reported}
        if self.reference is None:
            self.reference = verdicts
            self.order = list(reported)

        attempted = failed = fail_rows = 0
        consistent = (list(reported) == self.order and
                      set(self.order) == set(self.listing))
        for name in self.order:
            rows = verdicts.get(name, [])
            passing = [row[-2] == "pass"
                       for row in csv.reader(r.decode() for r in rows)]
            fail_rows += passing.count(False)
            consistent &= (reported.get(name) ==
                           (sum(passing), len(rows), self.listing.get(name)))
            reference = self.reference[name]
            attempted += len(reference)
            failed += sum(1 for i, row in enumerate(reference)
                          if i >= len(rows) or rows[i] != row
                          or not passing[i])
        cells = sum(self.listing.values())
        consistent &= (total is not None and store is not None and
                       int(total.group(2)) == fail_rows and
                       invocation.exit_code == (1 if fail_rows else 0) and
                       (int(store.group(1)), int(store.group(2))) ==
                       ((cells, 0) if self.warm else (0, cells)))
        return attempted, failed, consistent


# --------------------------------------------------------------------------
# A run of one workload
# --------------------------------------------------------------------------

def dir_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def reset(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class WorkloadRun:
    def __init__(self, workload, cli, seed, deadline):
        self.workload = workload
        self.cli = cli
        self.seed = seed
        self.deadline = deadline
        self.work = ROOT / ".bench_run" / workload.name
        self.out = self.work / "out"
        self.store = self.work / "store"
        self.check = None
        self.correct = True

    def args(self, extra=()):
        args = [*self.workload.args, "--seed", str(self.seed)]
        if self.workload.scenario:
            args += ["--csv", "out.csv", "--jsonl", "out.jsonl"]
        else:
            args += ["--store", str(self.store)]
        return args + list(extra)

    def setup(self):
        """Untimed preparation: clear the scratch and store directories,
        resolve the workload's expected outputs from the CLI and, for a
        warm workload, fill the store with one cold run."""
        reset(self.work)
        listing = scenario_listing(self.cli)
        if self.workload.scenario:
            self.check = CampaignCheck(
                listing[self.workload.scenario],
                scenario_checkpoints(self.cli, self.workload.scenario))
            return
        self.check = VerifyCheck(listing, warm=False)
        if self.workload.warm:
            # The fill is cold and becomes the reference; every later
            # invocation must hit the store it filled.
            fill = self.work / "fill"
            fill.mkdir()
            self.measure(self.args(), fill)
            self.check.warm = True

    def prepare(self):
        reset(self.out)
        if not self.workload.warm:
            shutil.rmtree(self.store, ignore_errors=True)

    def measure(self, args, cwd):
        invocation = invoke(self.cli, args, cwd, self.deadline)
        attempted, failed, consistent = self.check(invocation, cwd)
        self.correct &= consistent
        return invocation, attempted, failed


def run_workload(workload, cli, seed, seconds, trace, metric_specs):
    deadline = time.monotonic() + RUN_BUDGET_S
    run = WorkloadRun(workload, cli, seed, deadline)
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        start = time.perf_counter()
        run.setup()
        setup_s.append(time.perf_counter() - start)

    samples, attempted, failed = [], 0, 0
    start = time.monotonic()
    while len(samples) < MIN_SAMPLES or time.monotonic() - start < seconds:
        run.prepare()
        invocation, ops, bad = run.measure(run.args(), run.out)
        samples.append(invocation)
        attempted += ops
        failed += bad

    wall_s = statistics.median(s.wall_s for s in samples)
    if trace:
        per_invocation = []
        start = time.monotonic()
        while not per_invocation or time.monotonic() - start < TRACE_SECONDS:
            run.prepare()
            before = dir_bytes(run.store) if run.store.exists() else 0
            traced, ops, bad = run.measure(
                run.args(("--trace", "trace.json", "--metrics",
                          "metrics.jsonl")), run.out)
            attempted += ops
            failed += bad
            per_invocation.append(traced_metrics(run, traced, wall_s, before))
        values = {name: statistics.median(v[name] for v in per_invocation)
                  for name in per_invocation[0]}
        wall_bound = metric_specs["end_to_end"]["wall_s"]["bound"]
        overhead = values["obs.trace_overhead_frac"]
        if overhead > wall_bound:
            print(f"WARNING: traced runs {overhead:+.3f} slower than the "
                  f"untraced median, beyond the wall_s bound {wall_bound}; "
                  "their split may not describe the untraced program",
                  file=sys.stderr)
        kind = "per_layer"
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "setup_s": statistics.median(setup_s),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        kind = "end_to_end"
        print(f"{workload.name}: {len(samples)} invocation(s), wall_s "
              f"{min(s.wall_s for s in samples):.4f}.."
              f"{max(s.wall_s for s in samples):.4f}; {len(setup_s)} "
              f"set-up(s), setup_s {min(setup_s):.4f}..{max(setup_s):.4f}")
    shutil.rmtree(run.work, ignore_errors=True)

    metrics = {}
    for name, spec in metric_specs[kind].items():
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"  {name:<40} {values[name]:>14.6g} {spec['unit']}")
    return {"correct": run.correct and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_metrics(run, traced, untraced_wall_s, store_bytes_before):
    spans = layers.load_trace(run.out / "trace.json")
    counters, histograms = layers.load_metrics(run.out / "metrics.jsonl")
    if run.workload.scenario:
        campaigns = [layers.campaign_cells(run.out / "out.csv")]
        verdict_rows = 0
    else:
        campaigns = [layers.verdict_cells(
            run.out / f"verify_{name}.csv", VERIFY_STEPS, VERIFY_REPS)
            for name in run.check.order]
        verdict_rows = sum(len(read_verdicts(run.out, name))
                           for name in run.check.order)
    store_bytes = dir_bytes(run.store) if run.store.exists() else 0
    return layers.per_layer(
        spans, counters, histograms, campaigns, workers=WORKERS,
        traced_wall_s=traced.wall_s, untraced_wall_s=untraced_wall_s,
        store_bytes_written=store_bytes - store_bytes_before,
        verdict_rows=verdict_rows, is_verify=not run.workload.scenario)


def main():
    args = parse_args()
    try:
        spec_path = ROOT / "BENCHMARK.json"
        document = json.loads(spec_path.read_text())
        metric_specs = {kind: {m["name"]: m for m in document[kind]}
                        for kind in ("end_to_end", "per_layer")}
        build_dir, cli = build()
        context = run_context(build_dir, cli, args.seed)
        print("context " + json.dumps(context, sort_keys=True))
        refuse_bad_context(context)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(WORKLOADS[name], cli, args.seed,
                                      args.seconds, args.trace, metric_specs)
                   for name in names}
    except (BenchError, OSError, ValueError,
            subprocess.CalledProcessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
