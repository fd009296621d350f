#!/usr/bin/env python3
"""CI perf guardrail: compare a fresh hotpath-bench run against the
checked-in BENCH_hotpath.json baseline and fail on real regressions.

Usage:
    tools/compare_hotpath_bench.py BASELINE.json CURRENT.json [--limit 1.25]

CI runners and dev machines differ in raw speed, so absolute ns/step is
not comparable across machines.  Instead, for every benchmark present in
both files we compute the slowdown ratio

    ratio = current_ns_per_item / baseline_ns_per_item

and normalise it by the MEDIAN ratio across all shared benchmarks — the
median captures the machine-speed factor (if the runner is uniformly 1.7x
slower, every ratio is ~1.7 and nothing is flagged), while a genuine
hot-path regression moves its own benchmark's ratio away from the pack.
A benchmark fails when its normalised ratio exceeds --limit (default
1.25, the ">25% ns/step regression" budget).

Benchmarks that exist in only one file are reported but never fail the
job (adding or retiring a series must not break CI), and aggregate rows
(_mean/_median/_stddev) plus error-state rows are skipped.  The
allocation counters travel through the same JSON: any
allocs_per_replication > 0 fails immediately, machine speed is
irrelevant to it.

Wall-clock families (currently BM_ShardCampaign, which forks worker
processes and marshals results over pipes every iteration) are handled
separately: fork/pipe cost does not track CPU speed the way the compute
kernels do, and a loaded runner adds scheduling noise the kernels never
see.  Those series are EXCLUDED from the machine-speed median and held
to their own looser budget (--wall-limit, default 1.60), still
normalised by the kernel median so a uniformly slow runner passes.

Observability overhead pairs (BM_ObsInstrumented_X vs BM_ObsBase_X) are
compared WITHIN the current run — same machine, same load, same binary —
so no baseline or normalisation is involved: the instrumented loop (a
disabled Span check plus a live histogram record per segment, the exact
production call-site shape) must stay within --obs-limit (default 1.02,
the "<2% ns/step with the layer compiled in but disabled" budget).
"""

import argparse
import json
import sys

# Benchmark-name prefixes measured on wall clock (UseRealTime) whose cost
# is dominated by process management rather than the compute kernel.
WALL_CLOCK_PREFIXES = ("BM_ShardCampaign",)


def is_wall_clock(name):
    return name.startswith(WALL_CLOCK_PREFIXES)


# Within-run overhead pairs: instrumented series prefix -> base prefix.
OBS_INSTRUMENTED_PREFIX = "BM_ObsInstrumented_"
OBS_BASE_PREFIX = "BM_ObsBase_"


def check_obs_overhead(current, limit, failures):
    """Holds every BM_ObsInstrumented_X to limit x its BM_ObsBase_X twin
    from the same run.  Pairs missing either side are reported, never
    failed (retiring a protocol from the family must not break CI)."""
    pairs = []
    for name, value in sorted(current.items()):
        if not name.startswith(OBS_INSTRUMENTED_PREFIX) or not value:
            continue
        base_name = OBS_BASE_PREFIX + name[len(OBS_INSTRUMENTED_PREFIX):]
        base = current.get(base_name)
        if not base:
            print(f"note: {name} has no {base_name} twin; overhead unchecked")
            continue
        pairs.append((name, base, value))
    if not pairs:
        return
    print(f"\nobservability overhead (within-run, limit {limit:.2f}x):")
    print(f"{'pair':48} {'base ns':>9} {'instr ns':>9} {'ratio':>6}")
    for name, base, value in pairs:
        ratio = value / base
        flag = ""
        if ratio > limit:
            failures.append(
                f"{name}: instrumented/base ratio {ratio:.3f}x exceeds "
                f"{limit:.2f}x (observability overhead budget)")
            flag = "  << OVERHEAD"
        print(f"{name:48} {base:9.2f} {value:9.2f} {ratio:6.3f}{flag}")


def load_benchmarks(path):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    rows = {}
    counters = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if bench.get("run_type") == "aggregate":
            continue
        if "error_occurred" in bench:
            # A failed benchmark (e.g. the zero-alloc probe tripping) is a
            # hard failure on its own.
            rows[name] = None
            continue
        items = bench.get("items_per_second")
        if items:
            rows[name] = 1.0e9 / items  # ns per item (per simulated step)
        if "allocs_per_replication" in bench:
            counters[name] = bench["allocs_per_replication"]
    return rows, counters


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--limit", type=float, default=1.25,
                        help="max allowed normalised slowdown (default 1.25)")
    parser.add_argument("--wall-limit", type=float, default=1.60,
                        help="max allowed normalised slowdown for wall-clock "
                             "families like BM_ShardCampaign (default 1.60)")
    parser.add_argument("--obs-limit", type=float, default=1.02,
                        help="max instrumented/base ratio for the "
                             "BM_Obs* within-run pairs (default 1.02)")
    args = parser.parse_args()

    baseline, _ = load_benchmarks(args.baseline)
    current, counters = load_benchmarks(args.current)

    failures = []
    for name, allocs in sorted(counters.items()):
        if allocs and allocs > 0:
            failures.append(f"{name}: {allocs} steady-state allocations per "
                            "replication (must be 0)")
    for name, value in sorted(current.items()):
        if value is None:
            failures.append(f"{name}: benchmark reported an error")
    check_obs_overhead(current, args.obs_limit, failures)

    shared = sorted(name for name in baseline
                    if baseline[name] and current.get(name))
    only_base = sorted(set(baseline) - set(current))
    only_curr = sorted(set(current) - set(baseline))
    if only_base:
        print(f"note: {len(only_base)} baseline-only benchmark(s) skipped: "
              + ", ".join(only_base[:5]) + ("..." if len(only_base) > 5 else ""))
    if only_curr:
        print(f"note: {len(only_curr)} new benchmark(s) without baseline: "
              + ", ".join(only_curr[:5]) + ("..." if len(only_curr) > 5 else ""))
    if not shared:
        print("error: no shared benchmarks between baseline and current run")
        return 1

    ratios = {name: current[name] / baseline[name] for name in shared}
    # The machine-speed factor comes from the compute kernels only; the
    # wall-clock families (fork + pipe marshalling) would skew it on a
    # loaded runner.  If somehow ONLY wall-clock series are shared, fall
    # back to using them so the median is never empty.
    kernel_ratios = [ratios[name] for name in shared
                     if not is_wall_clock(name)]
    ordered = sorted(kernel_ratios or ratios.values())
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else 0.5 * (ordered[mid - 1] + ordered[mid]))
    print(f"{len(shared)} shared benchmarks; machine-speed factor "
          f"(median kernel slowdown) {median:.3f}")

    print(f"{'benchmark':48} {'base ns':>9} {'curr ns':>9} {'norm':>6}")
    for name in shared:
        normalised = ratios[name] / median
        limit = args.wall_limit if is_wall_clock(name) else args.limit
        flag = ""
        if normalised > limit:
            failures.append(f"{name}: normalised slowdown {normalised:.2f}x "
                            f"exceeds {limit:.2f}x"
                            + (" (wall-clock budget)"
                               if is_wall_clock(name) else ""))
            flag = "  << REGRESSION"
        print(f"{name:48} {baseline[name]:9.2f} {current[name]:9.2f} "
              f"{normalised:6.2f}{flag}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no hot-path regression beyond the "
          f"{(args.limit - 1) * 100:.0f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
