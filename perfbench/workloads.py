"""The benchmark's workloads: fairchain_cli invocations over the
sim -> core -> protocol/chain -> store -> verify stack.

WORKLOADS.md beside this file says why each one exists and what it
bypasses.  Sizes are chosen so one invocation takes a few seconds on a
4-CPU host, and a run takes the median of several.
"""

from dataclasses import dataclass

WORKERS = 4  # pool threads / shard processes; a host needs this many CPUs

# Both verify workloads share one size, so verify-warm reads exactly what
# verify-all writes.  The family alpha is tighter than the CLI default
# (1e-3 per scenario) because the benchmark runs on arbitrary seeds and a
# chance rejection must not read as a failed operation; a biased kernel
# still fails by many orders of magnitude at these replication counts.
VERIFY_REPS = 1000
VERIFY_STEPS = 240
VERIFY_ARGS = ("verify", "--all", "--backend", "pool", "--threads",
               str(WORKERS), "--reps", str(VERIFY_REPS), "--steps",
               str(VERIFY_STEPS), "--alpha", "1e-6")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments, without --seed and the output paths
    scenario: str = ""  # the campaign's scenario; empty for verify --all
    warm: bool = False  # runs against a store filled during set-up


WORKLOADS = {w.name: w for w in (
    Workload("table1-pool",
             ("campaign", "table1", "--backend", "pool", "--threads",
              str(WORKERS), "--reps", "100"),
             scenario="table1"),
    Workload("popsweep-shard",
             ("campaign", "large-population-sweep", "--backend",
              f"shard:{WORKERS}", "--reps", "4000"),
             scenario="large-population-sweep"),
    Workload("verify-all", VERIFY_ARGS),
    Workload("verify-warm", VERIFY_ARGS, warm=True),
)}
