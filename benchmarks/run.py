"""Benchmark of the spinbars CLI: fixed jobs, each in a fresh interpreter.

Run from the repository root:

    python3 benchmarks/run.py --workload deep --seed 1 --seconds 45 --trace 0

Load model: a closed loop with one client.  This script starts one job, waits
for it, then starts the next, each in its own interpreter, so no cache
carries over from one job to the next.  Within --seconds it cycles through
the workload's jobs (every job at least once), in an order fixed by --seed.
The inputs themselves are fixed grids: cost depends only on the verb,
group, n and p.

Every child runs with SPINBARS_WORKERS=1: the CLI's default pool of
os.cpu_count() threads gains nothing on pure-Python work under the GIL, and
on a 2-vCPU host its thread switching made wall_s swing by a quarter.

--trace 0 prints the end-to-end metrics:
  wall_s        sum over jobs of the median time inside cli.run
  setup_s       jobs x median time of `import spinbars.cli` + build_parser()
  peak_rss_mib  largest ru_maxrss of any job
Both times are given at a fixed reference host speed.  A shared host's vCPU
speed drifts by a fifth or more over seconds to minutes, which would swamp
the program's own changes, so right after each timed job the same child
times passes of a fixed pure-Python probe (hostprobe.py, which imports
nothing from spinbars) and each job sample is multiplied by PROBE_REF_S
over that probe time; setup_s is multiplied by PROBE_REF_S over the run's
median probe time.  The raw times and the probe median are printed too.
Set-up is also timed in SETUPS_PER_JOB set-up-only children after each job.
--trace 1 pairs every job with a traced twin, so spans nest on one thread,
and prints the per-layer metrics (self time, calls and shape counters per
function, plus the tracing overhead).  The first time round, each job also
gets a counting run, kept apart because counting AlgNum constructions slows
AlgNum arithmetic.  Raw spans of each job's last traced run go to
benchmarks/out/spans-<job>.jsonl.

benchmarks/smoke.py checks the benchmark itself in a few seconds.

Every job is checked: exit code 0, the semantic flags of its verb, and the
sha256 of its stdout against expected.json.  Each miss prints one line to
stderr and counts in `failed`.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
SETUPS_PER_JOB = 2  # extra set-up-only children per untraced job, for a steadier setup_s median
# About the median probe time (hostprobe.py, run in a job's child after the
# job) on the host that measured the first baseline; wall_s and setup_s are
# given at that host speed.
PROBE_REF_S = 0.2
RUN_LIMIT_S = 170  # hard limit on one run, jobs included; a job still running then is killed

# (verb, group, n, p).  Why each workload was chosen: see BENCHMARK.json.
WORKLOADS = {
    "deep": [("verify", "sym", 25, 5), ("verify", "alt", 29, 3), ("counts", "sym", 25, 5)],
    "wide": [("verify", "sym", 25, 11), ("verify", "alt", 25, 11)],
    "isometry": [("isometry", "sym", 10, 3), ("isometry", "alt", 12, 3)],
    # Seconds-long self-check used by smoke.py; not a benchmark workload.
    "smoke": [("verify", "sym", 8, 3), ("counts", "alt", 8, 3), ("isometry", "sym", 6, 3)],
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Span names whose self time is reported; their sum with cli.run is the
# traced time that the per-layer metrics account for (trace.coverage).
SELF_TIMED = (
    "zverify.hnf",
    "zverify.integral_coordinates",
    "zverify.integer_expansion",
    "zverify.restricted_matrix",
    "zverify.z_span_equal",
    "blocks.block_members",
    "blocks.block_partition",
    "blocks.basic_set",
    "spinchar.labels",
    "spinchar.split_classes",
    "spinchar.char_value",
    "barcomb.bar_partitions",
    "isometry.kernel_of",
    "isometry.perfect_check",
    "isometry.broue_check",
    "isometry.split_value_matrix",
    "isometry.iso_I",
    "isometry.basic_set_transport",
    "cli.run",
)
CALLED = ("zverify.hnf", "blocks.block_members", "spinchar.split_classes", "spinchar.char_value", "isometry.kernel_of")
# Shape counters from the span pass, and counters that get a pass of their own.
SHAPE_COUNTS = ("zverify.int_columns", "zverify.int_columns_nonzero", "zverify.matrix_cells", "isometry.kernel_terms")
PASS_COUNTS = ("barcomb.bar_core_quotient.calls", "algnum.AlgNum.constructions")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a job failing)."""


def job_id(job) -> str:
    verb, group, n, p = job
    return f"{verb}-{group}-n{n}-p{p}"


def run_child(job, trace: int, timeout: float) -> dict:
    """One job in a fresh interpreter: the child's JSON report plus `failure`.

    With job None the child only sets up (imports the CLI) and reports that.
    """
    jid = job_id(job) if job else "setup"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SPINBARS_WORKERS"] = "1"
    spans = str(OUT / f"spans-{jid}.jsonl") if trace == 1 else "-"
    cli_args = []
    if job:
        verb, group, n, p = job
        cli_args = [verb, "--group", group, "--n", str(n), "--p", str(p)]
    cmd = [sys.executable, str(CHILD), jid, str(trace), spans, "--", *cli_args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return {"job": jid, "failure": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child for {jid} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    report = json.loads(lines[-1])
    failure = report["reason"]
    expected = EXPECTED.get(jid)
    if job and failure is None and report["sha256"] != expected:
        failure = f"stdout sha256 {report['sha256']} differs from expected {expected}"
    report["failure"] = failure
    return report


def measure(jobs, seconds: int, trace: bool, seed: int) -> tuple[list, dict, list]:
    """Cycle through the jobs in seeded order until --seconds is spent.

    Every job runs at least once; after that a job starts only if its last
    sample fits in the time left.  Returns the order; per job id, a list of
    samples: {"plain": report} or, traced, {"plain", "traced"[, "counted"]};
    and the set-up-only reports, SETUPS_PER_JOB after each untraced job.
    """
    order = list(jobs)
    random.Random(seed).shuffle(order)
    start = time.perf_counter()
    samples = {job_id(j): [] for j in order}
    setups = []
    cost: dict[str, float] = {}

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    for i in itertools.count():
        job = order[i % len(order)]
        jid = job_id(job)
        began = time.perf_counter()
        if i >= len(order) and began - start + cost[jid] > seconds:
            break
        if trace:
            sample = {"plain": run_child(job, 0, left()), "traced": run_child(job, 1, left())}
            if i < len(order):  # counts repeat exactly, so one counting pass suffices
                sample["counted"] = run_child(job, 2, left())
        else:
            sample = {"plain": run_child(job, 0, left())}
            setups += [run_child(None, 0, left()) for _ in range(SETUPS_PER_JOB)]
        samples[jid].append(sample)
        cost[jid] = time.perf_counter() - began
        if any("wall_s" not in r for r in sample.values()):
            break  # a job timed out: the run limit is spent
    return order, samples, setups


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(samples: dict, setups: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw times and host speed behind them.

    Times are scaled to the reference host speed.  Each job sample's time is
    multiplied by PROBE_REF_S over the probe time measured right after it in
    the same child; setup_s is scaled by the run's median probe time.
    """
    plain = {jid: [s["plain"] for s in runs if "wall_s" in s["plain"]] for jid, runs in samples.items()}
    reports = [r for runs in plain.values() for r in runs]
    probe_s = _median((r["probe_s"] for r in reports), PROBE_REF_S)
    raw = {
        "wall_s": sum(_median(r["wall_s"] for r in runs) for runs in plain.values()),
        "setup_s": len(samples) * _median(r["setup_s"] for r in reports + setups if "setup_s" in r),
        "probe_s": probe_s,
    }
    metrics = {
        "wall_s": sum(_median(r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in runs) for runs in plain.values()),
        "setup_s": raw["setup_s"] * PROBE_REF_S / probe_s,
        "peak_rss_mib": max((r["rss_kib"] for r in reports), default=0) / 1024,
    }
    return metrics, raw


def per_layer(samples: dict) -> dict:
    """Per-layer metrics, summed over jobs.

    Times are each job's median over its traced twins; counts repeat
    exactly, so they come from the job's first traced and counting runs.
    """
    jobs = []  # (untraced/traced pairs, first span summary, counting-pass summary)
    for runs in samples.values():
        pairs = [(s["plain"], s["traced"]) for s in runs if "wall_s" in s["plain"] and "trace" in s["traced"]]
        counted = [s["counted"]["trace"] for s in runs if "trace" in s.get("counted", {})]
        if pairs and counted:
            jobs.append((pairs, pairs[0][1]["trace"], counted[0]))

    def timed(fn):
        return sum(_median(fn(plain, traced) for plain, traced in pairs) for pairs, _, _ in jobs)

    def counted(fn):
        return sum(fn(spans, counts) for _, spans, counts in jobs)

    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (timed(lambda p, t: t["trace"]["self_s"].get(name, 0.0)), "s")
    for name in CALLED:
        metrics[f"{name}.calls"] = (counted(lambda t, c: t["calls"].get(name, 0)), "count")
    for name in SHAPE_COUNTS:
        metrics[name] = (counted(lambda t, c: t["counts"].get(name, 0)), "count")
    for name in PASS_COUNTS:
        metrics[name] = (counted(lambda t, c: c["counts"].get(name, 0)), "count")
    bits = max((t["maxima"].get("zverify.hnf.max_entry_bits", 0) for _, t, _ in jobs), default=0)
    metrics["zverify.hnf.max_entry_bits"] = (bits, "bits")
    cols = metrics["zverify.int_columns"][0]
    nonzero = metrics["zverify.int_columns_nonzero"][0]
    metrics["zverify.int_columns_useful_ratio"] = (nonzero / cols if cols else 0.0, "ratio")
    calls = metrics["spinchar.split_classes.calls"][0]
    distinct = counted(lambda t, c: t["distinct"]["spinchar.split_classes"])
    metrics["spinchar.split_classes.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    metrics["cli.output_bytes"] = (sum(pairs[0][1]["output_bytes"] for pairs, _, _ in jobs), "bytes")
    metrics["trace.overhead_s"] = (timed(lambda p, t: t["wall_s"] - p["wall_s"]), "s")
    coverage = [
        _median(sum(t["trace"]["self_s"].get(n, 0.0) for n in SELF_TIMED) / t["wall_s"] for _, t in pairs)
        for pairs, _, _ in jobs
    ]
    metrics["trace.coverage"] = (min(coverage, default=0.0), "ratio")
    return metrics


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinbars").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "SPINBARS_WORKERS": "1",  # as every measured child sees it
        "seed": seed,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "spinbars" / "cli.py").is_file():
            raise HarnessError(f"no spinbars sources under {SRC}")
        OUT.mkdir(exist_ok=True)
        # Untimed warm-up: compiles the package's bytecode once, as an installed CLI has it.
        run_child(WORKLOADS["smoke"][0], 0, 60)
        order, samples, setups = measure(WORKLOADS[args.workload], args.seconds, bool(args.trace), args.seed)
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    reports = [(jid, r) for jid, runs in samples.items() for s in runs for r in s.values()]
    failed = [(jid, r["failure"]) for jid, r in reports if r["failure"]]
    for jid, why in failed:
        print(f"FAILED {jid}: {why}", file=sys.stderr)
    env = environment(args.seed)
    print(f"# workload={args.workload} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# order: " + ", ".join(map(job_id, order)))
    for jid, runs in samples.items():
        plain = [s["plain"] for s in runs if "wall_s" in s["plain"]]
        print(f"# {jid}: {len(plain)} samples, wall_s/probe_s: "
              + " ".join(f"{r['wall_s']:.4f}/{r.get('probe_s', float('nan')):.4f}" for r in plain))
    if args.trace:
        metrics = per_layer(samples)
    else:
        values, raw = end_to_end(samples, setups)
        print("# raw, before scaling to the reference host speed: "
              + " ".join(f"{k}={v:.4f}" for k, v in raw.items()) + f" (probe_ref_s={PROBE_REF_S})")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    ratio = len(failed) / len(reports)
    metrics_out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_ratio {ratio} ratio ({len(failed)}/{len(reports)})")
    result = {"correct": not failed, "attempted": len(reports), "failed": len(failed), "metrics": metrics_out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
