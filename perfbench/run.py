#!/usr/bin/env python3
"""Wall-clock benchmark of the TxAllo pipeline: build, run, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver (and the txallo
library it links) into .bench_build/perfbench, runs one workload for S
seconds, checks every run's outputs, and prints a human-readable report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
FINGERPRINTS = HERE / "fingerprints.json"

# The driver's time limit. The build before it is a no-op once cached, so a
# run stays within 180 s; the first, building run may take longer.
DRIVER_LIMIT_S = 170.0

# Per-call spans of the traced driver, as <module>.<call>.
CALL_SPANS = [
    "mempool.offer", "mempool.seal", "mempool.take", "engine.route",
    "engine.tick", "engine.observe", "engine.snapshot", "alloc.apply",
    "alloc.rebalance", "alloc.install",
]
# Spans hit once per run.
ONCE_SPANS = ["mempool.setup", "engine.drain", "state.root"]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in [1, 120]")
    return args


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_driver(args, budget_s):
    command = [str(DRIVER), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=budget_s, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {budget_s:.0f} s")
    if done.returncode == 2:
        fail("driver rejected its arguments", code=2)
    try:
        records = [json.loads(line) for line in done.stdout.splitlines()
                   if line]
    except json.JSONDecodeError as error:
        fail(f"unreadable driver output: {error}")
    if not records or records[0].get("record") != "header":
        fail(f"driver exited with code {done.returncode} before its header")
    return done.returncode, records


def percentile(samples, p):
    """Nearest rank, as common::Histogram::Percentile computes it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples, p):
    """Samples strictly above the p-th percentile."""
    cut = percentile(samples, p)
    return sum(1 for s in samples if s > cut)


def check_outcome(outcome, open_loop):
    """Conservation laws every run must satisfy; returns the violations."""
    problems = []
    if outcome["committed"] + outcome["aborted"] != outcome["submitted"]:
        problems.append("committed + aborted != engine submitted")
    admitted_out = outcome["submitted"] + outcome["expired"]
    if open_loop:
        if outcome["admitted"] != admitted_out:
            problems.append("mempool admitted != submitted + expired")
        if outcome["offered"] != outcome["admitted"] + outcome["dropped"]:
            problems.append("offered != admitted + dropped")
    elif outcome["offered"] != outcome["submitted"]:
        problems.append("closed loop: offered != submitted")
    if outcome["committed"] == 0 or outcome["rebalances"] == 0:
        problems.append("nothing committed or no rebalance ran")
    return problems


def check_runs(header, runs, warmup):
    """Applies every output check. Returns (failed runs, messages)."""
    open_loop = header["params"]["loop"] == "open"
    messages = []
    failed = 0
    fingerprints = json.loads(FINGERPRINTS.read_text())
    if fingerprints["seed"] != header["default_seed"]:
        messages.append("fingerprints.json is for another default seed")
    if warmup["outcome"] != fingerprints["workloads"].get(header["workload"]):
        messages.append(
            "default-seed outcome differs from the stored fingerprint; "
            "observed: " + json.dumps(warmup["outcome"], sort_keys=True))
        failed += 1
    # Every run on one input must give one outcome: a traced run must equal
    # the untraced run on its input (parity of the benchmark's driver copy).
    reference = {}
    for run in runs:
        if run["record"] == "untraced":
            reference.setdefault(run["seed"], run["outcome"])
    for run in [warmup] + runs:
        problems = check_outcome(run["outcome"], open_loop)
        expected = reference.get(run["seed"])
        if run is not warmup and expected is None:
            problems.append("traced run has no untraced run on its input")
        elif run is not warmup and run["outcome"] != expected:
            problems.append(f"{run['record']} outcome differs from the "
                            f"untraced outcome on input {run['seed']}")
        if problems:
            failed += 1
            messages.extend(problems)
    return failed, messages


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_of(runs, value):
    return statistics.median(value(r) for r in runs)


def end_to_end(runs, end):
    """The user-visible metrics, from the untraced runs."""
    untraced = [r for r in runs if r["record"] == "untraced"]
    n = len(untraced)
    updates_ms = [s * 1e3 for r in untraced for s in r["alloc_update_s"]]

    def logical(value):
        return median_of(untraced, lambda r: value(r["outcome"]))

    metrics = {
        "tx_per_s": metric(median_of(
            untraced, lambda r: r["outcome"]["committed"] / r["wall_s"]),
            "tx/s"),
        "setup_s": metric(median_of(untraced, lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": metric(end["peak_rss_kb"] / 1024.0, "MiB"),
        "alloc_update_ms.p50": metric(percentile(updates_ms, 50), "ms"),
        "alloc_update_ms.p90": metric(percentile(updates_ms, 90), "ms"),
        "committed_per_tick": metric(
            logical(lambda o: o["committed"] / o["ticks"]), "tx/tick"),
        "cross_shard_pct": metric(logical(
            lambda o: 100.0 * o["cross_shard_submitted"] / o["submitted"]),
            "%"),
        "latency_p50_ticks": metric(logical(lambda o: o["latency_p50"]),
                                    "ticks"),
        "latency_p99_ticks": metric(logical(lambda o: o["latency_p99"]),
                                    "ticks"),
        "committed_pct": metric(
            logical(lambda o: 100.0 * o["committed"] / o["offered"]), "%"),
    }
    samples = {name: n for name in metrics}
    samples["peak_rss_mb"] = 1
    samples["alloc_update_ms.p50"] = len(updates_ms)
    samples["alloc_update_ms.p90"] = len(updates_ms)
    notes = {"alloc_update_ms.p90":
             f"{beyond(updates_ms, 90)} samples beyond p90"}
    return metrics, samples, notes


def per_layer(runs):
    """The traced split: per-span time and per-layer counts."""
    traced = [r for r in runs if r["record"] == "traced"]
    untraced = [r for r in runs if r["record"] == "untraced"]

    def traced_median(value):
        return median_of(traced, value)

    def count(value):
        return traced_median(lambda r: value(r["outcome"]))

    metrics = {"workload.generate_s": metric(
        median_of(runs, lambda r: r["generate_s"]), "s")}
    samples = {"workload.generate_s": len(runs)}
    for span in CALL_SPANS:
        pooled = [s * 1e3 for r in traced for s in r["spans"][span]]
        metrics[f"{span}_ms.sum"] = metric(
            traced_median(lambda r: sum(r["spans"][span]) * 1e3), "ms")
        metrics[f"{span}_ms.p50"] = metric(
            percentile(pooled, 50) if pooled else 0.0, "ms")
        metrics[f"{span}_ms.p90"] = metric(
            percentile(pooled, 90) if pooled else 0.0, "ms")
        metrics[f"{span}.calls"] = metric(
            traced_median(lambda r: len(r["spans"][span])), "count")
        samples[f"{span}_ms.p50"] = len(pooled)
        samples[f"{span}_ms.p90"] = len(pooled)
    for span in ONCE_SPANS:
        metrics[f"{span}_ms"] = metric(
            traced_median(lambda r: sum(r["spans"][span]) * 1e3), "ms")

    def busy(run):
        load = run["load"]
        return 1.0 - load["worker_stall_s"] / (load["workers"] * run["wall_s"])

    def skew(run):
        depths = run["load"]["max_queue_depth"]
        mean = sum(depths) / len(depths)
        return max(depths) / mean if mean > 0 else 0.0

    def self_ms(run):
        inside = sum(sum(samples) for name, samples in run["spans"].items()
                     if name != "state.root")
        return (run["wall_s"] - inside) * 1e3

    traced_wall = traced_median(lambda r: r["wall_s"])
    untraced_wall = median_of(untraced, lambda r: r["wall_s"])
    metrics.update({
        "mempool.admitted": metric(count(lambda o: o["admitted"]), "count"),
        "mempool.dropped": metric(count(lambda o: o["dropped"]), "count"),
        "mempool.admit_ratio": metric(
            count(lambda o: o["admitted"] / o["offered"]), "ratio"),
        "mempool.peak_depth": metric(count(lambda o: o["peak_depth"]),
                                     "count"),
        "engine.workers": metric(traced[0]["load"]["workers"], "count"),
        "engine.worker_stall_s": metric(
            traced_median(lambda r: r["load"]["worker_stall_s"]), "s"),
        "engine.worker_busy_ratio": metric(traced_median(busy), "ratio"),
        "engine.prepares": metric(count(lambda o: o["prepares"]), "count"),
        "engine.cross_shard_committed": metric(
            count(lambda o: o["cross_shard_committed"]), "count"),
        "engine.queue_depth_skew": metric(traced_median(skew), "ratio"),
        "state.aborted": metric(count(lambda o: o["aborted"]), "count"),
        "state.abort_ratio": metric(
            count(lambda o: o["aborted"] / o["submitted"]), "ratio"),
        "state.accounts_migrated": metric(
            count(lambda o: o["accounts_migrated"]), "count"),
        "alloc.rebalances": metric(count(lambda o: o["rebalances"]), "count"),
        "driver.self_ms": metric(traced_median(self_ms), "ms"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.untraced_wall_s": metric(untraced_wall, "s"),
        "trace.overhead_pct": metric(
            100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
    })
    for name in metrics:
        samples.setdefault(name, len(traced))
    samples["trace.untraced_wall_s"] = len(untraced)
    return metrics, samples, {}


def print_header(header):
    params = header["params"]
    print(f"# perfbench workload={header['workload']} seed={header['seed']} "
          f"seconds={header['seconds']} trace={header['trace']}")
    print(f"# host: nproc={header['nproc']} cpu={header['cpu']!r} "
          f"compiler={header['compiler']!r} build={header['build_type']} "
          f"engine workers={header['workers']} (+1 driver thread)")
    print("# params: " + " ".join(f"{k}={v}" for k, v in params.items()))


def main():
    args = parse_args()
    build()
    if not DRIVER.exists():
        fail(f"driver not built at {DRIVER}")
    code, records = run_driver(args, DRIVER_LIMIT_S)
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["record"], []).append(record)
    header = records[0]
    print_header(header)
    runs = [r for r in records
            if r["record"] in ("untraced", "traced") and not r.get("warmup")]
    warmup = [r for r in records if r.get("warmup")]
    errors = [r["message"] for r in by_kind.get("error", [])]
    if code != 0 or errors or not warmup or not runs or "end" not in by_kind:
        for message in errors:
            print(f"# run error: {message}")
        print(json.dumps({"correct": False, "attempted": max(1, len(records)),
                          "failed": max(1, len(errors)), "metrics": {}}))
        sys.exit(1)

    failed, messages = check_runs(header, runs, warmup[0])
    for message in messages:
        print(f"# CHECK FAILED: {message}")
    if args.trace:
        metrics, samples, notes = per_layer(runs)
    else:
        metrics, samples, notes = end_to_end(runs, by_kind["end"][0])
    for name, entry in metrics.items():
        note = f"; {notes[name]}" if name in notes else ""
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']:8s} "
              f"(n={samples[name]}{note})")
    correct = failed == 0 and not messages
    print(json.dumps({"correct": correct, "attempted": len(runs) + 1,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
