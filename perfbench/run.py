#!/usr/bin/env python3
"""Online-epoch benchmark of the Amdahl market.

Builds epoch_bench (perfbench/CMakeLists.txt, into .bench_build/),
runs one workload in its own process, checks its outputs, and prints
the metrics as the last line of stdout:

    python3 perfbench/run.py --workload clear_cold --seed 1 \
        --seconds 10 --trace 0 [--holdout]

--trace 0 prints the end-to-end metrics; --trace 1 runs a traced
repetition as well and prints the per-layer metrics. --holdout draws
the inputs from the held-out stream, which no tuning seed reaches.
A failed correctness check exits 1 after printing the result; a failed
build or epoch_bench run exits non-zero without one. README.md describes
the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "epoch_bench")

sys.path.insert(0, HERE)
import benchstats as bs  # noqa: E402

WORKLOADS = ("clear_cold", "steady_delta", "durable_long", "sharded_lossy")

# Knobs that would change what the library runs; measured processes
# get the library defaults (one thread, automatic kernel and grain).
CLEARED_ENV = ("AMDAHL_THREADS", "AMDAHL_KERNEL", "AMDAHL_BID_GRAIN",
               "AMDAHL_KILL_POINT")

PROGRAM_TIMEOUT_S = 170

# Repetition r draws its inputs from the r-th substream of the seed;
# the quality metrics are the mean over the first QUALITY_REPS of them
# (an untraced run always makes that many; a traced one at least one).
QUALITY_REPS = 3


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs,
              "--target", "epoch_bench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed:", " ".join(cmd))
            return False
    return True


def run_epoch_bench(args, state_dir, spans_out):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    if args.holdout:
        cmd.append("--holdout")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    shutil.rmtree(state_dir, ignore_errors=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, cwd=ROOT,
                              timeout=PROGRAM_TIMEOUT_S)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("epoch_bench exited with", proc.returncode)
        return None
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


class Checks:
    def __init__(self):
        self.failed = []

    def require(self, ok, what):
        if not ok:
            self.failed.append(what)
            log("check failed:", what)


QUALITY = ("jobs_arrived", "jobs_completed", "weighted_speedup",
           "entitlement_mape", "mean_completion_s")


def quality_key(q):
    return [q[k] for k in QUALITY]


def check_record(checks, raw, quality):
    """Compare with (or write) the values recorded for this seed.

    `quality` holds the exact values of the run's first repetitions
    (up to QUALITY_REPS); they must match the record where both have a
    value, and the record keeps the longer list. It is keyed by the
    epoch_bench binary, so a rebuilt program starts a fresh record.
    """
    with open(PROGRAM, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()
    records = os.path.join(BUILD, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, "%s-%s-%s.json" % (
        raw["workload"], raw["stream"], raw["seed"]))
    if os.path.exists(path):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("binary") == binary:
            common = min(len(rec["quality"]), len(quality))
            checks.require(rec["quality"][:common] == quality[:common],
                           "quality metrics differ from this seed's record")
            if len(rec["quality"]) >= len(quality):
                return
    with open(path, "w") as f:
        json.dump({"binary": binary, "quality": quality}, f)


def untraced(raw, checks):
    """Pooled epoch times and accounting of the untraced repetitions."""
    warmup, calls = raw["warmup"], raw["calls_per_rep"]
    gaps, attempted, failed = [], 0, 0
    reps = raw["reps"]
    quality = [quality_key(rep["quality"]) for rep in reps[:QUALITY_REPS]]
    for rep in reps:
        a, f = bs.count_failures(rep["modes"], rep["ok"], warmup, calls)
        attempted += a
        failed += f
        if not rep["ok"]:
            log("run failed:", rep["status"])
            continue
        checks.require(len(rep["t0"]) == calls,
                       "a repetition made %d clearing calls, not %d"
                       % (len(rep["t0"]), calls))
        gaps += bs.epoch_gaps_ns(rep["t0"], warmup)
    return gaps, attempted, failed, quality


def check_recovery(checks, rec):
    checks.require(rec["crashed"], "child did not stop at its kill point")
    checks.require(rec["identical"],
                   "recovered final snapshot differs from uninterrupted")
    checks.require(rec["replayed"] == rec["journaled"],
                   "recovery replayed %s of %s journaled epochs"
                   % (rec["replayed"], rec["journaled"]))


def end_to_end(raw, checks):
    gaps, attempted, failed, quality = untraced(raw, checks)
    checks.require(len(raw["reps"]) >= QUALITY_REPS,
                   "fewer than %d repetitions" % QUALITY_REPS)
    check_recovery(checks, raw["recovery"])
    ms = [g / 1e6 for g in gaps]
    # The tail percentile is fixed by the epochs every run measures, so
    # it does not move with how many repetitions fit in the time.
    pct = bs.tail_percentile(
        QUALITY_REPS * (raw["calls_per_rep"] - raw["warmup"] - 1))
    checks.require(pct is not None and len(ms) >= 20,
                   "fewer than 20 measured epochs")
    tail_ms = bs.percentile(ms, pct) if pct and ms else 0.0
    q = {k: sum(rep["quality"][k] for rep in raw["reps"][:QUALITY_REPS])
         / QUALITY_REPS for k in QUALITY}
    metrics = {
        "setup_s": (median(raw["setup_s"]), "s"),
        "epoch_p50_ms": (median(ms), "ms"),
        "epoch_tail_ms": (tail_ms, "ms"),
        "epochs_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "recover_s": (mean(raw["recovery"]["seconds"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "weighted_speedup": (q["weighted_speedup"], "x"),
        "entitlement_mape": (q["entitlement_mape"], "%"),
        "mean_completion_s": (q["mean_completion_s"], "s"),
    }
    info = {"epoch_tail_percentile": pct, "epoch_samples": len(ms),
            "repetitions": len(raw["reps"])}
    return metrics, attempted, failed, quality, info


def per_layer(raw, checks):
    gaps, attempted, failed, quality = untraced(raw, checks)
    check_recovery(checks, raw["recovery"])
    tr = raw["traced"]
    tr["warmup"], tr["epoch_offset"] = raw["warmup"], raw["epoch_offset"]
    a, f = bs.count_failures(tr["modes"], True, raw["warmup"],
                             raw["calls_per_rep"])
    attempted += a
    failed += f
    checks.require(quality_key(tr["quality"]) == quality[0],
                   "traced and untraced runs of one seed disagree")
    if "snapshot_identical" in tr:
        checks.require(tr["snapshot_identical"],
                       "traced final snapshot differs from untraced")
    checks.require(tr["reclear"]["threads_identical"],
                   "2-thread clearing changed the allocation")

    spans = raw["spans"]
    parts = bs.decompose(tr, spans)
    total = sum(parts["gap"])
    rest_share = sum(parts["rest"]) / total
    checks.require(abs(rest_share) <= bs.DECOMPOSITION_TOLERANCE,
                   "layer times miss the epoch time by %.2f%%"
                   % (100 * rest_share))

    w = raw["warmup"]
    measured = range(w, len(tr["t0"]))
    clears = len(measured)
    c = tr["counters"]
    t = tr["timers_us"]
    updates = sum(tr["iterations"][i] * tr["jobs"][i] for i in measured)
    solve_us = t.get("time.bidding.solve_us", 0.0)
    rounds = c.get("bidding.iterations", 0)
    by_name = {}
    for name, _, _, s0, s1 in spans:
        by_name.setdefault(name, []).append((s1 - s0) / 1e6)

    def span_ms(name):
        return median(by_name[name]) if name in by_name else 0.0

    def share(x, base):
        return x / base if base else 0.0

    rc = tr["reclear"]
    untraced_p50 = median(gaps)
    metrics = {
        "core.rounds_per_clear": (rounds / clears, "count"),
        "core.ns_per_update": (share(t.get("time.bidding.update_us", 0.0)
                                     * 1e3, updates), "ns"),
        "core.update_share": (share(t.get("time.bidding.update_us", 0.0),
                                    solve_us), "ratio"),
        "core.prices_share": (share(t.get("time.bidding.prices_us", 0.0),
                                    solve_us), "ratio"),
        "core.rounding_ms": (t.get("time.rounding.outcome_us", 0.0)
                             / 1e3 / clears, "ms"),
        "core.kernel_reuses": (c.get("bidding.kernel_reuses", 0), "count"),
        "core.kernel_rebuilds": (c.get("bidding.kernel_rebuilds", 0),
                                 "count"),
        "core.kernel_patched_users": (c.get("bidding.kernel_patched_users",
                                            0), "count"),
        "alloc.clear_ms_p50": (median(parts["clear"]) / 1e6, "ms"),
        "alloc.clear_share": (sum(parts["clear"]) / total, "ratio"),
        "alloc.fallback_serves": (sum(1 for m in tr["modes"]
                                      if m != bs.PRIMARY), "count"),
        "eval.self_ms_p50": (median(parts["eval_self"]) / 1e6, "ms"),
        "eval.market_jobs": (sum(tr["jobs"][i] for i in measured) / clears,
                             "count"),
        "eval.churn_frac": (sum(a / tr["jobs"][w + k] for k, a
                                in enumerate(tr["admitted"])) / clears,
                            "ratio"),
        "eval.shed_frac": (tr["quality"]["shed_frac"], "ratio"),
        "eval.delta_warm_epochs": (c.get("online.delta.warm_epochs", 0),
                                   "count"),
        "eval.delta_meanfield_epochs": (
            c.get("online.delta.meanfield_epochs", 0), "count"),
        "net.msgs_sent_per_round": (share(c.get("net.msgs_sent", 0),
                                          rounds), "count"),
        "net.retransmits": (c.get("net.retransmits", 0), "count"),
        "net.degraded_rounds": (c.get("net.degraded_rounds", 0), "count"),
        "net.stale_bid_rounds": (c.get("net.stale_bid_rounds", 0), "count"),
        "net.vticks_per_epoch": (tr["net_ticks"] / clears, "ticks"),
        "net.overhead_x": (share(rc["sharded_s"], rc["in_process_s"]), "x"),
        "robustness.state_bytes": (raw["recovery"]["state_bytes"], "bytes"),
        "robustness.encode_ms": (span_ms("robustness.encode"), "ms"),
        "robustness.crc_ms": (span_ms("robustness.crc"), "ms"),
        "robustness.commit_ms": (span_ms("robustness.commit"), "ms"),
        "robustness.snapshot_ms": (span_ms("robustness.snapshot"), "ms"),
        "robustness.commit_share": (sum(parts["commit"]) / total, "ratio"),
        "robustness.replay_epochs": (raw["recovery"]["replayed"], "count"),
        "robustness.replay_ms": (span_ms("robustness.resume"), "ms"),
        "exec.tasks": (rc["exec_tasks"], "count"),
        "exec.speedup_2t": (share(rc["in_process_s"], rc["two_threads_s"]),
                            "x"),
        "obs.trace_overhead": (share(median(parts["gap"]), untraced_p50),
                               "x"),
        "obs.unattributed_share": (rest_share, "ratio"),
        "sim.characterize_ms": (median(raw["characterize_s"]) * 1e3, "ms"),
    }
    info = {"dominant_layer": bs.dominant_layer(parts),
            "eval_share": sum(parts["eval_self"]) / total,
            "traced_epochs": len(parts["gap"])}
    return metrics, attempted, failed, quality, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--holdout", action="store_true",
                    help="draw inputs from the held-out seed stream")
    args = ap.parse_args()

    if not build():
        return 1
    tag = "%s-%d" % (args.workload, os.getpid())
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_out = (os.path.join(spans_dir, "%s-%s-%d.txt" % (
        args.workload, "holdout" if args.holdout else "tune", args.seed))
        if args.trace else None)
    raw = run_epoch_bench(args, os.path.join(BUILD, "state", tag), spans_out)
    if raw is None:
        return 1

    checks = Checks()
    layer = per_layer if args.trace else end_to_end
    metrics, attempted, failed, quality, info = layer(raw, checks)
    check_record(checks, raw, quality)
    info.update(env=raw["env"], stream=raw["stream"],
                checks_failed=checks.failed)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0 if not checks.failed else 1


if __name__ == "__main__":
    sys.exit(main())
