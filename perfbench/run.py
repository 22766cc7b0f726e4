#!/usr/bin/env python3
"""NASPipe end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the naspipe library from src/ plus the perfbench
driver) in Release mode under .bench_build/, computes the workload's
reference weights with the simulator, then either times the workload
(--trace 0: the end-to-end metrics of BENCHMARK.json) or makes the
traced run (--trace 1: the per-layer metrics). Every timed and traced
call must reproduce the reference bit for bit; any mismatch is a
failed operation and makes the command exit 1. The last stdout line
is one JSON object: correct, attempted, failed, metrics.

See perfbench/NOTES.md for what each metric means and how it is
measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 60

# Stated tolerances of the traced run's two accounting checks.
SHARE_SUM_TOLERANCE = 0.3
WALL_ACCOUNTING_TOLERANCE = 0.05

# Fingerprint fields: pure functions of the seed, equal on every call.
FINGERPRINT = ("hash", "final_loss", "best", "gate_commits", "fwd", "bwd",
               "replayed", "recoveries")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            sys.exit(2)


def perfbench(mode, args, extra=()):
    cmd = [BINARY, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=args.seconds + RUN_MARGIN_S,
                          check=False)
    if done.returncode != 0:
        log("perfbench: %s mode exited with %d" % (mode, done.returncode))
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_call(call, reference, expect, first):
    """Problems with one call: failure, reference or fingerprint."""
    problems = []
    for task, ref, fp in zip(call["tasks"], reference, first["tasks"]):
        name = task["space"]
        if task["failed"]:
            problems.append("%s: run failed: %s" % (name, task["error"]))
            continue
        for key in ("hash", "final_loss", "best"):
            if task[key] != ref[key]:
                problems.append("%s: %s %s != reference %s"
                                % (name, key, task[key], ref[key]))
        if task["recoveries"] != expect["recoveries"]:
            problems.append("%s: %d recoveries, expected %d"
                            % (name, task["recoveries"], expect["recoveries"]))
        for key in FINGERPRINT:
            if task[key] != fp[key]:
                problems.append("%s: fingerprint %s changed between calls"
                                % (name, key))
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_fingerprint(tasks, makespans):
    for task, makespan in zip(tasks, makespans):
        print("fingerprint %-7s weights %s  loss %.9f (%s)  best SN%d  "
              "commits %d  fwd %s  bwd %s  replayed %d  makespan %d"
              % (task["space"], task["hash"], task["final_loss_value"],
                 task["final_loss"], task["best"], task["gate_commits"],
                 task["fwd"], task["bwd"], task["replayed"], makespan))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(workloads)))
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("perfbench: --seed must be >= 0 and --seconds > 0")
        return 2

    build()
    ref = perfbench("reference", args)
    reference = ref["tasks"]
    host = ref["host"]
    print("host        nproc %d  hardware threads %d  compiler %s  "
          "build %s  lock witness %s"
          % (len(os.sched_getaffinity(0)), host["hardware_threads"],
             host["compiler"], host["build_type"],
             "on" if host["lock_witness"] else "off"))

    problems = []
    for task in reference:
        if task["failed"]:
            problems.append("reference %s failed: %s"
                            % (task["space"], task["error"]))
    expect = {"recoveries": ref["expected_recoveries"]}
    hi = max(range(len(reference)), key=lambda i: reference[i]["priority"])

    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR,
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
        out = perfbench("trace", args, ["--spans", spans])
        calls = out["untraced_calls"] + out["traced_calls"]
    else:
        out = perfbench("time", args)
        calls = out["calls"]

    failed = out["setup_failed"]
    for i, call in enumerate([out["warmup_call"]] + calls):
        bad = check_call(call, reference, expect, calls[0])
        problems += ["call %d: %s" % (i, p) for p in bad]  # 0: warm-up
        failed += 1 if bad else 0
    attempted = len(out["setup_s"]) + 1 + len(calls)

    print("workload    %s  seed %d  %d calls  %d set-up calls"
          % (args.workload, args.seed, len(calls), len(out["setup_s"])))
    print_fingerprint(calls[0]["tasks"], out["logical_makespan"])

    metrics = {}
    if args.trace:
        replay_ok = (out["replay_hashes"] == [t["hash"] for t in reference]
                     and out["replay_best"] == [t["best"] for t in reference])
        if not replay_ok:
            problems.append("single-threaded replay: weights %s best %s "
                            "differ from the reference"
                            % (out["replay_hashes"], out["replay_best"]))
        errors = [n for n in out["notes"] if n.startswith("error:")]
        problems += errors
        attempted += 1
        failed += 0 if replay_ok and not errors else 1
        for note in out["notes"]:
            if not note.startswith("error:"):
                print("unmeasured  " + note)
        for m in spec["per_layer"]:
            if m["name"] not in out["metrics"]:
                problems.append("per-layer metric %s missing" % m["name"])
                continue
            value = out["metrics"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("%-26s %14.6g %s" % (m["name"], value, m["unit"]))
        mx = out["metrics"]
        unmeasured = {n.split(":")[0] for n in out["notes"]}
        if "exec.busy_share" not in unmeasured:
            share = (mx["exec.busy_share"] + mx["exec.gate_wait_share"]
                     + mx["exec.idle_share"])
            print("check       exec shares sum to %.4f (tolerance +-%.2f): %s"
                  % (share, SHARE_SUM_TOLERANCE,
                     "ok" if abs(share - 1) <= SHARE_SUM_TOLERANCE
                     else "OUTSIDE"))
        wall = statistics.median(c["wall_s"] for c in out["traced_calls"])
        parts = (statistics.median(out["setup_s"]) + mx["session.train_s"]
                 + mx["session.post_s"])
        print("check       setup_s + train_s + post_s = %.4f s of a %.4f s "
              "call (tolerance +-%d%%): %s"
              % (parts, wall, WALL_ACCOUNTING_TOLERANCE * 100,
                 "ok" if abs(parts - wall) <= WALL_ACCOUNTING_TOLERANCE * wall
                 else "OUTSIDE"))
        print("spans       %s" % os.path.relpath(spans, ROOT))
    else:
        rates = [c["subnets_per_s"] for c in calls]
        hi_done = [c["done_s"][hi] for c in calls]
        values = {
            "subnets_per_s": rates,
            "setup_s": out["setup_s"],
            "peak_rss_mb": [out["peak_rss_mb"]],
            "hi_prio_done_s": hi_done,
        }
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, q3 = quartiles(v)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print("%-15s %12.6g %-5s median of %d, quartiles %.6g .. %.6g"
                  % (m["name"], med, m["unit"], len(v), q1, q3))

    correct = not problems
    if problems:
        failed = max(failed, 1)
    print("%-15s %12.6g %-5s %d of %d operations"
          % ("failed_frac", failed / attempted, "ratio", failed, attempted))
    for p in problems:
        print("MISMATCH    " + p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
