#!/usr/bin/env python3
"""tlbsim benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Builds the simulator libraries and the
benchmark binary from source into .bench_build/, then measures one
workload (see plan.json for the configs and the reasons they were chosen).

--trace 0  untraced repetitions, each in its own process, until S seconds
           have passed: end-to-end medians of setup_s, run_s, peak_rss_mb.
           setup_s and run_s are host seconds scaled to one machine speed,
           seconds x REF_NOMINAL_S / ref_s, where ref_s is the time of a
           fixed reference kernel run in the same process just before and
           after the timed run (cpp/reference.hpp): their mean for run_s,
           the second, which the set-ups follow, for setup_s. The shared
           machine's speed swings by tens of percent between processes and
           over minutes; the scaled times cancel most of that. Raw medians
           are printed beside them.
--trace 1  one untimed audited run, then traced and untraced repetitions
           alternating until S seconds have passed: per-layer medians.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The run fails (correct=false, exit 1) when
an operation fails, when the model digest differs between repetitions, or
(--trace 1) when the traced assembly's digest differs from the untraced
Experiment::run digest, the audit reports a violation, or the trace hooks
count other drops or marks than the program. `--workload all` runs every
workload in both modes and prints every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "tlbsim_perfbench"
PLAN = json.loads((BENCH_DIR / "plan.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_REPS = 3          # untraced repetitions per --trace 0 run, at least
MIN_TRACED_REPS = 2   # traced and untraced repetitions per --trace 1 run
CHILD_TIMEOUT_S = 120
# Scaled host times are expressed at the machine speed at which the
# reference kernel takes this long (near its median on the machine that
# plan.json's reference numbers come from).
REF_NOMINAL_S = 0.25
REF_CHECKSUM = 8372403071666   # the reference kernel's result, every run


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on any failure."""
    try:
        if not BINARY.exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "--target", "tlbsim_perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return False
    return BINARY.exists()


def child(workload, seed, mode):
    """One repetition in its own process; returns its JSON fields."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            log(f"CHECK FAILED: {what}")

    def same_digest(self, runs, label):
        digests = {r["model.digest"] for r in runs}
        self.expect(len(digests) == 1,
                    f"model.digest differs between {label}: {sorted(digests)}")

    def no_failed_ops(self, runs):
        failed = sum(int(r["ops_failed"]) for r in runs)
        self.expect(failed == 0, f"ops_failed = {failed}")


def print_model(run):
    for key in ("model.short_afct_ms", "model.short_p99_ms",
                "model.long_goodput_gbps", "model.qct_p99_ms",
                "model.digest"):
        print(f"  {key:32s} {run[key]:.17g}")


def measure_untraced(workload, seed, seconds):
    checks = Checks()
    runs = []
    deadline = time.monotonic() + seconds
    while len(runs) < MIN_REPS or time.monotonic() < deadline:
        runs.append(child(workload, seed, "untraced"))
    checks.no_failed_ops(runs)
    checks.same_digest(runs, "repetitions")
    checksums = {r["ref_checksum"] for r in runs}
    checks.expect(checksums == {REF_CHECKSUM},
                  f"reference kernel checksums {sorted(checksums)}, "
                  f"expected {REF_CHECKSUM}")
    for r in runs:
        # run_s by the mean of the kernel runs around it; setup_s, timed
        # right after the second, by that one.
        r["ref_s"] = (r["ref_before_s"] + r["ref_after_s"]) / 2
        for name, ref in (("run_s", r["ref_s"]),
                          ("setup_s", r["ref_after_s"])):
            r["raw." + name] = r[name]
            r[name] *= REF_NOMINAL_S / ref

    print(f"== {workload} seed={seed}: end to end, {len(runs)} untraced "
          f"repetitions (median [q1, q3])")
    metrics = {}
    for m in SPEC["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"  {m['name']:32s} {med:.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}")
    for name in ("raw.setup_s", "raw.run_s", "ref_s"):
        values = [r[name] for r in runs]
        q1, q3 = quartiles(values)
        print(f"  {name:32s} {statistics.median(values):.6g} "
              f"[{q1:.6g}, {q3:.6g}] s")
    ops = sum(int(r["ops"]) for r in runs)
    failed = sum(int(r["ops_failed"]) for r in runs)
    print(f"  {'ops':32s} {ops}")
    print(f"  {'ops_failed':32s} {failed}")
    print(f"  {'sim.events':32s} {runs[0]['events']:.0f}")
    print_model(runs[0])
    return checks, ops, failed, metrics


def print_layers(workload, layer):
    """Self time per layer against the traced run_s (reported, not gated)."""
    print(f"  -- layer self times, traced run of {workload} --")
    rows = [
        ("net (topology build)", layer["net.topology_build_s"]),
        ("transport (endpoint build)", layer["transport.endpoints_build_s"]),
        ("sim (step residual)", layer["sim.self_s"]),
        ("lb (selectUplink)", layer["lb.self_s"]),
        ("transport (onPacket)", layer["transport.self_s"]),
        ("stats (harvest)", layer["stats.harvest_s"]),
        ("harness (teardown)", layer["harness.teardown_s"]),
    ]
    run_s = layer["trace.run_s"]
    for name, sec in rows:
        print(f"  {name:32s} {sec:10.6f} s  {100 * sec / run_s:6.2f} %")
    print(f"  {'sum of layers':32s} {layer['trace.layers_sum_s']:10.6f} s")
    print(f"  {'traced run_s':32s} {run_s:10.6f} s")
    print(f"  {'unattributed share':32s} "
          f"{layer['trace.unattributed_share']:10.4f}")
    print("  -- existing microbenches by layer --")
    for layer_name, benches in PLAN["microbench_coverage"].items():
        print(f"  {layer_name:32s} {', '.join(benches) or '(none)'}")


def measure_traced(workload, seed, seconds):
    checks = Checks()
    audit = child(workload, seed, "audit")
    checks.expect(audit["check.audit_violations"] == 0,
                  f"check.audit_violations = {audit['check.audit_violations']}")
    traced, untraced = [], []
    deadline = time.monotonic() + seconds
    while (len(traced) < MIN_TRACED_REPS or len(untraced) < MIN_TRACED_REPS
           or time.monotonic() < deadline):
        if len(untraced) < len(traced):
            untraced.append(child(workload, seed, "untraced"))
        else:
            traced.append(child(workload, seed, "traced"))
    runs = traced + untraced + [audit]
    checks.no_failed_ops(runs)
    checks.same_digest(runs, "traced, untraced and audited runs")
    checks.expect(all(r["check.trace_counts_match"] == 1 for r in traced),
                  "trace hooks counted other drops/marks than the program")

    layer = {k: statistics.median([r[k] for r in traced]) for k in traced[0]}
    layer["check.audit_violations"] = audit["check.audit_violations"]
    untraced_run = statistics.median([r["run_s"] for r in untraced])
    layer["trace.overhead_pct"] = 100 * (layer["trace.run_s"] / untraced_run - 1)

    print(f"== {workload} seed={seed}: per layer, median of {len(traced)} "
          f"traced repetitions ({len(untraced)} untraced for the overhead)")
    metrics = {}
    for m in SPEC["per_layer"]:
        metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:32s} {layer[m['name']]:.6g} {m['unit']}")
    print_layers(workload, layer)
    ops = sum(int(r["ops"]) for r in runs)
    failed = sum(int(r["ops_failed"]) for r in runs)
    return checks, ops, failed, metrics


def result_line(checks, ops, failed, metrics):
    return json.dumps({"correct": not checks.failures, "attempted": ops,
                       "failed": failed, "metrics": metrics})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        return 2
    if not build():
        return 1

    try:
        return run(args, names)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        # A crashed or hung repetition fails the run and all its operations.
        log(f"repetition failed: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1


def run(args, names):
    if args.workload != "all":
        measure = measure_traced if args.trace else measure_untraced
        checks, ops, failed, metrics = measure(args.workload, args.seed,
                                               args.seconds)
        print(result_line(checks, ops, failed, metrics))
        return 0 if not checks.failures else 1

    # Every workload, both modes: one command that prints every metric.
    all_checks = Checks()
    total_ops = total_failed = 0
    merged = {}
    for name in names:
        for measure in (measure_untraced, measure_traced):
            checks, ops, failed, metrics = measure(name, args.seed,
                                                   args.seconds)
            all_checks.failures += checks.failures
            total_ops += ops
            total_failed += failed
            merged.update({f"{name}/{k}": v for k, v in metrics.items()})
    print(result_line(all_checks, total_ops, total_failed, merged))
    return 0 if not all_checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
