#!/usr/bin/env python3
"""Steadiness check of the train->serve benchmark.

    python3 trainserve_bench/steady.py [--workloads a,b] [--seeds 10]
        [--sets 2] [--seconds 20] [--record FILE]

Runs run.py on every workload, --sets back-to-back sets of --seeds runs
each (set k uses seeds 1000*k + 1 ...), and prints for every end-to-end
metric of every set its median, quartiles and spread (IQR / median, from
statistics.quantiles(n=4)), raw and probe-calibrated, the set-k/set-1
ratio of the medians, and the probe's own spread. A set falls in a slow
period when any probe reading is at least tslib.SLOW_PERIOD times
PROBE_REF_S. With --record the same tables are written as Markdown with
the host they ran on.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import run as bench
import tslib

HERE = os.path.dirname(os.path.abspath(__file__))


def end_to_end_spec():
    """name -> (bound, better) of every end-to-end metric."""
    with open(os.path.join(tslib.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def one_run(workload, seed, seconds, detail_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--detail", detail_path]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.time() - start
    if proc.returncode != 0:
        raise tslib.BenchError("run failed: %s" % proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(detail_path) as f:
        detail = json.load(f)
    return result, detail, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def host_line():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%s, %d vCPUs, %s %s, Python %s" % (
        model or platform.processor(), os.cpu_count() or 0, platform.system(),
        platform.release(), platform.python_version())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(sorted(bench.WORKLOADS)))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--record", help="write the tables to this Markdown file")
    args = ap.parse_args()
    spec = end_to_end_spec()
    lines = []

    def emit(text=""):
        print(text, flush=True)
        lines.append(text)

    emit("host: " + host_line())
    emit("started: " + time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()))
    failures = []
    os.makedirs(tslib.build_dir(), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="steady-", dir=tslib.build_dir())
    print("per-run details: " + tmp, flush=True)
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.seeds):
                seed = 1000 * k + i + 1
                result, detail, wall = one_run(
                    workload, seed, args.seconds,
                    os.path.join(tmp, "%s-%d.json" % (workload, seed)))
                if not result["correct"] or result["failed"]:
                    failures.append("%s seed %d: %s" %
                                    (workload, seed, detail["problems"]))
                runs.append((result, detail, wall))
                print("  %s set %d seed %d: %.1f s, readings %s" % (
                    workload, k + 1, seed, wall,
                    " ".join("%.4f" % r for r in detail["readings"])),
                    flush=True)
            sets.append(runs)
        emit()
        emit("## %s" % workload)
        emit()
        for k, runs in enumerate(sets):
            walls = [w for _, _, w in runs]
            emit("set %d: %d runs, %.0f-%.0f s each; disturbed units: %d" % (
                k + 1, len(runs), min(walls), max(walls),
                sum(d["disturbed_units"] for _, d, _ in runs)))
            all_r = [r for _, d, _ in runs for r in d["readings"]]
            run_med = [statistics.median(d["readings"]) for _, d, _ in runs]
            slow = max(all_r) >= tslib.SLOW_PERIOD * tslib.PROBE_REF_S
            emit("  probe: median %.4f s (probe_ref %.4f), spread %.3f (all "
                 "readings) / %.3f (run medians), max %.4f; slow period "
                 "(a reading >= %.1fx probe_ref): %s" % (
                     statistics.median(all_r), tslib.PROBE_REF_S,
                     tslib.spread(all_r), tslib.spread(run_med), max(all_r),
                     tslib.SLOW_PERIOD, "yes" if slow else "no"))
        emit()
        emit("| metric | bound | set | raw median [q1, q3] | raw spread "
             "| calibrated median [q1, q3] | calibrated spread | "
             "set/set1 (cal) |")
        emit("|---|---|---|---|---|---|---|---|")
        for name, (bound, better) in spec.items():
            base = None
            for k, runs in enumerate(sets):
                raw = [d["raw"][name] for _, d, _ in runs]
                cal = [d["calibrated"][name] for _, d, _ in runs]
                rq, cq = quartiles(raw), quartiles(cal)
                base = cq[1] if base is None else base
                ratio = cq[1] / base if base else 0.0
                cspread = tslib.spread(cal)
                emit("| %s | %.2f | %d | %.5g [%.5g, %.5g] | %.3f | "
                     "%.5g [%.5g, %.5g] | %.3f | %.3f |" % (
                         name, bound, k + 1, rq[1], rq[0], rq[2],
                         tslib.spread(raw), cq[1], cq[0], cq[2], cspread,
                         ratio))
                if cspread > bound:
                    failures.append("%s %s set %d spread %.3f > bound %.2f" %
                                    (workload, name, k + 1, cspread, bound))
                worse = ratio - 1 if better == "lower" else 1 - ratio
                if k > 0 and worse > bound:
                    failures.append("%s %s set %d median %.3fx set 1" %
                                    (workload, name, k + 1, ratio))
    emit()
    emit("verdict: " + ("steady" if not failures else
                        "NOT steady: " + "; ".join(failures)))
    if args.record:
        with open(args.record, "w") as f:
            f.write("\n".join(lines) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
