#!/usr/bin/env python3
"""Summarize and validate cuprof output files.

Works on both artifacts cumf_train produces:

  * Chrome trace-event JSON (``--trace out.json``): prints a per-span table
    (count, total ms, mean/p50/p95/max us) like ``--prof-summary``, computed
    from the exported file instead of the live tracer.
  * Epoch telemetry JSONL (``--metrics out.jsonl``): prints a per-epoch
    table (RMSE, epoch seconds, phase split, CG iterations) plus the merged
    CG iteration histogram and the last epoch's roofline verdicts.

Modes:

  trace_report.py FILE             summarize (file type is auto-detected)
  trace_report.py --check FILE     validate the schema; exit 1 on violations
                                   (trace: required keys, non-negative ts/dur,
                                   strict per-tid span nesting; telemetry:
                                   header record — with timeline_host_s on
                                   multi-GPU and out-of-core runs —,
                                   per-epoch required keys;
                                   schema 2 additionally requires one cuscope
                                   bottleneck record per epoch with a valid
                                   bound/phase enum and pct_of_roof in [0,1])
  trace_report.py --diff A B       compare two telemetry JSONL files epoch by
                                   epoch (RMSE and phase-seconds deltas)

No third-party dependencies — json and math only.
"""

import argparse
import json
import math
import sys


def fail(msg):
    print("trace_report: %s" % msg, file=sys.stderr)
    sys.exit(1)


def load_any(path):
    """Returns ('trace', events) or ('metrics', records)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        fail("%s is empty" % path)
    # A Chrome trace is one JSON object with a traceEvents array; telemetry
    # is one object per line.
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "traceEvents" in doc:
            return "trace", doc["traceEvents"]
    except json.JSONDecodeError:
        pass
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail("%s:%d: not valid JSON (%s)" % (path, lineno, e))
    return "metrics", records


def percentile(sorted_vals, q):
    """Nearest-rank percentile matching cuprof's summarize()."""
    if not sorted_vals:
        return 0.0
    idx = int(q * (len(sorted_vals) - 1) + 0.5)
    return sorted_vals[min(idx, len(sorted_vals) - 1)]


# --- Chrome trace ---------------------------------------------------------

def check_trace(events):
    errors = []
    open_spans = {}  # tid -> stack of (name, start, end)
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            errors.append("event %d: not an object" % i)
            continue
        ph = e.get("ph")
        if ph is None or "pid" not in e:
            errors.append("event %d: missing ph/pid" % i)
            continue
        if ph == "X":
            for key in ("name", "tid", "ts", "dur"):
                if key not in e:
                    errors.append("event %d: complete event missing '%s'"
                                  % (i, key))
                    break
            else:
                if e["ts"] < 0 or e["dur"] < 0:
                    errors.append("event %d (%s): negative ts/dur"
                                  % (i, e["name"]))
                open_spans.setdefault(e["tid"], []).append(
                    (e["name"], e["ts"], e["ts"] + e["dur"]))
        elif ph in ("s", "f", "C", "M"):
            pass
        else:
            errors.append("event %d: unknown phase '%s'" % (i, ph))

    # Strict nesting: within one tid, any two spans either nest or are
    # disjoint. RAII scopes plus a single-writer ring guarantee this; a
    # violation means the exporter (or a hand-recorded span) is broken.
    eps = 1e-6  # timestamps are microseconds with ns precision
    for tid, spans in open_spans.items():
        spans.sort(key=lambda s: (s[1], -s[2]))
        stack = []
        for name, start, end in spans:
            while stack and start >= stack[-1][2] - eps:
                stack.pop()
            if stack and end > stack[-1][2] + eps:
                errors.append(
                    "tid %s: span '%s' [%.3f, %.3f] overlaps '%s' "
                    "[%.3f, %.3f] without nesting"
                    % (tid, name, start, end,
                       stack[-1][0], stack[-1][1], stack[-1][2]))
            stack.append((name, start, end))
    return errors


def summarize_trace(events):
    by_name = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        by_name.setdefault(e["name"], []).append(float(e["dur"]))
    rows = []
    for name, durs in by_name.items():
        durs.sort()
        rows.append((name, len(durs), sum(durs) / 1e3,
                     sum(durs) / len(durs), percentile(durs, 0.5),
                     percentile(durs, 0.95), durs[-1]))
    rows.sort(key=lambda r: -r[2])
    print("%-24s %8s %12s %10s %10s %10s %10s"
          % ("span", "count", "total ms", "mean us", "p50 us", "p95 us",
             "max us"))
    for name, count, total, mean, p50, p95, mx in rows:
        print("%-24s %8d %12.3f %10.2f %10.2f %10.2f %10.2f"
              % (name, count, total, mean, p50, p95, mx))


# --- Telemetry JSONL ------------------------------------------------------

# cuscope bottleneck record vocabulary (schema 2); mirrors
# src/prof/bottleneck.hpp.
BOTTLENECK_BOUNDS = ("compute", "dram", "l2", "latency", "comm", "stall")
BOTTLENECK_PHASES = ("get_hermitian", "solve", "fp16_pack",
                     "mgpu_allgather", "ooc_stream")


def check_bottleneck(rec, i):
    errors = []
    for key in ("epoch", "phase", "bound", "arithmetic_intensity",
                "pct_of_roof", "headroom", "wall_s", "roof_s"):
        if key not in rec:
            errors.append("record %d: bottleneck missing '%s'" % (i, key))
    if "bound" in rec and rec["bound"] not in BOTTLENECK_BOUNDS:
        errors.append("record %d: bound %r not one of %s"
                      % (i, rec["bound"], "/".join(BOTTLENECK_BOUNDS)))
    if "phase" in rec and rec["phase"] not in BOTTLENECK_PHASES:
        errors.append("record %d: phase %r not one of %s"
                      % (i, rec["phase"], "/".join(BOTTLENECK_PHASES)))
    for key, lo, hi in (("pct_of_roof", 0.0, 1.0), ("headroom", 0.0, 1.0)):
        val = rec.get(key)
        if key in rec and (not isinstance(val, (int, float))
                           or not lo <= val <= hi):
            errors.append("record %d: %s out of [%g,%g]" % (i, key, lo, hi))
    wall = rec.get("wall_s")
    if "wall_s" in rec and (not isinstance(wall, (int, float)) or wall < 0):
        errors.append("record %d: wall_s negative or non-numeric" % i)
    return errors


def check_metrics(records):
    errors = []
    if not records:
        return ["no records"]
    header = records[0]
    schema = header.get("schema")
    if header.get("type") != "header":
        errors.append("first record must be the header "
                      "(got type=%r)" % header.get("type"))
    elif schema not in (1, 2):
        errors.append("unknown schema version %r" % schema)
    elif "gpus" in header or header.get("mode") == "ooc":
        # The modeled multi-GPU / out-of-core timeline is its own pipeline
        # stage; its host seconds belong in the header.
        stage = header.get("timeline_host_s")
        if not isinstance(stage, (int, float)) or stage < 0:
            errors.append("header: timeline_host_s missing or negative "
                          "(required with gpus or mode=ooc)")
    epoch_numbers = []
    bottleneck_phases = {}  # epoch -> [phase, ...]
    prev_seconds = None
    for i, rec in enumerate(records[1:], 2):
        rtype = rec.get("type")
        if rtype == "bottleneck":
            if schema == 1:
                errors.append("record %d: bottleneck records require "
                              "schema 2" % i)
            errors.extend(check_bottleneck(rec, i))
            if isinstance(rec.get("epoch"), int):
                bottleneck_phases.setdefault(rec["epoch"], []).append(
                    rec.get("phase"))
            continue
        if rtype != "epoch":
            errors.append("record %d: type=%r, expected 'epoch' or "
                          "'bottleneck'" % (i, rtype))
            continue
        epoch_numbers.append(rec.get("epoch"))
        for key in ("epoch", "seconds", "epoch_s", "phase_s", "solver",
                    "host_ops", "sim_cache"):
            if key not in rec:
                errors.append("record %d: missing '%s'" % (i, key))
        if "rmse" not in rec:
            errors.append("record %d: missing 'rmse' (null is fine)" % i)
        phase = rec.get("phase_s", {})
        for key in ("hermitian", "solve", "rmse_eval"):
            if not isinstance(phase.get(key), (int, float)):
                errors.append("record %d: phase_s.%s missing or non-numeric"
                              % (i, key))
        solver = rec.get("solver", {})
        for key in ("systems", "cg_iterations", "cg_hist"):
            if key not in solver:
                errors.append("record %d: solver.%s missing" % (i, key))
        sim = rec.get("sim_cache", {})
        rate = sim.get("l1_hit_rate")
        if not isinstance(rate, (int, float)) or not (0.0 <= rate <= 1.0):
            errors.append("record %d: sim_cache.l1_hit_rate out of [0,1]"
                          % i)
        sec = rec.get("seconds")
        if isinstance(sec, (int, float)):
            if isinstance(prev_seconds, (int, float)) and sec < prev_seconds:
                errors.append("record %d: cumulative seconds decreased" % i)
            prev_seconds = sec
    if schema == 2:
        for epoch in epoch_numbers:
            if epoch not in bottleneck_phases:
                errors.append("epoch %s: no bottleneck record (schema 2 "
                              "requires per-epoch verdicts)" % epoch)
        for epoch, phases in sorted(bottleneck_phases.items()):
            dupes = {p for p in phases if phases.count(p) > 1}
            if dupes:
                errors.append("epoch %s: duplicate bottleneck phase(s) %s"
                              % (epoch, sorted(dupes)))
    return errors


def epochs_of(records):
    return [r for r in records if r.get("type") == "epoch"]


def summarize_metrics(records):
    header = records[0] if records and records[0].get("type") == "header" \
        else {}
    if header:
        print("run: %s  (%s x %s, %s train nnz)  f=%s solver=%s workers=%s"
              % (header.get("dataset", "?"), header.get("rows", "?"),
                 header.get("cols", "?"), header.get("train_nnz", "?"),
                 header.get("f", "?"), header.get("solver", "?"),
                 header.get("workers", "?")))
    print("%6s %10s %10s %12s %10s %10s %8s"
          % ("epoch", "rmse", "epoch s", "hermitian s", "solve s",
             "eval s", "cg iters"))
    hist = {}
    for rec in epochs_of(records):
        phase = rec.get("phase_s", {})
        solver = rec.get("solver", {})
        rmse = rec.get("rmse")
        print("%6s %10s %10.4f %12.6f %10.6f %10.6f %8s"
              % (rec.get("epoch", "?"),
                 "%.4f" % rmse if isinstance(rmse, (int, float)) else "-",
                 rec.get("epoch_s", 0.0), phase.get("hermitian", 0.0),
                 phase.get("solve", 0.0), phase.get("rmse_eval", 0.0),
                 solver.get("cg_iterations", "-")))
        for bucket, count in solver.get("cg_hist", {}).items():
            hist[bucket] = hist.get(bucket, 0) + count
    if hist:
        total = sum(hist.values())
        print("CG iteration histogram (%d solves):" % total)
        for bucket in sorted(hist, key=int):
            print("  %3s iters: %8d  (%.1f%%)"
                  % (bucket, hist[bucket], 100.0 * hist[bucket] / total))
    sim = next((r.get("sim_cache") for r in epochs_of(records)
                if r.get("sim_cache")), None)
    if sim:
        print("simulated load-phase cache: L1 %.1f%%, L2 %.1f%%, "
              "%.1f KiB DRAM"
              % (100.0 * sim.get("l1_hit_rate", 0.0),
                 100.0 * sim.get("l2_hit_rate", 0.0),
                 sim.get("dram_bytes", 0.0) / 1024.0))
    bottlenecks = [r for r in records if r.get("type") == "bottleneck"]
    if bottlenecks:
        last_epoch = max(r.get("epoch", 0) for r in bottlenecks)
        print("roofline verdicts (epoch %s):" % last_epoch)
        for rec in bottlenecks:
            if rec.get("epoch") != last_epoch:
                continue
            print("  %-14s %6.2f flop/B, %3.0f%% of %s roof "
                  "(headroom %.0f%%), %.4g s"
                  % (rec.get("phase", "?"),
                     rec.get("arithmetic_intensity", 0.0),
                     100.0 * rec.get("pct_of_roof", 0.0),
                     rec.get("bound", "?"),
                     100.0 * rec.get("headroom", 0.0),
                     rec.get("wall_s", 0.0)))


def diff_metrics(a_records, b_records, a_path, b_path):
    a_epochs = {r["epoch"]: r for r in epochs_of(a_records)}
    b_epochs = {r["epoch"]: r for r in epochs_of(b_records)}
    shared = sorted(set(a_epochs) & set(b_epochs))
    if not shared:
        fail("no shared epochs between %s and %s" % (a_path, b_path))
    only = (set(a_epochs) | set(b_epochs)) - set(shared)
    if only:
        print("(epochs only in one file: %s)" % sorted(only))
    print("%6s %12s %12s %12s %14s"
          % ("epoch", "rmse A", "rmse B", "d(rmse)", "d(epoch s)"))
    for epoch in shared:
        ra, rb = a_epochs[epoch], b_epochs[epoch]
        rmse_a, rmse_b = ra.get("rmse"), rb.get("rmse")
        if isinstance(rmse_a, (int, float)) and \
           isinstance(rmse_b, (int, float)):
            drmse = "%+.5f" % (rmse_b - rmse_a)
            sa, sb = "%.4f" % rmse_a, "%.4f" % rmse_b
        else:
            drmse, sa, sb = "-", "-", "-"
        dt = rb.get("epoch_s", 0.0) - ra.get("epoch_s", 0.0)
        print("%6d %12s %12s %12s %+13.6f" % (epoch, sa, sb, drmse, dt))
    # Aggregate verdict line for quick eyeballing in CI logs.
    finals = [e for e in shared
              if isinstance(a_epochs[e].get("rmse"), (int, float))
              and isinstance(b_epochs[e].get("rmse"), (int, float))]
    if finals:
        last = finals[-1]
        print("final rmse: A=%.5f  B=%.5f  delta=%+.5f"
              % (a_epochs[last]["rmse"], b_epochs[last]["rmse"],
                 b_epochs[last]["rmse"] - a_epochs[last]["rmse"]))


def main():
    parser = argparse.ArgumentParser(
        description="Summarize or validate cuprof trace/telemetry files.")
    parser.add_argument("file", help="trace JSON or telemetry JSONL")
    parser.add_argument("--check", action="store_true",
                        help="validate the schema; exit 1 on violations")
    parser.add_argument("--diff", metavar="OTHER",
                        help="second telemetry JSONL to compare against")
    args = parser.parse_args()

    kind, payload = load_any(args.file)

    if args.diff:
        if kind != "metrics":
            fail("--diff works on telemetry JSONL files")
        other_kind, other = load_any(args.diff)
        if other_kind != "metrics":
            fail("%s is not a telemetry JSONL file" % args.diff)
        diff_metrics(payload, other, args.file, args.diff)
        return

    if args.check:
        errors = check_trace(payload) if kind == "trace" \
            else check_metrics(payload)
        if errors:
            for e in errors:
                print("trace_report: %s" % e, file=sys.stderr)
            sys.exit(1)
        print("%s: %s OK (%d %s)"
              % (args.file, kind, len(payload),
                 "events" if kind == "trace" else "records"))
        return

    if kind == "trace":
        summarize_trace(payload)
    else:
        summarize_metrics(payload)


if __name__ == "__main__":
    main()
