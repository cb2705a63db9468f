#!/usr/bin/env python3
"""Train->serve benchmark of cumfals-sim (see README.md beside this file).

    python3 trainserve_bench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout. Builds cumf_train, cumf_shard, the
benchmark client and the host-speed probe under .bench_build (or
$CARGO_TARGET_DIR), generates the workload's ratings from --seed, trains
through the shipped command lines, serves the model it just wrote, checks
every output, and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, every time and rate
scaled to the reference host speed by the run's probe readings;
with --trace 1 they are the per-layer ones.
"""
import argparse
import json
import os
import shutil
import sys

import tslib
from tslib import BenchError, median

TEST_FRACTION = 0.1
TRAIN_LAUNCHES = 4
TRACED_TRAIN_LAUNCHES = 2
# The metric names BENCHMARK.json declares; a run that would print any
# other set is a benchmark bug and fails.
END_TO_END = (
    "setup_s", "train_s", "epoch_s", "time_to_rmse_s", "test_rmse",
    "peak_rss_mb", "topk_p50_us", "foldin_p50_us", "serve_qps", "serve_rss_mb",
)
PER_LAYER = (
    "bench.host_speed", "bench.probe_drift",
    "bench.disturbed_units", "bench.steal_share", "bench.raw_epoch_s",
    "bench.raw_train_s", "bench.raw_topk_p50_us", "bench.gen_lag_p99_us",
    "bench.trace_overhead_epoch_s", "bench.trace_overhead_topk_us",
    "data.parse_s", "data.parse_mb_s", "data.shard_build_s",
    "data.tile_load_s", "data.tile_mb", "data.stream_ratio",
    "data.ckpt_write_s", "data.model_write_s", "data.model_read_s",
    "sparse.split_s", "sparse.csr_s", "sparse.shard_imbalance",
    "core.hermitian_s", "core.hermitian_ns_per_rating", "core.solve_s",
    "core.solve_us_per_system", "core.cg_iters_per_system",
    "core.fallback_ratio", "core.first_epoch_extra_s", "half.pack_s",
    "half.pack_bytes", "common.pool_idle_share", "gpusim.timeline_s",
    "metrics.rmse_s", "linalg.score_us", "serve.engine_build_s",
    "serve.topk_service_p50_us", "serve.topk_service_p99_us",
    "serve.cache_hit_ratio", "serve.foldin_service_p50_us",
    "serve.foldin_service_p99_us", "serve.foldin_cg_iters",
    "serve.topk_p99_us", "serve.foldin_p99_us", "serve.queue_p99_us",
    "serve.reads_behind_write",
)
# Every workload trains, then serves the model it wrote. `gen` is the
# generator's shape (Table II presets at the repo's scaled sizes); `target`
# is the holdout RMSE the Fig. 6 time-to-RMSE measure stops at, set between
# the epoch-1 and epoch-2 RMSE of every seed so the crossing epoch never
# depends on the seed; `rate` is the open-loop arrival rate, a small share
# of the workload's saturation throughput.
WORKLOADS = {
    "netflix-incore": {
        "gen": dict(rows=6000, cols=250, nnz=300000, mean=3.6, signal=0.55,
                    noise=0.85, lo=1, hi=5, decimals=0,
                    **{"row-zipf": 0.8, "col-zipf": 0.9}),
        "flags": ["-f", "100", "-l", "0.05", "--solver", "cg16", "--fs", "6",
                  "--workers", "2"],
        "epochs": 3,
        "target": 0.974,
        "serve": dict(shards=1, rate=1000, **{"lambda": 0.05,
                                              "solver": "cg16", "fs": 6}),
    },
    "yahoo-mgpu": {
        "gen": dict(rows=5000, cols=3000, nnz=260000, mean=50, signal=14,
                    noise=20, lo=1, hi=100, decimals=0,
                    **{"row-zipf": 0.85, "col-zipf": 1.0}),
        "flags": ["-f", "100", "-l", "1.4", "--solver", "cholesky",
                  "--gpus", "2"],
        # The in-core reference trains the same flags on the same thread
        # count without --gpus; the models must be byte-identical.
        "reference_flags": ["-f", "100", "-l", "1.4", "--solver",
                            "cholesky", "--workers", "2"],
        "epochs": 3,
        # Seed-to-seed RMSE spread here exceeds the epoch-1 -> epoch-2 gain,
        # so the target sits above every seed's epoch-1 RMSE.
        "target": 24.4,
        "serve": dict(shards=4, rate=800, **{"lambda": 1.4,
                                              "solver": "cholesky", "fs": 6}),
    },
    "hugewiki-ooc": {
        "gen": dict(rows=10000, cols=120, nnz=320000, mean=1.8, signal=0.35,
                    noise=0.45, lo=0, hi=10, decimals=1,
                    **{"row-zipf": 0.7, "col-zipf": 1.1}),
        "flags": ["-f", "100", "-l", "0.05", "--solver", "cg16", "--fs", "6",
                  "--workers", "2"],
        "ooc": ["--host-mem", "2M", "--checkpoint-every", "1"],
        "tiles": 8,
        "epochs": 3,
        "target": 0.552,
        "serve": dict(shards=1, rate=1000, **{"lambda": 0.05,
                                              "solver": "cg16", "fs": 6}),
    },
}


class Run:
    """One benchmark run: units bracketed by probes, then the verdict."""

    def __init__(self, name, seed, traced, tools, work):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.traced = traced
        self.tools = tools
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.units = []  # kind, probe reading before and after, data
        self.last_probe = None
        self.spans = tslib.Spans()
        # The traced run's spans outlive its work directory.
        self.trace_dir = os.path.join(os.path.dirname(os.path.dirname(work)),
                                      "traces", os.path.basename(work))
        if traced:
            os.makedirs(self.trace_dir, exist_ok=True)

    # --- bookkeeping -------------------------------------------------------

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def span(self, name):
        run = self

        class _Span:
            def __enter__(self):
                self.id = run.spans.open(name)

            def __exit__(self, *exc):
                run.spans.close(self.id)

        return _Span()

    def probe(self):
        self.check(not tslib.children_alive(),
                   "a process of the program was alive during a probe")
        warmup = tslib.PROBE_WARMUP_MS if self.units else \
            tslib.FIRST_PROBE_WARMUP_MS
        with self.span("bench.probe"):
            reading = tslib.probe(self.tools["probe"], self.work,
                                  warmup_ms=warmup)
        self.last_probe = reading
        return reading

    def timed_unit(self, kind, body):
        """Runs body() between two probe readings. The reading after one
        unit is the reading before the next: nothing runs in between."""
        before = self.last_probe if self.last_probe is not None \
            else self.probe()
        payload = body()
        after = self.probe()
        self.units.append({"kind": kind, "before": before, "after": after,
                           "data": payload})
        return payload

    def readings(self):
        """Every probe reading taken in this run, in order."""
        out = [u["before"] for u in self.units]
        return out + [self.units[-1]["after"]] if out else out

    def scale(self):
        """probe_ref over the median of the run's readings: the factor every
        time of the run is scaled by (README.md: why the run median and not
        each unit's own two bracketing readings)."""
        return tslib.host_scale(self.readings())

    @staticmethod
    def disturbed(u):
        """A unit whose bracketing readings drift apart, or that ran in a
        slow period; reported, never dropped."""
        b, a = u["before"], u["after"]
        return not (1 / tslib.DRIFT_LIMIT <= a / b <= tslib.DRIFT_LIMIT) or \
            (a + b) / 2 >= tslib.SLOW_PERIOD * tslib.PROBE_REF_S

    # --- steps ---------------------------------------------------------------

    def gen(self):
        path = os.path.join(self.work, "ratings.txt")
        args = [self.tools["tsclient"], "gen", "--seed", str(self.seed),
                "--out", path]
        for k, v in self.wl["gen"].items():
            args += ["--" + k, str(v)]
        with self.span("bench.gen"):
            out, _ = tslib.run_json(args, self.work)
        self.check(out["nnz"] == self.wl["gen"]["nnz"], "generator nnz")
        return path

    def train_cmd(self, ratings, model, flags, extra=()):
        return [self.tools["cumf_train"], "train", ratings, model,
                "-t", str(self.wl["epochs"]), "--seed", str(self.seed),
                "--test", str(TEST_FRACTION)] + list(flags) + list(extra)

    def train_launch(self, ratings, i):
        """One timed training unit: for the out-of-core workload the shard
        build and the streamed training; otherwise one cumf_train run."""
        model = os.path.join(self.work, "model-%d.txt" % i)
        shard_s = 0.0
        shard_rss = 0.0
        source = ratings
        extra = []
        if "ooc" in self.wl:
            shards = os.path.join(self.work, "shards-%d" % i)
            ckpt = os.path.join(self.work, "ckpt-%d" % i)
            with self.span("cumf_shard.build"):
                res = tslib.launch([self.tools["cumf_shard"], "build", ratings,
                                    shards, "--tiles", str(self.wl["tiles"]),
                                    "--seed", str(self.seed), "--test",
                                    str(TEST_FRACTION)], self.work,
                                   launcher=self.tools["launch"])
            if res.rc != 0:
                raise BenchError("cumf_shard build failed: " + res.stderr)
            shard_s, shard_rss = res.wall, res.rss_mb
            source = shards
            extra = ["--shards", shards, "--checkpoint", ckpt] + \
                self.wl["ooc"]
        with self.span("cumf_train.train"):
            res = tslib.launch(self.train_cmd(source, model, self.wl["flags"],
                                              extra),
                               self.work, line_buffered=True,
                               launcher=self.tools["launch"])
        if res.rc != 0:
            raise BenchError("cumf_train failed (%d): %s" % (res.rc,
                                                             res.stderr))
        parsed = tslib.parse_train(res)
        parsed.update(model=model, shard_s=shard_s, wall=res.wall,
                      rss_mb=max(res.rss_mb, shard_rss), cpu_s=res.cpu_s)
        return parsed

    def reference_check(self, ratings, model):
        """The bit-identity invariants: the multi-GPU model equals the
        in-core model of the same flags, and the streamed model equals the
        in-core model of the same split. Memoized per (binary, input)."""
        if "ooc" in self.wl:
            flags = self.wl["flags"]
        elif "reference_flags" in self.wl:
            flags = self.wl["reference_flags"]
        else:
            return None
        key = "%s %s %s %s" % (self.name, tslib.sha256_file(
            self.tools["cumf_train"]), tslib.sha256_file(ratings),
            " ".join(flags))
        memo_path = os.path.join(os.path.dirname(self.work), "memo.json")
        memo = {}
        if os.path.isfile(memo_path):
            with open(memo_path) as f:
                memo = json.load(f)
        ref_model = os.path.join(self.work, "model-incore.txt")
        if key in memo and not self.traced:
            digest = memo[key]
            ref = None
        else:
            with self.span("cumf_train.reference"):
                res = tslib.launch(self.train_cmd(ratings, ref_model, flags),
                                   self.work, line_buffered=True)
            if res.rc != 0:
                raise BenchError("reference training failed: " + res.stderr)
            digest = tslib.sha256_file(ref_model)
            memo[key] = digest
            with open(memo_path + ".tmp", "w") as f:
                json.dump(memo, f)
            os.replace(memo_path + ".tmp", memo_path)
            ref = tslib.parse_train(res)
        self.check(digest == tslib.sha256_file(model),
                   "engine model differs from the in-core reference")
        return ref

    def serve_unit(self, phase, model, ratings, seconds, trace):
        sv = self.wl["serve"]
        cmd = [self.tools["tsclient"], "serve", "--phase", phase,
               "--model", model, "--ratings", ratings,
               "--seconds", str(seconds),
               "--seed", str(self.seed * 7919 + len(self.units)),
               "--shards", str(sv["shards"]), "--lambda", str(sv["lambda"]),
               "--solver", sv["solver"], "--fs", str(sv["fs"]),
               "--lo", str(self.wl["gen"]["lo"]),
               "--hi", str(self.wl["gen"]["hi"]),
               "--rate", str(sv["rate"]), "--trace", "1" if trace else "0"]
        if trace:
            cmd += ["--spans-out", os.path.join(
                self.trace_dir, "serve-spans-%d.json" % len(self.units))]
        with self.span("tsclient.serve_" + phase):
            out, _ = tslib.run_json(cmd, self.work)
        return out


def verify_models(run, ratings, launches):
    """All launches wrote byte-identical models, and the RMSE recomputed from
    each written model on the benchmark's replay of the CLI split prints
    exactly as the RMSE cumf_train printed."""
    digests = [tslib.sha256_file(l["model"]) for l in launches]
    run.check(len(set(digests)) == 1, "launches wrote different models")
    recomputed = {}
    for l, digest in zip(launches, digests):
        if digest not in recomputed:
            try:
                with run.span("tsclient.rmse"):
                    out, _ = tslib.run_json(
                        [run.tools["tsclient"], "rmse", "--ratings", ratings,
                         "--model", l["model"], "--seed", str(run.seed),
                         "--test", str(TEST_FRACTION)], run.work)
                recomputed[digest] = out["rmse_printed"]
            except BenchError as e:
                recomputed[digest] = "unreadable model (%s)" % e
        run.check(l["rmse_printed"][-1] == recomputed[digest],
                  "recomputed RMSE %s != printed %s" %
                  (recomputed[digest], l["rmse_printed"][-1]))


def count_serving(run, serves):
    """Every served request is one attempted operation; the client's failed
    count covers thrown requests, wrong top-k answers and solve failures."""
    for s in serves:
        run.attempted += int(s["attempted"])
        run.failed += int(s["failed"])
        if s["failed"]:
            run.problems.append("serving: %d failed of %d" %
                                (s["failed"], s["attempted"]))


def end_to_end(run, launches, serves, scale):
    """The end-to-end metrics of a run: medians over its timed units, every
    time multiplied by `scale` (the run's probe factor, or 1 for raw)."""
    def units(kind):
        return [u["data"] for u in run.units if u["kind"] == kind]

    def times(data, get):
        return [tslib.calibrate_time(get(d), scale) for d in data
                if get(d) is not None]

    train, opens, sats = units("train"), units("serve_open"), units("serve_sat")
    train_setup = times(train, lambda d: d["setup_s"] + d["shard_s"])
    serve_setup = times(opens + sats, lambda d: d["setup_s"])
    epochs = [tslib.calibrate_time(e, scale)
              for d in train for e in d["epochs"][1:]]
    folds = [tslib.calibrate_time(v, scale)
             for d in opens for v in d["foldin_lat_us"]]
    ttr = times(train, lambda d: d.get("ttr"))
    return {
        "setup_s": (median(train_setup) + median(serve_setup), "s"),
        "train_s": (median(times(train, lambda d: d["wall"] + d["shard_s"])),
                    "s"),
        "epoch_s": (median(epochs), "s"),
        "time_to_rmse_s": (median(ttr) if len(ttr) == len(train) else None,
                           "s"),
        "test_rmse": (launches[0]["rmse"][-1], "rmse"),
        "peak_rss_mb": (median([l["rss_mb"] for l in launches]), "MB"),
        "topk_p50_us": (median(times(opens, lambda d: d["topk_p50_us"])),
                        "us"),
        "foldin_p50_us": (median(folds), "us"),
        "serve_qps": (median([tslib.calibrate_rate(d["qps"], scale)
                              for d in sats]), "1/s"),
        "serve_rss_mb": (max(s["rss_mb"] for s in serves), "MB"),
        "first_epoch_s": (median(times(train, lambda d: d["epochs"][0])),
                          "s"),
    }


def steal_share(start, end):
    steal = end[0] - start[0]
    total = end[1] - start[1]
    return steal / total if total > 0 else 0.0


def run_workload(args, tools, bdir):
    """One run in a work directory of its own, removed when the run ends."""
    work = os.path.join(bdir, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, tools, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, tools, work):
    run = Run(args.workload, args.seed, args.trace == 1, tools, work)
    wl = run.wl
    steal0 = tslib.steal_jiffies()
    ratings = run.gen()

    # Training units.
    launches = []
    n_launch = TRACED_TRAIN_LAUNCHES if run.traced else TRAIN_LAUNCHES
    for i in range(n_launch):
        launches.append(run.timed_unit(
            "train", lambda i=i: run.train_launch(ratings, i)))

    # Serving units: open loop and saturation, alternating.
    open_s = max(1.0, 0.125 * args.seconds)
    sat_s = max(0.5, 0.05 * args.seconds)
    model = launches[0]["model"]
    serves = []
    phases = ["open", "sat", "open", "sat"]
    if run.traced:
        phases.append("open")  # the traced open-loop phase
    for j, phase in enumerate(phases):
        trace = run.traced and j == len(phases) - 1
        serves.append(run.timed_unit(
            "serve_" + phase + ("_traced" if trace else ""),
            lambda p=phase, t=trace: run.serve_unit(
                p, model, ratings, open_s if p == "open" else sat_s, t)))
    steal1 = tslib.steal_jiffies()

    # --- verdict, outside every timed unit -----------------------------------
    verify_models(run, ratings, launches)
    ref = run.reference_check(ratings, model)
    for l in launches:
        run.check(len(l["epochs"]) == wl["epochs"], "epoch count")
        reached = [k for k, r in enumerate(l["rmse"]) if r <= wl["target"]]
        ok = run.check(bool(reached) and reached[0] < wl["epochs"] - 1,
                       "RMSE target %g not reached before the last epoch" %
                       wl["target"])
        l["ttr"] = l["epoch_end_s"][reached[0]] if ok else None
    count_serving(run, serves)

    drift = [u["after"] / u["before"] for u in run.units]
    disturbed = sum(1 for u in run.units if run.disturbed(u))
    e2e_cal = end_to_end(run, launches, serves, run.scale())
    e2e_raw = end_to_end(run, launches, serves, 1.0)

    metrics = {}
    if not run.traced:
        m = {k: v for k, v in e2e_cal.items() if k != "first_epoch_s"}
    else:
        def data(kind, key):
            return [u["data"][key] for u in run.units if u["kind"] in kind]

        traced_open = serves[-1]
        with run.span("tsclient.layers"):
            layer_cmd = [tools["tsclient"], "layers", "--ratings", ratings,
                         "--model", model, "--seed", str(args.seed),
                         "--test", str(TEST_FRACTION), "--scratch", work,
                         "--f", "100",
                         "--lambda", str(wl["serve"]["lambda"]),
                         "--solver", wl["serve"]["solver"],
                         "--fs", str(wl["serve"]["fs"]),
                         "--parts", "2",
                         "--spans-out", os.path.join(run.trace_dir,
                                                     "layer-spans.json")]
            if "--gpus" in wl["flags"]:
                layer_cmd += ["--gpus", "2"]
            if "ooc" in wl:
                layer_cmd += ["--shards", os.path.join(work, "shards-0"),
                              "--host-mem", str(2 << 20), "--checkpoint", "1"]
            layers, _ = tslib.run_json(layer_cmd, work)
        raw_epoch = e2e_raw["epoch_s"][0]
        kernel_s = layers["core.hermitian_s"] + layers["core.solve_s"]
        stream_ratio = 0.0
        if "ooc" in wl and ref is not None:
            stream_ratio = raw_epoch / median(ref["epochs"][1:])
        m = {
            "bench.host_speed": (tslib.PROBE_REF_S / median(run.readings()),
                                 "x"),
            "bench.probe_drift": (max(max(d, 1 / d) for d in drift), "x"),
            "bench.disturbed_units": (disturbed, "count"),
            "bench.steal_share": (steal_share(steal0, steal1), "share"),
            "bench.raw_epoch_s": (raw_epoch, "s"),
            "bench.raw_train_s": e2e_raw["train_s"],
            "bench.raw_topk_p50_us": e2e_raw["topk_p50_us"],
            "bench.gen_lag_p99_us": (max(data(
                ("serve_open", "serve_open_traced"), "gen_lag_p99_us")), "us"),
            "bench.trace_overhead_epoch_s": (
                layers["replay.traced_epoch_s"] -
                layers["replay.plain_epoch_s"], "s"),
            "bench.trace_overhead_topk_us": (
                traced_open["topk_p50_us"] - e2e_raw["topk_p50_us"][0], "us"),
            "data.parse_s": (layers["data.parse_s"], "s"),
            "data.parse_mb_s": (layers["data.parse_mb_s"], "MB/s"),
            "data.shard_build_s": (median([l["shard_s"] for l in launches]),
                                   "s"),
            "data.tile_load_s": (layers["data.tile_load_s"], "s"),
            "data.tile_mb": (layers["data.tile_mb"], "MB"),
            "data.stream_ratio": (stream_ratio, "x"),
            "data.ckpt_write_s": (layers["data.ckpt_write_s"], "s"),
            "data.model_write_s": (layers["data.model_write_s"], "s"),
            "data.model_read_s": (layers["data.model_read_s"], "s"),
            "sparse.split_s": (layers["sparse.split_s"], "s"),
            "sparse.csr_s": (layers["sparse.csr_s"], "s"),
            "sparse.shard_imbalance": (layers["sparse.shard_imbalance"], "x"),
            "core.hermitian_s": (layers["core.hermitian_s"], "s"),
            "core.hermitian_ns_per_rating": (
                layers["core.hermitian_ns_per_rating"], "ns"),
            "core.solve_s": (layers["core.solve_s"], "s"),
            "core.solve_us_per_system": (layers["core.solve_us_per_system"],
                                         "us"),
            "core.cg_iters_per_system": (layers["core.cg_iters_per_system"],
                                         "count"),
            "core.fallback_ratio": (layers["core.fallback_ratio"], "share"),
            "core.first_epoch_extra_s": (e2e_cal["first_epoch_s"][0] -
                                         e2e_cal["epoch_s"][0], "s"),
            "half.pack_s": (layers["half.pack_s"], "s"),
            "half.pack_bytes": (layers["half.pack_bytes"], "B"),
            "common.pool_idle_share": (
                1 - kernel_s / (2 * raw_epoch) if raw_epoch else 0.0,
                "share"),
            "gpusim.timeline_s": (layers["gpusim.timeline_s"], "s"),
            "metrics.rmse_s": (layers["metrics.rmse_s"], "s"),
            "linalg.score_us": (layers["linalg.score_us"], "us"),
            "serve.engine_build_s": (median(data(
                ("serve_open", "serve_sat"), "engine_build_s")), "s"),
            "serve.topk_service_p50_us": (traced_open["topk_service_p50_us"],
                                          "us"),
            "serve.topk_service_p99_us": (traced_open["topk_service_p99_us"],
                                          "us"),
            "serve.cache_hit_ratio": (traced_open["cache_hit_ratio"],
                                      "share"),
            "serve.foldin_service_p50_us": (
                traced_open["foldin_service_p50_us"], "us"),
            "serve.foldin_service_p99_us": (
                traced_open["foldin_service_p99_us"], "us"),
            "serve.foldin_cg_iters": (traced_open["foldin_cg_iters"], "count"),
            "serve.topk_p99_us": (traced_open["topk_p99_us"], "us"),
            "serve.foldin_p99_us": (traced_open["foldin_p99_us"], "us"),
            "serve.queue_p99_us": (traced_open["queue_p99_us"], "us"),
            "serve.reads_behind_write": (traced_open["reads_behind_write"],
                                         "share"),
        }
        if layers["core.replay_failures"]:
            run.check(False, "replay solve failures")
    if set(m) != set(PER_LAYER if run.traced else END_TO_END):
        raise BenchError("metric names differ from BENCHMARK.json: %s" %
                         sorted(set(m) ^ set(PER_LAYER if run.traced
                                             else END_TO_END)))
    for name, (value, unit) in m.items():
        if value is None:
            run.check(False, "metric %s has no value" % name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    if run.traced:
        run.spans.write(os.path.join(run.trace_dir, "bench-spans.json"))
    if args.detail:
        # Everything the steadiness tool needs: raw and calibrated versions
        # of each end-to-end metric and every probe reading of the run.
        detail = {"workload": args.workload, "seed": args.seed,
                  "problems": run.problems,
                  "readings": run.readings(),
                  "disturbed_units": disturbed,
                  "units": [dict({k: u[k] for k in ("kind", "before",
                                                    "after")},
                                 data={k: v for k, v in u["data"].items()
                                       if isinstance(v, (int, float))})
                            for u in run.units],
                  "raw": {k: v for k, (v, _) in e2e_raw.items()},
                  "calibrated": {k: v for k, (v, _) in e2e_cal.items()}}
        with open(args.detail, "w") as f:
            json.dump(detail, f, indent=1)
    if run.problems:
        sys.stderr.write("verdict problems: %s\n" % "; ".join(run.problems))
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", help="also write the run's raw and "
                    "calibrated figures and probe readings to this file")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    bdir = tslib.build_dir()
    # Compilers and every other child keep their temporary files inside
    # the build directory too.
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    try:
        tools = tslib.build(bdir)
        result = run_workload(args, tools, bdir)
    except BenchError as e:
        sys.stderr.write("trainserve_bench: %s\n" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
