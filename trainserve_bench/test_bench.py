#!/usr/bin/env python3
"""Tests of the train->serve benchmark itself.

    python3 trainserve_bench/test_bench.py

Builds the tools like a run does (under .bench_build or $CARGO_TARGET_DIR)
and checks the probe's checksum, the calibration arithmetic, and that a
corrupted model file and a wrong top-k answer each turn the verdict false
and count as failed.
"""
import json
import os
import resource
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tslib  # noqa: E402

TOOLS = None


def tools():
    global TOOLS
    if TOOLS is None:
        TOOLS = tslib.build(tslib.build_dir())
    return TOOLS


class ProbeTest(unittest.TestCase):
    def setUp(self):
        self.work = tempfile.mkdtemp(prefix="tsbench-test-",
                                     dir=tslib.build_dir())
        self.addCleanup(shutil.rmtree, self.work, ignore_errors=True)

    def test_checksum_holds(self):
        out, _ = tslib.run_json([tools()["probe"], "--threads", "2",
                                 "--reps", "3"], self.work)
        self.assertTrue(out["checksum_ok"], out)
        self.assertEqual(len(out["rep_s"]), 3)
        self.assertGreater(out["seconds"], 0)

    def test_checksum_holds_on_one_and_three_threads(self):
        # checksum_ok means every rep equals the probe's frozen checksum.
        for threads in ("1", "3"):
            out, _ = tslib.run_json([tools()["probe"], "--threads", threads,
                                     "--reps", "2"], self.work)
            self.assertTrue(out["checksum_ok"], out)

    def test_probe_helper_returns_a_reading(self):
        self.assertGreater(tslib.probe(tools()["probe"], self.work, reps=2,
                                       warmup_ms=0), 0)


class CalibrationTest(unittest.TestCase):
    def test_scale_is_ref_over_median_reading(self):
        self.assertAlmostEqual(
            tslib.host_scale([0.02, 0.05, 0.03], ref=0.015), 0.5)

    def test_time_on_a_slow_host_reads_as_reference_seconds(self):
        # 3 s of work at the reference speed takes 6 s on a host whose probe
        # reads twice the reference; calibrated it is 3 s again.
        scale = tslib.host_scale([0.024, 0.024], ref=0.012)
        self.assertAlmostEqual(tslib.calibrate_time(6.0, scale), 3.0)

    def test_rate_scales_the_other_way(self):
        # 500 requests/s on a twice-slow host is 1000/s at reference speed.
        scale = tslib.host_scale([0.024, 0.024], ref=0.012)
        self.assertAlmostEqual(tslib.calibrate_rate(500.0, scale), 1000.0)

    def test_fast_host(self):
        scale = tslib.host_scale([0.006], ref=0.012)
        self.assertAlmostEqual(tslib.calibrate_time(1.0, scale), 2.0)
        self.assertAlmostEqual(tslib.calibrate_rate(1000.0, scale), 500.0)

    def test_one_outlying_reading_does_not_move_the_scale(self):
        steady = tslib.host_scale([0.012] * 7, ref=0.012)
        spiked = tslib.host_scale([0.012] * 6 + [0.050], ref=0.012)
        self.assertEqual(steady, spiked)

    def test_no_child_is_alive_between_launches(self):
        tslib.launch(["true"], tslib.build_dir())
        self.assertFalse(tslib.children_alive())

    def test_launcher_reports_the_commands_own_peak_rss(self):
        # A child started straight from here would report at least this
        # interpreter's peak RSS, which the kernel folds in at exec.
        ballast = bytearray(64 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        self.assertGreaterEqual(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 64 << 10)
        launched = tslib.launch(["true"], tslib.build_dir(),
                                launcher=tools()["launch"])
        self.assertLess(launched.rss_mb, 16)
        self.assertEqual(launched.rc, 0)
        failing = tslib.launch(["sh", "-c", "exit 3"], tslib.build_dir(),
                               launcher=tools()["launch"])
        self.assertEqual(failing.rc, 3)

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles(n=4) -> 2.75, 5.5, 8.25
        self.assertAlmostEqual(tslib.spread(values), (8.25 - 2.75) / 5.5)


class VerdictTest(unittest.TestCase):
    """A tiny train -> serve round trip through the real tools."""

    @classmethod
    def setUpClass(cls):
        cls.work = tempfile.mkdtemp(prefix="tsbench-test-",
                                    dir=tslib.build_dir())
        cls.trainer = bench.Run("netflix-incore", 5, False, tools(), cls.work)
        cls.ratings = os.path.join(cls.work, "ratings.txt")
        tslib.run_json([tools()["tsclient"], "gen", "--rows", "300",
                        "--cols", "60", "--nnz", "6000", "--mean", "3.6",
                        "--signal", "0.55", "--noise", "0.85", "--lo", "1",
                        "--hi", "5", "--row-zipf", "0.8", "--col-zipf", "0.9",
                        "--seed", "5", "--out", cls.ratings], cls.work)
        cls.launches = []
        for i in range(2):
            model = os.path.join(cls.work, "model-%d.txt" % i)
            res = tslib.launch(cls.trainer.train_cmd(
                cls.ratings, model, ["-f", "8", "--workers", "2"]),
                cls.work, line_buffered=True)
            assert res.rc == 0, res.stderr
            parsed = tslib.parse_train(res)
            parsed["model"] = model
            cls.launches.append(parsed)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def fresh_run(self):
        return bench.Run("netflix-incore", 5, False, tools(), self.work)

    def serve(self, *extra):
        out, _ = tslib.run_json(
            [tools()["tsclient"], "serve", "--phase", "open", "--rate", "2000",
             "--model", self.launches[0]["model"], "--ratings", self.ratings,
             "--seconds", "0.5", "--seed", "3", "--lambda", "0.05",
             "--solver", "cg16", "--lo", "1", "--hi", "5"] + list(extra),
            self.work)
        return out

    def test_intact_models_pass(self):
        run = self.fresh_run()
        bench.verify_models(run, self.ratings, self.launches)
        self.assertEqual(run.failed, 0, run.problems)
        self.assertGreater(run.attempted, 0)

    def corrupt(self, name, edit):
        path = os.path.join(self.work, name)
        with open(self.launches[1]["model"]) as f:
            lines = f.read().split("\n")
        edit(lines)
        with open(path, "w") as f:
            f.write("\n".join(lines))
        return [self.launches[0], dict(self.launches[1], model=path)]

    def test_corrupted_model_fails_the_verdict(self):
        def change_a_factor(lines):
            rows = int(lines[1].split()[0])  # X's rows follow the shape line
            for i in range(2, 2 + rows):
                fields = lines[i].split()
                fields[0] = "7"
                lines[i] = " ".join(fields)

        def garble(lines):
            lines[3] = "not a number"

        for name, edit in (("changed.txt", change_a_factor),
                           ("garbled.txt", garble)):
            launches = self.corrupt(name, edit)
            run = self.fresh_run()
            bench.verify_models(run, self.ratings, launches)
            self.assertGreater(run.failed, 0, name)
            self.assertTrue(any("different models" in p
                                for p in run.problems), run.problems)
            self.assertTrue(any("RMSE" in p for p in run.problems),
                            run.problems)

    def test_serving_answers_match_offline(self):
        out = self.serve()
        self.assertGreater(out["verified"], 0)
        run = self.fresh_run()
        bench.count_serving(run, [out])
        self.assertEqual(run.failed, 0)
        self.assertEqual(run.attempted, out["attempted"])

    def test_wrong_topk_answer_fails_the_verdict(self):
        out = self.serve("--corrupt-answer", "1")
        self.assertGreater(out["mismatches"], 0)
        run = self.fresh_run()
        bench.count_serving(run, [out])
        self.assertGreater(run.failed, 0)
        result = {"correct": run.failed == 0}
        self.assertFalse(result["correct"])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric_the_run_prints(self):
        with open(os.path.join(tslib.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(bench.WORKLOADS))
        names = {m["name"] for m in spec["end_to_end"]}
        self.assertIn("setup_s", names)
        self.assertEqual(set(bench.END_TO_END), names)
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(bench.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
