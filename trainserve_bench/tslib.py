"""Building blocks of the train->serve benchmark: build, host-speed probe,
process launches with line timestamps and rusage, calibration arithmetic,
cumf_train output parsing and the in-memory span recorder of the traced run.

run.py composes these into one run; test_bench.py tests them.
"""
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Probe reading (median rep seconds, PROBE_THREADS threads at once) at the
# reference host speed. Frozen: every calibrated time is reported in seconds
# at this speed, and a change here re-bases every metric. Set from the
# median reading (0.0226-0.0229 s) of trial sets in a calm period; the sets
# in STEADINESS.md ran in a slow period at 1.17-1.25x this.
PROBE_REF_S = 0.0230
PROBE_THREADS = 2
PROBE_REPS = 11
# Untimed probe work before the timed reps. The reference host's vCPUs take
# up to a second of load to reach full speed after idling (a cold probe reads
# up to 2x slow), so the first probe of a run warms for longer than the ones
# that directly follow a busy unit.
PROBE_WARMUP_MS = 100
FIRST_PROBE_WARMUP_MS = 500
# A probe reading this much slower than PROBE_REF_S marks a slow period.
SLOW_PERIOD = 1.3
# A unit whose after/before probe ratio leaves [1/DRIFT_LIMIT, DRIFT_LIMIT]
# is reported as disturbed (never dropped).
DRIFT_LIMIT = 1.15

# Flags of the benchmark's standalone tools (the probe and the launcher).
PROBE_FLAGS = ["-O2", "-std=c++17", "-march=native", "-ffp-contract=off",
               "-pthread"]


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing tool, bad output)."""


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(os.getcwd(), ".bench_build"))


def run_quiet(cmd, log_path, cwd=None):
    with open(log_path, "a") as log:
        rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                             cwd=cwd)
    if rc != 0:
        raise BenchError("command failed (%d): %s; see %s" %
                         (rc, " ".join(cmd), log_path))


def build_standalone(src, out, log):
    """Compiles one benchmark-owned source with PROBE_FLAGS, unless the
    binary already comes from this source and these flags."""
    stamp = out + ".src"
    src_hash = sha256_file(src) + " ".join(PROBE_FLAGS)
    built = None
    if os.path.isfile(out) and os.path.isfile(stamp):
        with open(stamp) as f:
            built = f.read()
    if built != src_hash:
        run_quiet(["c++"] + PROBE_FLAGS + [src, "-o", out], log)
        with open(stamp, "w") as f:
            f.write(src_hash)


def build(bdir):
    """Builds cumf_train, cumf_shard and tsclient from the checkout through
    the benchmark's CMake package, and the probe and the launcher with their
    fixed flags. Returns a dict of tool paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no cumfals-sim sources beside %s" % HERE)
    for tool in ("cmake", "c++", "stdbuf"):
        if shutil.which(tool) is None:
            raise BenchError("%s not found" % tool)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    cmake_dir = os.path.join(bdir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen, log)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
               "cumf_train", "cumf_shard", "tsclient"], log)
    tools = {
        "cumf_train": os.path.join(cmake_dir, "cumf", "tools", "cumf_train"),
        "cumf_shard": os.path.join(cmake_dir, "cumf", "tools", "cumf_shard"),
        "tsclient": os.path.join(cmake_dir, "tsclient"),
        "probe": os.path.join(bdir, "probe"),
        "launch": os.path.join(bdir, "launch"),
    }
    for name in ("probe", "launch"):
        build_standalone(os.path.join(HERE, name, name + ".cpp"), tools[name],
                         log)
    for name, path in tools.items():
        if not os.access(path, os.X_OK):
            raise BenchError("%s was not built at %s" % (name, path))
    return tools


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- processes -------------------------------------------------------------

class Launch:
    """One finished child process: wall seconds, peak RSS (None unless it
    ran under the launcher), exit code and its stdout lines with the
    perf_counter time each arrived."""

    def __init__(self, start, end, rc, rss_mb, cpu_s, lines, stderr):
        self.start = start
        self.end = end
        self.rc = rc
        self.rss_mb = rss_mb
        self.cpu_s = cpu_s
        self.lines = lines
        self.stderr = stderr

    @property
    def wall(self):
        return self.end - self.start

    def stdout(self):
        return "\n".join(line for _, line in self.lines)


def launch(cmd, cwd, line_buffered=False, launcher=None):
    """Runs cmd to completion. With line_buffered the child's stdio is
    switched to line buffering (stdbuf) so each line is timestamped when the
    child writes it. CPU time comes from wait4. Peak RSS is measured only
    under `launcher` (the benchmark's launch tool), which reports the
    command's own peak: wait4 here would report at least this interpreter's
    own peak RSS, which the kernel folds into a child's at exec."""
    if line_buffered:
        cmd = ["stdbuf", "-oL"] + cmd
    rss_file = None
    if launcher:
        rss_file = os.path.join(cwd, ".launch-rss-%d" % os.getpid())
        cmd = [launcher, rss_file] + cmd
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=err, bufsize=0)
        fd = proc.stdout.fileno()
        lines = []
        buf = b""
        while True:
            chunk = os.read(fd, 65536)
            t = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                lines.append((t, line.decode(errors="replace")))
        _, status, ru = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if buf:
        lines.append((end, buf.decode(errors="replace")))
    rss_mb = None
    if rss_file:
        try:
            with open(rss_file) as f:
                rss_mb = int(f.read()) / 1024.0
            os.remove(rss_file)
        except (OSError, ValueError) as e:
            raise BenchError("no peak RSS from the launcher for %s: %s" %
                             (cmd[2], e))
    return Launch(start, end, proc.returncode, rss_mb,
                  ru.ru_utime + ru.ru_stime, lines, stderr)


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("no JSON result in output:\n" + text[-2000:])


def run_json(cmd, cwd):
    """Runs a benchmark tool that prints one JSON line; raises on failure."""
    res = launch(cmd, cwd)
    if res.rc != 0:
        raise BenchError("%s exited %d: %s" % (os.path.basename(cmd[0]),
                                               res.rc, res.stderr[-2000:]))
    return last_json(res.stdout()), res


# --- host-speed probe -----------------------------------------------------

def probe(probe_bin, cwd, threads=PROBE_THREADS, reps=PROBE_REPS,
          warmup_ms=PROBE_WARMUP_MS):
    """One probe reading in seconds (the probe's median rep). The probe's
    checksum must hold; a failed check is a benchmark failure."""
    out, _ = run_json([probe_bin, "--threads", str(threads), "--reps",
                       str(reps), "--warmup-ms", str(warmup_ms)], cwd)
    if out.get("checksum_ok") is not True:
        raise BenchError("probe checksum mismatch: %r" % out)
    return out["seconds"]


def children_alive():
    """True while any process this benchmark started is still running (every
    launch is reaped by wait4 before it returns, so none should be)."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return pid == 0


def host_scale(readings, ref=PROBE_REF_S):
    """Factor turning a raw time into seconds at the reference host speed:
    ref / the median of the run's probe readings."""
    return ref / statistics.median(readings)


def calibrate_time(raw, scale):
    return raw * scale


def calibrate_rate(raw, scale):
    """A rate is work per time, so it scales the other way."""
    return raw / scale


def steal_jiffies():
    """(steal, total) jiffies of the whole host from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


# --- cumf_train output ----------------------------------------------------

def parse_train(res):
    """Extracts timings from a line-timestamped cumf_train launch.

    Returns dict with setup_s (launch to the start of epoch 1), epochs
    (per-epoch seconds), rmse series, printed final RMSE and the time from
    launch to the end of each epoch. The epoch loop's stopwatch starts in
    run_explicit; its start is recovered from the arrival time of the
    "trained" line minus the total it prints at full CSV precision. For the
    multi-GPU and out-of-core engines the modeled timeline is computed
    after that stopwatch starts and its summary line is printed right
    before epoch 1, so that line's arrival marks the start of epoch 1.
    """
    curve = []
    t_trained = None
    t_model_line = None
    printed_rmse = None
    for t, line in res.lines:
        parts = line.split(",")
        if len(parts) == 3 and parts[0].isdigit():
            curve.append((int(parts[0]), float(parts[1]), float(parts[2]),
                          parts[2].strip()))
        elif line.startswith("trained "):
            t_trained = t
        elif line.startswith("multi-GPU model") or \
                line.startswith("out-of-core model"):
            t_model_line = t
        elif line.startswith("test RMSE:"):
            printed_rmse = line.split(":", 1)[1].strip()
    if not curve or t_trained is None:
        raise BenchError("unexpected cumf_train output:\n" + res.stdout())
    loop_start = t_trained - curve[-1][1]
    epoch_start = t_model_line if t_model_line is not None else loop_start
    ends = [loop_start + c[1] for c in curve]
    epochs = [ends[0] - epoch_start] + [b - a for a, b in zip(ends, ends[1:])]
    return {
        "setup_s": epoch_start - res.start,
        "epochs": epochs,
        "epoch_end_s": [e - res.start for e in ends],
        "rmse": [c[2] for c in curve],
        "rmse_printed": [c[3] for c in curve],
        "final_rmse_printed": printed_rmse,
    }


# --- statistics -----------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """IQR / median, with the quartiles statistics.quantiles(n=4) gives."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / m if m else 0.0


# --- spans of the traced run ----------------------------------------------

class Spans:
    """In-memory spans (name, start, end, parent) of the traced run's own
    steps; written out once when the run ends."""

    def __init__(self):
        self.records = []
        self.stack = []

    def open(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "id": len(self.records),
               "parent": self.stack[-1] if self.stack else -1}
        self.records.append(rec)
        self.stack.append(rec["id"])
        return rec["id"]

    def close(self, span_id):
        self.records[span_id]["end"] = time.perf_counter()
        if self.stack and self.stack[-1] == span_id:
            self.stack.pop()

    def self_times(self):
        child = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] >= 0 and r["end"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out = {}
        for r, c in zip(self.records, child):
            if r["end"] is None:
                continue
            agg = out.setdefault(r["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += r["end"] - r["start"]
            agg["self_s"] += r["end"] - r["start"] - c
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.records, "self": self.self_times()}, f)
