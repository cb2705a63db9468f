// Host-speed probe: a frozen piece of work with the train→serve instruction
// mix, timed on T threads at once. The benchmark runs it in its own process
// right before and right after every timed unit and scales the run's times
// by probe_ref / probe, so a host that is slower for minutes at a time
// (shared vCPUs, steal) does not read as a slower program.
//
// One rep is two kinds of task pulled from one shared counter:
//  * ALS rows: a rank-1 f = 100 accumulation A += θ_v θ_vᵀ over 40 gathered
//    factor rows (as get_hermitian does), alternately from an L2-resident
//    250 × 100 Θ and a 6000 × 100 X that spills out of L2, as the two
//    half-sweeps do, then six CG-style matvecs y = A p;
//  * scoring: a user row dotted against every item row with double
//    accumulation in eight fixed lanes (as the serving dot_rows does),
//    keeping the ten best scores.
// It links nothing from the program and is compiled with fixed flags, so no
// program change can alter it. Every rep recomputes a checksum that must
// equal the frozen value below bit for bit (fixed summation orders and no
// FMA contraction make it exact on any x86-64); the compiler cannot drop
// work whose result is checked, and a build that computes something else is
// refused instead of calibrating with it.
//
//   probe [--threads T] [--reps R] [--warmup-ms MS]
//
// Prints one JSON line: the median rep wall time (all tasks done by T
// threads) and every rep time. Exits 3 when a checksum differs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr int kF = 100;
constexpr int kItems = 250;   // Θ of the scoring task and of even ALS rows
constexpr int kUsers = 6000;  // X gathered by odd ALS rows (2.4 MB > L2)
constexpr int kPerRow = 40;
constexpr int kCgIters = 6;
constexpr int kUsersPerRow = 25;  // scoring tasks per ALS row task
constexpr int kStop = 1 << 30;    // round value that ends the workers
constexpr int kRows = 80;         // ALS row tasks per rep
constexpr double kFrozenChecksum = 20162.60742219949;  // of one rep

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The factor table and the row schedule are shared read-only; A, p and y
/// are per thread. Even ALS rows gather from the first kItems rows, an
/// L2-resident Θ as in the update-X half-sweep; odd rows gather from all
/// kUsers rows, an X larger than L2 as in the update-Θ half-sweep.
struct Problem {
  std::vector<float> theta;
  std::vector<int> index;

  Problem() : theta(static_cast<std::size_t>(kUsers) * kF) {
    std::uint32_t s = 12345;
    const auto next = [&s] {
      s = s * 1664525u + 1013904223u;
      return s >> 8;
    };
    for (float& t : theta) {
      t = static_cast<float>(static_cast<int>(next() % 33) - 16) / 64.0f;
    }
    for (int r = 0; r < kRows * kPerRow; ++r) {
      const bool gather_x = (r / kPerRow) % 2 == 1;
      index.push_back(static_cast<int>(next() % (gather_x ? kUsers : kItems)));
    }
  }
};

struct Scratch {
  std::vector<float> a = std::vector<float>(kF * kF);
  std::vector<float> p = std::vector<float>(kF);
  std::vector<float> y = std::vector<float>(kF);
};

/// One ALS row update; returns the row's contribution to the checksum.
double row_update(const Problem& pr, int row, Scratch& s) {
  std::fill(s.a.begin(), s.a.end(), 0.0f);
  for (int j = 0; j < kPerRow; ++j) {
    const float* t =
        &pr.theta[static_cast<std::size_t>(
                      pr.index[static_cast<std::size_t>(row * kPerRow + j)]) *
                  kF];
    for (int i = 0; i < kF; ++i) {
      const float ti = t[i];
      float* ai = &s.a[static_cast<std::size_t>(i) * kF];
      for (int k = 0; k < kF; ++k) {
        ai[k] += ti * t[k];
      }
    }
  }
  for (int i = 0; i < kF; ++i) {
    s.p[static_cast<std::size_t>(i)] = static_cast<float>((i % 7) - 3) * 0.125f;
  }
  for (int it = 0; it < kCgIters; ++it) {
    std::fill(s.y.begin(), s.y.end(), 0.0f);
    for (int k = 0; k < kF; ++k) {
      const float pk = s.p[static_cast<std::size_t>(k)];
      const float* ak = &s.a[static_cast<std::size_t>(k) * kF];
      for (int i = 0; i < kF; ++i) {
        s.y[static_cast<std::size_t>(i)] += ak[i] * pk;
      }
    }
    for (int i = 0; i < kF; ++i) {
      s.p[static_cast<std::size_t>(i)] = s.y[static_cast<std::size_t>(i)] * 0.01f;
    }
  }
  double sum = 0;
  for (int i = 0; i < kF; ++i) {
    sum += static_cast<double>(s.p[static_cast<std::size_t>(i)]) +
           static_cast<double>(s.a[static_cast<std::size_t>(i) * kF + i]);
  }
  return sum;
}

/// One serving-style scoring pass; returns the sum of the ten best scores.
double score_user(const Problem& pr, int user) {
  const float* x =
      &pr.theta[static_cast<std::size_t>((user * 7) % kItems) * kF];
  double best[10];
  std::fill(std::begin(best), std::end(best), -1e300);
  for (int v = 0; v < kItems; ++v) {
    const float* t = &pr.theta[static_cast<std::size_t>(v) * kF];
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int k = 0;
    for (; k + 8 <= kF; k += 8) {
      for (int j = 0; j < 8; ++j) {
        acc[j] += static_cast<double>(x[k + j]) * static_cast<double>(t[k + j]);
      }
    }
    for (; k < kF; ++k) {
      acc[0] += static_cast<double>(x[k]) * static_cast<double>(t[k]);
    }
    const double score = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    if (score > best[9]) {
      int i = 9;
      for (; i > 0 && best[i - 1] < score; --i) {
        best[i] = best[i - 1];
      }
      best[i] = score;
    }
  }
  double sum = 0;
  for (const double b : best) {
    sum += b;
  }
  return sum;
}

int arg(int argc, char** argv, const char* name, int def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return std::atoi(argv[i + 1]);
    }
  }
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = std::max(1, arg(argc, argv, "--threads", 2));
  const int reps = std::max(1, arg(argc, argv, "--reps", 9));
  // Untimed reps run for at least this long first: an idle vCPU takes up
  // to a second to reach full speed, and a unit never starts idle.
  const double warmup_s = arg(argc, argv, "--warmup-ms", 0) / 1000.0;

  // Tasks [0, kRows) are ALS rows, the rest scoring passes. Threads pull
  // them from a shared counter, as the engine's nnz-guided schedule pulls
  // row chunks, so one briefly descheduled thread slows a rep by its lost
  // share of the work rather than by a straggler's tail.
  const int tasks = kRows * (1 + kUsersPerRow);
  const Problem problem;
  std::vector<double> task_sum(static_cast<std::size_t>(tasks));
  std::vector<double> checksums;
  std::vector<double> rep_s;
  std::mutex mutex;
  std::condition_variable cv;
  int round = -1;  // guarded by mutex: the rep the threads may start
  int idle = 0;    // guarded by mutex: threads done with the current rep
  std::atomic<int> next_task{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      Scratch scratch;
      for (int r = 0;; ++r) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return round >= r; });
          if (round == kStop) {
            return;
          }
        }
        for (int task = next_task.fetch_add(1); task < tasks;
             task = next_task.fetch_add(1)) {
          task_sum[static_cast<std::size_t>(task)] =
              task < kRows ? row_update(problem, task, scratch)
                           : score_user(problem, task - kRows);
        }
        const std::lock_guard<std::mutex> lock(mutex);
        ++idle;
        cv.notify_all();
      }
    });
  }
  // The first rep (and any further warm-up reps) is not timed.
  const double start = now_s();
  int warm = 0;
  for (int r = 0; static_cast<int>(rep_s.size()) < reps; ++r) {
    const double t0 = now_s();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      next_task.store(0);
      idle = 0;
      round = r;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return idle == threads; });
    }
    const double elapsed = now_s() - t0;
    double sum = 0;
    for (const double v : task_sum) {
      sum += v;
    }
    checksums.push_back(sum);
    if (warm > 0 && now_s() - start >= warmup_s) {
      rep_s.push_back(elapsed);
    }
    ++warm;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    round = kStop;
  }
  cv.notify_all();
  for (std::thread& th : pool) {
    th.join();
  }

  bool ok = true;
  for (const double c : checksums) {
    ok = ok && c == kFrozenChecksum;
  }
  std::vector<double> sorted = rep_s;
  std::sort(sorted.begin(), sorted.end());
  std::string list;
  for (const double s : rep_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.9f", list.empty() ? "" : ", ", s);
    list += buf;
  }
  std::printf(
      "{\"threads\": %d, \"reps\": %d, \"seconds\": %.9f, "
      "\"rep_s\": [%s], \"checksum\": %.17g, \"checksum_ok\": %s}\n",
      threads, reps, sorted[sorted.size() / 2], list.c_str(),
      checksums.front(), ok ? "true" : "false");
  return ok ? 0 : 3;
}
