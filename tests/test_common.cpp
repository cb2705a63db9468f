// Unit tests for the common substrate: checks, RNG, thread pool, table.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace cumf {
namespace {

// ---------- check macros ----------

TEST(Check, ExpectsThrowsOnViolation) {
  EXPECT_THROW(CUMF_EXPECTS(false, "boom"), CheckError);
  EXPECT_NO_THROW(CUMF_EXPECTS(true, "fine"));
}

TEST(Check, EnsuresThrowsWithContext) {
  try {
    CUMF_ENSURES(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math broke"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

// ---------- RNG ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a() == b();
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformIndexIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 10;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const auto idx = rng.uniform_index(kBuckets);
    ASSERT_LT(idx, kBuckets);
    ++counts[idx];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sq / kSamples, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsScalesCorrectly) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / kSamples, 5.0, 0.05);
}

TEST(Zipf, UniformWhenExponentZero) {
  ZipfSampler zipf(10, 0.0);
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf(rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 5000, 600);
  }
}

TEST(Zipf, SkewedTowardSmallRanks) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(5);
  int head = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    head += zipf(rng) < 10;
  }
  // With s=1, the top-10 of 1000 carry ~39% of the mass.
  EXPECT_GT(head, kSamples / 4);
  EXPECT_LT(head, kSamples / 2);
}

TEST(Zipf, RejectsEmptySupport) {
  EXPECT_THROW(ZipfSampler(0, 1.0), CheckError);
  EXPECT_THROW(ZipfSampler(5, -0.1), CheckError);
}

// ---------- ThreadPool ----------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(101);
  pool.parallel_for(touched.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) {
                        touched[i].fetch_add(1);
                      }
                    });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), CheckError);
}

TEST(ThreadPool, TasksSubmittedFromWorkersAreWaitedFor) {
  // Regression: wait_idle must cover follow-up tasks submitted by running
  // tasks, not just the ones enqueued before the wait started.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      for (int j = 0; j < 4; ++j) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 8 * 5);
}

TEST(ThreadPool, WaitIdleFromWorkerHelpsInsteadOfDeadlocking) {
  // Regression: a task that submits children and then calls wait_idle used
  // to block its own worker; with one of two workers gone the pool could
  // stall. The waiter must help drain the queue and observe all children
  // finished before proceeding.
  ThreadPool pool(2);
  std::atomic<int> children{0};
  std::atomic<int> observed{-1};
  pool.submit([&] {
    for (int j = 0; j < 6; ++j) {
      pool.submit([&children] { children.fetch_add(1); });
    }
    pool.wait_idle();
    observed.store(children.load());
  });
  pool.wait_idle();
  EXPECT_EQ(observed.load(), 6);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // parallel_for bodies issuing their own parallel_for: every chunk task
  // ends in an inner wait_idle on a worker thread.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      pool.parallel_for(8,
                        [&](std::size_t b2, std::size_t e2, std::size_t) {
                          counter.fetch_add(static_cast<int>(e2 - b2));
                        });
    }
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPool, SingleWorkerNestedWaitStillDrains) {
  // Worst case for helping: one worker, so nobody else can ever pick up the
  // children while the parent waits.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.submit([&] {
    pool.submit([&] {
      pool.submit([&counter] { counter.fetch_add(1); });
      pool.wait_idle();
      counter.fetch_add(10);
    });
    pool.wait_idle();
    counter.fetch_add(100);
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 111);
}

TEST(ThreadPool, ConcurrentSubmitsFromManyWorkers) {
  // Stress for the TSan job: many workers racing on submit + completion
  // accounting while an external thread waits.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] {
      for (int j = 0; j < 16; ++j) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 32 * 16);
}

TEST(ThreadPool, ParallelForWorkerIdsStayWithinPoolSize) {
  // The guided schedule hands each worker id to exactly one task, so bodies
  // may index per-worker scratch with it; ids must never exceed size().
  ThreadPool pool(4);
  std::vector<std::atomic<int>> per_worker(4);
  pool.parallel_for(1000,
                    [&](std::size_t begin, std::size_t end, std::size_t w) {
                      ASSERT_LT(w, 4u);
                      per_worker[w].fetch_add(static_cast<int>(end - begin));
                    });
  int total = 0;
  for (auto& c : per_worker) {
    total += c.load();
  }
  EXPECT_EQ(total, 1000);
}

TEST(ThreadPool, ParallelForChunksRespectsBoundaries) {
  ThreadPool pool(2);
  const std::vector<std::size_t> bounds{0, 3, 3, 10, 11};
  std::vector<std::atomic<int>> touched(11);
  std::atomic<int> calls{0};
  pool.parallel_for_chunks(
      bounds, [&](std::size_t begin, std::size_t end, std::size_t) {
        calls.fetch_add(1);
        // Every (begin, end) must be one of the non-empty chunks verbatim.
        const bool known = (begin == 0 && end == 3) ||
                           (begin == 3 && end == 10) ||
                           (begin == 10 && end == 11);
        EXPECT_TRUE(known) << begin << ".." << end;
        for (std::size_t i = begin; i < end; ++i) {
          touched[i].fetch_add(1);
        }
      });
  EXPECT_EQ(calls.load(), 3);  // the empty [3,3) chunk is skipped
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPool, ParallelForChunksPinsChunkToWorkerWhenNotMoreChunks) {
  // One range per worker (or device): chunk c must run on worker c every
  // time, so per-worker accumulators see the same rows on every run.
  ThreadPool pool(4);
  const std::vector<std::size_t> bounds{0, 5, 5, 9, 20};
  std::vector<std::atomic<int>> seen(4);
  for (int rep = 0; rep < 20; ++rep) {
    pool.parallel_for_chunks(
        bounds, [&](std::size_t begin, std::size_t end, std::size_t w) {
          ASSERT_LT(w, 4u);
          EXPECT_EQ(begin, bounds[w]);
          EXPECT_EQ(end, bounds[w + 1]);
          seen[w].fetch_add(1);
        });
  }
  EXPECT_EQ(seen[0].load(), 20);
  EXPECT_EQ(seen[1].load(), 0);  // the empty [5,5) chunk is skipped
  EXPECT_EQ(seen[2].load(), 20);
  EXPECT_EQ(seen[3].load(), 20);
}

TEST(ThreadPool, ParallelForChunksRejectsBadBounds) {
  ThreadPool pool(1);
  const std::vector<std::size_t> not_from_zero{1, 5};
  const std::vector<std::size_t> descending{0, 5, 3};
  const std::vector<std::size_t> too_short{0};
  const auto body = [](std::size_t, std::size_t, std::size_t) {};
  EXPECT_THROW(pool.parallel_for_chunks(not_from_zero, body), CheckError);
  EXPECT_THROW(pool.parallel_for_chunks(descending, body), CheckError);
  EXPECT_THROW(pool.parallel_for_chunks(too_short, body), CheckError);
}

TEST(ThreadPool, GuidedScheduleSurvivesPathologicalSkew) {
  // One index carries ~90% of the total work. A static partition strands
  // the whole range behind whichever worker draws it; the guided schedule
  // must still complete promptly with every index executed exactly once,
  // and no worker may observe a torn per-worker accumulator (TSan-audited).
  ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> touched(kN);
  std::vector<double> per_worker(4, 0.0);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end,
                            std::size_t w) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      // Index 0 is the pathological row: ~90% of all iterations.
      const int spins = i == 0 ? 90000 : 40;
      for (int s = 0; s < spins; ++s) {
        acc += std::sqrt(static_cast<double>(s + i));
      }
      touched[i].fetch_add(1);
    }
    per_worker[w] += acc;  // per-worker slot: must be race-free
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

// ---------- Table ----------

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Stopwatch, MeasuresNonNegativeMonotoneTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(Stopwatch, LapMeasuresIntervalsWhileSecondsAccumulates) {
  Stopwatch sw;
  const double lap1 = sw.lap();
  const double lap2 = sw.lap();
  const double total = sw.seconds();
  EXPECT_GE(lap1, 0.0);
  EXPECT_GE(lap2, 0.0);
  // seconds() keeps counting from construction, so the laps partition it.
  EXPECT_GE(total, lap1 + lap2 - 1e-9);
  sw.reset();
  EXPECT_LT(sw.lap(), 1.0);
}

TEST(Stopwatch, NowNsIsMonotoneAcrossThreads) {
  const std::uint64_t a = Stopwatch::now_ns();
  const std::uint64_t b = Stopwatch::now_ns();
  EXPECT_GE(b, a);
  // The epoch is process-wide: another thread's reading is on the same
  // timeline, not near zero.
  std::uint64_t from_thread = 0;
  std::thread([&from_thread] { from_thread = Stopwatch::now_ns(); }).join();
  EXPECT_GE(from_thread, a);
}

}  // namespace
}  // namespace cumf
