// bench_serve — the serving-layer load harness.
//
// Three questions, one JSON answer (BENCH_serve.json):
//
//  1. How much does batched scoring buy, and how close does a request come
//     to its scoring? The per-item scalar `dot` loop (the pre-serve
//     recommend_top_k inner loop) vs the dot_rows gemv over the same Θ —
//     the "serve_batched_scoring" speedup the CI perf-smoke job gates at
//     ≥ 2x — and dot_rows over one-thread top_k on the same users, the
//     "serve_topk_scoring_share" it gates too.
//  2. What latency does a loaded service hold? A closed-loop generator
//     (T threads issuing back-to-back top-k requests) reports QPS and
//     p50/p95/p99, all through per-thread cuprof histogram registries
//     merged after the run — the merge-stable path the tests verify.
//  3. What does the open-loop view look like? Requests scheduled at a fixed
//     arrival rate (60% of the closed-loop ceiling), latency measured from
//     *scheduled* time so queueing delay is included — the
//     coordinated-omission-free number.
//
// Plus the fold-in histogram: per-observe latency of the degradation-
// guarded re-solve. Usage: bench_serve [--quick] [--out PATH] [--trace PATH]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "data/model_io.hpp"
#include "linalg/dense.hpp"
#include "prof/counters.hpp"
#include "prof/prof.hpp"
#include "serve/serve.hpp"
#include "simd/vec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace {

using namespace cumf;
using bench::g_sink;
using bench::time_ns;
using bench::time_ratio;

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (real_t& v : m.data()) {
    v = static_cast<real_t>(rng.normal() * 0.3);
  }
  return m;
}

struct Percentiles {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Percentiles summarize(const prof::Histogram& h) {
  return {h.mean(), h.percentile(0.50), h.percentile(0.95),
          h.percentile(0.99)};
}

void print_lat(const char* name, const Percentiles& p, double qps) {
  std::printf("  %-14s mean %8.1f us   p50 %7.0f   p95 %7.0f   p99 %7.0f"
              "   %10.0f req/s\n",
              name, p.mean, p.p50, p.p95, p.p99, qps);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serve.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH] [--trace PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_path.empty()) {
    prof::Tracer::instance().enable();
    prof::Tracer::instance().set_thread_name("bench_serve");
  }

  const std::size_t users = quick ? 2000 : 20000;
  const std::size_t items = quick ? 2048 : 8192;
  const std::size_t f = 64;
  const std::size_t ratings_per_user = 32;
  std::printf("bench_serve  backend=%s  default=%s  mode=%s\n",
              simd::backend_name(), to_string(simd::kDefaultPath),
              quick ? "quick" : "full");
  std::printf("model: %zu users x %zu items, f=%zu\n\n", users, items, f);

  Rng rng(20240808);
  FactorModel model{random_matrix(users, f, rng),
                    random_matrix(items, f, rng)};
  RatingsCoo coo(static_cast<index_t>(users), static_cast<index_t>(items));
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t j = 0; j < ratings_per_user; ++j) {
      coo.add(static_cast<index_t>(u),
              static_cast<index_t>(rng.uniform_index(items)),
              static_cast<real_t>(1.0 + rng.uniform_index(5)));
    }
  }
  coo.sort_and_dedup();
  const auto seen = CsrMatrix::from_coo(coo);

  // --- 1. batched scoring vs the per-item scalar dot loop ---------------
  const double min_seconds = quick ? 0.02 : 0.2;
  const auto xu = model.x.row(0);
  std::vector<double> scores(items);
  const double scalar_ns = time_ns(
      [&] {
        for (std::size_t v = 0; v < items; ++v) {
          scores[v] = dot(xu, model.theta.row(v), simd::KernelPath::scalar);
        }
        g_sink = scores[items - 1];
      },
      min_seconds, 5);
  const double dotloop_ns = time_ns(
      [&] {
        for (std::size_t v = 0; v < items; ++v) {
          scores[v] = dot(xu, model.theta.row(v), simd::kDefaultPath);
        }
        g_sink = scores[items - 1];
      },
      min_seconds, 5);
  const double batched_ns = time_ns(
      [&] {
        dot_rows(xu, model.theta, 0, items, scores, simd::kDefaultPath);
        g_sink = scores[items - 1];
      },
      min_seconds, 5);
  const double batched_speedup = scalar_ns / batched_ns;
  std::printf("scoring one user over %zu items (f=%zu):\n", items, f);
  std::printf("  scalar dot loop  %12.0f ns\n", scalar_ns);
  std::printf("  simd dot loop    %12.0f ns   (%.2fx)\n", dotloop_ns,
              scalar_ns / dotloop_ns);
  std::printf("  batched dot_rows %12.0f ns   (%.2fx)  <- CI gate >= 2x\n\n",
              batched_ns, batched_speedup);

  // --- the engine under test -------------------------------------------
  // The share users' factor rows and Θ stay behind for the scoring side of
  // the share measurement below.
  std::vector<index_t> share_users(32);
  for (index_t& u : share_users) {
    u = static_cast<index_t>(rng.uniform_index(users));
  }
  Matrix share_x(share_users.size(), f);
  for (std::size_t i = 0; i < share_users.size(); ++i) {
    const auto row = model.x.row(share_users[i]);
    std::copy(row.begin(), row.end(), share_x.row(i).begin());
  }
  const Matrix theta = model.theta;
  serve::ServeOptions options;
  options.shards = 4;
  options.cache_capacity = quick ? 256 : 2048;
  serve::ServeEngine engine(std::move(model), seen, options);

  const std::size_t threads = quick ? 2 : 4;
  const std::size_t k = 10;

  // --- top_k against its own scoring, one thread ------------------------
  // A whole request (cache look-up, the dot_rows scan, selection) against
  // the scan alone, over the same users in alternating blocks: the share
  // of a request that is scoring. Selection work beyond the scan shows as a
  // share below 1.
  const auto share = time_ratio(
      [&] {
        for (std::size_t i = 0; i < share_users.size(); ++i) {
          dot_rows(share_x.row(i), theta, 0, items, scores,
                   simd::kDefaultPath);
        }
        g_sink = scores[items - 1];
      },
      [&] {
        for (const index_t u : share_users) {
          g_sink = static_cast<double>(engine.top_k(u, k).size());
        }
      },
      min_seconds, 1);
  const double users_per_call = static_cast<double>(share_users.size());
  const double topk_ns = share.den_ns / users_per_call;
  std::printf("one-thread top_k (k=%zu, %zu shards) vs its scoring:\n", k,
              options.shards);
  std::printf("  dot_rows         %12.0f ns\n",
              share.num_ns / users_per_call);
  std::printf("  top_k            %12.0f ns   scoring share %.2f"
              "  <- CI gate\n\n",
              topk_ns, share.ratio);

  // --- 2. closed loop: back-to-back requests per thread ----------------
  const std::size_t closed_per_thread = quick ? 300 : 2500;
  std::vector<prof::CounterRegistry> closed_regs(threads);
  {
    std::vector<std::thread> pool;
    Stopwatch wall;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        prof::Tracer::instance().set_thread_name("closed-" +
                                                 std::to_string(t));
        Rng trng(1000 + t);
        for (std::size_t i = 0; i < closed_per_thread; ++i) {
          const auto user =
              static_cast<index_t>(trng.uniform_index(engine.users()));
          const auto t0 = Stopwatch::now_ns();
          const auto recs = engine.top_k(user, k);
          closed_regs[t].observe(
              "serve.topk_us",
              static_cast<double>(Stopwatch::now_ns() - t0) / 1e3);
          g_sink = static_cast<double>(recs.size());
        }
      });
    }
    for (auto& th : pool) {
      th.join();
    }
    const double secs = wall.seconds();
    prof::CounterRegistry merged;
    for (const auto& r : closed_regs) {
      merged.merge(r);
    }
    const auto* h = merged.histogram("serve.topk_us");
    const auto closed = summarize(*h);
    const double closed_qps =
        static_cast<double>(threads * closed_per_thread) / secs;
    std::printf("closed loop (%zu threads x %zu requests):\n", threads,
                closed_per_thread);
    print_lat("topk", closed, closed_qps);

    // --- 3. open loop: fixed arrival rate, latency from scheduled time --
    const double offered_qps = closed_qps * 0.6;
    const std::size_t open_total = quick ? 600 : 5000;
    const double interval_ns = 1e9 / offered_qps;
    std::vector<prof::CounterRegistry> open_regs(threads);
    std::vector<std::thread> open_pool;
    Stopwatch open_wall;
    const auto start_ns = Stopwatch::now_ns();
    for (std::size_t t = 0; t < threads; ++t) {
      open_pool.emplace_back([&, t] {
        Rng trng(2000 + t);
        for (std::size_t i = t; i < open_total; i += threads) {
          const auto sched =
              start_ns + static_cast<std::uint64_t>(
                             interval_ns * static_cast<double>(i));
          while (Stopwatch::now_ns() < sched) {
            std::this_thread::yield();
          }
          const auto user =
              static_cast<index_t>(trng.uniform_index(engine.users()));
          const auto recs = engine.top_k(user, k);
          open_regs[t].observe(
              "serve.open_us",
              static_cast<double>(Stopwatch::now_ns() - sched) / 1e3);
          g_sink = static_cast<double>(recs.size());
        }
      });
    }
    for (auto& th : open_pool) {
      th.join();
    }
    const double open_secs = open_wall.seconds();
    prof::CounterRegistry open_merged;
    for (const auto& r : open_regs) {
      open_merged.merge(r);
    }
    const auto open = summarize(*open_merged.histogram("serve.open_us"));
    const double achieved_qps = static_cast<double>(open_total) / open_secs;
    std::printf("open loop (%zu threads, offered %.0f req/s):\n", threads,
                offered_qps);
    print_lat("topk", open, achieved_qps);

    // --- 4. fold-in latency ---------------------------------------------
    const std::size_t folds = quick ? 150 : 600;
    prof::CounterRegistry fold_reg;
    Rng frng(3000);
    for (std::size_t i = 0; i < folds; ++i) {
      const Rating r{
          static_cast<index_t>(frng.uniform_index(engine.users())),
          static_cast<index_t>(frng.uniform_index(engine.items())),
          static_cast<real_t>(1.0 + frng.uniform_index(5))};
      const auto t0 = Stopwatch::now_ns();
      engine.observe(r);
      fold_reg.observe("serve.fold_in_us",
                       static_cast<double>(Stopwatch::now_ns() - t0) / 1e3);
    }
    const auto fold = summarize(*fold_reg.histogram("serve.fold_in_us"));
    std::printf("fold-in (%zu streamed ratings):\n", folds);
    print_lat("observe", fold, 0.0);

    const auto cache = engine.cache_stats();
    const auto solves = engine.solve_stats();
    std::printf("\ncache: %llu hits / %llu misses / %llu evictions; "
                "solver: %llu systems, %llu fallbacks\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(solves.systems),
                static_cast<unsigned long long>(solves.cg_fallbacks +
                                                solves.fp16_fallbacks));

    std::ofstream out(out_path);
    out << "{\n  \"backend\": \"" << simd::backend_name() << "\",\n"
        << "  \"default_path\": \"" << to_string(simd::kDefaultPath)
        << "\",\n  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"kernels\": {\n"
        << "    \"serve_scoring_f64\": {\"scalar_ns\": "
        << json_num(scalar_ns) << ", \"simd_dot_loop_ns\": "
        << json_num(dotloop_ns) << ", \"simd_ns\": " << json_num(batched_ns)
        << ", \"speedup\": " << json_num(batched_speedup) << "},\n"
        << "    \"serve_topk_f64\": {\"dot_rows_ns\": "
        << json_num(share.num_ns / users_per_call)
        << ", \"simd_ns\": " << json_num(topk_ns)
        << ", \"scoring_share\": " << json_num(share.ratio) << "}\n"
        << "  },\n  \"speedups\": {\n"
        << "    \"serve_batched_scoring\": " << json_num(batched_speedup)
        << ",\n    \"serve_topk_scoring_share\": " << json_num(share.ratio)
        << "\n  },\n"
        << "  \"closed_loop\": {\"threads\": " << threads
        << ", \"requests\": " << threads * closed_per_thread
        << ", \"qps\": " << json_num(closed_qps)
        << ", \"mean_us\": " << json_num(closed.mean)
        << ", \"p50_us\": " << json_num(closed.p50)
        << ", \"p95_us\": " << json_num(closed.p95)
        << ", \"p99_us\": " << json_num(closed.p99) << "},\n"
        << "  \"open_loop\": {\"threads\": " << threads
        << ", \"requests\": " << open_total
        << ", \"offered_qps\": " << json_num(offered_qps)
        << ", \"achieved_qps\": " << json_num(achieved_qps)
        << ", \"mean_us\": " << json_num(open.mean)
        << ", \"p50_us\": " << json_num(open.p50)
        << ", \"p95_us\": " << json_num(open.p95)
        << ", \"p99_us\": " << json_num(open.p99) << "},\n"
        << "  \"fold_in\": {\"count\": " << folds
        << ", \"mean_us\": " << json_num(fold.mean)
        << ", \"p50_us\": " << json_num(fold.p50)
        << ", \"p95_us\": " << json_num(fold.p95)
        << ", \"p99_us\": " << json_num(fold.p99) << "}\n}\n";
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (!trace_path.empty() &&
      prof::Tracer::instance().write_chrome_trace(trace_path)) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
