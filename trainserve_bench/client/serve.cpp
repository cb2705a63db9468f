// One serving phase over serve::ServeEngine, in its own process so the
// host-speed probe can run between phases with nothing of ours alive.
//
// The traffic mix: 95% top-k reads (k = 10) for users drawn in proportion
// to their rating count, 5% fold-in writes (mostly one re-rated item of a
// uniformly drawn existing user, some brand-new users with ten ratings).
// Writes take the engine's exclusive lock beside the shared-lock reads.
//
//  open  Poisson arrivals at --rate per second for --seconds. Two workers
//        claim requests in arrival order, poll until the due time, then
//        serve; latency counts from the due time, so a stall is charged to
//        every request queued behind it.
//  sat   closed loop: two threads issue top-k reads of the same user mix
//        back to back for --seconds; reports completed requests per second.
//
// The process's peak RSS is read when the phase ends, and the offline
// reference for the sampled answers is loaded only after the engine is
// destroyed, so the reported memory is the serving set-up and the engine,
// not the benchmark's own copies.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "client.hpp"
#include "common/rng.hpp"
#include "core/solver.hpp"
#include "data/loaders.hpp"
#include "data/model_io.hpp"
#include "metrics/ranking.hpp"
#include "serve/serve.hpp"
#include "sparse/csr.hpp"

namespace tsb {
namespace {

using namespace cumf;

constexpr std::size_t kThreads = 2;     // workers (open) / clients (sat)
constexpr std::size_t kTopK = 10;
constexpr double kCacheShare = 0.1;     // LRU capacity as a share of users
// Saturation cycles through this many pre-drawn requests. A request comes
// round again only after thousands of others, far more distinct users than
// the cache holds, so the cycle adds no cache hits.
constexpr std::size_t kSatPool = 1 << 12;
constexpr std::size_t kSamplesPerThread = 64;  // answers kept for checking
constexpr std::uint64_t kVerifyMax = 64;       // offline checks per phase

enum class Kind : std::uint8_t { topk, rerate, new_user };

struct Request {
  Kind kind = Kind::topk;
  index_t user = 0;
  index_t item = 0;
  real_t value = 0;
  std::uint32_t new_user_slot = 0;  ///< index into the new-user batches
  double due_s = 0;                 ///< open loop: offset of the arrival
};

struct Timing {
  std::uint64_t due = 0;
  std::uint64_t claim = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

struct Mix {
  double write_share = 0.05;
  double new_user_share = 0.2;  ///< of the writes
  double lo = 1;
  double hi = 5;
};

/// Draws the request stream from the seed alone: same seed, same stream.
class Traffic {
 public:
  Traffic(const CsrMatrix& seen, const Mix& mix, std::uint64_t seed)
      : seen_(seen), mix_(mix), rng_(seed) {
    double acc = 0;
    weight_cdf_.reserve(seen.rows());
    for (index_t u = 0; u < seen.rows(); ++u) {
      acc += seen.row_nnz(u);
      weight_cdf_.push_back(acc);
    }
  }

  Request next() {
    Request r;
    r.user = weighted_user();
    if (rng_.uniform() >= mix_.write_share) {
      return r;
    }
    // Writers are drawn uniformly: a fold-in re-solves over all of the
    // user's ratings, so activity-weighted writers would make the write
    // cost, and with it the saturation throughput, hinge on the few
    // heaviest users a seed happens to generate.
    r.user = static_cast<index_t>(rng_.uniform_index(seen_.rows()));
    r.value = rating();
    if (rng_.uniform() < mix_.new_user_share) {
      r.kind = Kind::new_user;
      r.new_user_slot = static_cast<std::uint32_t>(new_users.size());
      std::vector<serve::ServeEngine::ItemRating> batch;
      std::set<index_t> items;
      while (items.size() < 10) {
        items.insert(static_cast<index_t>(rng_.uniform_index(seen_.cols())));
      }
      for (const index_t v : items) {
        batch.emplace_back(v, rating());
      }
      new_users.push_back(std::move(batch));
      return r;
    }
    r.kind = Kind::rerate;
    const auto cols = seen_.row_cols(r.user);
    r.item = cols[rng_.uniform_index(cols.size())];
    return r;
  }

  double exponential(double rate) { return -std::log(1.0 - rng_.uniform()) / rate; }

  std::vector<std::vector<serve::ServeEngine::ItemRating>> new_users;

 private:
  index_t weighted_user() {
    const double x = rng_.uniform() * weight_cdf_.back();
    const auto it = std::upper_bound(weight_cdf_.begin(), weight_cdf_.end(), x);
    return static_cast<index_t>(std::min<std::ptrdiff_t>(
        it - weight_cdf_.begin(),
        static_cast<std::ptrdiff_t>(weight_cdf_.size()) - 1));
  }
  real_t rating() {
    return static_cast<real_t>(std::round(rng_.uniform(mix_.lo, mix_.hi)));
  }

  const CsrMatrix& seen_;
  Mix mix_;
  Rng rng_;
  std::vector<double> weight_cdf_;
};

/// The seen matrix: the ratings file, deduplicated, shaped to the model.
CsrMatrix load_seen(const std::string& path, const FactorModel& model) {
  RatingsCoo loaded;
  {
    const Span s("data.load_ratings_file");
    loaded = load_ratings_file(path, LoaderOptions{});
  }
  const Span s("sparse.csr");
  loaded.sort_and_dedup();
  if (loaded.rows() > model.x.rows() || loaded.cols() > model.theta.rows()) {
    throw std::runtime_error("ratings file exceeds the model's shape");
  }
  const RatingsCoo shaped(static_cast<index_t>(model.x.rows()),
                          static_cast<index_t>(model.theta.rows()),
                          std::move(loaded.entries()));
  return CsrMatrix::from_coo(shaped);
}

SolverKind solver_kind(const std::string& name) {
  const auto kind = solver_from_cli_name(name);
  if (!kind) {
    throw std::runtime_error("unknown solver '" + name + "'");
  }
  return *kind;
}

/// Union of write intervals, for "reads that overlapped a fold-in".
std::vector<std::pair<std::uint64_t, std::uint64_t>> merged(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& s : spans) {
    if (!out.empty() && s.first <= out.back().second) {
      out.back().second = std::max(out.back().second, s.second);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

/// Polls until `due`. Workers never sleep between arrivals: a sleeping vCPU
/// on a shared host wakes milliseconds late and runs slow for a while
/// after, which would put the host's idle behaviour, not the engine, into
/// every latency.
void wait_until(std::uint64_t due) {
  while (now_ns() < due) {
  }
}

}  // namespace

int cmd_serve(const Args& args) {
  const std::string phase = args.str("phase");
  if (phase != "open" && phase != "sat") {
    throw std::runtime_error("--phase must be open or sat");
  }
  const double seconds = args.num("seconds");
  const std::size_t threads = kThreads;
  const std::size_t k = kTopK;
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  Spans::instance().enable(args.num("trace", 0) != 0);
  Mix mix;
  mix.lo = args.num("lo");
  mix.hi = args.num("hi");
  if (phase == "sat") {
    // Saturation is read-only: with fold-ins in a closed loop the
    // reader-preferring engine lock starves the writer for as long as the
    // host takes to wake it, which on a shared host made throughput flip
    // between two modes 2x apart from run to run. Fold-in cost and the
    // read/write interaction are measured in the open loop.
    mix.write_share = 0;
  }

  serve::ServeOptions options;
  options.shards = static_cast<std::size_t>(args.num("shards", 1));
  options.lambda = static_cast<real_t>(args.num("lambda"));
  options.solver.kind = solver_kind(args.str("solver"));
  options.solver.cg_fs = static_cast<std::uint32_t>(args.num("fs", 6));

  // --- set-up: model read, ratings parse, seen build, engine ----------------
  const std::uint64_t t_setup = now_ns();
  FactorModel model;
  {
    const Span s("data.read_model_file");
    model = read_model_file(args.str("model"));
  }
  CsrMatrix seen = load_seen(args.str("ratings"), model);

  // --- request stream: the benchmark's own work, kept out of the set-up ----
  // It needs the seen matrix, which then moves into the engine.
  const std::uint64_t t_draw = now_ns();
  std::vector<Request> requests;
  std::vector<std::vector<serve::ServeEngine::ItemRating>> new_users;
  std::vector<std::size_t> unseen(seen.rows());  // items top-k may return
  {
    Traffic traffic(seen, mix, seed);
    if (phase == "open") {
      const double rate = args.num("rate");
      double t = traffic.exponential(rate);
      while (t < seconds) {
        Request r = traffic.next();
        r.due_s = t;
        requests.push_back(r);
        t += traffic.exponential(rate);
      }
    } else {
      for (std::size_t i = 0; i < kSatPool; ++i) {
        requests.push_back(traffic.next());
      }
    }
    new_users = std::move(traffic.new_users);
  }
  if (requests.empty()) {
    throw std::runtime_error("empty request stream");
  }
  for (index_t u = 0; u < seen.rows(); ++u) {
    unseen[u] = seen.cols() - seen.row_nnz(u);
  }
  const std::uint64_t draw_ns = now_ns() - t_draw;

  options.cache_capacity = static_cast<std::size_t>(
      std::max(1.0, std::round(kCacheShare *
                               static_cast<double>(model.x.rows()))));
  const std::uint64_t t_build = now_ns();
  std::unique_ptr<serve::ServeEngine> engine;
  {
    const Span s("serve.ServeEngine");
    engine = std::make_unique<serve::ServeEngine>(std::move(model),
                                                  std::move(seen), options);
  }
  const std::uint64_t t_ready = now_ns();
  const double setup_s =
      static_cast<double>(t_ready - t_setup - draw_ns) * 1e-9;
  const double engine_build_s = static_cast<double>(t_ready - t_build) * 1e-9;

  // --- the phase -----------------------------------------------------------
  std::vector<Timing> timing(phase == "open" ? requests.size() : 0);
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> done{0};
  const std::size_t sample_every = 7;
  struct Sample {
    index_t user;
    std::vector<ScoredItem> answer;
  };
  std::vector<std::vector<Sample>> samples(threads);
  for (auto& per_thread : samples) {
    per_thread.reserve(kSamplesPerThread);
  }
  std::vector<std::vector<index_t>> written(threads);

  const auto execute = [&](std::size_t tid, std::uint64_t id) {
    const Request& r = requests[id % requests.size()];
    try {
      switch (r.kind) {
        case Kind::topk: {
          std::vector<ScoredItem> answer;
          {
            const Span s("serve.top_k", static_cast<std::int64_t>(id));
            answer = engine->top_k(r.user, k);
          }
          // Heavy users may have fewer than k unseen items left; re-rates
          // never add a seen item, so the base seen set fixes the size.
          if (answer.size() != std::min(k, unseen[r.user])) {
            failed.fetch_add(1);
          } else if (id % sample_every == 0 &&
                     samples[tid].size() < kSamplesPerThread) {
            samples[tid].push_back({r.user, std::move(answer)});
          }
          break;
        }
        case Kind::rerate: {
          const Span s("serve.observe", static_cast<std::int64_t>(id));
          written[tid].push_back(r.user);
          engine->observe(Rating{r.user, r.item, r.value});
          break;
        }
        case Kind::new_user: {
          const Span s("serve.fold_in_user", static_cast<std::int64_t>(id));
          engine->fold_in_user(new_users[r.new_user_slot]);
          break;
        }
      }
    } catch (const std::exception& e) {
      failed.fetch_add(1);
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(id), e.what());
    }
    done.fetch_add(1);
  };

  const std::uint64_t t0 = now_ns() + 2'000'000;  // first arrival after 2 ms
  const auto deadline =
      t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      if (phase == "open") {
        for (;;) {
          const std::uint64_t id = next.fetch_add(1);
          if (id >= requests.size()) {
            return;
          }
          Timing& tm = timing[id];
          tm.due = t0 + static_cast<std::uint64_t>(requests[id].due_s * 1e9);
          tm.claim = now_ns();
          wait_until(tm.due);
          tm.start = now_ns();
          execute(tid, id);
          tm.end = now_ns();
        }
      }
      wait_until(t0);
      while (now_ns() < deadline) {
        execute(tid, next.fetch_add(1));
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  const double elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double rss_mb = peak_rss_mb();
  const SolveStats stats = engine->solve_stats();
  const serve::CacheStats cache = engine->cache_stats();
  engine.reset();

  // --- verdict (outside the timed phase) -------------------------------------
  std::vector<index_t> all_written;
  for (const auto& w : written) {
    all_written.insert(all_written.end(), w.begin(), w.end());
  }
  std::sort(all_written.begin(), all_written.end());
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  const bool corrupt_answer = args.num("corrupt-answer", 0) != 0;
  {
    // The offline reference is the model file and ratings as written,
    // loaded again now that the engine's memory is free.
    const Span span("bench.verdict");
    const FactorModel reference = read_model_file(args.str("model"));
    const CsrMatrix reference_seen = load_seen(args.str("ratings"), reference);
    for (const auto& per_thread : samples) {
      for (const Sample& s : per_thread) {
        if (verified >= kVerifyMax ||
            std::binary_search(all_written.begin(), all_written.end(),
                               s.user)) {
          continue;
        }
        const Span check("metrics.recommend_top_k");
        const auto offline = recommend_top_k(reference.x, reference.theta,
                                             reference_seen, s.user, k);
        ++verified;
        std::vector<ScoredItem> answer = s.answer;
        if (corrupt_answer) {  // the benchmark's self-test of this check
          answer.push_back(answer.empty() ? ScoredItem{} : answer.front());
        }
        if (offline != answer) {
          ++mismatches;
        }
      }
    }
  }
  const std::uint64_t attempted = done.load();
  const std::uint64_t failures = failed.load() + mismatches + stats.failures +
                                 (verified == 0 ? 1 : 0);

  Json out;
  out.set("phase", phase)
      .set("setup_s", setup_s)
      .set("engine_build_s", engine_build_s)
      .set("attempted", static_cast<double>(attempted))
      .set("failed", static_cast<double>(failures))
      .set("verified", static_cast<double>(verified))
      .set("mismatches", static_cast<double>(mismatches))
      .set("solve_failures", static_cast<double>(stats.failures))
      .set("foldin_cg_iters",
           stats.systems ? static_cast<double>(stats.cg_iterations) /
                               static_cast<double>(stats.systems)
                         : 0.0)
      .set("cache_hit_ratio",
           cache.hits + cache.misses
               ? static_cast<double>(cache.hits) /
                     static_cast<double>(cache.hits + cache.misses)
               : 0.0)
      .set("elapsed_s", elapsed_s)
      .set("rss_mb", rss_mb);

  const auto us = [](std::uint64_t a, std::uint64_t b) {
    return b > a ? static_cast<double>(b - a) * 1e-3 : 0.0;
  };
  if (phase == "open") {
    std::vector<double> topk_lat, fold_lat, topk_svc, fold_svc, queue, lag;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> writes;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Timing& tm = timing[i];
      const bool read = requests[i].kind == Kind::topk;
      (read ? topk_lat : fold_lat).push_back(us(tm.due, tm.end));
      (read ? topk_svc : fold_svc).push_back(us(tm.start, tm.end));
      queue.push_back(us(tm.due, tm.start));
      if (tm.claim <= tm.due) {
        lag.push_back(us(tm.due, tm.start));
      }
      if (!read) {
        writes.emplace_back(tm.start, tm.end);
      }
    }
    const auto write_union = merged(std::move(writes));
    std::uint64_t behind = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].kind != Kind::topk) {
        continue;
      }
      const Timing& tm = timing[i];
      auto it = std::upper_bound(
          write_union.begin(), write_union.end(),
          std::make_pair(tm.end, std::uint64_t{0}));
      if (it != write_union.begin() && std::prev(it)->second > tm.start) {
        ++behind;
      }
    }
    out.set("requests", static_cast<double>(requests.size()))
        .set("topk_p50_us", percentile(topk_lat, 0.5))
        .set("topk_p99_us", percentile(topk_lat, 0.99))
        .set("foldin_p50_us", percentile(fold_lat, 0.5))
        .set("foldin_p99_us", percentile(fold_lat, 0.99))
        .set("topk_service_p50_us", percentile(topk_svc, 0.5))
        .set("topk_service_p99_us", percentile(topk_svc, 0.99))
        .set("foldin_service_p50_us", percentile(fold_svc, 0.5))
        .set("foldin_service_p99_us", percentile(fold_svc, 0.99))
        .set("queue_p99_us", percentile(queue, 0.99))
        .set("gen_lag_p99_us", percentile(lag, 0.99))
        .set("reads_behind_write",
             topk_lat.empty() ? 0.0
                              : static_cast<double>(behind) /
                                    static_cast<double>(topk_lat.size()));
    // Fold-ins are a twentieth of the traffic; run.py pools them across
    // phases before taking their median.
    std::string folds;
    for (const double v : fold_lat) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3f", folds.empty() ? "" : ",", v);
      folds += buf;
    }
    out.set_raw("foldin_lat_us", "[" + folds + "]");
  } else {
    out.set("qps", static_cast<double>(attempted) / elapsed_s);
  }
  if (Spans::instance().enabled()) {
    const std::string path = args.str("spans-out", "");
    if (!path.empty() && !Spans::instance().write(path)) {
      throw std::runtime_error("cannot write spans to " + path);
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace tsb
