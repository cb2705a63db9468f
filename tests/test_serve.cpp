// Tests for the serving layer: batched scoring bit-identity, sharded
// heap-merge equivalence with the offline brute force, the hot-user factor
// cache, histogram percentiles, model-IO round-trip precision, the hybrid
// stream shape guard, and fold-in determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/hermitian.hpp"
#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "data/model_io.hpp"
#include "linalg/dense.hpp"
#include "metrics/ranking.hpp"
#include "prof/counters.hpp"
#include "serve/serve.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "test_support.hpp"
#include "topk_oracle.hpp"

namespace cumf {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (real_t& v : m.data()) {
    v = static_cast<real_t>(rng.normal());
  }
  return m;
}

CsrMatrix random_seen(index_t rows, index_t cols, std::size_t per_row,
                      std::uint64_t seed) {
  Rng rng(seed);
  RatingsCoo coo(rows, cols);
  for (index_t u = 0; u < rows; ++u) {
    for (std::size_t j = 0; j < per_row; ++j) {
      coo.add(u, static_cast<index_t>(rng.uniform_index(cols)),
              static_cast<real_t>(1 + rng.uniform_index(5)));
    }
  }
  coo.sort_and_dedup();
  return CsrMatrix::from_coo(coo);
}

// ---------- dot_rows ----------

TEST(DotRows, BitIdenticalToDotForEveryRowAndPath) {
  for (const std::size_t f : {1UL, 7UL, 8UL, 9UL, 16UL, 63UL, 64UL, 100UL}) {
    const Matrix theta = random_matrix(33, f, 1000 + f);
    const Matrix x = random_matrix(1, f, 2000 + f);
    std::vector<double> batched(theta.rows());
    for (const auto path :
         {simd::KernelPath::scalar, simd::KernelPath::simd}) {
      dot_rows(x.row(0), theta, 0, theta.rows(), batched, path);
      for (std::size_t v = 0; v < theta.rows(); ++v) {
        const double single = dot(x.row(0), theta.row(v), path);
        EXPECT_EQ(batched[v], single) << "f=" << f << " v=" << v;
      }
    }
  }
}

TEST(DotRows, SubrangeAndValidation) {
  const Matrix theta = random_matrix(20, 16, 3);
  const Matrix x = random_matrix(1, 16, 4);
  std::vector<double> out(5);
  dot_rows(x.row(0), theta, 7, 12, out);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i], dot(x.row(0), theta.row(7 + i)));
  }
  EXPECT_THROW(dot_rows(x.row(0), theta, 0, 21, out), CheckError);
  EXPECT_THROW(dot_rows(x.row(0), theta, 0, 4, out), CheckError);
}

// ---------- TopKSelector ----------

TEST(TopKSelector, TiesBreakByItemAndOrderDoesNotMatter) {
  const std::vector<ScoredItem> items = {
      {4, 1.0f}, {2, 1.0f}, {9, 2.0f}, {1, 0.5f}, {7, 1.0f}, {0, 2.0f}};
  std::vector<ScoredItem> expect = {{0, 2.0f}, {9, 2.0f}, {2, 1.0f}};
  // Every rotation offers in a different order; the kept set is identical.
  for (std::size_t rot = 0; rot < items.size(); ++rot) {
    TopKSelector sel(3);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& it = items[(i + rot) % items.size()];
      sel.offer(it.item, it.score);
    }
    EXPECT_EQ(sel.take_sorted(), expect) << "rotation " << rot;
  }
}

TEST(TopKSelector, EdgeCases) {
  TopKSelector zero(0);
  zero.offer(1, 5.0f);
  EXPECT_TRUE(zero.take_sorted().empty());

  TopKSelector big(10);
  big.offer(3, 1.0f);
  big.offer(1, 2.0f);
  const auto sorted = big.take_sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].item, 1u);
  EXPECT_EQ(sorted[1].item, 3u);
}

// ---------- sharded serving vs offline brute force ----------

TEST(Serve, TopKBitIdenticalToOfflineAcrossShardCounts) {
  const index_t users = 40;
  const index_t items = 101;
  Matrix x = random_matrix(users, 24, 11);
  Matrix theta = random_matrix(items, 24, 12);
  // Force exact score ties: clone some item rows so their dots are equal
  // bit-for-bit and only the item-id tie-break orders them.
  for (index_t v : {5, 50, 77}) {
    std::copy(theta.row(9).begin(), theta.row(9).end(), theta.row(v).begin());
  }
  const auto seen = random_seen(users, items, 12, 13);
  for (const std::size_t shards : {1UL, 2UL, 3UL, 7UL, 200UL}) {
    serve::ServeOptions options;
    options.shards = shards;
    serve::ServeEngine engine(
        FactorModel{Matrix(x), Matrix(theta)}, seen, options);
    for (index_t u = 0; u < users; u += 7) {
      const auto offline = recommend_top_k(x, theta, seen, u, 10);
      const auto served = engine.top_k(u, 10);
      EXPECT_EQ(served, offline) << "shards=" << shards << " user=" << u;
    }
  }
}

TEST(TopKSelector, OfferUnseenMakesThePerItemOffersOnBothPaths) {
  // Scores with ties, NaNs and values that only differ after the double →
  // float rounding, offered over uneven ranges against the plain loop: the
  // gate may only drop offers that cannot change the heap, so the heaps end
  // identical bit for bit, NaN included.
  Rng rng(17);
  const std::size_t items = 203;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> scores(items);
    for (double& s : scores) {
      s = rng.uniform_index(4) == 0
              ? 0.25 * static_cast<double>(rng.uniform_index(8))
              : rng.normal();
      if (rng.uniform_index(50) == 0) {
        s = std::numeric_limits<double>::quiet_NaN();
      }
      if (rng.uniform_index(25) == 0) {
        s = 1.0 + 1e-12 * static_cast<double>(rng.uniform_index(3));
      }
    }
    std::vector<index_t> rated;
    for (index_t v = 0; v < items; ++v) {
      if (rng.uniform_index(4) == 0) {
        rated.push_back(v);
      }
    }
    const std::size_t k = rng.uniform_index(30);
    TopKSelector plain(k);
    for (index_t v = 0; v < items; ++v) {
      if (!std::binary_search(rated.begin(), rated.end(), v)) {
        plain.offer(v, static_cast<real_t>(scores[v]));
      }
    }
    const auto expect = plain.take_sorted();
    for (const auto path : {simd::KernelPath::scalar, simd::KernelPath::simd}) {
      TopKSelector gated(k);
      SeenCursor seen(rated);
      for (std::size_t begin = 0; begin < items;) {
        const std::size_t end =
            std::min(items, begin + 1 + rng.uniform_index(40));
        gated.offer_unseen(
            static_cast<index_t>(begin),
            std::span<const double>(scores).subspan(begin, end - begin), seen,
            path);
        begin = end;
      }
      EXPECT_TRUE(topk_oracle::same_bits(gated.take_sorted(), expect))
          << "trial " << trial << " path=" << to_string(path);
    }
  }
}

TEST(SeenCursor, WalksTheUnionOfBothListsForward) {
  const std::vector<index_t> rated = {1, 4, 9};
  const std::vector<index_t> streamed = {0, 4, 7};
  SeenCursor seen(rated, streamed);
  std::vector<index_t> found;
  // Item 4 is in both lists but never asked about; the cursor steps past it.
  for (const index_t v : {0U, 1U, 3U, 7U, 9U, 11U}) {
    if (seen.contains(v)) {
      found.push_back(v);
    }
  }
  EXPECT_EQ(found, (std::vector<index_t>{0, 1, 7, 9}));
}

TEST(Serve, TopKMatchesTheOracleOverShapesShardsKAndPaths) {
  const std::size_t f = 12;
  const index_t users = 8;
  for (const index_t items : {1U, 7U, 8U, 9U, 17U, 101U, 1000U}) {
    const Matrix x = random_matrix(users, f, 300 + items);
    const Matrix theta = topk_oracle::tied_theta(items, f, 400 + items);
    const auto seen = topk_oracle::profiled_seen(users, items, 500 + items);
    for (const std::size_t shards : {1UL, 2UL, 3UL, 7UL, 200UL}) {
      for (const auto path :
           {simd::KernelPath::scalar, simd::KernelPath::simd}) {
        serve::ServeOptions options;
        options.shards = shards;
        options.path = path;
        serve::ServeEngine engine(FactorModel{Matrix(x), Matrix(theta)}, seen,
                                  options);
        for (index_t u = 0; u < users; ++u) {
          const auto rated = topk_oracle::row_set(seen, u);
          const std::size_t unseen = items - rated.size();
          for (const std::size_t k : {0UL, 1UL, 10UL, unseen + 3}) {
            EXPECT_EQ(engine.top_k(u, k),
                      topk_oracle::top_k(x.row(u), theta, rated, k, path))
                << "items=" << items << " shards=" << shards
                << " path=" << to_string(path) << " user=" << u
                << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(Serve, StreamedRowsMatchOfflineOnTheMergedState) {
  // After observe() and fold_in_user() the seen set is the base row plus
  // the overlay and the factor is the refolded one; top_k must equal the
  // offline answer on exactly that state.
  const std::size_t f = 12;
  const index_t users = 8;
  const index_t items = 101;
  const Matrix theta = topk_oracle::tied_theta(items, f, 601);
  const auto seen = topk_oracle::profiled_seen(users, items, 602);
  for (const std::size_t shards : {1UL, 3UL, 200UL}) {
    serve::ServeOptions options;
    options.shards = shards;
    serve::ServeEngine engine(
        FactorModel{random_matrix(users, f, 603), Matrix(theta)}, seen,
        options);
    std::vector<std::set<index_t>> rated;
    for (index_t u = 0; u < users; ++u) {
      rated.push_back(topk_oracle::row_set(seen, u));
    }
    Rng rng(604);
    for (int i = 0; i < 30; ++i) {
      const auto u = static_cast<index_t>(rng.uniform_index(users));
      const auto v = static_cast<index_t>(rng.uniform_index(items));
      engine.observe(
          Rating{u, v, static_cast<real_t>(1 + rng.uniform_index(5))});
      rated[u].insert(v);
    }
    const std::vector<serve::ServeEngine::ItemRating> batch = {
        {3, 4.0f}, {8, 1.0f}, {9, 5.0f}, {64, 2.0f}, {100, 3.0f}};
    EXPECT_EQ(engine.fold_in_user(batch), users);
    rated.push_back({3, 8, 9, 64, 100});

    const index_t all_users = users + 1;
    Matrix x(all_users, f);
    RatingsCoo coo(all_users, items);
    for (index_t u = 0; u < all_users; ++u) {
      const auto row = engine.user_factor(u);
      std::copy(row.begin(), row.end(), x.row(u).begin());
      for (const index_t v : rated[u]) {
        coo.add(u, v, 1.0f);
      }
    }
    coo.sort_and_dedup();
    const auto merged = CsrMatrix::from_coo(coo);
    for (index_t u = 0; u < all_users; ++u) {
      for (const std::size_t k : {1UL, 10UL, 200UL}) {
        const auto served = engine.top_k(u, k);
        EXPECT_EQ(served, recommend_top_k(x, theta, merged, u, k))
            << "shards=" << shards << " user=" << u << " k=" << k;
        EXPECT_EQ(served, topk_oracle::top_k(x.row(u), theta, rated[u], k,
                                             simd::kDefaultPath))
            << "shards=" << shards << " user=" << u << " k=" << k;
      }
    }
  }
}

TEST(Serve, NanScoresMatchOfflineAtEveryShardCount) {
  // NaN scores make the ranking order partial, so the kept set depends on
  // the offer order; serving offers in recommend_top_k's order and must
  // return its items and score bits. (Merging per-shard heaps broke this for
  // 36 of these 40 users at 1, 2, 3 and 7 shards.)
  const index_t users = 40;
  const index_t items = 101;
  const Matrix x = random_matrix(users, 24, 11);
  Matrix theta = random_matrix(items, 24, 12);
  for (const index_t v : {3U, 29U, 64U, 90U}) {
    theta.row(v)[5] = std::numeric_limits<real_t>::quiet_NaN();
  }
  const auto seen = random_seen(users, items, 12, 13);
  for (const std::size_t shards : {1UL, 2UL, 3UL, 7UL, 200UL}) {
    serve::ServeOptions options;
    options.shards = shards;
    serve::ServeEngine engine(FactorModel{Matrix(x), Matrix(theta)}, seen,
                              options);
    for (index_t u = 0; u < users; ++u) {
      EXPECT_TRUE(topk_oracle::same_bits(
          engine.top_k(u, 10), recommend_top_k(x, theta, seen, u, 10)))
          << "shards=" << shards << " user=" << u;
    }
  }
}

TEST(Serve, UnknownUserThrows) {
  serve::ServeEngine engine(
      FactorModel{random_matrix(5, 8, 1), random_matrix(9, 8, 2)},
      random_seen(5, 9, 3, 3), {});
  EXPECT_THROW(engine.top_k(5, 3), serve::ServeError);
}

// ---------- hot-user factor cache ----------

TEST(Serve, CacheHitsAreResultNeutralAndCounted) {
  const auto seen = random_seen(30, 60, 8, 21);
  FactorModel model{random_matrix(30, 16, 22), random_matrix(60, 16, 23)};
  serve::ServeOptions cached;
  cached.cache_capacity = 4;
  serve::ServeEngine with_cache(
      FactorModel{Matrix(model.x), Matrix(model.theta)}, seen, cached);
  serve::ServeEngine no_cache(std::move(model), seen, {});

  Rng rng(24);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<index_t>(rng.uniform_index(30));
    EXPECT_EQ(with_cache.top_k(u, 5), no_cache.top_k(u, 5));
  }
  const auto stats = with_cache.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 200u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // 30 users through a 4-entry cache
}

TEST(Serve, FoldInInvalidatesCachedFactor) {
  const auto seen = random_seen(10, 40, 6, 31);
  serve::ServeOptions options;
  options.cache_capacity = 8;
  serve::ServeEngine engine(
      FactorModel{random_matrix(10, 12, 32), random_matrix(40, 12, 33)},
      seen, options);
  (void)engine.top_k(3, 5);  // warm the cache
  const auto before = engine.user_factor(3);
  engine.observe(Rating{3, 17, 5.0f});
  EXPECT_GE(engine.cache_stats().invalidations, 1u);
  EXPECT_NE(engine.user_factor(3), before);  // refolded against the rating
  // The rated item can no longer be recommended.
  for (const auto& item : engine.top_k(3, 40)) {
    EXPECT_NE(item.item, 17u);
  }
}

// ---------- histogram percentiles ----------

TEST(Histogram, NearestRankPercentilesOnExactBuckets) {
  prof::Histogram h;
  for (int v = 1; v <= 100; ++v) {
    h.observe(v);  // integers ≤ 128 land in exact buckets
  }
  EXPECT_EQ(h.percentile(0.0), 1.0);
  EXPECT_EQ(h.percentile(0.50), 50.0);
  EXPECT_EQ(h.percentile(0.95), 95.0);
  EXPECT_EQ(h.percentile(0.99), 99.0);
  EXPECT_EQ(h.percentile(1.0), 100.0);

  prof::Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);
}

TEST(Histogram, PercentilesAreMergeStable) {
  Rng rng(41);
  prof::Histogram whole;
  prof::Histogram shard_a;
  prof::Histogram shard_b;
  for (int i = 0; i < 4000; ++i) {
    const double v = std::exp(rng.normal(3.0, 1.5));  // latency-ish spread
    whole.observe(v);
    (i % 2 == 0 ? shard_a : shard_b).observe(v);
  }
  shard_a.merge(shard_b);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    EXPECT_EQ(whole.percentile(q), shard_a.percentile(q)) << "q=" << q;
  }
}

// ---------- AUC negative sampling ----------

TEST(Ranking, AucNearDenseUserNeverSamplesRatedAsNegative) {
  // One user rated 49 of 50 items. Observed items score 1, the lone unseen
  // item scores 0 — so with correct negative sampling every comparison is a
  // win and AUC is exactly 1. The old sampler drew negatives from all
  // columns (rated included), which made "observed vs itself" ties drag the
  // estimate below 1 for dense users.
  const index_t items = 50;
  RatingsCoo coo(1, items);
  for (index_t v = 0; v < items; ++v) {
    if (v != 13) {
      coo.add(0, v, 1.0f);
    }
  }
  coo.sort_and_dedup();
  const auto observed = CsrMatrix::from_coo(coo);
  Matrix x(1, items);
  Matrix theta(items, items);
  for (index_t v = 0; v < items; ++v) {
    x.row(0)[v] = (v == 13) ? 0.0f : 1.0f;
    theta.row(v)[v] = 1.0f;  // score(u, v) = x_u[v]
  }
  Rng rng(51);
  EXPECT_EQ(auc_observed_vs_random(x, theta, observed, 500, rng), 1.0);
}

TEST(Ranking, AucFullyRatedUserFallsBackToHalf) {
  RatingsCoo coo(1, 4);
  for (index_t v = 0; v < 4; ++v) {
    coo.add(0, v, 1.0f);
  }
  coo.sort_and_dedup();
  Rng rng(52);
  EXPECT_EQ(auc_observed_vs_random(random_matrix(1, 4, 1),
                                   random_matrix(4, 4, 2),
                                   CsrMatrix::from_coo(coo), 64, rng),
            0.5);
}

// ---------- model IO round-trip ----------

TEST(ModelIo, RoundTripIsBitExactForAdversarialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> nasty = {
      0.1f,
      std::nextafterf(1.0f, 2.0f),
      std::nextafterf(1.0f, 0.0f),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -0.0f,
      0.0f,
      inf,
      -inf,
      3.0000002f,
  };
  FactorModel model{Matrix(3, 4), Matrix(2, 4)};
  std::size_t i = 0;
  for (real_t& v : model.x.data()) {
    v = nasty[i++ % nasty.size()];
  }
  for (real_t& v : model.theta.data()) {
    v = nasty[i++ % nasty.size()];
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_model_bits.txt")
          .string();
  write_model_file(path, model);
  const FactorModel back = read_model_file(path);
  ASSERT_EQ(back.x.rows(), model.x.rows());
  ASSERT_EQ(back.theta.rows(), model.theta.rows());
  for (std::size_t j = 0; j < model.x.data().size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(model.x.data()[j]),
              std::bit_cast<std::uint32_t>(back.x.data()[j]))
        << "x[" << j << "]";
  }
  for (std::size_t j = 0; j < model.theta.data().size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(model.theta.data()[j]),
              std::bit_cast<std::uint32_t>(back.theta.data()[j]))
        << "theta[" << j << "]";
  }
  std::filesystem::remove(path);
}

TEST(ModelIo, NanSurvivesAsNan) {
  FactorModel model{Matrix(1, 2), Matrix(1, 2)};
  model.x.data()[0] = std::numeric_limits<float>::quiet_NaN();
  model.x.data()[1] = 1.0f;
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_model_nan.txt")
          .string();
  write_model_file(path, model);
  const FactorModel back = read_model_file(path);
  EXPECT_TRUE(std::isnan(back.x.data()[0]));
  EXPECT_EQ(back.x.data()[1], 1.0f);
  std::filesystem::remove(path);
}

// ---------- hybrid stream shape guard ----------

TEST(Hybrid, StreamShapeErrorNamesTheRatingAndRoutesToFoldIn) {
  Rng rng(61);
  RatingsCoo coo(20, 10);
  for (int i = 0; i < 120; ++i) {
    coo.add(static_cast<index_t>(rng.uniform_index(20)),
            static_cast<index_t>(rng.uniform_index(10)),
            static_cast<real_t>(1 + rng.uniform_index(5)));
  }
  coo.sort_and_dedup();
  HybridOptions options;
  options.batch_epochs = 1;
  HybridEngine hybrid(coo, options);
  try {
    hybrid.observe(Rating{99, 3, 1.0f});
    FAIL() << "expected StreamShapeError";
  } catch (const StreamShapeError& e) {
    EXPECT_EQ(e.rating().u, 99u);
    EXPECT_EQ(e.rating().v, 3u);
    EXPECT_NE(std::string(e.what()).find("fold"), std::string::npos);
  }
  // Still a CheckError, so existing catch sites keep working.
  EXPECT_THROW(hybrid.observe(Rating{0, 99, 1.0f}), CheckError);
}

// ---------- fold-in ----------

TEST(Serve, FoldInIsDeterministicAndChangesResponses) {
  const auto seen = random_seen(25, 80, 10, 71);
  FactorModel model{random_matrix(25, 16, 72), random_matrix(80, 16, 73)};
  serve::ServeEngine a(FactorModel{Matrix(model.x), Matrix(model.theta)},
                       seen, {});
  serve::ServeEngine b(std::move(model), seen, {});

  const auto before = a.top_k(7, 5);
  const std::vector<Rating> stream = {
      {7, 2, 5.0f}, {7, 44, 1.0f}, {3, 60, 4.0f}, {7, 2, 2.0f}};
  for (const auto& r : stream) {
    a.observe(r);
    b.observe(r);
  }
  EXPECT_EQ(a.user_factor(7), b.user_factor(7));
  EXPECT_EQ(a.top_k(7, 5), b.top_k(7, 5));
  EXPECT_NE(a.top_k(7, 5), before);
  EXPECT_GE(a.solve_stats().systems, 4u);
}

TEST(Serve, FoldInSolvesTheReferenceNormalEquationsBitForBit) {
  // Fold-in assembles A_u/b_u with the production get_hermitian kernel; on
  // either path it must equal the naive reference system, solved by the
  // same solver from the new user's zero warm start.
  const std::size_t f = 20;  // not a multiple of the 16-lane chunk
  const auto seen = random_seen(10, 90, 5, 85);
  const Matrix theta = random_matrix(90, f, 86);
  const std::vector<serve::ServeEngine::ItemRating> ratings = {
      {3, 4.0f}, {17, 1.0f}, {40, 5.0f}, {41, 2.5f}, {88, 3.0f}};
  for (const auto path : {simd::KernelPath::scalar, simd::KernelPath::simd}) {
    serve::ServeOptions options;
    options.path = path;
    options.solver.kind = SolverKind::CgFp16;
    serve::ServeEngine engine(
        FactorModel{random_matrix(10, f, 84), Matrix(theta)}, seen, options);
    const index_t user = engine.fold_in_user(ratings);

    std::vector<index_t> cols;
    std::vector<real_t> vals;
    for (const auto& [item, value] : ratings) {
      cols.push_back(item);
      vals.push_back(value);
    }
    const auto nnz = static_cast<nnz_t>(cols.size());
    const CsrMatrix row = CsrMatrix::from_parts(1, 90, {0, nnz},
                                                std::move(cols),
                                                std::move(vals));
    std::vector<real_t> a(f * f);
    std::vector<real_t> b(f);
    get_hermitian_row_reference(row, theta, 0, options.lambda, a, b);
    SystemSolver solver(f, options.solver);
    std::vector<real_t> x(f, real_t{0});
    ASSERT_TRUE(solver.solve(a, b, x));

    const auto folded = engine.user_factor(user);
    for (std::size_t i = 0; i < f; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(folded[i]),
                std::bit_cast<std::uint32_t>(x[i]))
          << "path=" << to_string(path) << " i=" << i;
    }
  }
}

TEST(Serve, NewUsersGrowContiguouslyNewItemsRejected) {
  const auto seen = random_seen(10, 30, 5, 81);
  serve::ServeEngine engine(
      FactorModel{random_matrix(10, 8, 82), random_matrix(30, 8, 83)}, seen,
      {});
  EXPECT_EQ(engine.users(), 10u);
  EXPECT_THROW(engine.observe(Rating{12, 0, 1.0f}), serve::ServeError);
  EXPECT_THROW(engine.observe(Rating{0, 30, 1.0f}), serve::ServeError);

  engine.observe(Rating{10, 4, 5.0f});  // u == users(): brand-new user
  EXPECT_EQ(engine.users(), 11u);
  const auto recs = engine.top_k(10, 30);
  EXPECT_FALSE(recs.empty());
  for (const auto& item : recs) {
    EXPECT_NE(item.item, 4u);
  }

  const std::vector<serve::ServeEngine::ItemRating> batch = {
      {1, 5.0f}, {9, 3.0f}};
  EXPECT_EQ(engine.fold_in_user(batch), 11u);
  EXPECT_EQ(engine.users(), 12u);
  EXPECT_THROW(engine.fold_in_user({}), serve::ServeError);
}

TEST(Serve, ConcurrentTopKWhileFoldingSmoke) {
  const auto seen = random_seen(60, 120, 10, 91);
  serve::ServeOptions options;
  options.shards = 3;
  options.cache_capacity = 16;
  serve::ServeEngine engine(
      FactorModel{random_matrix(60, 16, 92), random_matrix(120, 16, 93)},
      seen, options);
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 150; ++i) {
        const auto u = static_cast<index_t>(rng.uniform_index(60));
        if (engine.top_k(u, 8).empty()) {
          failed = true;
        }
      }
    });
  }
  Rng wrng(200);
  for (int i = 0; i < 40; ++i) {
    engine.observe(Rating{static_cast<index_t>(wrng.uniform_index(60)),
                          static_cast<index_t>(wrng.uniform_index(120)),
                          static_cast<real_t>(1 + wrng.uniform_index(5))});
  }
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(failed);
}

}  // namespace
}  // namespace cumf
