// Spark-MLlib-style ALS facade (paper §VII: "We also integrated CUMFALS
// into Spark MLlib, accelerating its ALS algorithm").
//
// This mirrors org.apache.spark.ml.recommendation.ALS's builder API —
// setRank / setRegParam / setMaxIter / setImplicitPrefs / setAlpha /
// setNumBlocks — and backs fit() with the cuMF engines: AlsEngine for
// explicit ratings, ImplicitAlsEngine for implicit preferences. numBlocks
// maps to parallel host workers (Spark's partitions; rows are independent,
// so results are identical for any block count). The fitted model offers
// Spark's transform-style prediction plus recommendForAllUsers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/als.hpp"
#include "core/implicit_als.hpp"
#include "metrics/ranking.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf::mllib {

class AlsModel {
 public:
  AlsModel(Matrix user_factors, Matrix item_factors, const RatingsCoo& train);

  /// Spark's transform on a single (user, item) pair.
  real_t predict(index_t user, index_t item) const;

  /// Spark's transform over a dataset: predictions aligned with `pairs`'
  /// entry order (the entry values are ignored).
  std::vector<real_t> transform(const RatingsCoo& pairs) const;

  /// recommendForAllUsers(k): top-k unseen items per user.
  std::vector<std::vector<ScoredItem>> recommend_for_all_users(
      std::size_t k) const;

  const Matrix& user_factors() const noexcept { return user_factors_; }
  const Matrix& item_factors() const noexcept { return item_factors_; }
  int rank() const noexcept {
    return static_cast<int>(user_factors_.cols());
  }

 private:
  Matrix user_factors_;
  Matrix item_factors_;
  CsrMatrix seen_;  ///< training interactions, for recommendation filtering
};

/// Builder-style estimator, chainable like the Spark original.
class Als {
 public:
  Als& set_rank(int rank);
  Als& set_reg_param(double reg);
  Als& set_max_iter(int iters);
  Als& set_implicit_prefs(bool implicit_prefs);
  Als& set_alpha(double alpha);            ///< implicit confidence scale
  Als& set_num_blocks(int blocks);         ///< parallel workers
  Als& set_seed(std::uint64_t seed);
  /// cuMF extension beyond the Spark API: choose the solve kernel
  /// (default: the paper's CG-FP16 fast path).
  Als& set_solver(SolverKind kind, std::uint32_t cg_fs = 6);

  int rank() const noexcept { return rank_; }
  int max_iter() const noexcept { return max_iter_; }

  /// Trains and returns the model. For implicit preferences the rating
  /// value is the interaction strength (Hu-Koren-Volinsky confidence
  /// c = 1 + α·r).
  AlsModel fit(const RatingsCoo& ratings) const;

 private:
  int rank_ = 10;
  double reg_param_ = 0.1;
  int max_iter_ = 10;
  bool implicit_prefs_ = false;
  double alpha_ = 1.0;
  int num_blocks_ = 1;
  std::uint64_t seed_ = 0;
  SolverKind solver_ = SolverKind::CgFp16;
  std::uint32_t cg_fs_ = 6;
};

}  // namespace cumf::mllib
