#include "mllib/als.hpp"

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "data/implicit.hpp"

namespace cumf::mllib {

AlsModel::AlsModel(Matrix user_factors, Matrix item_factors,
                   const RatingsCoo& train)
    : user_factors_(std::move(user_factors)),
      item_factors_(std::move(item_factors)),
      seen_(CsrMatrix::from_coo(train)) {
  CUMF_EXPECTS(user_factors_.cols() == item_factors_.cols(),
               "factor rank mismatch");
  CUMF_EXPECTS(user_factors_.rows() == seen_.rows() &&
                   item_factors_.rows() == seen_.cols(),
               "factor shapes must match the training matrix");
}

real_t AlsModel::predict(index_t user, index_t item) const {
  CUMF_EXPECTS(user < user_factors_.rows() && item < item_factors_.rows(),
               "prediction index out of range");
  return static_cast<real_t>(
      dot(user_factors_.row(user), item_factors_.row(item)));
}

std::vector<real_t> AlsModel::transform(const RatingsCoo& pairs) const {
  std::vector<real_t> out;
  out.reserve(pairs.nnz());
  for (const Rating& e : pairs.entries()) {
    out.push_back(predict(e.u, e.v));
  }
  return out;
}

std::vector<std::vector<ScoredItem>> AlsModel::recommend_for_all_users(
    std::size_t k) const {
  // Each user's top-k is an independent scan over all items — an
  // embarrassingly parallel m×n×f workload, by far the most expensive model
  // method. Users write disjoint pre-sized slots, so no synchronization is
  // needed beyond the pool's own join.
  std::vector<std::vector<ScoredItem>> out(seen_.rows());
  ThreadPool pool;
  pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end,
                                    std::size_t) {
    for (std::size_t u = begin; u < end; ++u) {
      out[u] = recommend_top_k(user_factors_, item_factors_, seen_,
                               static_cast<index_t>(u), k);
    }
  });
  return out;
}

Als& Als::set_rank(int rank) {
  CUMF_EXPECTS(rank > 0, "rank must be positive");
  rank_ = rank;
  return *this;
}

Als& Als::set_reg_param(double reg) {
  CUMF_EXPECTS(reg > 0, "regParam must be positive");
  reg_param_ = reg;
  return *this;
}

Als& Als::set_max_iter(int iters) {
  CUMF_EXPECTS(iters >= 1, "maxIter must be at least 1");
  max_iter_ = iters;
  return *this;
}

Als& Als::set_implicit_prefs(bool implicit_prefs) {
  implicit_prefs_ = implicit_prefs;
  return *this;
}

Als& Als::set_alpha(double alpha) {
  CUMF_EXPECTS(alpha > 0, "alpha must be positive");
  alpha_ = alpha;
  return *this;
}

Als& Als::set_num_blocks(int blocks) {
  CUMF_EXPECTS(blocks >= 1, "numBlocks must be at least 1");
  num_blocks_ = blocks;
  return *this;
}

Als& Als::set_seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

Als& Als::set_solver(SolverKind kind, std::uint32_t cg_fs) {
  CUMF_EXPECTS(cg_fs >= 1, "cg_fs must be at least 1");
  solver_ = kind;
  cg_fs_ = cg_fs;
  return *this;
}

AlsModel Als::fit(const RatingsCoo& ratings) const {
  CUMF_EXPECTS(ratings.nnz() > 0, "cannot fit on an empty dataset");

  if (implicit_prefs_) {
    ImplicitDataset data;
    data.interactions = ratings;
    data.alpha = alpha_;
    ImplicitAlsOptions options;
    options.f = static_cast<std::size_t>(rank_);
    options.lambda = static_cast<real_t>(reg_param_);
    options.solver.kind = solver_ == SolverKind::CgFp16
                              ? SolverKind::CgFp32  // implicit A stays FP32
                              : solver_;
    options.solver.cg_fs = cg_fs_;
    options.seed = seed_ + 1;
    ImplicitAlsEngine engine(data, options);
    for (int iter = 0; iter < max_iter_; ++iter) {
      engine.run_epoch();
    }
    return AlsModel(engine.user_factors(), engine.item_factors(), ratings);
  }

  AlsOptions options;
  options.f = static_cast<std::size_t>(rank_);
  options.lambda = static_cast<real_t>(reg_param_);
  options.solver.kind = solver_;
  options.solver.cg_fs = cg_fs_;
  options.workers = num_blocks_;
  options.seed = seed_ + 1;
  AlsEngine engine(ratings, options);
  for (int iter = 0; iter < max_iter_; ++iter) {
    engine.run_epoch();
  }
  return AlsModel(engine.user_factors(), engine.item_factors(), ratings);
}

}  // namespace cumf::mllib
