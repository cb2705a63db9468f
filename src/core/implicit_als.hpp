// Implicit-feedback ALS (Hu, Koren & Volinsky; paper §V-F).
//
// With confidences c_uv = 1 + α·r_uv the normal equations become
//   x_u = (ΘᵀΘ + Θᵀ(Cᵘ−I)Θ + λI)⁻¹ · Θᵀ Cᵘ p_u .
// The ΘᵀΘ Gram matrix is shared by all rows and computed once per
// half-sweep — the trick that makes ALS O(Nz·f² + (m+n)·f²·f) instead of
// O(m·n·f²) even though the implicit loss runs over *all* m·n cells. This is
// exactly why SGD "loses its competitiveness" on implicit data (§V-F): its
// cost is proportional to the dense m·n.
#pragma once

#include "core/solver.hpp"
#include "data/implicit.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace cumf {

struct ImplicitAlsOptions {
  std::size_t f = 40;
  real_t lambda = 0.01f;
  SolverOptions solver;
  std::uint64_t seed = 1;
};

class ImplicitAlsEngine {
 public:
  ImplicitAlsEngine(const ImplicitDataset& data,
                    const ImplicitAlsOptions& options);

  void run_epoch();
  int epochs_run() const noexcept { return epochs_; }

  const Matrix& user_factors() const noexcept { return x_; }
  const Matrix& item_factors() const noexcept { return theta_; }

  /// Predicted preference score for (u, v).
  real_t score(index_t u, index_t v) const;

 private:
  void update_side(const CsrMatrix& interactions, const Matrix& fixed,
                   Matrix& solved);

  ImplicitAlsOptions options_;
  double alpha_;
  CsrMatrix r_;
  CsrMatrix rt_;
  Matrix x_;
  Matrix theta_;
  SystemSolver solver_;
  std::vector<real_t> gram_;
  std::vector<real_t> a_scratch_;
  std::vector<real_t> b_scratch_;
  int epochs_ = 0;
};

}  // namespace cumf
