#include "core/implicit_als.hpp"

#include <cmath>

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "prof/prof.hpp"

namespace cumf {

ImplicitAlsEngine::ImplicitAlsEngine(const ImplicitDataset& data,
                                     const ImplicitAlsOptions& options)
    : options_(options),
      alpha_(data.alpha),
      solver_(options.f, options.solver) {
  CUMF_EXPECTS(options_.f > 0, "latent dimension must be positive");
  CUMF_EXPECTS(options_.lambda > 0, "implicit ALS needs lambda > 0");

  CsrPair pair = CsrPair::from_coo(data.interactions);
  r_ = std::move(pair.r);
  rt_ = std::move(pair.rt);

  x_ = Matrix(r_.rows(), options_.f);
  theta_ = Matrix(r_.cols(), options_.f);
  Rng rng(options_.seed);
  const double scale = 1.0 / std::sqrt(static_cast<double>(options_.f));
  for (std::size_t i = 0; i < x_.rows(); ++i) {
    for (std::size_t k = 0; k < options_.f; ++k) {
      x_(i, k) = static_cast<real_t>(rng.normal(0.0, 0.1 * scale));
    }
  }
  for (std::size_t i = 0; i < theta_.rows(); ++i) {
    for (std::size_t k = 0; k < options_.f; ++k) {
      theta_(i, k) = static_cast<real_t>(rng.normal(0.0, 0.1 * scale));
    }
  }

  gram_.resize(options_.f * options_.f);
  a_scratch_.resize(options_.f * options_.f);
  b_scratch_.resize(options_.f);
}

void ImplicitAlsEngine::update_side(const CsrMatrix& interactions,
                                    const Matrix& fixed, Matrix& solved) {
  const std::size_t f = options_.f;

  // Shared Gram matrix ΘᵀΘ (or XᵀX), computed once for the whole sweep:
  // Σ_v θ_v θ_vᵀ accumulated over the lower triangle, then mirrored.
  std::fill(gram_.begin(), gram_.end(), real_t{0});
  for (std::size_t v = 0; v < fixed.rows(); ++v) {
    const auto t = fixed.row(v);
    for (std::size_t i = 0; i < f; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        gram_[i * f + j] += t[i] * t[j];
      }
    }
  }
  for (std::size_t i = 0; i < f; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      gram_[j * f + i] = gram_[i * f + j];
    }
  }

  for (index_t u = 0; u < interactions.rows(); ++u) {
    // A = ΘᵀΘ + λI, then add the (c−1)·θθᵀ corrections of observed items.
    std::copy(gram_.begin(), gram_.end(), a_scratch_.begin());
    for (std::size_t i = 0; i < f; ++i) {
      a_scratch_[i * f + i] += options_.lambda;
    }
    std::fill(b_scratch_.begin(), b_scratch_.end(), real_t{0});

    const auto cols = interactions.row_cols(u);
    const auto vals = interactions.row_vals(u);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const double c = 1.0 + alpha_ * static_cast<double>(vals[k]);
      const auto cm1 = static_cast<real_t>(c - 1.0);
      const auto t = fixed.row(cols[k]);
      for (std::size_t i = 0; i < f; ++i) {
        const real_t ti = cm1 * t[i];
        for (std::size_t j = 0; j <= i; ++j) {
          a_scratch_[i * f + j] += ti * t[j];
        }
        // p_uv = 1 for every observed interaction.
        b_scratch_[i] += static_cast<real_t>(c) * t[i];
      }
    }
    for (std::size_t i = 0; i < f; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        a_scratch_[j * f + i] = a_scratch_[i * f + j];
      }
    }

    const bool ok = solver_.solve(a_scratch_, b_scratch_, solved.row(u));
    if (!ok) {
      continue;  // unsolvable even exactly: keep the previous factor
    }
  }
}

void ImplicitAlsEngine::run_epoch() {
  CUMF_PROF_SCOPE("implicit_als_epoch", "als");
  update_side(r_, theta_, x_);
  update_side(rt_, x_, theta_);
  ++epochs_;
}

real_t ImplicitAlsEngine::score(index_t u, index_t v) const {
  return static_cast<real_t>(dot(x_.row(u), theta_.row(v)));
}

}  // namespace cumf
