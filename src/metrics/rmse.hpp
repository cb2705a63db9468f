// Test-RMSE evaluation — the quality metric of every experiment (§V-B).
#pragma once

#include "linalg/dense.hpp"
#include "sparse/coo.hpp"

namespace cumf {

/// Model prediction r̂_uv = x_uᵀ θ_v.
real_t predict(const Matrix& x, const Matrix& theta, index_t u, index_t v);

/// Root-mean-square error of X·Θᵀ against the given entries.
/// X is m×f, Θ is n×f. Returns 0 for an empty set.
double rmse(const RatingsCoo& entries, const Matrix& x, const Matrix& theta);

}  // namespace cumf
