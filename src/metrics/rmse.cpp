#include "metrics/rmse.hpp"

#include <cmath>

#include "common/check.hpp"

namespace cumf {

real_t predict(const Matrix& x, const Matrix& theta, index_t u, index_t v) {
  CUMF_EXPECTS(x.cols() == theta.cols(), "factor dimension mismatch");
  return static_cast<real_t>(dot(x.row(u), theta.row(v)));
}

double rmse(const RatingsCoo& entries, const Matrix& x, const Matrix& theta) {
  if (entries.nnz() == 0) {
    return 0.0;
  }
  CUMF_EXPECTS(x.rows() >= entries.rows() && theta.rows() >= entries.cols(),
               "factor matrices too small for the rating matrix");
  double sq = 0.0;
  for (const Rating& e : entries.entries()) {
    const double err =
        static_cast<double>(e.r) - dot(x.row(e.u), theta.row(e.v));
    sq += err * err;
  }
  return std::sqrt(sq / static_cast<double>(entries.nnz()));
}

}  // namespace cumf
