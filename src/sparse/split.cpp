#include "sparse/split.hpp"

#include "common/check.hpp"

namespace cumf {

TrainTestSplit split_holdout(const RatingsCoo& all, double test_fraction,
                             Rng& rng) {
  CUMF_EXPECTS(test_fraction >= 0.0 && test_fraction < 1.0,
               "test fraction must be in [0, 1)");
  TrainTestSplit out;
  out.train = RatingsCoo(all.rows(), all.cols());
  out.test = RatingsCoo(all.rows(), all.cols());
  // Room for every entry on both sides, so neither regrows and copies;
  // pages past the entries a side receives are never touched.
  out.train.entries().reserve(all.nnz());
  out.test.entries().reserve(all.nnz());

  std::vector<index_t> row_remaining(all.rows(), 0);
  std::vector<index_t> col_remaining(all.cols(), 0);
  for (const Rating& e : all.entries()) {
    ++row_remaining[e.u];
    ++col_remaining[e.v];
  }

  for (const Rating& e : all.entries()) {
    const bool last_of_row = row_remaining[e.u] == 1;
    const bool last_of_col = col_remaining[e.v] == 1;
    const bool to_test =
        !last_of_row && !last_of_col && rng.uniform() < test_fraction;
    if (to_test) {
      out.test.add(e.u, e.v, e.r);
      --row_remaining[e.u];
      --col_remaining[e.v];
    } else {
      out.train.add(e.u, e.v, e.r);
    }
  }
  return out;
}

}  // namespace cumf
