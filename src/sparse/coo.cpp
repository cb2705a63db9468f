#include "sparse/coo.hpp"

#include "common/check.hpp"
#include "sparse/canonical.hpp"

namespace cumf {

RatingsCoo::RatingsCoo(index_t m, index_t n, std::vector<Rating> entries)
    : m_(m), n_(n), entries_(std::move(entries)) {
  for (const Rating& e : entries_) {
    CUMF_EXPECTS(e.u < m_ && e.v < n_, "rating index out of bounds");
  }
}

void RatingsCoo::add(index_t u, index_t v, real_t r) {
  CUMF_EXPECTS(u < m_ && v < n_, "rating index out of bounds");
  entries_.push_back(Rating{u, v, r});
}

void RatingsCoo::sort_and_dedup() { canonicalize(entries_, m_, n_); }

bool RatingsCoo::is_canonical() const noexcept {
  return cumf::is_canonical(entries_);
}

double RatingsCoo::mean_value() const noexcept {
  if (entries_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const Rating& e : entries_) {
    sum += static_cast<double>(e.r);
  }
  return sum / static_cast<double>(entries_.size());
}

}  // namespace cumf
