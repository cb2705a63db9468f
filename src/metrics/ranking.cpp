#include "metrics/ranking.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace cumf {

namespace {

/// Heap comparator: orders better items first, so the std heap algorithms
/// (which keep the *greatest* element at the front) surface the worst kept
/// item — the eviction candidate.
bool worse_at_front(const ScoredItem& a, const ScoredItem& b) noexcept {
  return TopKSelector::better(a, b);
}

}  // namespace

void TopKSelector::offer(index_t item, real_t score) {
  if (k_ == 0) {
    return;
  }
  const ScoredItem candidate{item, score};
  if (heap_.size() < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), worse_at_front);
    return;
  }
  (void)replace_worst(candidate);
}

bool TopKSelector::replace_worst(const ScoredItem& candidate) {
  if (!better(candidate, heap_.front())) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), worse_at_front);
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), worse_at_front);
  return true;
}

void TopKSelector::offer_unseen(index_t first, std::span<const double> scores,
                                SeenCursor& seen, simd::KernelPath path) {
  if (k_ == 0) {
    return;
  }
  const std::size_t n = scores.size();
  std::size_t i = 0;
  // Until k items are kept every unseen item goes in.
  for (; i < n && heap_.size() < k_; ++i) {
    const auto item = static_cast<index_t>(first + i);
    if (!seen.contains(item)) {
      offer(item, static_cast<real_t>(scores[i]));
    }
  }
  if (i == n) {
    return;
  }
  // From here on each score is gated against the worst kept one as it
  // stands when that item's turn comes: only a score >= it can replace it.
  real_t worst = heap_.front().score;
  const auto replaces = [&](std::size_t j) {
    const auto item = static_cast<index_t>(first + j);
    return !seen.contains(item) &&
           replace_worst({item, static_cast<real_t>(scores[j])});
  };
  if (path == simd::KernelPath::simd) {
    constexpr std::size_t kLanes = simd::vf8::kLanes;
    for (; i + kLanes <= n; i += kLanes) {
      // vd8::narrow rounds each lane as offer's static_cast does.
      const simd::vf8 chunk = simd::vd8::load(scores.data() + i).narrow();
      unsigned pass = simd::vf8::ge_mask(chunk, simd::vf8::broadcast(worst));
      while (pass != 0) {
        const auto lane = static_cast<unsigned>(std::countr_zero(pass));
        pass &= pass - 1;
        if (replaces(i + lane)) {
          // The worst kept score moved: gate the lanes after this one again.
          worst = heap_.front().score;
          pass = simd::vf8::ge_mask(chunk, simd::vf8::broadcast(worst)) &
                 (~0u << (lane + 1));
        }
      }
    }
  }
  for (; i < n; ++i) {
    if (static_cast<real_t>(scores[i]) >= worst && replaces(i)) {
      worst = heap_.front().score;
    }
  }
}

std::vector<ScoredItem> TopKSelector::take_sorted() {
  std::sort_heap(heap_.begin(), heap_.end(), worse_at_front);
  return std::move(heap_);
}

std::vector<ScoredItem> recommend_top_k(const Matrix& x, const Matrix& theta,
                                        const CsrMatrix& seen, index_t user,
                                        std::size_t k) {
  CUMF_EXPECTS(user < seen.rows(), "user out of range");
  CUMF_EXPECTS(x.cols() == theta.cols(), "factor dimension mismatch");
  std::vector<double> scores(seen.cols());
  dot_rows(x.row(user), theta, 0, seen.cols(), scores);
  SeenCursor rated(seen.row_cols(user));
  TopKSelector top(k);
  top.offer_unseen(0, scores, rated);
  return top.take_sorted();
}

}  // namespace cumf
