// Top-k recommendation.
//
// The implicit-feedback experiments (§V-F) are recommendation tasks: what
// matters is the *order* of items, not the squared error. These helpers
// compute top-k lists that exclude already-seen items.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "linalg/dense.hpp"
#include "simd/vec.hpp"
#include "sparse/csr.hpp"

namespace cumf {

/// Items scored for one user, best first.
struct ScoredItem {
  index_t item = 0;
  real_t score = 0;
  friend bool operator==(const ScoredItem&, const ScoredItem&) = default;
};

/// The items one user has already rated, as the union of up to two
/// item-sorted lists (a CSR row and a streamed overlay). Asked about items in
/// ascending order, it walks each list forward once, so a whole scan costs
/// O(rated + asked) however many items it covers.
class SeenCursor {
 public:
  explicit SeenCursor(std::span<const index_t> rated,
                      std::span<const index_t> streamed = {}) noexcept
      : rated_(rated), streamed_(streamed) {}

  /// Whether either list holds `item`. Successive calls must not ask about
  /// a smaller item than the one before.
  bool contains(index_t item) noexcept {
    const bool in_rated = advance_to(rated_, item);
    return advance_to(streamed_, item) || in_rated;
  }

 private:
  /// Drops the entries below `item` and reports whether `item` is next.
  static bool advance_to(std::span<const index_t>& list,
                         index_t item) noexcept {
    std::size_t i = 0;
    while (i < list.size() && list[i] < item) {
      ++i;
    }
    list = list.subspan(i);
    return !list.empty() && list.front() == item;
  }

  std::span<const index_t> rated_;
  std::span<const index_t> streamed_;
};

/// Bounded top-k selection under the ranking order (score descending, item
/// ascending on ties — a total order over distinct items with non-NaN
/// scores, so the selected set is unique regardless of offer order). A
/// k-element min-heap keeps memory at O(k) however many candidates stream
/// through.
class TopKSelector {
 public:
  explicit TopKSelector(std::size_t k) : k_(k) { heap_.reserve(k); }

  /// The ranking order. A NaN score is never better than anything, nor is
  /// anything better than it, so with NaN scores the kept set depends on
  /// the offer order; every ranking path therefore offers in item order.
  static bool better(const ScoredItem& a, const ScoredItem& b) noexcept {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  }

  void offer(index_t item, real_t score);

  /// The one selection routine of recommend_top_k and the serving layer:
  /// offers items first, first + 1, … with scores[i] rounded to real_t, in
  /// item order, skipping the items `seen` contains. Exactly the offers of
  /// that per-item loop change the heap, but once k items are kept a score
  /// that is not >= the worst kept one (NaN on either side included) cannot
  /// pass better(), so it is dropped without a look-up in `seen` or a call
  /// to offer(): the SIMD path tests 8 scores per compare, the scalar path
  /// one at a time, with the same answer. Successive calls (item shards)
  /// must cover ascending item ranges, as `seen` requires.
  void offer_unseen(index_t first, std::span<const double> scores,
                    SeenCursor& seen,
                    simd::KernelPath path = simd::kDefaultPath);

  std::size_t k() const noexcept { return k_; }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Destructive: returns the kept items best-first and empties the heap.
  std::vector<ScoredItem> take_sorted();

 private:
  /// offer() for a full heap; true when the candidate replaced the worst.
  bool replace_worst(const ScoredItem& candidate);

  std::size_t k_;
  std::vector<ScoredItem> heap_;  ///< min-heap: worst kept item at front
};

/// Top-k unseen items for `user`: scores every item with x_userᵀ θ_v
/// (batched via dot_rows) and selects through offer_unseen, excluding the
/// items of `seen.row_cols(user)`. Fewer than k items come back when fewer
/// are unseen.
std::vector<ScoredItem> recommend_top_k(const Matrix& x, const Matrix& theta,
                                        const CsrMatrix& seen, index_t user,
                                        std::size_t k);

}  // namespace cumf
