// Reference top-k for the ranking and serving differential tests: score
// every item with dot(), drop the rated ones through a std::set, sort by
// TopKSelector::better and keep the first k. No heap, no gate, no cursor —
// what the selection must equal. Valid for non-NaN scores only (better() is
// a strict weak order only there); NaN cases compare the production paths
// with each other.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "metrics/ranking.hpp"
#include "simd/vec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace cumf::topk_oracle {

inline std::vector<ScoredItem> top_k(std::span<const real_t> xu,
                                     const Matrix& theta,
                                     const std::set<index_t>& rated,
                                     std::size_t k, simd::KernelPath path) {
  std::vector<ScoredItem> all;
  for (index_t v = 0; v < theta.rows(); ++v) {
    if (rated.count(v) == 0) {
      all.push_back({v, static_cast<real_t>(dot(xu, theta.row(v), path))});
    }
  }
  std::sort(all.begin(), all.end(), TopKSelector::better);
  all.resize(std::min(k, all.size()));
  return all;
}

/// Θ whose rows repeat a few base rows, so equal scores (ties broken only
/// by the item id) land everywhere: across 8-lane chunks, shard edges and
/// the worst kept score.
inline Matrix tied_theta(std::size_t items, std::size_t f, std::uint64_t seed) {
  Rng rng(seed);
  Matrix theta(items, f);
  for (real_t& v : theta.data()) {
    v = static_cast<real_t>(rng.normal());
  }
  const auto copy_row = [&](std::size_t from, std::size_t to) {
    std::copy(theta.row(from).begin(), theta.row(from).end(),
              theta.row(to).begin());
  };
  for (std::size_t v = 1; v < items; ++v) {
    if (rng.uniform_index(3) == 0) {
      copy_row(rng.uniform_index(std::min<std::size_t>(v, 5)), v);
    }
  }
  // Ties on both sides of the first two 8-lane chunk edges.
  for (const std::size_t v : {7UL, 8UL, 15UL, 16UL}) {
    if (v < items) {
      copy_row(0, v);
    }
  }
  return theta;
}

/// Seen rows of every profile, cycling with the user id: empty, sparse
/// (≈10%), dense (≈90%) and complete.
inline CsrMatrix profiled_seen(index_t users, index_t items,
                               std::uint64_t seed) {
  constexpr std::size_t kPercent[] = {0, 10, 90, 100};
  Rng rng(seed);
  RatingsCoo coo(users, items);
  for (index_t u = 0; u < users; ++u) {
    const std::size_t percent = kPercent[u % 4];
    for (index_t v = 0; v < items; ++v) {
      if (rng.uniform_index(100) < percent) {
        coo.add(u, v, static_cast<real_t>(1 + rng.uniform_index(5)));
      }
    }
  }
  coo.sort_and_dedup();
  return CsrMatrix::from_coo(coo);
}

inline std::set<index_t> row_set(const CsrMatrix& seen, index_t user) {
  const auto cols = seen.row_cols(user);
  return {cols.begin(), cols.end()};
}

/// Items and score bit patterns equal (ScoredItem::operator== is false for
/// NaN scores).
inline bool same_bits(const std::vector<ScoredItem>& a,
                      const std::vector<ScoredItem>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ScoredItem& x, const ScoredItem& y) {
                      return x.item == y.item &&
                             std::bit_cast<std::uint32_t>(x.score) ==
                                 std::bit_cast<std::uint32_t>(y.score);
                    });
}

}  // namespace cumf::topk_oracle
