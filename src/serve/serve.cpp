#include "serve/serve.hpp"

#include <algorithm>
#include <string>

#include "core/als.hpp"
#include "core/hermitian.hpp"
#include "linalg/dense.hpp"
#include "prof/prof.hpp"

namespace cumf::serve {

// --- FactorCache ---

FactorCache::FactorCache(std::size_t capacity, std::size_t f)
    : capacity_(capacity), f_(f) {}

bool FactorCache::lookup(index_t user, std::span<real_t> out) {
  if (capacity_ == 0) {
    return false;
  }
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(user);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  std::copy(it->second.row.begin(), it->second.row.end(), out.begin());
  return true;
}

void FactorCache::insert(index_t user, std::span<const real_t> row) {
  if (capacity_ == 0) {
    return;
  }
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(user);
  if (it != entries_.end()) {
    it->second.row.assign(row.begin(), row.end());
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return;
  }
  if (entries_.size() >= capacity_) {
    const index_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(user);
  entries_.emplace(
      user, Entry{std::vector<real_t>(row.begin(), row.end()), lru_.begin()});
}

void FactorCache::invalidate(index_t user) {
  if (capacity_ == 0) {
    return;
  }
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(user);
  if (it != entries_.end()) {
    lru_.erase(it->second.recency);
    entries_.erase(it);
    ++stats_.invalidations;
  }
}

CacheStats FactorCache::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

// --- ServeEngine ---

namespace {

/// Equal-width contiguous item shards; every item belongs to exactly one.
std::vector<std::pair<std::size_t, std::size_t>> make_shards(
    std::size_t items, std::size_t shards) {
  shards = std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(
                                                         1, items)));
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = items * s / shards;
    const std::size_t end = items * (s + 1) / shards;
    out.emplace_back(begin, end);
  }
  return out;
}

}  // namespace

ServeEngine::ServeEngine(FactorModel model, CsrMatrix seen,
                         ServeOptions options)
    : options_(options),
      f_(model.x.cols()),
      base_users_(model.x.rows()),
      x_(std::move(model.x)),
      theta_(std::move(model.theta)),
      seen_(std::move(seen)),
      shards_(make_shards(theta_.rows(), options.shards)),
      cache_(options.cache_capacity, f_),
      solver_(f_, options.solver),
      a_scratch_(f_ * f_),
      b_scratch_(f_) {
  CUMF_EXPECTS(f_ > 0 && x_.cols() == theta_.cols(),
               "serve: factor matrices must share a positive latent dim");
  CUMF_EXPECTS(seen_.rows() == x_.rows() && seen_.cols() == theta_.rows(),
               "serve: seen matrix shape must match the factor shapes");
  CUMF_EXPECTS(options_.lambda > 0, "serve: fold-in lambda must be positive");
  hermitian_.tile = pick_tile(f_, hermitian_.tile);
  herm_ws_.prepare(f_, hermitian_);
}

std::span<const real_t> ServeEngine::user_row_locked(index_t user) const {
  if (user < base_users_) {
    return x_.row(user);
  }
  return {extra_x_.data() + (user - base_users_) * f_, f_};
}

std::span<real_t> ServeEngine::user_row_locked(index_t user) {
  if (user < base_users_) {
    return x_.row(user);
  }
  return {extra_x_.data() + (user - base_users_) * f_, f_};
}

const ServeEngine::StreamedRow* ServeEngine::overlay_row(index_t user) const {
  const auto it = overlay_.find(user);
  return it == overlay_.end() ? nullptr : &it->second;
}

std::vector<ScoredItem> ServeEngine::top_k(index_t user,
                                           std::size_t k) const {
  CUMF_PROF_SCOPE("serve_top_k", "serve");
  const std::shared_lock lock(mutex_);
  if (user >= users_locked()) {
    throw ServeError("serve: unknown user " + std::to_string(user) +
                     " (model has " + std::to_string(users_locked()) +
                     " users; fold new users in first)");
  }
  // Resolve x_u — through the hot cache when enabled. The cache copies the
  // row into a per-thread buffer, so a concurrent eviction of the entry can
  // never invalidate what this request scores with.
  thread_local std::vector<real_t> row_buf;
  thread_local std::vector<double> scores;
  std::span<const real_t> xu;
  if (cache_.enabled()) {
    row_buf.resize(f_);
    if (!cache_.lookup(user, row_buf)) {
      const auto row = user_row_locked(user);
      std::copy(row.begin(), row.end(), row_buf.begin());
      cache_.insert(user, row);
    }
    xu = row_buf;
  } else {
    xu = user_row_locked(user);
  }

  // One selector over the shards in item order: the offers are exactly
  // recommend_top_k's, whatever the shard count.
  const auto* streamed = overlay_row(user);
  SeenCursor seen(
      user < seen_.rows() ? seen_.row_cols(user) : std::span<const index_t>{},
      streamed != nullptr ? std::span<const index_t>(streamed->items)
                          : std::span<const index_t>{});
  TopKSelector top(k);
  for (const auto& [begin, end] : shards_) {
    scores.resize(end - begin);
    dot_rows(xu, theta_, begin, end, scores, options_.path);
    top.offer_unseen(static_cast<index_t>(begin), scores, seen,
                     options_.path);
  }
  return top.take_sorted();
}

void ServeEngine::upsert_overlay(index_t user, index_t item, real_t value) {
  auto& row = overlay_[user];
  const auto it = std::lower_bound(row.items.begin(), row.items.end(), item);
  const auto at = it - row.items.begin();
  if (it != row.items.end() && *it == item) {
    row.values[static_cast<std::size_t>(at)] = value;  // latest wins
  } else {
    row.items.insert(it, item);
    row.values.insert(row.values.begin() + at, value);
  }
}

void ServeEngine::refold_locked(index_t user) {
  CUMF_PROF_SCOPE("serve_fold_in", "serve");
  // Merge the base CSR row with the streamed overlay (overlay wins on a
  // re-rated item) into one item-sorted rating row.
  std::vector<index_t> cols;
  std::vector<real_t> vals;
  const std::span<const index_t> base_cols =
      user < seen_.rows() ? seen_.row_cols(user) : std::span<const index_t>{};
  const std::span<const real_t> base_vals =
      user < seen_.rows() ? seen_.row_vals(user) : std::span<const real_t>{};
  const auto* streamed = overlay_row(user);
  static const StreamedRow kEmpty;
  const auto& extra = streamed != nullptr ? *streamed : kEmpty;
  const std::size_t extra_n = extra.items.size();
  cols.reserve(base_cols.size() + extra_n);
  vals.reserve(base_cols.size() + extra_n);
  std::size_t bi = 0;
  std::size_t oi = 0;
  while (bi < base_cols.size() || oi < extra_n) {
    const bool take_overlay =
        bi >= base_cols.size() ||
        (oi < extra_n && extra.items[oi] <= base_cols[bi]);
    if (take_overlay) {
      if (bi < base_cols.size() && extra.items[oi] == base_cols[bi]) {
        ++bi;  // overlay shadows the base rating
      }
      cols.push_back(extra.items[oi]);
      vals.push_back(extra.values[oi]);
      ++oi;
    } else {
      cols.push_back(base_cols[bi]);
      vals.push_back(base_vals[bi]);
      ++bi;
    }
  }
  CUMF_ENSURES(!cols.empty(), "serve: refold of a user with no ratings");

  // The user's ALS-WR normal equations against the frozen Θ — the same
  // A_u/b_u training forms — solved through the degradation ladder.
  const auto row_nnz = static_cast<nnz_t>(cols.size());
  const CsrMatrix row = CsrMatrix::from_parts(
      1, static_cast<index_t>(theta_.rows()), {0, row_nnz}, std::move(cols),
      std::move(vals));
  get_hermitian_row(row, theta_, 0, options_.lambda, hermitian_, herm_ws_,
                    a_scratch_, b_scratch_, options_.path);
  // On failure the solver restores the entry factor and counts the system
  // in stats().failures — the service keeps answering from the old row.
  (void)solver_.solve(a_scratch_, b_scratch_, user_row_locked(user));
  cache_.invalidate(user);
}

void ServeEngine::observe(const Rating& rating) {
  const std::unique_lock lock(mutex_);
  if (rating.v >= theta_.rows()) {
    throw ServeError(
        "serve: rating for unknown item " + std::to_string(rating.v) +
        " (theta has " + std::to_string(theta_.rows()) +
        " items; new items need a re-batch, not fold-in)");
  }
  const index_t nusers = users_locked();
  if (rating.u > nusers) {
    throw ServeError("serve: new user ids must be contiguous (next id is " +
                     std::to_string(nusers) + ", got " +
                     std::to_string(rating.u) + ")");
  }
  if (rating.u == nusers) {
    extra_x_.insert(extra_x_.end(), f_, real_t{0});
  }
  upsert_overlay(rating.u, rating.v, rating.r);
  refold_locked(rating.u);
}

index_t ServeEngine::fold_in_user(std::span<const ItemRating> ratings) {
  if (ratings.empty()) {
    throw ServeError("serve: fold-in needs at least one rating");
  }
  const std::unique_lock lock(mutex_);
  for (const auto& [item, value] : ratings) {
    if (item >= theta_.rows()) {
      throw ServeError(
          "serve: fold-in rating for unknown item " + std::to_string(item) +
          " (theta has " + std::to_string(theta_.rows()) + " items)");
    }
  }
  const index_t user = users_locked();
  extra_x_.insert(extra_x_.end(), f_, real_t{0});
  for (const auto& [item, value] : ratings) {
    upsert_overlay(user, item, value);
  }
  refold_locked(user);
  return user;
}

index_t ServeEngine::users() const {
  const std::shared_lock lock(mutex_);
  return users_locked();
}

index_t ServeEngine::items() const {
  const std::shared_lock lock(mutex_);
  return static_cast<index_t>(theta_.rows());
}

std::vector<real_t> ServeEngine::user_factor(index_t user) const {
  const std::shared_lock lock(mutex_);
  CUMF_EXPECTS(user < users_locked(), "serve: user out of range");
  const auto row = user_row_locked(user);
  return {row.begin(), row.end()};
}

SolveStats ServeEngine::solve_stats() const {
  const std::shared_lock lock(mutex_);
  return solver_.stats();
}

}  // namespace cumf::serve
