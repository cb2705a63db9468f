#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>

namespace cumf::gpusim {

namespace {

bool is_pow2(std::int64_t x) noexcept { return x > 0 && (x & (x - 1)) == 0; }

constexpr std::uint64_t kNibbles = 0x1111111111111111;

/// A set's initial LRU order: way indices ways-1 down to 0 from most to
/// least recent, so way 0 fills first; unused nibbles are 0xF, which names
/// no way.
std::uint64_t initial_order(int ways) {
  std::uint64_t order = ~std::uint64_t{0};
  for (int p = 0; p < ways; ++p) {
    order &= ~(std::uint64_t{0xF} << (4 * p));
    order |= static_cast<std::uint64_t>(ways - 1 - p) << (4 * p);
  }
  return order;
}

/// One access to a set of `ways` ways (Ways of them when non-zero: a
/// compile-time count lets the tag scan vectorize). The scan covers every
/// way; tags in a set are distinct, so the sum selects at most one. A miss
/// fills the way at the LRU end of `order`; either way the accessed way
/// moves to the front. Returns true on a hit.
template <std::size_t Ways>
bool access_set(std::uint64_t* tags, std::uint64_t& order, std::size_t ways,
                std::uint64_t tag) {
  const std::size_t n = Ways > 0 ? Ways : ways;
  std::size_t hit = 0;  // 1 + the matching way, 0 on a miss
  for (std::size_t w = 0; w < n; ++w) {
    hit += tags[w] == tag ? w + 1 : 0;
  }
  std::uint64_t way = 0;
  int pos = 0;
  if (hit != 0) {
    // The hit way's position: the one nibble of order ^ way·0x11…1 that is
    // zero (no borrow reaches below the lowest zero nibble).
    way = hit - 1;
    const std::uint64_t x = order ^ (way * kNibbles);
    pos = std::countr_zero((x - kNibbles) & ~x & (kNibbles << 3)) / 4;
  } else {
    pos = static_cast<int>(n) - 1;
    way = order >> (4 * pos) & 0xF;
    tags[way] = tag;
  }
  // Move `way` to the front: the nibbles before `pos` shift back by one.
  const std::uint64_t before = (std::uint64_t{1} << (4 * pos)) - 1;
  order = (order & ~(before << 4 | 0xF)) | (order & before) << 4 | way;
  return hit != 0;
}

}  // namespace

CacheLevel::CacheLevel(const CacheConfig& config) : config_(config) {
  CUMF_EXPECTS(config_.size_bytes > 0, "cache size must be positive");
  CUMF_EXPECTS(is_pow2(config_.line_bytes), "line size must be a power of 2");
  CUMF_EXPECTS(config_.ways > 0 && config_.ways <= 16,
               "cache must have 1 to 16 ways");
  while ((1 << line_shift_) < config_.line_bytes) {
    ++line_shift_;
  }
  // Arbitrary set counts are allowed (real L1s are often non-power-of-two
  // when partitioned); indexing takes the remainder rather than a mask.
  sets_ = config_.size_bytes / (static_cast<std::int64_t>(config_.line_bytes) *
                                config_.ways);
  CUMF_EXPECTS(sets_ > 0, "cache smaller than one set");
  set_magic_ = ~std::uint64_t{0} / static_cast<std::uint64_t>(sets_) + 1;
  tags_.assign(static_cast<std::size_t>(sets_) * config_.ways, 0);
  orders_.assign(static_cast<std::size_t>(sets_),
                 initial_order(config_.ways));
}

bool CacheLevel::access(std::uint64_t address) {
  const std::uint64_t line = address >> line_shift_;
  const std::uint64_t tag = line + 1;  // +1 so tag 0 means "invalid"
  const auto ways = static_cast<std::size_t>(config_.ways);
  const auto set = static_cast<std::size_t>(set_of(line));
  std::uint64_t* const tags = tags_.data() + set * ways;
  std::uint64_t& order = orders_[set];
  bool hit = false;
  switch (ways) {
    case 8:  // the simulated L1
      hit = access_set<8>(tags, order, ways, tag);
      break;
    case 16:  // the simulated L2
      hit = access_set<16>(tags, order, ways, tag);
      break;
    default:
      hit = access_set<0>(tags, order, ways, tag);
      break;
  }
  ++(hit ? hits_ : misses_);
  return hit;
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                               bool l1_enabled)
    : l1_(l1), l2_(l2), l1_enabled_(l1_enabled) {}

MemLevel CacheHierarchy::access(std::uint64_t address) {
  ++total_;
  if (l1_enabled_ && l1_.access(address)) {
    ++from_l1_;
    return MemLevel::L1;
  }
  if (l2_.access(address)) {
    ++from_l2_;
    return MemLevel::L2;
  }
  ++from_dram_;
  return MemLevel::Dram;
}

MemLevel CacheHierarchy::access(std::span<const std::uint64_t> lines) {
  MemLevel worst = MemLevel::L1;
  for (const std::uint64_t line : lines) {
    worst = std::max(worst, access(line));
  }
  return worst;
}

std::uint64_t CacheHierarchy::served_by(MemLevel level) const {
  switch (level) {
    case MemLevel::L1:
      return from_l1_;
    case MemLevel::L2:
      return from_l2_;
    case MemLevel::Dram:
      return from_dram_;
  }
  return 0;
}

}  // namespace cumf::gpusim
