// Set-associative LRU cache simulation.
//
// Solution 2 of the paper rests on a cache claim: under low occupancy the
// non-coalesced load pattern's working set fits in L1/L2, so the caches act
// as a "coalescing buffer" and the unconventional pattern wins. Rather than
// assert that, we simulate it: address traces of both load schemes run
// through this L1→L2 hierarchy and the measured hit rates feed the timing
// model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace cumf::gpusim {

struct CacheConfig {
  std::int64_t size_bytes = 0;
  int line_bytes = 128;
  int ways = 4;
};

/// One level of set-associative cache (1 to 16 ways) with true-LRU
/// replacement.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheConfig& config);

  /// Presents one line-aligned address; returns true on hit. Misses insert
  /// the line (allocate-on-miss) and evict the LRU way (the first empty way
  /// while the set is not full).
  bool access(std::uint64_t address);

  std::int64_t sets() const noexcept { return sets_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t accesses() const noexcept { return hits_ + misses_; }

 private:
  /// line % sets_. Line numbers and set counts below 2^32 take Lemire's
  /// direct remainder, ((M·line mod 2^64)·sets) >> 64 with M = ⌈2^64/sets⌉,
  /// which is exact for every 32-bit operand pair; larger ones divide.
  std::uint64_t set_of(std::uint64_t line) const noexcept {
    constexpr std::uint64_t kMax32 = 0xFFFFFFFF;
    if (line <= kMax32 && static_cast<std::uint64_t>(sets_) <= kMax32) {
      using u128 = unsigned __int128;
      return static_cast<std::uint64_t>(
          (static_cast<u128>(set_magic_ * line) *
           static_cast<std::uint64_t>(sets_)) >>
          64);
    }
    return line % static_cast<std::uint64_t>(sets_);
  }

  CacheConfig config_;
  int line_shift_ = 0;  ///< log2(line_bytes)
  std::int64_t sets_ = 0;
  std::uint64_t set_magic_ = 0;  ///< ⌈2^64/sets_⌉ (wraps to 0 for 1 set)
  std::vector<std::uint64_t> tags_;  ///< [set * ways + way]; 0 == invalid
  /// Per set, its way indices from most (low nibble) to least recently
  /// used, 4 bits each. Empty ways trail in ascending index order, so the
  /// LRU nibble names the first empty way while the set has one and the
  /// least recently used line once it is full.
  std::vector<std::uint64_t> orders_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Where a memory access was served from.
enum class MemLevel { L1, L2, Dram };

/// Two-level hierarchy; the L1 can be bypassed (the paper's noL1 / coalesced
/// configurations, matching CUDA's -dlcm=cg compile flag).
class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                 bool l1_enabled);

  MemLevel access(std::uint64_t address);
  /// Presents every line of one warp instruction in order; returns the
  /// level that served the slowest (the warp stalls for its worst line).
  MemLevel access(std::span<const std::uint64_t> lines);

  std::uint64_t served_by(MemLevel level) const;
  std::uint64_t accesses() const noexcept { return total_; }
  bool l1_enabled() const noexcept { return l1_enabled_; }

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  bool l1_enabled_;
  std::uint64_t total_ = 0;
  std::uint64_t from_l1_ = 0;
  std::uint64_t from_l2_ = 0;
  std::uint64_t from_dram_ = 0;
};

}  // namespace cumf::gpusim
