// The materialized load-trace replay, kept as a test oracle for gpusim's
// streamed one: every warp instruction built as its own sorted, deduplicated
// line vector, each block's whole stream materialized, the streams
// interleaved round-robin through a set-associative LRU that divides and
// takes a remainder per access and scans its ways with an early exit.
// Slow on purpose — an oracle, not a hot path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "gpusim/device.hpp"
#include "gpusim/trace.hpp"

namespace cumf::oracle {

/// Set-associative true-LRU cache: the reference for gpusim::CacheLevel.
class LruCache {
 public:
  LruCache(std::int64_t size_bytes, int line_bytes, int ways)
      : line_bytes_(line_bytes),
        ways_(ways),
        sets_(size_bytes / (static_cast<std::int64_t>(line_bytes) * ways)),
        tags_(static_cast<std::size_t>(sets_) * ways, 0),
        stamps_(tags_.size(), 0) {}

  bool access(std::uint64_t address) {
    const std::uint64_t line =
        address / static_cast<std::uint64_t>(line_bytes_);
    const std::uint64_t set = line % static_cast<std::uint64_t>(sets_);
    const std::uint64_t tag = line + 1;
    const std::size_t base = static_cast<std::size_t>(set) *
                             static_cast<std::size_t>(ways_);
    ++clock_;
    int victim = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag) {
        stamps_[base + w] = clock_;
        ++hits_;
        return true;
      }
      if (stamps_[base + w] < oldest) {
        oldest = stamps_[base + w];
        victim = w;
      }
    }
    tags_[base + victim] = tag;
    stamps_[base + victim] = clock_;
    ++misses_;
    return false;
  }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  int line_bytes_;
  int ways_;
  std::int64_t sets_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// One thread-block's load-phase instruction stream, built instruction by
/// instruction with a sort and unique each.
inline std::vector<gpusim::WarpInstruction> load_trace(
    const gpusim::DeviceSpec& dev, const gpusim::TraceConfig& config,
    std::span<const index_t> cols) {
  std::vector<gpusim::WarpInstruction> stream;
  const auto f = static_cast<std::uint64_t>(config.f);
  const auto col_bytes = f * sizeof(real_t);
  const auto lb = static_cast<std::uint64_t>(dev.cache_line_bytes);
  const int warp = dev.warp_size;
  const int warps_per_block = config.threads_per_block / warp;
  const auto col_base = [&](index_t v) {
    return config.theta_base + static_cast<std::uint64_t>(v) * col_bytes;
  };
  const auto finish = [&](gpusim::WarpInstruction& inst) {
    std::sort(inst.lines.begin(), inst.lines.end());
    inst.lines.erase(std::unique(inst.lines.begin(), inst.lines.end()),
                     inst.lines.end());
    stream.push_back(std::move(inst));
  };
  for (std::size_t batch = 0; batch < cols.size();
       batch += static_cast<std::size_t>(config.bin)) {
    const std::size_t batch_end =
        std::min(cols.size(), batch + static_cast<std::size_t>(config.bin));
    const auto batch_cols = cols.subspan(batch, batch_end - batch);
    if (config.coalesced) {
      const std::uint64_t step =
          static_cast<std::uint64_t>(warp) * sizeof(real_t);
      for (const index_t v : batch_cols) {
        const std::uint64_t base = col_base(v);
        for (std::uint64_t off = 0; off < col_bytes; off += step) {
          const std::uint64_t end = std::min(col_bytes, off + step);
          gpusim::WarpInstruction inst;
          for (std::uint64_t line = (base + off) / lb;
               line <= (base + end - 1) / lb; ++line) {
            inst.lines.push_back(line * lb);
          }
          finish(inst);
        }
      }
      continue;
    }
    const int segments = std::max(
        1, config.threads_per_block / static_cast<int>(batch_cols.size()));
    const auto seg_len = (f + static_cast<std::uint64_t>(segments) - 1) /
                         static_cast<std::uint64_t>(segments);
    for (std::uint64_t e = 0; e < seg_len; ++e) {
      for (int w = 0; w < warps_per_block; ++w) {
        gpusim::WarpInstruction inst;
        for (int lane = 0; lane < warp; ++lane) {
          const int t = w * warp + lane;
          const auto ci = static_cast<std::size_t>(t) % batch_cols.size();
          const auto seg =
              static_cast<std::uint64_t>(t) / batch_cols.size() % segments;
          const std::uint64_t elem = seg * seg_len + e;
          if (elem >= f) {
            continue;
          }
          const std::uint64_t addr =
              col_base(batch_cols[ci]) + elem * sizeof(real_t);
          inst.lines.push_back(addr / lb * lb);
        }
        if (!inst.lines.empty()) {
          finish(inst);
        }
      }
    }
  }
  return stream;
}

/// The whole replay: materialize every block's stream, then interleave
/// round-robin through an L1 (bypassed without l1_enabled) and the SM's
/// share of L2, exactly as gpusim::simulate_hermitian_load sizes them.
inline gpusim::TraceStats simulate_load(
    const gpusim::DeviceSpec& dev, const gpusim::TraceConfig& config,
    std::span<const std::vector<index_t>> rows_per_block) {
  std::vector<std::vector<gpusim::WarpInstruction>> streams;
  for (const auto& cols : rows_per_block) {
    streams.push_back(load_trace(dev, config, cols));
  }
  LruCache l1(config.l1_enabled ? dev.l1_bytes : dev.cache_line_bytes * 8,
              dev.cache_line_bytes, 8);
  LruCache l2(std::max<std::int64_t>(dev.l2_bytes / dev.sm_count,
                                     dev.cache_line_bytes * 64),
              dev.cache_line_bytes, 16);
  gpusim::TraceStats stats;
  stats.rows_simulated = rows_per_block.size();
  std::vector<std::size_t> cursor(streams.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t b = 0; b < streams.size(); ++b) {
      if (cursor[b] >= streams[b].size()) {
        continue;
      }
      const gpusim::WarpInstruction& inst = streams[b][cursor[b]++];
      progressed = true;
      ++stats.warp_instructions;
      int worst = 0;  // 0 = L1, 1 = L2, 2 = DRAM
      for (const std::uint64_t line : inst.lines) {
        ++stats.line_accesses;
        if (config.l1_enabled && l1.access(line)) {
          ++stats.l1_hits;
        } else if (l2.access(line)) {
          ++stats.l2_hits;
          worst = std::max(worst, 1);
        } else {
          ++stats.dram_accesses;
          worst = 2;
        }
      }
      ++(worst == 0   ? stats.inst_worst_l1
         : worst == 1 ? stats.inst_worst_l2
                      : stats.inst_worst_dram);
    }
  }
  return stats;
}

}  // namespace cumf::oracle
